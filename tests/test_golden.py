"""Behaviour lock: the byte-exact CSV of one fixed campaign.

A refactor must keep this digest.  A change meant to alter results
updates it and says which rows moved and why.
"""

import csv
import hashlib

from ucran import ALGORITHMS, SimConfig, run_campaign

GOLDEN_SHA256 = "d289183dac7103cae02393f203772960b521450f961fb34124cb135058eec903"


def test_golden_campaign_csv(tmp_path):
    path = tmp_path / "golden.csv"
    run_campaign(SimConfig(), cluster_sizes=[2, 4], pilot_budgets=[4, 6, 8],
                 algorithms=ALGORITHMS, num_seeds=5, out_csv=path)
    data = path.read_bytes()
    with path.open(newline="") as fh:
        cases = {row["case_taken"] for row in csv.DictReader(fh) if row["seed"] != "mean"}
    assert {"case1", "case2", "exact", "base", "ortho"} <= cases
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256


# The dense point: 324 RRHs and 216 users, where case 1 removes most users,
# case 2 spreads 64 pilots and the admission loop drops dozens.
DENSE_SHA256 = "e9b2ba0f94bfebc9d1e9d7cc84408a1d93cb21dbb48315fcc31e0b63eb7d5ee8"


def test_golden_dense_campaign_csv(tmp_path):
    path = tmp_path / "dense.csv"
    run_campaign(SimConfig(num_rrhs=324, num_users=216), cluster_sizes=[4],
                 pilot_budgets=[8, 64], algorithms=("proposed", "con"), num_seeds=1,
                 out_csv=path)
    data = path.read_bytes()
    with path.open(newline="") as fh:
        cases = {row["case_taken"] for row in csv.DictReader(fh) if row["seed"] != "mean"}
    assert cases == {"case1", "case2", "base"}
    assert hashlib.sha256(data).hexdigest() == DENSE_SHA256
