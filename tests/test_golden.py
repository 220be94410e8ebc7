"""Behaviour lock: the byte-exact CSV of one fixed campaign.

A refactor must keep this digest.  A change meant to alter results
updates it and says which rows moved and why.
"""

import csv
import hashlib

from ucran import ALGORITHMS, SimConfig, run_campaign

GOLDEN_SHA256 = "c1f8f06e42afa43d78e36dc5b49de67cb15b42036098f238c22084cf7a34522e"


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
DENSE_SHA256 = "119b11c9e5686c5b26380b51477380b0f35096293866c49b7a816dd253dace47"


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
