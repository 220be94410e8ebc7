"""Behaviour lock: the byte-exact CSV of one fixed campaign.

A refactor must keep this digest.  A change meant to alter results
updates it and says which rows moved and why.
"""

import csv
import hashlib

from ucran import ALGORITHMS, SimConfig, run_campaign

GOLDEN_SHA256 = "1fa1e9d7678a79e1114c29a324db2ff2bf0b36c7ada164c7febd550c304c067b"


def test_golden_campaign_csv(tmp_path):
    path = tmp_path / "golden.csv"
    run_campaign(SimConfig(), cluster_sizes=[2, 4], pilot_budgets=[4, 6, 8],
                 algorithms=ALGORITHMS, num_seeds=5, out_csv=path)
    data = path.read_bytes()
    with path.open(newline="") as fh:
        cases = {row["case_taken"] for row in csv.DictReader(fh) if row["seed"] != "mean"}
    assert {"case1", "case2", "exact", "base", "ortho"} <= cases
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256
