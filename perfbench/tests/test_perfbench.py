"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

harness = worker.import_ucran()
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def smoke_result(trace: int, seed: int = 5):
    proc = run_bench("--workload", "smoke", "--seed", str(seed), "--seconds", "0.5",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    *_, details, result = proc.stdout.strip().splitlines()
    return json.loads(details), json.loads(result)


def traced_smoke_pass():
    campaign = worker.Campaign(harness, WORKLOADS["smoke"], 7, "test")
    worker.OUT_DIR.mkdir(exist_ok=True)
    with spans.Tracer() as tracer, tracer.span(spans.CAMPAIGN):
        campaign.run_pass()
    return tracer


def test_wrappers_restore_originals():
    modules = {name: __import__(name, fromlist=["_"]) for name, _, _ in spans.TARGETS}
    originals = {(m, f): getattr(modules[m], f) for m, f, _ in spans.TARGETS}
    with pytest.raises(KeyError):
        with spans.Tracer() as tracer:
            assert not tracer.missing
            for (m, f), original in originals.items():
                assert getattr(modules[m], f) is not original
            raise KeyError("leave the block by an exception")
    for (m, f), original in originals.items():
        assert getattr(modules[m], f) is original


def test_metric_names_are_valid_and_match_the_benchmark():
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric["name"]
    produced = set(spans.layer_metrics(spans.summarize([]), Counter()))
    produced.add("trace.overhead_frac")
    assert {m["name"] for m in DECLARED["per_layer"]} == produced
    assert {w["name"] for w in DECLARED["workloads"]} <= set(WORKLOADS)


def test_spans_nest_and_self_time_is_within_total():
    tracer = traced_smoke_pass()
    by_id = {s[0]: s for s in tracer.spans}
    child = Counter()
    for span_id, parent, trial, name, start, end in tracer.spans:
        assert end >= start
        if parent is not None:
            outer = by_id[parent]
            assert outer[4] <= start and end <= outer[5]
            child[parent] += end - start
        if name not in (spans.CAMPAIGN, "harness.csv"):
            assert trial is not None, name
    for span_id, _, _, _, start, end in tracer.spans:
        assert 0.0 <= (end - start) - child[span_id] <= end - start
    for row in spans.summarize(tracer.spans)["names"].values():
        assert row["self_s"] <= row["s"] + 1e-9
    attributed = spans.layer_metrics(spans.summarize(tracer.spans), tracer.counts)
    assert attributed["trace.attributed_frac"] >= 0.9


def test_power_oracle_accepts_the_fixed_point_and_rejects_a_perturbed_one():
    from ucran.stage2 import power_allocation_fixed_point
    signal, self_err = np.array([1.3, 0.8]), np.array([0.04, 0.02])
    cross = np.array([[0.0, 0.12], [0.2, 0.0]])
    result = power_allocation_fixed_point(signal, self_err, cross, 3.0, 0.05,
                                          np.full((4, 2), 0.25), 1e9)
    gamma = 3.0 * (1.0 + 1e-7)
    assert result.feasible
    check = (signal, self_err, cross, gamma, 0.05)
    assert spans.power_oracle_error(*check, result.powers, 1e-8) <= 1.0
    assert spans.power_oracle_error(*check, result.powers * (1 + 1e-6), 1e-8) > 1.0
    assert spans.power_oracle_error(*check, result.powers, 0.0) > 1.0


def test_a_raising_trial_is_counted_as_failed():
    from hostspeed import HostSpeed
    from workloads import Workload
    broken = Workload(name="broken", why="unknown algorithm", algorithms=("bogus",),
                      cluster_sizes=(4,), pilot_budgets=(4,), seeds_per_pass=2)
    result = worker.measure(worker.Campaign(harness, broken, 1, "test"), 0.1,
                            trace=False, speed=HostSpeed())
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert result["problems"]


def test_smoke_end_to_end_run_reports_every_declared_metric():
    details, result = smoke_result(trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert len(details["csv_sha256"]) == 1 and details["failed_frac"] == 0.0


def test_smoke_traced_counts_repeat_exactly():
    first_details, first = smoke_result(trace=1)
    second_details, second = smoke_result(trace=1)
    assert first["correct"] and second["correct"]
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
              for r in (first, second)]
    assert counts[0] == counts[1]
    assert first_details["counts"] == second_details["counts"]
    assert first_details["csv_sha256"] == second_details["csv_sha256"]
    assert first_details["power_oracle"]["checked"] > 0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "smoke", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
