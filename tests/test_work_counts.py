"""Pinned work counts of small fixed campaigns, taken by the benchmark's tracer.

The work a campaign does is deterministic: colorings and their vertices,
removal rounds, spread probes, channel states, admission rounds, drops,
beam user solves and power outcomes read the same on every run, on any
host.  This test runs each campaign under ``perfbench/spans.py``'s
``Tracer`` and compares the counts the benchmark reports (its ``counts``:
the integer per-layer metrics, ``stage2.rounds`` among them, and the
tracer's own counters) and the call count of every span name against
pinned values.  A change that alters a count updates its pin and names
the move in CHANGES.md, as for the golden digests.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from ucran import ALGORITHMS, SimConfig, run_campaign, run_trial

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# name -> (config, cluster sizes, pilot budgets, algorithms, seeds)
CAMPAIGNS = {
    "dense-admission": (SimConfig(num_rrhs=324, num_users=216, master_seed=1),
                        (4,), (64,), ("proposed",), 1),
    "dense-removal": (SimConfig(num_rrhs=324, num_users=216, master_seed=1),
                      (4,), (8,), ("proposed", "con"), 1),
    "grid-default": (SimConfig(master_seed=1), (2, 4, 6), (4, 8), ALGORITHMS, 2),
}

PINNED_COUNTS = {
    "dense-admission": {
        "channel.calls": 1, "coloring.dsatur.calls": 16, "coloring.dsatur.vertices": 3456,
        "conflict_graph.base_graph.calls": 1, "conflict_graph.score.calls": 0,
        "conflict_graph.threshold_graph.calls": 15, "conflict_graph.weights.calls": 1,
        "stage1.case.case2": 1, "stage1.removal_rounds": 0, "stage1.spread_probes": 15,
        "stage2.beam.calls": 11, "stage2.beam.user_solves": 2056, "stage2.drops": 55,
        "stage2.power.calls": 55, "stage2.power.ceiling": 54, "stage2.power.feasible": 1,
        "stage2.power.margin": 0, "stage2.power.no_convergence": 0,
        "stage2.power.rrh_cap": 0, "stage2.rounds": 11, "topology.calls": 1,
    },
    "dense-removal": {
        "channel.calls": 2, "coloring.dsatur.calls": 3, "coloring.dsatur.vertices": 280,
        "conflict_graph.base_graph.calls": 1, "conflict_graph.score.calls": 0,
        "conflict_graph.threshold_graph.calls": 0, "conflict_graph.weights.calls": 1,
        "stage1.case.case1": 2, "stage1.removal_rounds": 368, "stage1.spread_probes": 0,
        "stage2.beam.calls": 2, "stage2.beam.user_solves": 64, "stage2.drops": 0,
        "stage2.power.calls": 2, "stage2.power.ceiling": 0, "stage2.power.feasible": 2,
        "stage2.power.margin": 0, "stage2.power.no_convergence": 0,
        "stage2.power.rrh_cap": 0, "stage2.rounds": 2, "topology.calls": 1,
    },
    "grid-default": {
        "channel.calls": 48, "coloring.dsatur.calls": 112, "coloring.dsatur.vertices": 1944,
        "conflict_graph.base_graph.calls": 6, "conflict_graph.score.calls": 0,
        "conflict_graph.threshold_graph.calls": 25, "conflict_graph.weights.calls": 6,
        "stage1.case.base": 3, "stage1.case.case1": 27, "stage1.case.case2": 6,
        "stage1.case.ortho": 12, "stage1.removal_rounds": 230, "stage1.spread_probes": 25,
        "stage2.beam.calls": 155, "stage2.beam.user_solves": 2561, "stage2.drops": 120,
        "stage2.power.calls": 155, "stage2.power.ceiling": 76, "stage2.power.feasible": 48,
        "stage2.power.margin": 30, "stage2.power.no_convergence": 0,
        "stage2.power.rrh_cap": 1, "stage2.rounds": 155, "topology.calls": 6,
    },
}

PINNED_CALLS = {
    "dense-admission": {
        "channel": 1, "coloring.dsatur": 16, "conflict_graph.base_graph": 1,
        "conflict_graph.threshold_graph": 15, "conflict_graph.weights": 1,
        "harness.checks": 2, "harness.trial": 1, "stage1": 1, "stage1.spread": 1,
        "stage2": 1, "stage2.beam": 11, "stage2.fronthaul": 11, "stage2.power": 55,
        "stage2.power_share": 11, "stage2.rate_coeffs": 11, "stage2.rate_lb": 1,
        "topology": 1,
    },
    "dense-removal": {
        "channel": 2, "coloring.dsatur": 3, "conflict_graph.base_graph": 1,
        "conflict_graph.degrees": 1, "conflict_graph.weights": 1, "harness.checks": 4,
        "harness.trial": 2, "stage1": 2, "stage1.removal": 2, "stage2": 2, "stage2.beam": 2,
        "stage2.fronthaul": 2, "stage2.power": 2, "stage2.power_share": 2,
        "stage2.rate_coeffs": 2, "stage2.rate_lb": 2, "topology": 1,
    },
    "grid-default": {
        "channel": 48, "coloring.dsatur": 112, "conflict_graph.base_graph": 6,
        "conflict_graph.degrees": 9, "conflict_graph.threshold_graph": 25,
        "conflict_graph.weights": 6, "harness.checks": 120, "harness.trial": 60,
        "stage1": 60, "stage1.removal": 18, "stage1.spread": 3, "stage2": 48,
        "stage2.beam": 155, "stage2.fronthaul": 155, "stage2.power": 155,
        "stage2.power_share": 155, "stage2.rate_coeffs": 155, "stage2.rate_lb": 48,
        "topology": 6,
    },
}


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _traced(name):
    """(counts as the benchmark reports them, calls per span name)."""
    spans = _spans()
    config, sizes, budgets, algorithms, seeds = CAMPAIGNS[name]
    with spans.Tracer() as tracer:
        run_campaign(config, sizes, budgets, algorithms=algorithms, num_seeds=seeds)
    metrics = spans.layer_metrics(spans.summarize(tracer.spans), tracer.counts)
    counts = {k: v for k, v in metrics.items() if isinstance(v, int)}
    counts.update(tracer.counts)
    return counts, dict(Counter(span[3] for span in tracer.spans))


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_work_counts_are_pinned(name):
    counts, calls = _traced(name)
    assert counts == PINNED_COUNTS[name]
    assert calls == PINNED_CALLS[name]


def test_a_lone_ortho_trial_makes_no_coloring():
    # orthogonal pilots read no conflict graph: a trial run alone colors nothing
    spans = _spans()
    with spans.Tracer() as tracer:
        run_trial(SimConfig(), 1, "ortho")
    assert Counter(span[3] for span in tracer.spans)["coloring.dsatur"] == 0
