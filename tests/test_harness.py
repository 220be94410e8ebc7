import dataclasses
import warnings

import numpy as np
import pytest

from ucran import (
    ALGORITHMS,
    SimConfig,
    build_base_graph,
    build_network,
    dsatur_color,
    run_campaign,
    run_stage1,
    run_trial,
    validate_assignment,
    write_csv,
)
from ucran.harness import (
    CSV_HEADER,
    audit_solution,
    baseline_con,
    baseline_nocase2,
    baseline_ortho,
)
from ucran.stage2 import AdmissionSolution, LocalBeams


def _config(**overrides) -> SimConfig:
    base = dict(num_rrhs=9, num_users=6, cluster_size=2, pilot_count=3,
                reuse_cap=2, area_side=300.0, rate_req=1.0,
                rrh_power_cap=500.0, fronthaul_cap=2)
    base.update(overrides)
    return SimConfig(**base)


# --------------------------------------------------------------- baselines

def test_baseline_ortho_picks_budget_many_distinct_pilots():
    config = _config()
    instance = build_network(config, seed=0)
    s1 = baseline_ortho(instance, pilot_budget=3, reuse_cap=config.reuse_cap, seed=0)
    assert s1.num_admitted == 3
    assert s1.case_taken == "ortho"
    pilots = s1.assignment.pilots[s1.admitted].tolist()
    assert sorted(pilots) == [0, 1, 2]
    assert (np.diff(s1.admitted) > 0).all()
    again = baseline_ortho(instance, pilot_budget=3, reuse_cap=config.reuse_cap, seed=0)
    np.testing.assert_array_equal(s1.admitted, again.admitted)


def test_baseline_ortho_budget_beyond_population():
    config = _config()
    instance = build_network(config, seed=1)
    s1 = baseline_ortho(instance, pilot_budget=50, reuse_cap=config.reuse_cap, seed=1)
    assert s1.num_admitted == config.num_users
    assert s1.colors_used == config.num_users


def test_baseline_ortho_reports_base_colors_under_the_reuse_cap():
    # default scenario, seed 5: the base graph needs 5 colors without a
    # cap but 7 under the configured cap of 4
    config = SimConfig()
    instance = build_network(config, seed=5)
    base = build_base_graph(instance.clusters)
    assert dsatur_color(base, config.num_users).num_pilots == 5
    ortho = baseline_ortho(instance, config.pilot_count, config.reuse_cap, seed=5)
    proposed = run_stage1(instance, config.pilot_count, config.reuse_cap)
    assert ortho.base_colors == proposed.base_colors == 7


def test_baseline_nocase2_removal_matches_proposed():
    # one pilot forces removals; both methods then share the same rule
    config = _config(pilot_count=1)
    instance = build_network(config, seed=2)
    proposed = run_stage1(instance, config.pilot_count, config.reuse_cap)
    assert proposed.case_taken == "case1"
    ablated = baseline_nocase2(instance, config.pilot_count, config.reuse_cap)
    np.testing.assert_array_equal(proposed.admitted, ablated.admitted)
    np.testing.assert_array_equal(proposed.assignment.pilots, ablated.assignment.pilots)
    assert proposed.removal_trace == ablated.removal_trace


def test_baseline_nocase2_keeps_base_coloring_under_budget():
    config = _config(pilot_count=6)
    instance = build_network(config, seed=3)
    s1 = baseline_nocase2(instance, config.pilot_count, config.reuse_cap)
    assert s1.case_taken == "base"
    assert s1.colors_used == s1.base_colors < config.pilot_count
    assert s1.num_admitted == config.num_users
    proposed = run_stage1(instance, config.pilot_count, config.reuse_cap)
    assert proposed.case_taken == "case2"
    assert proposed.colors_used >= s1.colors_used


def test_baseline_con_random_removal_valid_and_deterministic():
    config = _config(pilot_count=1)
    instance = build_network(config, seed=4)
    s1 = baseline_con(instance, config.pilot_count, config.reuse_cap, seed=4)
    assert s1.case_taken == "case1"
    assert len(s1.removal_trace) > 0
    together = sorted(list(s1.admitted) + list(s1.removal_trace))
    assert together == list(range(config.num_users))
    assert s1.colors_used <= config.pilot_count
    base = build_base_graph(instance.clusters).restrict(s1.admitted)
    validate_assignment(base, s1.assignment, config.reuse_cap)
    again = baseline_con(instance, config.pilot_count, config.reuse_cap, seed=4)
    np.testing.assert_array_equal(s1.admitted, again.admitted)
    assert s1.removal_trace == again.removal_trace


def test_baseline_con_defers_when_within_budget():
    config = _config(pilot_count=6)
    instance = build_network(config, seed=5)
    s1 = baseline_con(instance, config.pilot_count, config.reuse_cap, seed=5)
    assert s1.case_taken == "base"
    assert s1.num_admitted == config.num_users


# ------------------------------------------------------------------ trials

def test_run_trial_row_is_repeatable():
    config = _config()
    a = run_trial(config, seed=0, algorithm="proposed")
    b = run_trial(config, seed=0, algorithm="proposed")
    assert a.csv_row() == b.csv_row()


@pytest.mark.parametrize("rate_req", [1e-9, 1e-15, 1e-300])
def test_run_trial_meets_tiny_rate_requirements(rate_req):
    # 2**r - 1 and log2(1 + sinr) cancel to ~1e-7 relative error at these
    # rates, more than the power-control target margin
    result = run_trial(SimConfig(rate_req=rate_req), seed=0, algorithm="proposed")
    assert result.stage2_served > 0
    assert result.min_rate >= rate_req


def test_ortho_on_underflowing_gains_serves_nobody_cleanly():
    # every gain underflows to zero, so the pairwise weights are not finite
    # and the other algorithms' stage 1 raises; ortho never reads them, and
    # stage 2 drops each of its pilot holders in turn
    config = SimConfig(num_rrhs=6, num_users=4, cluster_size=2, pathloss_intercept=4000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result, s1, solution = run_trial(config, seed=0, algorithm="ortho",
                                         return_details=True)
    assert s1.case_taken == "ortho"
    np.testing.assert_array_equal(s1.admitted, [0, 1, 2, 3])
    assert solution.removal_trace == (0, 1, 2, 3)
    assert result.stage2_served == solution.num_served == 0
    assert audit_solution(solution, config) == []


def test_run_trial_unknown_algorithm():
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_trial(_config(), seed=0, algorithm="magic")


def test_run_trial_rejects_a_non_integer_seed():
    # int(1.5) would run seed 1 under the label 1.5
    with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
        run_trial(SimConfig(), 1.5, "proposed")


# ------------------------------------------------------------------- audit

def _clean_solution() -> AdmissionSolution:
    """Three users on RRHs 0-2 under ``_config()``: each RRH serves at most
    two of them, user 2 has lost RRH 1 to the fronthaul cap, every beam has
    unit norm and every rate and power meets its bound."""
    weights = np.full((3, 2, 2), 0.5, dtype=complex)
    weights[2, 0] = 0.0
    weights[2, 1] = np.sqrt(0.5)
    beams = LocalBeams(rrhs=np.array([[0, 1], [1, 2], [1, 2]]),
                       valid=np.array([[True, True], [True, True], [False, True]]),
                       weights=weights, num_rrhs=9)
    return AdmissionSolution(served=np.array([0, 1, 2]), beams=beams,
                             powers=np.array([1.0, 2.0, 3.0]),
                             rates=np.array([1.5, 2.0, 1.0]),
                             per_rrh_power=np.array([10.0, 20.0, 500.0] + [0.0] * 6),
                             removal_trace=(4,))


def _broken(what: str) -> AdmissionSolution:
    solution = _clean_solution()
    beams = solution.beams
    if what == "fronthaul":
        valid = beams.valid.copy()
        valid[2, 0] = True      # a third user on RRH 1
        return dataclasses.replace(solution, beams=dataclasses.replace(beams, valid=valid))
    if what == "norm":
        weights = beams.weights.copy()
        weights[1] *= 1.0 + 1e-6
        return dataclasses.replace(solution, beams=dataclasses.replace(beams, weights=weights))
    if what == "rate":
        return dataclasses.replace(solution, rates=np.array([1.5, 0.999, 1.0]))
    if what == "power":
        per_rrh_power = solution.per_rrh_power.copy()
        per_rrh_power[4] = 500.5
        return dataclasses.replace(solution, per_rrh_power=per_rrh_power)
    assert what == "negative"
    return dataclasses.replace(solution, powers=np.array([1.0, -1e-12, 3.0]))


def test_audit_passes_a_clean_solution():
    assert audit_solution(_clean_solution(), _config()) == []


@pytest.mark.parametrize("what,message", [
    ("fronthaul", "fronthaul cap exceeded: max load 3"),
    ("norm", "beam directions are not unit norm"),
    ("rate", "rate below requirement: min 0.999000"),
    ("power", "per-RRH power cap exceeded: max 500.500000"),
    ("negative", "negative transmit power"),
])
def test_audit_reports_each_broken_constraint(what, message):
    assert audit_solution(_broken(what), _config()) == [message]


def test_run_trial_details_consistent_with_row():
    config = _config()
    result, s1, solution = run_trial(config, seed=1, algorithm="proposed",
                                     return_details=True)
    assert audit_solution(solution, config) == []
    assert result.stage1_admitted == s1.num_admitted
    assert result.stage2_served == solution.num_served
    assert result.colors_used == s1.colors_used
    assert result.case_taken == s1.case_taken
    if solution.num_served:
        assert result.min_rate == pytest.approx(float(solution.rates.min()))
        assert result.mean_rate == pytest.approx(float(solution.rates.mean()))
    assert result.max_rrh_power_mw == pytest.approx(float(solution.per_rrh_power.max()))


def test_run_trial_perfect_shares_stage1_with_proposed():
    config = _config()
    imperfect = run_trial(config, seed=2, algorithm="proposed")
    perfect = run_trial(config, seed=2, algorithm="perfect")
    assert imperfect.stage1_admitted == perfect.stage1_admitted
    assert imperfect.case_taken == perfect.case_taken


def test_run_trial_all_algorithms_complete():
    config = _config()
    for algorithm in ALGORITHMS:
        result = run_trial(config, seed=3, algorithm=algorithm)
        assert 0 <= result.stage2_served <= result.stage1_admitted


# --------------------------------------------------------------- campaigns

def test_campaign_shape_and_stats():
    config = _config()
    report = run_campaign(config, cluster_sizes=[2, 3], pilot_budgets=[3],
                          algorithms=("proposed", "con"), num_seeds=3)
    assert len(report.trials) == 2 * 2 * 1 * 3
    assert set(report.cells) == {("proposed", 2, 3), ("proposed", 3, 3),
                                 ("con", 2, 3), ("con", 3, 3)}
    # every cell runs the same seed list, one trial per seed
    seeds = [config.master_seed, config.master_seed + 1, config.master_seed + 2]
    for key in report.cells:
        assert [t.seed for t in report.trials
                if (t.algorithm, t.cluster_size, t.pilot_budget) == key] == seeds
    cell = report.cells[("proposed", 2, 3)]
    manual = [t.stage2_served for t in report.trials
              if t.algorithm == "proposed" and t.cluster_size == 2]
    assert cell.mean_served == pytest.approx(np.mean(manual))


def test_campaign_single_seed_stats_degenerate():
    report = run_campaign(_config(), cluster_sizes=[2], pilot_budgets=[3],
                          algorithms=("proposed",), num_seeds=1)
    cell = report.cells[("proposed", 2, 3)]
    assert len(report.trials) == 1
    assert cell.mean_served == report.trials[0].stage2_served


def test_campaign_rejects_bad_inputs():
    for num_seeds in (0, 2.5, True):
        with pytest.raises(ValueError,
                           match=f"num_seeds must be an integer >= 1, got {num_seeds}"):
            run_campaign(_config(), [2], [3], num_seeds=num_seeds)
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_campaign(_config(), [2], [3], algorithms=("nope",), num_seeds=1)


@pytest.mark.parametrize("sweep,message", [
    (dict(cluster_sizes=[2, 99]), "cluster_size cannot exceed num_rrhs"),
    (dict(pilot_budgets=[3, 0]), "pilot_count must be >= 1, got 0"),
    (dict(algorithms=("proposed", "magic")), "unknown algorithm 'magic'"),
], ids=["cluster_size", "pilot_budget", "algorithm"])
def test_campaign_rejects_a_bad_sweep_entry_before_any_trial(sweep, message, monkeypatch):
    calls = []
    monkeypatch.setattr("ucran.harness.run_trial", lambda *args: calls.append(args))
    arguments = dict(cluster_sizes=[2], pilot_budgets=[3], algorithms=("proposed",))
    with pytest.raises(ValueError, match=message):
        run_campaign(_config(), **{**arguments, **sweep}, num_seeds=5)
    assert calls == []


def test_campaign_csv_bit_identical_across_runs(tmp_path):
    config = _config()
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    run_campaign(config, [2], [3], algorithms=("proposed", "ortho"),
                 num_seeds=2, out_csv=first)
    run_campaign(config, [2], [3], algorithms=("proposed", "ortho"),
                 num_seeds=2, out_csv=second)
    assert first.read_bytes() == second.read_bytes()


def test_campaign_csv_layout(tmp_path):
    import csv as csvmod

    config = _config()
    path = tmp_path / "out.csv"
    report = run_campaign(config, [2], [3], algorithms=("proposed",),
                          num_seeds=2, out_csv=path)
    with path.open() as fh:
        rows = list(csvmod.reader(fh))
    assert tuple(rows[0]) == CSV_HEADER
    assert len(rows) == 1 + len(report.trials) + len(report.cells)
    trial_rows = rows[1:1 + len(report.trials)]
    assert [int(row[3]) for row in trial_rows] == [config.master_seed, config.master_seed + 1]
    for row in trial_rows:
        assert row[0] == "proposed"
        assert int(row[5]) <= int(row[4])
    aggregate = rows[1 + len(report.trials):]
    for row in aggregate:
        assert row[3] == "mean"
        assert row[6] == ""


def test_write_csv_reports_path_on_failure(tmp_path):
    report = run_campaign(_config(), [2], [3], algorithms=("proposed",),
                          num_seeds=1)
    bad = tmp_path / "missing" / "out.csv"
    with pytest.raises(OSError, match=str(bad)):
        write_csv(report, bad)
