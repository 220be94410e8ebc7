import numpy as np
import pytest

from ucran import (
    CSV_HEADER,
    SimConfig,
    audit_solution,
    baseline_con,
    baseline_nocase2,
    baseline_ortho,
    build_base_graph,
    build_network,
    run_campaign,
    run_stage1,
    run_trial,
    validate_assignment,
    write_csv,
)
from ucran.harness import ALGORITHMS


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
    s1 = baseline_ortho(instance, pilot_budget=3, seed=0)
    assert s1.num_admitted == 3
    assert s1.case_taken == "ortho"
    pilots = [s1.assignment.pilot_of[int(k)] for k in s1.admitted]
    assert sorted(pilots) == [0, 1, 2]
    assert (np.diff(s1.admitted) > 0).all()
    again = baseline_ortho(instance, pilot_budget=3, seed=0)
    np.testing.assert_array_equal(s1.admitted, again.admitted)


def test_baseline_ortho_budget_beyond_population():
    config = _config()
    instance = build_network(config, seed=1)
    s1 = baseline_ortho(instance, pilot_budget=50, seed=1)
    assert s1.num_admitted == config.num_users
    assert s1.colors_used == config.num_users


def test_baseline_nocase2_removal_matches_proposed():
    # one pilot forces removals; both methods then share the same rule
    config = _config(pilot_count=1)
    instance = build_network(config, seed=2)
    proposed = run_stage1(instance, config.pilot_count, config.reuse_cap)
    assert proposed.case_taken == "case1"
    ablated = baseline_nocase2(instance, config.pilot_count, config.reuse_cap)
    np.testing.assert_array_equal(proposed.admitted, ablated.admitted)
    assert proposed.assignment.pilot_of == ablated.assignment.pilot_of
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
    base = build_base_graph(instance.clusters, s1.admitted)
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
    assert a.runtime_s > 0


def test_run_trial_unknown_algorithm():
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_trial(_config(), seed=0, algorithm="magic")


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
    assert report.seeds == (config.master_seed, config.master_seed + 1,
                            config.master_seed + 2)
    assert set(report.cells) == {("proposed", 2, 3), ("proposed", 3, 3),
                                 ("con", 2, 3), ("con", 3, 3)}
    cell = report.cells[("proposed", 2, 3)]
    manual = [t.stage2_served for t in report.trials
              if t.algorithm == "proposed" and t.cluster_size == 2]
    assert cell.n == 3
    assert cell.mean_served == pytest.approx(np.mean(manual))


def test_campaign_single_seed_stats_degenerate():
    report = run_campaign(_config(), cluster_sizes=[2], pilot_budgets=[3],
                          algorithms=("proposed",), num_seeds=1)
    cell = report.cells[("proposed", 2, 3)]
    assert cell.n == 1
    assert cell.mean_served == report.trials[0].stage2_served


def test_campaign_rejects_bad_inputs():
    with pytest.raises(ValueError):
        run_campaign(_config(), [2], [3], num_seeds=0)
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_campaign(_config(), [2], [3], algorithms=("nope",), num_seeds=1)


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
    for row in trial_rows:
        assert row[0] == "proposed"
        assert int(row[3]) in report.seeds
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
