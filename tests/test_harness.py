import dataclasses
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import ucran.channel
import ucran.harness
import ucran.stage1
import ucran.topology
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
from ucran.channel import ChannelState
from ucran.harness import (
    CSV_HEADER,
    audit_solution,
    baseline_con,
    baseline_nocase2,
    baseline_ortho,
)
from ucran.stage1 import base_coloring
from ucran.stage2 import AdmissionSolution, LocalBeams, build_holder_table, enforce_fronthaul_cap
from ucran.topology import STREAM_BASELINE, build_clusters, stream_key, stream_rng, uniforms


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
    # the holders are the users with the smallest baseline draws
    draws = uniforms(0, STREAM_BASELINE, np.arange(config.num_users))[0]
    assert set(s1.admitted.tolist()) == set(np.argsort(draws)[:3].tolist())
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


def test_baseline_ortho_rejects_bad_budget():
    instance = build_network(SimConfig(), seed=0)
    for budget in (0, -1, 4.5, True, np.float64(3.0)):
        with pytest.raises(ValueError, match="^pilot_budget must be an integer >= 1, got "):
            baseline_ortho(instance, budget, reuse_cap=4, seed=0)
    assert baseline_ortho(instance, np.int64(2), reuse_cap=4, seed=0).num_admitted == 2


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


@pytest.mark.parametrize("field,value,plain", [
    ("rate_req", np.float32(4.0), 4.0),
    ("rate_req", np.longdouble(4.0), 4.0),
    ("pilot_power", np.float32(200.0), 200.0),
    ("pilot_power", np.float16(200.0), 200.0),
    ("pilot_power", Fraction(200), 200.0),
    ("noise_power", Fraction(10.0 ** -10.4), 10.0 ** -10.4),
    ("shadowing_stddev", Fraction(8), 8.0),
    ("min_distance", Fraction(1), 1.0),
    ("pathloss_exponent", Fraction(37.6), 37.6),
    ("num_users", np.int64(24), 24),
], ids=lambda v: type(v).__name__ if not isinstance(v, str) else v)
def test_a_number_gives_the_same_trial_whatever_its_type(field, value, plain):
    assert value == plain
    for algorithm in ("proposed", "ortho", "perfect"):
        for seed in range(3):
            rows = [run_trial(SimConfig(**{field: number}), seed, algorithm).csv_row()
                    for number in (value, plain)]
            assert rows[0] == rows[1], (algorithm, seed)


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
    assert audit_solution(solution, config, s1.admitted) == []


def test_run_trial_unknown_algorithm():
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_trial(_config(), seed=0, algorithm="magic")


def test_run_trial_rejects_a_non_integer_seed():
    # int(1.5) would run seed 1 under the label 1.5
    with pytest.raises(ValueError, match="seed must be an integer >= 0, got 1.5"):
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
    if what == "served and dropped":
        return dataclasses.replace(solution, removal_trace=(4, 1))
    if what == "neither":
        return dataclasses.replace(solution, removal_trace=())
    assert what == "negative"
    return dataclasses.replace(solution, powers=np.array([1.0, -1e-12, 3.0]))


HOLDERS = np.array([0, 1, 2, 4])    # _clean_solution's served and dropped users
BOOKKEEPING = "served and dropped users are not exactly the pilot holders"


def test_audit_passes_a_clean_solution():
    assert audit_solution(_clean_solution(), _config(), HOLDERS) == []


@pytest.mark.parametrize("what,message", [
    ("fronthaul", "fronthaul cap exceeded: max load 3"),
    ("norm", "beam directions are not unit norm"),
    ("rate", "rate below requirement: min 0.999000"),
    ("power", "per-RRH power cap exceeded: max 500.500000"),
    ("negative", "negative transmit power"),
    # user 1 is served and dropped too
    ("served and dropped", BOOKKEEPING),
    # holder 4 is neither served nor dropped
    ("neither", BOOKKEEPING),
])
def test_audit_reports_each_broken_constraint(what, message):
    assert audit_solution(_broken(what), _config(), HOLDERS) == [message]


def test_audit_checks_an_empty_solution_like_any_other():
    beams = LocalBeams(rrhs=np.zeros((0, 2), dtype=np.int64), valid=np.zeros((0, 2), dtype=bool),
                       weights=np.zeros((0, 2, 2), dtype=complex), num_rrhs=9)
    empty = AdmissionSolution(served=np.zeros(0, dtype=np.int64), beams=beams,
                              powers=np.zeros(0), rates=np.zeros(0),
                              per_rrh_power=np.zeros(9), removal_trace=(3, 0, 5))
    assert audit_solution(empty, _config(), np.array([0, 3, 5])) == []
    assert audit_solution(empty, _config(), np.array([0, 3, 5, 7])) == [BOOKKEEPING]
    assert audit_solution(empty, _config(), np.array([0, 3])) == [BOOKKEEPING]


def test_run_trial_details_consistent_with_row():
    config = _config()
    result, s1, solution = run_trial(config, seed=1, algorithm="proposed",
                                     return_details=True)
    assert audit_solution(solution, config, s1.admitted) == []
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
    (dict(pilot_budgets=[3, 0]), "pilot_count must be an integer >= 1, got 0"),
    (dict(algorithms=("proposed", "magic")), "unknown algorithm 'magic'"),
], ids=["cluster_size", "pilot_budget", "algorithm"])
def test_campaign_rejects_a_bad_sweep_entry_before_any_trial(sweep, message, monkeypatch):
    calls = []
    monkeypatch.setattr("ucran.harness.run_trial", lambda *args: calls.append(args))
    arguments = dict(cluster_sizes=[2], pilot_budgets=[3], algorithms=("proposed",))
    with pytest.raises(ValueError, match=message):
        run_campaign(_config(), **{**arguments, **sweep}, num_seeds=5)
    assert calls == []


# every count and seed entry point: (the name it checks, its minimum, a call passing a value)
_INTEGER_ENTRY_POINTS = {
    "stream_rng": ("seed", 0, lambda v: stream_rng(v, 0)),
    "stream_key": ("seed", 0, lambda v: stream_key(v, 0)),
    "build_clusters": ("cluster_size", 1, lambda v: build_clusters(np.ones((3, 2)), v)),
    "dsatur_color": ("reuse_cap", 1,
                     lambda v: dsatur_color(build_base_graph(np.array([[0], [1]])), v)),
    "run_stage1": ("pilot_budget", 1,
                   lambda v: run_stage1(build_network(_config(), seed=0), v, 2)),
    "baseline_ortho": ("pilot_budget", 1,
                       lambda v: baseline_ortho(build_network(_config(), seed=0), v, 2, 0)),
    "enforce_fronthaul_cap": ("fronthaul_cap", 1, lambda v: enforce_fronthaul_cap(
        build_holder_table(ChannelState(holders=np.array([0]), links=np.array([[0]]),
                                        estimates=np.zeros((1, 1, 1), dtype=complex),
                                        error_var=np.zeros((1, 1))), np.ones((1, 1))),
        [0], v)),
    "run_campaign": ("num_seeds", 1, lambda v: run_campaign(_config(), [2], [3], num_seeds=v)),
    "run_trial": ("seed", 0, lambda v: run_trial(_config(), v, "proposed")),
    **{f"SimConfig.{f.name}": (f.name, 0 if f.name == "master_seed" else 1,
                               lambda v, name=f.name: SimConfig(**{name: v}))
       for f in dataclasses.fields(SimConfig) if f.type == "int"},
}


@pytest.mark.parametrize("entry", _INTEGER_ENTRY_POINTS)
def test_every_count_and_seed_entry_point_applies_the_one_integer_rule(entry):
    name, minimum, call = _INTEGER_ENTRY_POINTS[entry]
    for value in (True, 2.5, minimum - 1):
        with pytest.raises(ValueError,
                           match=f"^{name} must be an integer >= {minimum}, got {value!r}$"):
            call(value)


def test_campaign_rows_equal_standalone_trials():
    # every cell of a seed shares its network and fading; a trial run alone
    # draws its own, and the rows must not tell the two apart
    config = SimConfig()
    report = run_campaign(config, cluster_sizes=[2, 4], pilot_budgets=[4, 8],
                          algorithms=ALGORITHMS, num_seeds=3)
    assert len(report.trials) == 5 * 2 * 2 * 3
    for t in report.trials:
        cfg = dataclasses.replace(config, cluster_size=t.cluster_size,
                                  pilot_count=t.pilot_budget)
        assert t.csv_row() == run_trial(cfg, t.seed, t.algorithm).csv_row()


def _count_builds(monkeypatch) -> list:
    """Record (seed, cluster size) per network build, while each still runs."""
    networks = []
    build_network_ = ucran.harness.build_network

    def counting_build(config, seed):
        networks.append((seed, config.cluster_size))
        return build_network_(config, seed)

    monkeypatch.setattr(ucran.harness, "build_network", counting_build)
    return networks


def test_campaign_builds_each_network_once_and_its_trials_read_one_fading(monkeypatch):
    # no fading is kept: each channel state makes the links it reads, and
    # trials of a seed that differ in L, tau, CSI mode or algorithm must
    # read the same bits on a shared link
    networks = _count_builds(monkeypatch)
    reads, trial = {}, []
    run_trial_ = ucran.harness.run_trial
    link_channels_ = ucran.channel.link_channels

    def tagged_trial(config, seed, algorithm, **kwargs):
        trial[:] = [(config.cluster_size, config.pilot_count, algorithm)]
        return run_trial_(config, seed, algorithm, **kwargs)

    def recording_links(seed, alpha, antennas, rrhs, users):
        h = link_channels_(seed, alpha, antennas, rrhs, users)
        rrhs, users = np.broadcast_arrays(rrhs, users)
        for i, k, value in zip(rrhs.ravel(), users.ravel(), h.reshape(-1, antennas)):
            reads.setdefault((seed, i, k), []).append((trial[0], value.tobytes()))
        return h

    monkeypatch.setattr(ucran.harness, "run_trial", tagged_trial)
    monkeypatch.setattr(ucran.channel, "link_channels", recording_links)
    config = _config()
    run_campaign(config, cluster_sizes=[2, 3], pilot_budgets=[1, 3],
                 algorithms=("proposed", "con", "perfect"), num_seeds=3)
    seeds = [config.master_seed + j for j in range(3)]
    assert networks == [(seed, size) for seed in seeds for size in (2, 3)]
    assert {seed for seed, _, _ in reads} == set(seeds)
    differ = set()
    for read in reads.values():
        assert len({value for _, value in read}) == 1
        (size0, budget0, algorithm0), _ = read[0]
        for (size, budget, algorithm), _ in read[1:]:
            differ |= {name for name, same in (
                ("L", size == size0), ("tau", budget == budget0),
                ("CSI mode", (algorithm == "perfect") == (algorithm0 == "perfect")),
                ("algorithm", algorithm == algorithm0)) if not same}
    assert differ == {"L", "tau", "CSI mode", "algorithm"}
    # the same counts again: nothing is kept from one campaign to the next
    first = list(networks)
    networks.clear()
    run_campaign(config, cluster_sizes=[2, 3], pilot_budgets=[1, 3],
                 algorithms=("proposed", "con", "perfect"), num_seeds=3)
    assert networks == first


def test_run_trial_alone_builds_and_draws_its_own(monkeypatch):
    networks = _count_builds(monkeypatch)
    for _ in range(2):
        run_trial(_config(), seed=4, algorithm="proposed")
    assert networks == [(4, 2)] * 2


@pytest.mark.parametrize("size", [{}, {"num_rrhs": 324, "num_users": 216}],
                         ids=["default", "324-216"])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_the_gains_and_the_fading_read_no_cluster_size(size, seed):
    # common random numbers: every cluster size of a seed must see the
    # same gains and the same fading, so neither may read L
    first = None
    for cluster_size in range(2, 9):
        config = SimConfig(cluster_size=cluster_size, **size)
        alpha = build_network(config, seed).alpha
        channels = ucran.channel.link_channels(seed, alpha, config.antennas_per_rrh,
                                               *np.indices(alpha.shape))
        if first is None:
            first = alpha, channels
        assert alpha.tobytes() == first[0].tobytes()
        assert channels.tobytes() == first[1].tobytes()


@pytest.mark.parametrize("field", ["rrh_positions", "user_positions", "alpha", "clusters"])
def test_a_stage_writing_into_the_shared_network_fails(field, monkeypatch):
    def writing_stage2(instance, stage1_result, state, config):
        getattr(instance, field)[0, 0] = 0

    monkeypatch.setattr(ucran.harness, "admission_loop", writing_stage2)
    with pytest.raises(ValueError, match="read-only"):
        run_campaign(_config(), [2], [3], algorithms=("proposed",), num_seeds=1)


@pytest.mark.parametrize("algorithms", [("ortho", "nocase2"), ("ortho", "con")])
def test_campaign_checks_the_weights_even_where_no_branch_reads_them(algorithms):
    # every gain underflows, so the weights are not finite: ortho never
    # reads them, and the base coloring of nocase2 and con must still check them
    config = SimConfig(num_rrhs=6, num_users=4, cluster_size=2, pathloss_intercept=4000.0)
    with pytest.raises(ValueError, match="weights are not finite"):
        run_campaign(config, [2], [4, 8], algorithms=algorithms, num_seeds=1)


def _count_stage_work(monkeypatch) -> list:
    """Log, in call order, each network build as ("network", seed, L) and
    each piece of shared stage work (base graph, base coloring, weights,
    spread, channel state, admission), while all of it still runs."""
    log, base_graphs = [], []
    originals = {name: getattr(ucran.stage1, name) for name in
                 ("build_base_graph", "dsatur_color", "interference_matrix",
                  "reallocate_case2")}
    build_network_ = ucran.harness.build_network
    channel_ = ucran.harness.build_channel_state
    admission_ = ucran.harness.admission_loop

    def network(config, seed):
        log.append(("network", seed, config.cluster_size))
        return build_network_(config, seed)

    def base_graph(clusters):
        base_graphs.append(originals["build_base_graph"](clusters))
        log.append("base_graph")
        return base_graphs[-1]

    def coloring(graph, reuse_cap, max_colors=None):
        if any(graph is base for base in base_graphs):
            log.append("base_coloring")
        return originals["dsatur_color"](graph, reuse_cap, max_colors)

    def weights(alpha, clusters):
        log.append("weights")
        return originals["interference_matrix"](alpha, clusters)

    def spread(*args):
        log.append("spread")
        return originals["reallocate_case2"](*args)

    def channel(*args, **kwargs):
        log.append("channel")
        return channel_(*args, **kwargs)

    def admission(*args):
        log.append("admission")
        return admission_(*args)

    for module, name, fake in ((ucran.harness, "build_network", network),
                               (ucran.stage1, "build_base_graph", base_graph),
                               (ucran.stage1, "dsatur_color", coloring),
                               (ucran.stage1, "interference_matrix", weights),
                               (ucran.stage1, "reallocate_case2", spread),
                               (ucran.harness, "build_channel_state", channel),
                               (ucran.harness, "admission_loop", admission)):
        monkeypatch.setattr(module, name, fake)
    return log


def _per_seed(log) -> dict:
    """A Counter of the logged work per seed: a seed's work starts at its
    first network build."""
    counts, seed = {}, None
    for event in log:
        if event[0] == "network":
            seed = event[1]
            counts.setdefault(seed, Counter())["network"] += 1
        else:
            counts[seed][event] += 1
    return counts


def _admission_key(config, row) -> tuple:
    """What a row's channel state and admission read that a campaign
    varies: its cluster size, CSI mode and stage-1 pilots, taken from the
    same trial run alone."""
    cfg = dataclasses.replace(config, cluster_size=row.cluster_size,
                              pilot_count=row.pilot_budget)
    _, s1, _ = run_trial(cfg, row.seed, row.algorithm, return_details=True)
    return (row.cluster_size, row.algorithm == "perfect", s1.assignment.num_pilots,
            s1.assignment.pilots.tobytes())


def test_campaign_makes_each_decision_and_admission_once_per_seed(monkeypatch):
    log = _count_stage_work(monkeypatch)
    config = SimConfig()
    report = run_campaign(config, cluster_sizes=[2, 4], pilot_budgets=[4, 8],
                          algorithms=ALGORITHMS, num_seeds=3)
    counts = _per_seed(log)
    assert list(counts) == [config.master_seed + j for j in range(3)]
    first = list(log)
    shared = 0
    for seed, count in counts.items():
        rows = [t for t in report.trials if t.seed == seed]
        admissions = len({_admission_key(config, row) for row in rows})
        spreads = len({(row.cluster_size, row.pilot_budget)
                       for row in rows if row.case_taken == "case2"})
        assert count == {"network": 2, "base_graph": 2, "base_coloring": 2, "weights": 2,
                         "channel": admissions, "admission": admissions,
                         **({"spread": spreads} if spreads else {})}
        shared += len(rows) - admissions
    assert shared > 0
    # the same counts again: nothing is kept from one campaign to the next
    log.clear()
    run_campaign(config, cluster_sizes=[2, 4], pilot_budgets=[4, 8],
                 algorithms=ALGORITHMS, num_seeds=3)
    assert log == first


def test_the_base_coloring_shares_one_admission_under_each_rows_own_case(monkeypatch):
    # nocase2 and con keep the base coloring both on its own budget (exact)
    # and above it (base): four rows, one admission, each row its own case
    config = SimConfig(cluster_size=4)
    instance = build_network(config, config.master_seed)
    exact = base_coloring(instance, config.reuse_cap).num_pilots
    log = _count_stage_work(monkeypatch)
    report = run_campaign(config, [4], [exact, exact + 2], algorithms=("nocase2", "con"),
                          num_seeds=1)
    assert Counter(log)["channel"] == Counter(log)["admission"] == 1
    assert [(t.algorithm, t.pilot_budget, t.case_taken) for t in report.trials] == [
        ("nocase2", exact, "exact"), ("nocase2", exact + 2, "base"),
        ("con", exact, "exact"), ("con", exact + 2, "base")]
    for t in report.trials:
        cfg = dataclasses.replace(config, pilot_count=t.pilot_budget)
        assert t.csv_row() == run_trial(cfg, t.seed, t.algorithm).csv_row()


def test_nocase2_alone_runs_no_spread(monkeypatch):
    log = _count_stage_work(monkeypatch)
    report = run_campaign(SimConfig(), cluster_sizes=[2, 4], pilot_budgets=[4, 8],
                          algorithms=("nocase2",), num_seeds=3)
    # some rows keep an under-budget base coloring that proposed would spread
    assert any(t.case_taken == "base" for t in report.trials)
    assert "spread" not in log


def test_campaign_rows_do_not_depend_on_the_algorithm_order():
    config = SimConfig()
    sweep = dict(cluster_sizes=[2, 4], pilot_budgets=[4, 8], num_seeds=2)
    default = run_campaign(config, algorithms=ALGORITHMS, **sweep)
    reordered = run_campaign(config, algorithms=("perfect", "con", "nocase2", "ortho",
                                                 "proposed"), **sweep)
    assert reordered.cells == default.cells

    def by_cell(report):
        return sorted(report.trials, key=lambda t: (t.algorithm, t.cluster_size,
                                                    t.pilot_budget, t.seed))

    assert by_cell(reordered) == by_cell(default)


def test_a_stage_writing_into_shared_pilots_fails(monkeypatch):
    admission_ = ucran.harness.admission_loop

    def writing_stage2(instance, stage1_result, state, config):
        stage1_result.assignment.pilots[stage1_result.admitted[0]] = 0
        return admission_(instance, stage1_result, state, config)

    monkeypatch.setattr(ucran.harness, "admission_loop", writing_stage2)
    # proposed and perfect share one stage-1 decision
    with pytest.raises(ValueError, match="read-only"):
        run_campaign(SimConfig(), [4], [4], algorithms=("proposed", "perfect"), num_seeds=1)


@pytest.mark.parametrize("field", ["served", "powers", "rates", "per_rrh_power"])
def test_a_check_writing_into_a_shared_admission_fails(field, monkeypatch):
    audit_ = ucran.harness.audit_solution

    def writing_audit(solution, config, holders):
        getattr(solution, field)[0] = 0
        return audit_(solution, config, holders)

    monkeypatch.setattr(ucran.harness, "audit_solution", writing_audit)
    with pytest.raises(ValueError, match="read-only"):
        run_trial(SimConfig(), 1, "proposed")


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
