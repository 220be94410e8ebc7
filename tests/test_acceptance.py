"""Acceptance gate: eleven go/no-go checks at the reference scale, one at
the ultra-dense point, one on robust transmission, one on the case-2
spread and one on densification at fixed users.

Each test prints one [PASS]/[FAIL] line (never captured) so the verdicts
survive any pytest output mode.  The three Monte Carlo campaigns are shared
module-scoped fixtures; everything downstream reads their cell statistics.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from ucran import (
    PilotAssignment,
    SimConfig,
    admission_loop,
    build_base_graph,
    build_channel_state,
    build_network,
    dsatur_color,
    link_channels,
    mmse_estimate,
    run_campaign,
    run_stage1,
    run_trial,
    simulate_pilot_rx,
    validate_assignment,
)
from ucran.conflict_graph import ConflictGraph
from ucran.harness import audit_solution
from ucran.stage1 import CASE_SPREAD
from ucran.stage2 import power_allocation_fixed_point
from oracles import (
    admission_with_beam_loading,
    exact_capped_chromatic,
    greedy_clique_bound,
    max_served_reference,
    mc_ergodic_rate,
    scatter_links,
    solve_power_linear,
    stack_antennas,
)

CLUSTER_SIZES = [2, 3, 4, 5, 6]
NUM_SEEDS = 100
DENSE_SIZES = [2, 4, 6, 8]


def _verdict(capsys, ok: bool, label: str, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def campaign_tau4():
    return run_campaign(SimConfig(), CLUSTER_SIZES, [4],
                        algorithms=("proposed", "con", "perfect"),
                        num_seeds=NUM_SEEDS)


@pytest.fixture(scope="module")
def campaign_tau8():
    return run_campaign(SimConfig(), CLUSTER_SIZES, [8],
                        algorithms=("proposed", "con"),
                        num_seeds=NUM_SEEDS)


@pytest.fixture(scope="module")
def campaign_dense():
    # seeds 1-6 at 324 RRHs / 216 users, tau 32
    return run_campaign(SimConfig(num_rrhs=324, num_users=216, pilot_count=32),
                        DENSE_SIZES, [32], algorithms=("proposed", "con", "perfect"),
                        num_seeds=6)


def _means(report, algorithm: str, budget: int, field: str) -> list[float]:
    return [getattr(report.cells[(algorithm, size, budget)], field)
            for size in CLUSTER_SIZES]


def test_criterion_1_stage1_monotone_in_cluster_size(campaign_tau4, campaign_tau8, capsys):
    details = []
    ok = True
    for budget, report in ((4, campaign_tau4), (8, campaign_tau8)):
        means = _means(report, "proposed", budget, "mean_admitted")
        steps_ok = all(means[i + 1] <= means[i] + 0.1 for i in range(len(means) - 1))
        ok = ok and steps_ok
        details.append(f"budget {budget}: {[round(m, 2) for m in means]}")
    _verdict(capsys, ok, "criterion 1 (stage-1 admitted non-increasing in cluster size)",
             "; ".join(details))


def test_criterion_2_proposed_beats_random_removal(campaign_tau4, campaign_tau8, capsys):
    ok = True
    details = []
    for budget, report in ((4, campaign_tau4), (8, campaign_tau8)):
        proposed = _means(report, "proposed", budget, "mean_admitted")
        con = _means(report, "con", budget, "mean_admitted")
        ok = ok and all(p >= c for p, c in zip(proposed, con))
        if budget == 4:
            ok = ok and any(p > c for p, c in zip(proposed, con))
        margin = min(p - c for p, c in zip(proposed, con))
        details.append(f"budget {budget}: min margin {margin:+.3f}")
    _verdict(capsys, ok, "criterion 2 (proposed >= random-removal baseline)",
             "; ".join(details))


def test_criterion_3_stage2_interior_peak(campaign_tau4, capsys):
    served = _means(campaign_tau4, "proposed", 4, "mean_served")
    by_size = dict(zip(CLUSTER_SIZES, served))
    interior = {size: by_size[size] for size in (3, 4, 5)}
    peak = max(interior, key=interior.get)
    ok = interior[peak] > by_size[2] and interior[peak] > by_size[6]
    _verdict(capsys, ok, "criterion 3 (served users peak at an interior cluster size)",
             f"served {[round(v, 2) for v in served]}, peak at size {peak}")


def test_criterion_4_perfect_csi_dominates(campaign_tau4, capsys):
    proposed = _means(campaign_tau4, "proposed", 4, "mean_served")
    perfect = _means(campaign_tau4, "perfect", 4, "mean_served")
    diffs = [pf - pr for pf, pr in zip(perfect, proposed)]
    ok = all(d >= -0.05 for d in diffs)
    _verdict(capsys, ok, "criterion 4 (perfect CSI serves at least as many)",
             f"perfect minus proposed {[round(d, 3) for d in diffs]}")


def test_criterion_5_coloring_validity_sweep(capsys):
    rng = np.random.default_rng(987)
    worst_slack = math.inf
    for _ in range(1000):
        num_users = int(rng.integers(2, 31))
        num_rrhs = int(rng.integers(4, 41))
        size = int(rng.integers(1, min(5, num_rrhs) + 1))
        clusters = np.stack([rng.choice(num_rrhs, size=size, replace=False)
                             for _ in range(num_users)])
        cap = int(rng.integers(1, 5))
        graph = build_base_graph(clusters)
        assignment = dsatur_color(graph, cap)
        validate_assignment(graph, assignment, cap)
        lower = max(math.ceil(num_users / cap), greedy_clique_bound(graph.adjacency))
        worst_slack = min(worst_slack, assignment.num_pilots - lower)
        assert assignment.num_pilots >= lower
    _verdict(capsys, True, "criterion 5 (1000 colorings valid and above lower bounds)",
             f"min colors-minus-bound slack {worst_slack}")


def test_criterion_6_exact_coloring_oracle(capsys):
    rng = np.random.default_rng(321)
    gaps = Counter()
    ok = True
    for _ in range(200):
        n = int(rng.integers(1, 9))
        density = rng.uniform(0.1, 0.9)
        upper = np.triu(rng.random((n, n)) < density, k=1)
        adjacency = upper | upper.T
        cap = int(rng.integers(1, 4))
        graph = ConflictGraph(adjacency=adjacency, users=np.arange(n))
        greedy = dsatur_color(graph, cap).num_pilots
        optimum = exact_capped_chromatic(adjacency, cap)
        ok = ok and greedy >= optimum
        gaps[greedy - optimum] += 1
    for n in range(1, 9):
        for cap in (1, 2, 3):
            empty = ConflictGraph(adjacency=np.zeros((n, n), dtype=bool),
                                  users=np.arange(n))
            full_adj = ~np.eye(n, dtype=bool)
            full = ConflictGraph(adjacency=full_adj, users=np.arange(n))
            ok = ok and dsatur_color(empty, cap).num_pilots == math.ceil(n / cap)
            ok = ok and dsatur_color(full, cap).num_pilots == n
    _verdict(capsys, ok, "criterion 6 (greedy never below exact optimum)",
             f"gap distribution {dict(sorted(gaps.items()))}")


def test_criterion_7_mmse_analytics_match_simulation(capsys):
    draws = 100_000
    gain_a, gain_b, power, noise = 1.0, 0.6, 5.0, 0.4
    alpha = np.tile([[gain_a, gain_b]], (draws, 1))
    clusters = np.array([np.arange(draws), np.arange(draws)])
    assignment = PilotAssignment(pilots=[0, 0], num_pilots=1)
    rrhs, users = np.indices(alpha.shape)
    h = link_channels(777, alpha, 2, rrhs, users)
    y = simulate_pilot_rx(777, alpha, 2, assignment, clusters, power, noise)
    estimates, error_var = mmse_estimate(y, alpha, assignment, clusters, power, noise)
    err = h - scatter_links(clusters, estimates, draws)
    rel = max(abs(float((np.abs(err[:, k]) ** 2).mean()) - error_var[0, k])
              / error_var[0, k] for k in (0, 1))

    # equal-gain contamination floor after a hundredfold power increase
    gain = 0.8
    alpha_eq = np.array([[gain, gain]])
    denom = 100 * power * 2 * gain + noise
    floor_err = gain - 100 * power * gain ** 2 / denom
    floor_rel = abs(floor_err - gain / 2) / (gain / 2)

    ok = rel <= 0.03 and floor_rel <= 0.05
    _verdict(capsys, ok, "criterion 7 (estimation error analytic vs empirical)",
             f"empirical MSE off by {rel:.2%}; floor off by {floor_rel:.2%}")


def test_criterion_8_power_control_oracle(capsys):
    signal = np.array([1.3, 0.8])
    self_err = np.array([0.04, 0.02])
    cross = np.array([[0.0, 0.12], [0.2, 0.0]])
    noise = 0.05
    share = np.full((4, 2), 0.25)
    target = 3.0

    exact = solve_power_linear(signal, self_err, cross, target, noise)
    result = power_allocation_fixed_point(signal, self_err, cross, target,
                                          noise, share, rrh_power_cap=1e9)
    rel = float(np.abs(result.powers - exact).max() / exact.max())

    zero = power_allocation_fixed_point(signal, self_err, cross, 0.0, noise,
                                        share, rrh_power_cap=1e9)
    hopeless = power_allocation_fixed_point(signal, self_err, cross, 50.0,
                                            noise, share, rrh_power_cap=1e9)
    ok = (result.feasible and rel <= 1e-6
          and zero.feasible and (zero.powers == 0).all()
          and not hopeless.feasible)
    _verdict(capsys, ok, "criterion 8 (power fixed point matches linear solve)",
             f"relative error {rel:.2e}; infeasible reason {hopeless.reason!r}")


def test_criterion_9_rate_bound_below_monte_carlo(capsys):
    # the bound must hold user by user; the 10% looseness budget applies
    # to the operating point as a whole (aggregate rate over all served
    # users), matching how such bounds are usually reported
    config = SimConfig()
    antennas = config.antennas_per_rrh
    checked = 0
    seed = 0
    bound_holds = True
    lb_total = 0.0
    mc_total = 0.0
    worst_user_gap = 0.0
    worst_config_gap = 0.0
    while checked < 20:
        instance = build_network(config, seed)
        s1 = run_stage1(instance, config.pilot_count, config.reuse_cap)
        state = build_channel_state(instance, s1.assignment, config, seed)
        solution = admission_loop(instance, s1, state, config)
        seed += 1
        if solution.num_served == 0:
            continue
        # the served users' columns: their rows of the pilot holders
        served = state.holders.searchsorted(solution.served)
        stacked = stack_antennas(scatter_links(state.links, state.estimates,
                                               config.num_rrhs))
        beams = solution.beams
        directions = stack_antennas(scatter_links(beams.rrhs, beams.weights,
                                                  beams.num_rrhs))
        evar = np.repeat(state.error_var, antennas, axis=0)
        mc = mc_ergodic_rate(stacked[:, served], evar[:, served],
                             directions, solution.powers,
                             config.noise_power,
                             np.random.default_rng(10_000 + seed))
        bound_holds = bound_holds and bool((solution.rates <= mc).all())
        lb_total += float(solution.rates.sum())
        mc_total += float(mc.sum())
        worst_user_gap = max(worst_user_gap, float(((mc - solution.rates) / mc).max()))
        worst_config_gap = max(worst_config_gap,
                               float((mc.mean() - solution.rates.mean()) / mc.mean()))
        checked += 1
    pooled_gap = (mc_total - lb_total) / mc_total
    ok = bound_holds and pooled_gap <= 0.10
    _verdict(capsys, ok, "criterion 9 (rate bound below simulated rate, gap <= 10%)",
             f"pooled gap {pooled_gap:.2%} over {checked} configurations "
             f"(worst single configuration {worst_config_gap:.2%}, "
             f"worst single user {worst_user_gap:.2%})")


def test_criterion_10_zero_constraint_violations(campaign_tau4, campaign_tau8, capsys):
    # every campaign trial re-checks its own solution and raises on any
    # violation, so both fixtures completing is already a zero count;
    # re-audit a deterministic sample end to end as a second witness
    audited = len(campaign_tau4.trials) + len(campaign_tau8.trials)
    problems = []
    for algorithm in ("proposed", "con", "perfect"):
        for size in (2, 4, 6):
            cfg = SimConfig(cluster_size=size)
            _, s1, solution = run_trial(cfg, seed=cfg.master_seed,
                                        algorithm=algorithm, return_details=True)
            problems += audit_solution(solution, cfg, s1.admitted)
    ok = not problems
    _verdict(capsys, ok, "criterion 10 (no rate/power/fronthaul violations)",
             f"{audited} campaign trials audited inline, 9 re-audited, "
             f"{len(problems)} problems")


def test_criterion_11_admission_gap_to_exact_optimum(capsys):
    # greedy admission against the largest subset that one production round
    # serves whole; exhaustive search stays at <= 12 pilot holders, so at
    # most 2**12 rounds (and C(12, 6) = 924 subsets of any one size)
    gaps = Counter()
    dropped = skipped = 0
    problems = []
    ok = True
    for size in (2, 4, 6):
        for budget in (4, 8):
            config = SimConfig(cluster_size=size, pilot_count=budget)
            for seed in range(1, 401):
                instance = build_network(config, seed)
                s1 = run_stage1(instance, budget, config.reuse_cap)
                if s1.num_admitted > 12:
                    skipped += 1
                    continue
                state = build_channel_state(instance, s1.assignment, config, seed)
                greedy = admission_loop(instance, s1, state, config).num_served
                optimum = max_served_reference(instance, s1, state, config)
                problems += audit_solution(optimum, config, s1.admitted)
                ok = ok and greedy <= optimum.num_served
                dropped += greedy < s1.num_admitted
                gaps[optimum.num_served - greedy] += 1
    ok = ok and not problems
    _verdict(capsys, ok, "criterion 11 (greedy admission never above exact optimum)",
             f"optimum minus greedy {dict(sorted(gaps.items()))} over "
             f"{sum(gaps.values())} trials ({dropped} with drops), "
             f"{skipped} skipped (> 12 pilot holders), {len(problems)} audit problems")


def test_criterion_12_ultra_dense_point(campaign_dense, capsys):
    def row(algorithm, field):
        return [getattr(campaign_dense.cells[(algorithm, size, 32)], field)
                for size in DENSE_SIZES]

    proposed, con, perfect = (row(a, "mean_served") for a in ("proposed", "con", "perfect"))
    admitted = row("proposed", "mean_admitted")
    ok = (all(c <= p <= pf for c, p, pf in zip(con, proposed, perfect))
          and all(after <= before for before, after in zip(admitted, admitted[1:])))
    _verdict(capsys, ok, "criterion 12 (324/216, tau 32: con <= proposed <= perfect "
             "served; proposed admitted non-increasing in cluster size)",
             f"proposed served by L {DENSE_SIZES}: {[round(v, 2) for v in proposed]}; "
             f"admitted {[round(v, 2) for v in admitted]}")


def test_criterion_13_robust_transmission_pays(capsys):
    # the beams load every estimated (intra-cluster) link with its MMSE
    # error variance and every other (inter-cluster) link with its full
    # gain; against beams without one of the two terms, on the same pilots
    # and channels, every solution held to the true variances
    cells = list(itertools.product([2, 4, 6], [4, 8]))
    served = {}     # (pilot power, L, tau) -> users served by each beam loading
    for pilot_power, (size, budget) in itertools.product((200.0, 0.01), cells):
        config = SimConfig(cluster_size=size, pilot_count=budget, pilot_power=pilot_power,
                           master_seed=1)
        served[(pilot_power, size, budget)] = count = Counter()
        for seed in range(config.master_seed, config.master_seed + 30):
            instance = build_network(config, seed)
            s1 = run_stage1(instance, budget, config.reuse_cap)
            state = build_channel_state(instance, s1.assignment, config, seed)
            intra = np.zeros(state.error_var.shape, dtype=bool)
            intra[state.links, np.arange(len(state.holders))[:, None]] = True
            solutions = {"both": admission_loop(instance, s1, state, config)}
            for name, dropped in (("no intra", intra), ("no inter", ~intra)):
                solutions[name] = admission_with_beam_loading(
                    instance, s1, state, config, np.where(dropped, 0.0, state.error_var))
            for name, solution in solutions.items():
                assert audit_solution(solution, config, s1.admitted) == []
                count[name] += solution.num_served
    high = [served[(200.0, *cell)] for cell in cells]
    high_total, low_total = (sum((served[(power, *cell)] for cell in cells), Counter())
                             for power in (200.0, 0.01))
    ok = (all(c["both"] >= c["no inter"] for c in high)
          and high_total["both"] > high_total["no inter"]
          and low_total["both"] > low_total["no intra"])
    _verdict(capsys, ok, "criterion 13 (robust beams: at 200 mW the inter-cluster loading "
             "serves at least as many per cell and more in total; at 0.01 mW the "
             "intra-cluster loading serves more in total)",
             "served with both terms / no intra-cluster / no inter-cluster: " + "; ".join(
                 f"{power} mW {t['both']} / {t['no intra']} / {t['no inter']}"
                 for power, t in ((200, high_total), (0.01, low_total)))
             + "; both terms / no inter-cluster at 200 mW by (L, tau) "
             + ", ".join(f"{cell}: {c['both']}/{c['no inter']}" for cell, c in zip(cells, high)))


def test_criterion_14_the_case2_spread_pays(capsys):
    # on the grid rows where proposed spread its co-pilot groups (case 2),
    # against the same rows kept on the base coloring (nocase2)
    report = run_campaign(SimConfig(master_seed=1), [2, 4, 6], [4, 8],
                          algorithms=("proposed", "nocase2"), num_seeds=60)
    nocase2 = {(t.cluster_size, t.pilot_budget, t.seed): t.stage2_served
               for t in report.trials if t.algorithm == "nocase2"}
    pairs = [(t.stage2_served, nocase2[(t.cluster_size, t.pilot_budget, t.seed)])
             for t in report.trials if t.algorithm == "proposed" and t.case_taken == CASE_SPREAD]
    spread, kept = sum(p for p, _ in pairs), sum(n for _, n in pairs)
    wins, losses = sum(p > n for p, n in pairs), sum(p < n for p, n in pairs)
    ok = bool(pairs) and spread > kept and wins > losses
    _verdict(capsys, ok, "criterion 14 (the case-2 spread serves more than the base coloring)",
             f"{len(pairs)} case-2 rows: {spread} served against {kept}, "
             f"{wins} wins, {losses} losses")


def test_criterion_15_densification_at_fixed_users(capsys):
    # 48 users on 16 pilots, L 4, as the RRH count grows from 36 to 288
    densities = [36, 72, 144, 288]
    proposed, perfect = [], []
    for num_rrhs in densities:
        config = SimConfig(num_rrhs=num_rrhs, num_users=48, pilot_count=16, master_seed=1)
        report = run_campaign(config, [4], [16], algorithms=("proposed", "perfect"),
                              num_seeds=30)
        proposed.append(report.cells[("proposed", 4, 16)].mean_served)
        perfect.append(report.cells[("perfect", 4, 16)].mean_served)
    gaps = [pf - pr for pf, pr in zip(perfect, proposed)]
    ok = (all(before < after for before, after in zip(proposed, proposed[1:]))
          and gaps[-1] < gaps[0])
    _verdict(capsys, ok, "criterion 15 (K 48, tau 16, L 4: proposed served rises with I; "
             "the perfect-CSI gap shrinks)",
             f"proposed served by I {densities}: {[round(v, 3) for v in proposed]}; "
             f"perfect minus proposed {[round(g, 3) for g in gaps]}")
