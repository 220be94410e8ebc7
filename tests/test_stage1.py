import dataclasses
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ucran.stage1
from ucran import (
    SimConfig,
    build_base_graph,
    build_network,
    dsatur_color,
    interference_matrix,
    run_stage1,
    validate_assignment,
)
from ucran.conflict_graph import build_thresholded_graph, interference_score
from ucran.stage1 import (
    CASE_BASE,
    CASE_EXACT,
    CASE_REMOVAL,
    CASE_SPREAD,
    base_coloring,
    select_users_case1,
)
from ucran.topology import NetworkInstance

from conftest import craft_instance
from oracles import select_users_case1_reference


def _weights(instance):
    return interference_matrix(instance.alpha, instance.clusters)


def test_star_center_removed_first(star_instance):
    result = run_stage1(star_instance, pilot_budget=1, reuse_cap=5)
    assert result.case_taken == CASE_REMOVAL
    assert result.removal_trace == (0,)
    np.testing.assert_array_equal(result.admitted, [1, 2, 3, 4, 5])
    # all leaves fit on the single pilot once the hub user is gone
    assert result.colors_used == 1
    assert result.assignment.pilots.tolist() == [-1, 0, 0, 0, 0, 0]
    # the hub and the leaves need two pilots before any removal
    assert result.threshold is None
    assert result.base_colors == 2 == dsatur_color(
        build_base_graph(star_instance.clusters), 5).num_pilots


def test_removal_tie_broken_by_interference_score():
    # users 0 and 1 tie on degree (one edge between them); user 1's
    # strong coupling to user 3 makes its total interference weight to
    # the other users much larger, so despite the lower id of user 0 it
    # is user 1 that goes first
    clusters = np.array([[0, 1], [1, 2], [3, 4], [5, 6]])
    alpha = np.full((7, 4), 1e-9)
    for k in range(4):
        alpha[clusters[k], k] = 1.0
    alpha[[5, 6], 1] = 0.9    # strong coupling between users 1 and 3
    alpha[[1, 2], 3] = 0.9
    instance = craft_instance(alpha, clusters)

    base = build_base_graph(clusters)
    assignment = dsatur_color(base, reuse_cap=2)
    assert assignment.pilots[0] == assignment.pilots[2]
    assert assignment.pilots[1] == assignment.pilots[3]

    result = run_stage1(instance, pilot_budget=1, reuse_cap=2)
    assert result.case_taken == CASE_REMOVAL
    assert result.removal_trace[0] == 1


def test_removal_tie_falls_back_to_lowest_index():
    # two isolated co-cluster pairs, all weights equal: degree and total
    # interference tie everywhere, so user 0 goes first
    clusters = np.array([[0], [0], [1], [1]])
    alpha = np.ones((2, 4))
    instance = craft_instance(alpha, clusters)
    result = run_stage1(instance, pilot_budget=1, reuse_cap=4)
    assert result.case_taken == CASE_REMOVAL
    assert result.removal_trace[0] == 0


def test_no_removals_when_already_within_budget(star_instance):
    result = run_stage1(star_instance, pilot_budget=5, reuse_cap=5, spread=False)
    assert result.case_taken == CASE_BASE
    assert result.removal_trace == ()
    assert result.num_admitted == 6
    assert result.threshold is None
    base = dsatur_color(build_base_graph(star_instance.clusters), 5)
    assert result.base_colors == result.colors_used == base.num_pilots == 2
    np.testing.assert_array_equal(result.assignment.pilots, base.pilots)


def test_exact_budget_passthrough(two_triangle_instance):
    result = run_stage1(two_triangle_instance, pilot_budget=3, reuse_cap=4)
    assert result.case_taken == CASE_EXACT
    assert result.removal_trace == ()
    assert result.threshold is None
    assert result.colors_used == 3 == result.base_colors
    assert result.num_admitted == 6


def test_two_triangles_base_pairs(two_triangle_instance):
    base = build_base_graph(two_triangle_instance.clusters)
    assignment = dsatur_color(base, reuse_cap=4)
    assert assignment.num_pilots == 3
    groups = {tuple(np.flatnonzero(assignment.pilots == c)) for c in range(3)}
    assert groups == {(0, 1), (2, 3), (4, 5)}


def test_spread_separates_strong_pairs(two_triangle_instance):
    result = run_stage1(two_triangle_instance, pilot_budget=4, reuse_cap=4)
    assert result.case_taken == CASE_SPREAD
    assert result.num_admitted == 6
    pilots = result.assignment.pilots
    for a, b in ((0, 1), (2, 3), (4, 5)):
        assert pilots[a] != pilots[b]
    assert result.base_colors <= result.colors_used <= 4
    assert result.threshold is not None


def test_removal_case_on_two_triangles(two_triangle_instance, monkeypatch):
    # Every user has degree 2 and, to the other five, two in-triangle
    # weights a = 2 ln(1.5000005), its matched cross pair b = 2 ln(1.5) and
    # two unmatched cross pairs c = 2 ln(1.2500005).
    # Round 1 (6 users, 3 pilots > 2): all six totals are 2a + b + 2c, so
    # the left-to-right sum in ascending id decides.  Users 0 and 2 add
    # (b, a, c, a, c) and (a, c, b, a, c) and come out one ulp below users
    # 1, 3, 4 and 5; user 1 is the lowest id of the largest and goes.
    # Round 2 (0, 2, 4 still a triangle: 3 pilots > 2): 0, 2 and 4 tie on
    # degree 2 (3 and 5 have 1).  User 0 has lost its b and scores 2a + 2c;
    # 2 and 4 score a + b + a + c and a + a + c + b, equal in floating
    # point, so user 2 goes by id.
    # Round 3: edges 0-4 and 3-5 color with 2 pilots, so the loop stops.
    weights = _weights(two_triangle_instance)
    round1 = interference_score(weights, range(6), range(6))
    assert np.flatnonzero(round1 == round1.max()).tolist() == [1, 3, 4, 5]
    assert round1.max() - round1.min() == np.spacing(round1.min())
    round2 = interference_score(weights, [0, 2, 3, 4, 5], [0, 2, 4])
    assert round2[0] < round2[1] == round2[2]

    calls = _count_score_calls(monkeypatch)
    result = run_stage1(two_triangle_instance, pilot_budget=2, reuse_cap=4)
    assert result.case_taken == CASE_REMOVAL
    assert result.removal_trace == (1, 2)
    # both rounds' ties are near ties, settled by the exact left-to-right sums
    assert calls
    np.testing.assert_array_equal(result.admitted, [0, 3, 4, 5])
    assert result.colors_used == 2
    # base_colors is the full graph's, not the survivors'
    assert result.threshold is None
    assert result.base_colors == 3


def test_spread_picks_smallest_workable_threshold(four_user_spread_instance):
    result = run_stage1(four_user_spread_instance, pilot_budget=4, reuse_cap=4)
    assert result.case_taken == CASE_SPREAD
    # both base pairs weigh exactly 2 ln 2; the chosen threshold sits there,
    # completing the graph and forcing four distinct pilots
    assert result.threshold == pytest.approx(2 * math.log(2))
    assert sorted(result.assignment.pilots.tolist()) == [0, 1, 2, 3]
    assert result.base_colors == 2
    assert result.colors_used == 4


def test_spread_with_budget_equal_to_users(four_user_spread_instance):
    result = run_stage1(four_user_spread_instance, pilot_budget=4, reuse_cap=1)
    assert result.num_admitted == 4
    assert result.colors_used <= 4


def test_budget_of_one_on_complete_conflicts():
    clusters = np.array([[0], [0], [0]])
    instance = craft_instance(np.ones((1, 3)), clusters)
    result = run_stage1(instance, pilot_budget=1, reuse_cap=4)
    assert result.num_admitted == 1
    assert result.colors_used == 1


def test_budget_at_least_users_admits_everyone():
    cfg = SimConfig(num_rrhs=16, num_users=8, cluster_size=3, pilot_count=10)
    instance = build_network(cfg, seed=2)
    result = run_stage1(instance, pilot_budget=10, reuse_cap=4)
    assert result.case_taken == CASE_SPREAD
    assert result.num_admitted == 8


@pytest.mark.parametrize("spread,draws", [(True, None), (False, None),
                                          (False, np.random.default_rng(0).random(4))],
                         ids=["proposed", "nocase2", "con"])
def test_run_stage1_rejects_non_finite_interference_weights(spread, draws):
    # every gain underflows to zero, so each own-cluster gain does too:
    # the network still builds, and stage 1, the weights' only reader, raises
    cfg = SimConfig(num_rrhs=6, num_users=4, cluster_size=2, pathloss_intercept=4000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        instance = build_network(cfg, seed=0)
        assert not instance.alpha.any()
        with pytest.raises(ValueError, match="not finite"):
            run_stage1(instance, cfg.pilot_count, cfg.reuse_cap, spread=spread, draws=draws)


# what six calls (proposed, nocase2, con, then back) make on one
# network: the removal without draws and the spread once per budget, and
# one random removal per con call
@pytest.mark.parametrize("budget,made", [(2, {"select_users_case1": 1 + 2}), (6, {}),
                                         (9, {"reallocate_case2": 1})],
                         ids=["removal", "exact", "spread"])
def test_a_shared_base_gives_each_call_its_own_result(budget, made, monkeypatch):
    # every call on one network, in any order, returns what it would on a
    # fresh copy of the network, whose memo is empty
    calls = Counter()
    for name in ("select_users_case1", "reallocate_case2"):
        def counting(*args, _original=getattr(ucran.stage1, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(ucran.stage1, name, counting)
    instance = build_network(SimConfig(num_rrhs=36, num_users=24, cluster_size=4), seed=6)
    orders = [(True, None), (False, None), (False, 3)]    # proposed, nocase2, con
    orders += orders[::-1]

    def call(spread, seed, network):
        return run_stage1(network, budget, 4, spread=spread,
                          draws=None if seed is None else np.random.default_rng(seed).random(24))

    results = [call(spread, seed, instance) for spread, seed in orders]
    assert calls == Counter(made)
    for (spread, seed), shared in zip(orders, results):
        alone = call(spread, seed, dataclasses.replace(instance))
        assert (shared.case_taken, shared.removal_trace, shared.threshold,
                shared.base_colors) == (alone.case_taken, alone.removal_trace,
                                        alone.threshold, alone.base_colors)
        np.testing.assert_array_equal(shared.assignment.pilots, alone.assignment.pilots)
    kept = instance.memo.kept
    assert not kept[("weights",)].flags.writeable
    assert not kept[("coloring", 4)].pilots.flags.writeable
    decisions = [value for key, value in kept.items() if key[0] in ("removal", "spread")]
    assert len(decisions) == len(made)    # one kept decision per kind of branch
    assert not any(assignment.pilots.flags.writeable for assignment, _ in decisions)


def _decision(result) -> tuple:
    """Everything a stage-1 result says, its pilots as a list."""
    return (result.case_taken, result.removal_trace, result.threshold, result.base_colors,
            result.assignment.num_pilots, result.assignment.pilots.tolist())


def test_a_copy_with_other_gains_reads_none_of_the_originals_decisions():
    # stage 1 keeps its weights and decisions on the network; a copy with
    # other gains must make its own, not read the original's
    instance = build_network(SimConfig(num_rrhs=36, num_users=24, cluster_size=4), seed=6)
    alpha = build_network(SimConfig(num_rrhs=36, num_users=24, cluster_size=4), seed=7).alpha
    budgets = range(1, 13)
    before = [_decision(run_stage1(instance, budget, 4)) for budget in budgets]
    copy = dataclasses.replace(instance, alpha=alpha)
    fresh = NetworkInstance(rrh_positions=instance.rrh_positions,
                            user_positions=instance.user_positions, alpha=alpha,
                            clusters=instance.clusters)
    after = [_decision(run_stage1(copy, budget, 4)) for budget in budgets]
    assert after == [_decision(run_stage1(fresh, budget, 4)) for budget in budgets]
    assert after != before


def test_two_reuse_caps_on_one_network_decide_as_on_two_networks():
    instance = build_network(SimConfig(num_rrhs=36, num_users=24, cluster_size=4), seed=6)
    calls = [(cap, budget, spread) for budget in range(1, 13) for cap in (2, 4)
             for spread in (True, False)]
    shared = [_decision(run_stage1(instance, budget, cap, spread=spread))
              for cap, budget, spread in calls]
    alone = {cap: dataclasses.replace(instance) for cap in (2, 4)}
    assert shared == [_decision(run_stage1(alone[cap], budget, cap, spread=spread))
                      for cap, budget, spread in calls]
    assert {key[1] for key in instance.memo.kept if key[0] == "coloring"} == {2, 4}


def test_rejects_bad_budget():
    cfg = SimConfig(num_rrhs=4, num_users=2, cluster_size=1)
    instance = build_network(cfg, seed=0)
    for budget in (0, -1, -10**5000, 4.5, True, np.float64(3.0)):
        with pytest.raises(ValueError, match="pilot_budget must be an integer"):
            run_stage1(instance, pilot_budget=budget, reuse_cap=4)
    assert run_stage1(instance, pilot_budget=np.int64(2), reuse_cap=4).num_admitted == 2


@given(st.integers(0, 10 ** 6), st.integers(2, 6), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_result_invariants_on_random_networks(seed, pilot_budget, reuse_cap):
    cfg = SimConfig(num_rrhs=12, num_users=10, cluster_size=3, area_side=400.0)
    instance = build_network(cfg, seed=seed)
    result = run_stage1(instance, pilot_budget, reuse_cap)

    # admitted plus removed is a partition of the user set
    removed = set(result.removal_trace)
    assert removed.isdisjoint(result.admitted)
    assert removed | set(result.admitted.tolist()) == set(range(10))

    # assignment is a valid capped coloring of the base graph on survivors
    base = build_base_graph(instance.clusters).restrict(result.admitted)
    validate_assignment(base, result.assignment, reuse_cap)
    assert result.colors_used <= pilot_budget

    if result.case_taken == CASE_SPREAD:
        assert result.num_admitted == 10
        assert result.colors_used >= result.base_colors
        # spread never assigns co-pilot users above the reuse cap either
        sizes = result.assignment.group_sizes()
        assert sizes.max() <= reuse_cap

    # a budget matching the base need leaves the user set untouched
    rerun = run_stage1(instance, result.base_colors, reuse_cap)
    assert rerun.removal_trace == ()


def test_spread_threshold_among_pairwise_weights(two_triangle_instance):
    result = run_stage1(two_triangle_instance, pilot_budget=4, reuse_cap=4)
    assert result.case_taken == CASE_SPREAD
    weights = _weights(two_triangle_instance)
    off_diag = weights[~np.eye(6, dtype=bool)]
    assert result.threshold in off_diag


@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_spread_returns_the_coloring_of_its_threshold(seed, reuse_cap, spare):
    cfg = SimConfig(num_rrhs=12, num_users=10, cluster_size=3, area_side=400.0)
    instance = build_network(cfg, seed=seed)
    base = build_base_graph(instance.clusters)
    budget = dsatur_color(base, reuse_cap).num_pilots + spare
    result = run_stage1(instance, budget, reuse_cap)
    assert result.case_taken == CASE_SPREAD
    fresh = dsatur_color(build_thresholded_graph(base, _weights(instance), result.threshold),
                         reuse_cap)
    np.testing.assert_array_equal(result.assignment.pilots, fresh.pilots)
    assert result.colors_used == fresh.num_pilots <= budget


def test_spread_falls_back_to_the_base_coloring():
    # users 0-2 weigh 2 ln 2 pairwise and user 3 almost nothing to them;
    # cluster-disjoint, they all share one pilot under cap 4.  The probe
    # below 2 ln 2 adds the 0-1-2 triangle (3 pilots > 2) and fails; the
    # probe at 2 ln 2 adds no edge, so the base coloring is returned.
    alpha = np.full((4, 4), 1e-6)
    alpha[:3, :3] = 1.0
    np.fill_diagonal(alpha, 1.0)
    instance = craft_instance(alpha, np.arange(4)[:, None])
    result = run_stage1(instance, pilot_budget=2, reuse_cap=4)
    assert result.case_taken == CASE_SPREAD
    assert result.threshold == pytest.approx(2 * math.log(2))
    assert result.assignment.pilots.tolist() == [0, 0, 0, 0]
    assert result.colors_used == result.base_colors == 1

    # a lone user has no pair weight: the sentinel is the only candidate,
    # no probe runs, and the base coloring comes back at the sentinel 1.0
    lone = run_stage1(craft_instance(np.ones((1, 1)), np.array([[0]])),
                      pilot_budget=2, reuse_cap=4)
    assert lone.case_taken == CASE_SPREAD
    assert lone.threshold == 1.0
    assert lone.assignment.pilots.tolist() == [0]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_removal_matches_recoloring_every_round(data):
    # tight budgets on up to 30 users: the count bound decides most rounds,
    # and the last rounds need a coloring to test the budget
    num_users = data.draw(st.integers(4, 30), label="num_users")
    cfg = SimConfig(num_rrhs=data.draw(st.sampled_from([9, 16, 25]), label="num_rrhs"),
                    num_users=num_users,
                    cluster_size=data.draw(st.integers(1, 4), label="cluster_size"),
                    area_side=400.0)
    instance = build_network(cfg, seed=data.draw(st.integers(0, 10 ** 6), label="seed"))
    reuse_cap = data.draw(st.integers(1, 4), label="reuse_cap")
    base_colors = dsatur_color(build_base_graph(instance.clusters), reuse_cap).num_pilots
    assume(base_colors >= 2)
    budget = data.draw(st.integers(1, min(base_colors - 1, 4)), label="budget")
    rng_seed = data.draw(st.one_of(st.none(), st.integers(0, 10 ** 6)), label="rng_seed")
    draws = None if rng_seed is None else np.random.default_rng(rng_seed).random(num_users)

    result = run_stage1(instance, budget, reuse_cap, spread=False, draws=draws)
    trace, pilots = select_users_case1_reference(instance.clusters, _weights(instance),
                                                 budget, reuse_cap, draws=draws)
    assert result.case_taken == CASE_REMOVAL
    assert result.removal_trace == trace
    np.testing.assert_array_equal(result.assignment.pilots, pilots)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("policy", ["proposed", "random"])
def test_removal_matches_recoloring_every_round_on_a_long_run(policy, seed, monkeypatch):
    # 96 users, 4 pilots of reuse cap 4: the count bound decides every round
    # down to 16 survivors, so 80 removals in a row run on the running
    # degrees alone before the one coloring of the budget test
    instance = build_network(SimConfig(num_rrhs=144, num_users=96), seed=seed)
    budget, cap = 4, 4

    draws = None if policy == "proposed" else np.random.default_rng(seed).random(96)
    calls = _count_dsatur_calls(monkeypatch)
    result = run_stage1(instance, budget, cap, spread=False, draws=draws)
    trace, pilots = select_users_case1_reference(instance.clusters, _weights(instance),
                                                 budget, cap, draws=draws)
    assert result.case_taken == CASE_REMOVAL
    assert calls == [96, 16]
    assert result.removal_trace == trace
    assert len(trace) == 80
    np.testing.assert_array_equal(result.assignment.pilots, pilots)


@pytest.mark.parametrize("policy", ["proposed", "random"])
def test_removal_from_a_restricted_graph_keeps_to_its_users(policy):
    # users outside the graph's active set are never victims or survivors,
    # even once every survivor's degree has fallen to zero
    instance = build_network(SimConfig(num_rrhs=36, num_users=40, cluster_size=3), seed=3)
    active = np.arange(1, 40, 2)
    graph = build_base_graph(instance.clusters).restrict(active)
    draws = None if policy == "proposed" else np.random.default_rng(0).random(40)
    assignment, trace = select_users_case1(_weights(instance), 1, 2, graph, draws=draws)
    assert set(trace) <= set(active.tolist())
    np.testing.assert_array_equal(assignment.users,
                                  sorted(set(active.tolist()) - set(trace)))
    assert assignment.num_pilots == 1


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("num_rrhs,num_users", [(36, 24), (144, 96)])
@pytest.mark.parametrize("policy", ["proposed", "random"])
def test_a_larger_budget_removes_a_prefix_of_a_smaller_ones_victims(policy, num_rrhs,
                                                                     num_users, seed):
    # no victim pick reads a coloring, so the budget only decides where the
    # one victim order stops: each budget's trace extends the next one's
    instance = build_network(SimConfig(num_rrhs=num_rrhs, num_users=num_users), seed=seed)
    cap = 4
    draws = None if policy == "proposed" else np.random.default_rng(seed).random(num_users)
    traces = [run_stage1(instance, budget, cap, draws=draws).removal_trace
              for budget in range(1, base_coloring(instance, cap).num_pilots)]
    for smaller, larger in zip(traces, traces[1:]):
        assert smaller[:len(larger)] == larger


def _count_dsatur_calls(monkeypatch):
    calls = []

    def counting(graph, reuse_cap, max_colors=None):
        calls.append(len(graph.users))
        return dsatur_color(graph, reuse_cap, max_colors)

    monkeypatch.setattr("ucran.stage1.dsatur_color", counting)
    return calls


def test_random_removal_colors_only_when_the_count_bound_cannot_decide(monkeypatch):
    # 60 users, 2 pilots of reuse cap 2: at most 4 users can fit, so every
    # round above 4 survivors is decided without a coloring
    cfg = SimConfig(num_rrhs=36, num_users=60, cluster_size=3)
    instance = build_network(cfg, seed=4)
    budget, cap = 2, 2
    calls = _count_dsatur_calls(monkeypatch)
    result = run_stage1(instance, budget, cap, spread=False,
                        draws=np.random.default_rng(0).random(60))
    assert result.case_taken == CASE_REMOVAL
    survivors = [60 - r for r in range(1, len(result.removal_trace) + 1)]
    undecided = [n for n in survivors if -(-n // cap) <= budget]
    assert calls == [60] + undecided
    assert len(calls) <= 5 < len(result.removal_trace)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("policy", ["proposed", "random"])
def test_removal_colors_only_for_the_budget_test(policy, seed, monkeypatch):
    # whichever policy picks the victims, DSatur colors the base graph and
    # then only the survivor counts that ceil(n / cap) <= budget leaves open
    cfg = SimConfig(num_rrhs=36, num_users=60, cluster_size=3)
    instance = build_network(cfg, seed=seed)
    budget, cap = 2, 2
    draws = None if policy == "proposed" else np.random.default_rng(seed).random(60)
    calls = _count_dsatur_calls(monkeypatch)
    result = run_stage1(instance, budget, cap, spread=False, draws=draws)
    assert result.case_taken == CASE_REMOVAL
    survivors = [60 - r for r in range(1, len(result.removal_trace) + 1)]
    assert calls == [60] + [n for n in survivors if -(-n // cap) <= budget]


def _count_score_calls(monkeypatch):
    calls = []

    def counting(weights, users, candidates):
        calls.append(list(candidates))
        return interference_score(weights, users, candidates)

    monkeypatch.setattr("ucran.stage1.interference_score", counting)
    return calls


def _clusters_of(edges, num_users):
    """Clusters whose overlap graph is exactly ``edges``: one RRH per edge,
    padded with private RRHs to the largest degree."""
    owned = [[] for _ in range(num_users)]
    for rrh, (a, b) in enumerate(edges):
        owned[a].append(rrh)
        owned[b].append(rrh)
    size = max(1, max(map(len, owned)))
    spare = iter(range(len(edges), len(edges) + size * num_users))
    return np.array([rrhs + [next(spare) for _ in range(size - len(rrhs))] for rrhs in owned])


def _check_removal_against_the_oracle(weights, edges, pilot_budget, reuse_cap, monkeypatch):
    clusters = _clusters_of(edges, len(weights))
    calls = _count_score_calls(monkeypatch)
    assignment, trace = select_users_case1(weights, pilot_budget, reuse_cap,
                                           build_base_graph(clusters))
    want_trace, want_pilots = select_users_case1_reference(clusters, weights,
                                                           pilot_budget, reuse_cap)
    assert trace == want_trace
    np.testing.assert_array_equal(assignment.pilots, want_pilots)
    return trace, calls


def test_a_near_tie_of_equal_weights_in_another_order_is_summed_exactly(monkeypatch):
    # users 0 and 1 share the one edge and the weight 1.0, and each holds
    # the same eight weights to users 2-9, user 1's rotated by five places.
    # Left to right user 0's total comes out one ulp above user 1's; the
    # running totals, summed pairwise, read one ulp the other way.  Both
    # lie within the error bound, so the exact sums decide: user 0 goes.
    spread = np.array([0.1, 0.2, 0.3, 0.7, 1.1, 0.6, 0.9, 1.3])
    weights = np.zeros((10, 10))
    weights[0, 1] = 1.0
    weights[0, 2:] = spread
    weights[1, 2:] = np.roll(spread, -5)
    weights = weights + weights.T
    left_to_right = interference_score(weights, range(10), [0, 1])
    assert left_to_right[0] - left_to_right[1] == np.spacing(left_to_right[1])

    trace, calls = _check_removal_against_the_oracle(weights, [(0, 1)], 1, 10, monkeypatch)
    assert trace == (0,)
    assert calls == [[0, 1]]


def test_a_near_tie_behind_a_huge_removed_weight_is_summed_exactly(monkeypatch):
    # user 0 conflicts with 1-4 and goes first on degree alone.  User 1's
    # weight to it is 1e16, whose ulp is 2: user 1's running total
    # 1e16 + 1 + 1 + 1 rounds to 1e16 and reads 0 once that weight is taken
    # off, though its other weights sum to 3.  Round 2 ties users 1-4 on
    # degree 1 and user 2's running total 2 is the best.  The 1e16 weight
    # sets the one bound (about 62), which covers all four tied totals, so
    # the exact sums decide: user 1 (3) goes before user 2 (2).  Then 2
    # and 4 tie on totals inside the bound, and the exact sums pick 2.
    weights = np.zeros((6, 6))
    for a, b, weight in ((0, 1, 1e16), (1, 2, 1.0), (1, 4, 1.0), (1, 5, 1.0), (2, 5, 1.0)):
        weights[a, b] = weights[b, a] = weight
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (2, 4)]
    trace, calls = _check_removal_against_the_oracle(weights, edges, 1, 6, monkeypatch)
    assert trace == (0, 1, 2)
    assert calls == [[1, 2, 3, 4], [2, 4]]


@pytest.mark.parametrize("pair_weight,score_calls", [(1e16, [[0, 1]]), (1.0, [])])
def test_the_exact_sums_run_only_inside_the_one_bound(pair_weight, score_calls,
                                                       monkeypatch):
    # users 0 and 1 share the one edge and tie on degree; their totals are
    # 1 + 3 = 4 and 1 + 2 = 3.  Users 2 and 3, without edges, hold
    # ``pair_weight`` to each other, which sets the largest scale and with
    # it the bound 4 * terms * eps * max(scale): about 36 at 1e16, so user
    # 1 lies inside it and the exact sums pick user 0.  At 1.0 the bound
    # is about 1e-14, and user 0's running total decides alone.
    weights = np.zeros((4, 4))
    for a, b, weight in ((0, 1, 1.0), (0, 2, 3.0), (1, 2, 2.0), (2, 3, pair_weight)):
        weights[a, b] = weights[b, a] = weight
    trace, calls = _check_removal_against_the_oracle(weights, [(0, 1)], 1, 4, monkeypatch)
    assert trace == (0,)
    assert calls == score_calls


@pytest.mark.parametrize("seed", [1, 2])
def test_dense_removal_settles_every_tie_on_the_running_totals(seed, monkeypatch):
    # the benchmark's dense case-1 point: no tie is close enough to need
    # the exact sums
    instance = build_network(SimConfig(num_rrhs=324, num_users=216, cluster_size=4), seed=seed)
    calls = _count_score_calls(monkeypatch)
    result = run_stage1(instance, 8, 4)
    assert result.case_taken == CASE_REMOVAL
    assert len(result.removal_trace) == 184
    assert calls == []
