import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucran import (
    SimConfig,
    build_base_graph,
    build_network,
    dsatur_color,
    interference_matrix,
    run_stage1,
    validate_assignment,
)
from ucran.stage1 import CASE_BASE, CASE_EXACT, CASE_REMOVAL, CASE_SPREAD

from conftest import craft_instance


def test_star_center_removed_first(star_instance):
    result = run_stage1(star_instance, pilot_budget=1, reuse_cap=5)
    assert result.case_taken == CASE_REMOVAL
    assert result.removal_trace == (0,)
    np.testing.assert_array_equal(result.admitted, [1, 2, 3, 4, 5])
    # all leaves fit on the single pilot once the hub user is gone
    assert result.colors_used == 1
    assert set(result.assignment.pilot_of.values()) == {0}


def test_removal_tie_broken_by_interference_score():
    # users 0 and 1 tie on degree (one edge between them); the reuse cap
    # of 2 packs isolated user 2 with user 0 and user 3 with user 1, and
    # user 1's group interference is made much larger, so despite the
    # lower id of user 0 it is user 1 that goes first
    clusters = np.array([[0, 1], [1, 2], [3, 4], [5, 6]])
    alpha = np.full((7, 4), 1e-9)
    for k in range(4):
        alpha[clusters[k], k] = 1.0
    alpha[[5, 6], 1] = 0.9    # strong coupling between users 1 and 3
    alpha[[1, 2], 3] = 0.9
    instance = craft_instance(alpha, clusters)

    base = build_base_graph(clusters)
    assignment = dsatur_color(base, reuse_cap=2)
    assert assignment.pilot_of[0] == assignment.pilot_of[2]
    assert assignment.pilot_of[1] == assignment.pilot_of[3]

    result = run_stage1(instance, pilot_budget=1, reuse_cap=2)
    assert result.case_taken == CASE_REMOVAL
    assert result.removal_trace[0] == 1


def test_removal_tie_falls_back_to_lowest_index():
    # two isolated co-cluster pairs, all weights equal: degree and group
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
    groups = {tuple(v) for v in assignment.groups.values()}
    assert groups == {(0, 1), (2, 3), (4, 5)}


def test_spread_separates_strong_pairs(two_triangle_instance):
    result = run_stage1(two_triangle_instance, pilot_budget=4, reuse_cap=4)
    assert result.case_taken == CASE_SPREAD
    assert result.num_admitted == 6
    pilots = result.assignment.pilot_of
    for a, b in ((0, 1), (2, 3), (4, 5)):
        assert pilots[a] != pilots[b]
    assert result.base_colors <= result.colors_used <= 4
    assert result.threshold is not None


def test_removal_case_on_two_triangles(two_triangle_instance):
    result = run_stage1(two_triangle_instance, pilot_budget=2, reuse_cap=4)
    assert result.case_taken == CASE_REMOVAL
    assert result.removal_trace == (0, 1)
    np.testing.assert_array_equal(result.admitted, [2, 3, 4, 5])
    assert result.colors_used == 2


def test_spread_picks_smallest_workable_threshold(four_user_spread_instance):
    result = run_stage1(four_user_spread_instance, pilot_budget=4, reuse_cap=4)
    assert result.case_taken == CASE_SPREAD
    # both base pairs weigh exactly 2 ln 2; the chosen threshold sits there,
    # completing the graph and forcing four distinct pilots
    assert result.threshold == pytest.approx(2 * math.log(2))
    assert sorted(result.assignment.pilot_of.values()) == [0, 1, 2, 3]
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


def test_rejects_bad_budget_and_unbuilt_instance():
    cfg = SimConfig(num_rrhs=4, num_users=2, cluster_size=1)
    instance = build_network(cfg, seed=0)
    with pytest.raises(ValueError):
        run_stage1(instance, pilot_budget=0, reuse_cap=4)
    from ucran import generate_topology
    bare = generate_topology(cfg, seed=0)
    with pytest.raises(ValueError, match="clusters"):
        run_stage1(bare, pilot_budget=2, reuse_cap=4)


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
    base = build_base_graph(instance.clusters, result.admitted)
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
    weights = interference_matrix(two_triangle_instance.alpha,
                                  two_triangle_instance.clusters)
    off_diag = weights[~np.eye(6, dtype=bool)]
    assert result.threshold in off_diag
