import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucran import PilotAssignment, build_base_graph, dsatur_color, validate_assignment
from ucran.conflict_graph import ConflictGraph

from oracles import exact_capped_chromatic, greedy_clique_bound


def graph_from_edges(num_users: int, edges, active=None) -> ConflictGraph:
    adjacency = np.zeros((num_users, num_users), dtype=bool)
    for a, b in edges:
        adjacency[a, b] = adjacency[b, a] = True
    users = np.arange(num_users) if active is None else np.asarray(sorted(active))
    return ConflictGraph(adjacency=adjacency, users=users)


def random_graph(seed: int, num_users: int, p: float = 0.4) -> ConflictGraph:
    rng = np.random.default_rng(seed)
    upper = rng.random((num_users, num_users)) < p
    adjacency = np.triu(upper, 1)
    adjacency = adjacency | adjacency.T
    return ConflictGraph(adjacency=adjacency, users=np.arange(num_users))


def test_path_graph_coloring_order():
    # middle vertex has the highest degree, gets color 0 first
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    assignment = dsatur_color(g, reuse_cap=4)
    assert assignment.pilots.tolist() == [1, 0, 1]
    assert assignment.num_pilots == 2


def test_cap_splits_edgeless_graph():
    g = graph_from_edges(5, [])
    assignment = dsatur_color(g, reuse_cap=2)
    assert assignment.num_pilots == 3
    np.testing.assert_array_equal(assignment.group_sizes(), [2, 2, 1])
    # lowest ids fill the lowest colors first
    assert assignment.pilots.tolist() == [0, 0, 1, 1, 2]


def test_complete_graph_needs_all_colors():
    n = 4
    g = graph_from_edges(n, [(a, b) for a in range(n) for b in range(a + 1, n)])
    assignment = dsatur_color(g, reuse_cap=1)
    assert assignment.num_pilots == n
    assert sorted(assignment.pilots.tolist()) == list(range(n))


def test_only_active_users_are_colored():
    g = graph_from_edges(4, [(0, 1)], active={0, 1, 3})
    assignment = dsatur_color(g, reuse_cap=4)
    assert assignment.users.tolist() == [0, 1, 3]
    assert assignment.pilots[2] == -1


def test_rejects_bad_cap():
    with pytest.raises(ValueError):
        dsatur_color(graph_from_edges(2, []), reuse_cap=0)


def test_validate_assignment_catches_violations():
    g = graph_from_edges(3, [(0, 1)])
    good = dsatur_color(g, reuse_cap=2)
    validate_assignment(g, good, reuse_cap=2)

    with pytest.raises(AssertionError, match="share pilot"):
        validate_assignment(g, PilotAssignment([0, 0, 1], 2), 2)
    with pytest.raises(AssertionError, match="cover"):
        validate_assignment(g, PilotAssignment([0, 1, -1], 2), 2)
    with pytest.raises(AssertionError, match="reuse cap"):
        validate_assignment(g, PilotAssignment([0, 1, 1], 2), 1)
    with pytest.raises(AssertionError, match="contiguous"):
        validate_assignment(g, PilotAssignment([0, 2, 2], 3), 2)
    with pytest.raises(AssertionError, match="out-of-range"):
        validate_assignment(g, PilotAssignment([0, 1, 5], 2), 2)


@given(st.integers(0, 10 ** 6), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_random_graphs_yield_valid_colorings(seed, cap):
    g = random_graph(seed, num_users=12)
    assignment = dsatur_color(g, reuse_cap=cap)
    validate_assignment(g, assignment, reuse_cap=cap)
    assert assignment.num_pilots >= int(np.ceil(12 / cap))
    assert assignment.num_pilots >= greedy_clique_bound(g.adjacency)


@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(3, 7))
@settings(max_examples=40, deadline=None)
def test_never_beats_exhaustive_optimum(seed, cap, num_users):
    g = random_graph(seed, num_users)
    assignment = dsatur_color(g, reuse_cap=cap)
    optimum = exact_capped_chromatic(g.adjacency, cap)
    assert assignment.num_pilots >= optimum


@pytest.mark.parametrize("cap", [1, 2, 3])
@pytest.mark.parametrize("num_users", [2, 5, 8])
def test_matches_optimum_on_edgeless_and_complete(cap, num_users):
    edgeless = graph_from_edges(num_users, [])
    assert dsatur_color(edgeless, cap).num_pilots == -(-num_users // cap)
    complete = graph_from_edges(
        num_users, [(a, b) for a in range(num_users) for b in range(a + 1, num_users)])
    assert dsatur_color(complete, cap).num_pilots == num_users


def test_deterministic_output():
    g = random_graph(123, 15)
    a = dsatur_color(g, reuse_cap=3)
    b = dsatur_color(g, reuse_cap=3)
    np.testing.assert_array_equal(a.pilots, b.pilots)
    assert a.num_pilots == b.num_pilots


def test_groups_view_is_sorted_and_complete():
    active = [0, 1, 2, 4, 5, 7, 8]
    g = random_graph(7, 9).restrict(active)
    assignment = dsatur_color(g, reuse_cap=3)
    groups = assignment.groups
    flattened = sorted(k for members in groups.values() for k in members)
    assert flattened == active == assignment.users.tolist()
    for members in groups.values():
        assert members == sorted(members)
    # users, membership, groups and group sizes all read the one pilot array
    membership = assignment.membership
    assert membership.shape == (9, assignment.num_pilots)
    np.testing.assert_array_equal(membership.sum(axis=1), assignment.pilots >= 0)
    np.testing.assert_array_equal(membership.sum(axis=0), assignment.group_sizes())
    for c, members in groups.items():
        np.testing.assert_array_equal(np.flatnonzero(membership[:, c]), members)
        assert (assignment.pilots[members] == c).all()
        assert len(members) == assignment.group_sizes()[c]


def test_cluster_overlap_to_coloring_pipeline():
    # co-clustered users come out on different pilots
    clusters = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
    g = build_base_graph(clusters)
    assignment = dsatur_color(g, reuse_cap=4)
    for a in range(4):
        for b in range(a + 1, 4):
            if set(clusters[a]) & set(clusters[b]):
                assert assignment.pilots[a] != assignment.pilots[b]
