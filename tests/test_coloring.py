import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucran import (PilotAssignment, SimConfig, build_base_graph, build_network, dsatur_color,
                   validate_assignment)
from ucran.conflict_graph import ConflictGraph

from oracles import (dsatur_reference, exact_capped_chromatic, greedy_clique_bound,
                     max_colorable_users)


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
    # a cap that is not an integer would never be reached exactly
    for cap in (0, 2.5, True):
        with pytest.raises(ValueError, match=f"reuse_cap must be an integer >= 1, got {cap}"):
            dsatur_color(graph_from_edges(2, []), reuse_cap=cap)
    assert dsatur_color(graph_from_edges(2, []), reuse_cap=np.int64(1)).num_pilots == 2


def test_validate_assignment_catches_violations():
    g = graph_from_edges(3, [(0, 1)])
    good = dsatur_color(g, reuse_cap=2)
    validate_assignment(g, good, reuse_cap=2)

    with pytest.raises(AssertionError, match="share pilot"):
        validate_assignment(g, PilotAssignment([0, 0, 1]), 2)
    with pytest.raises(AssertionError, match="cover"):
        validate_assignment(g, PilotAssignment([0, 1, -1]), 2)
    with pytest.raises(AssertionError, match="reuse cap"):
        validate_assignment(g, PilotAssignment([0, 1, 1]), 1)
    with pytest.raises(AssertionError, match="contiguous"):
        validate_assignment(g, PilotAssignment([0, 2, 2]), 2)
    with pytest.raises(AssertionError, match="contiguous"):
        validate_assignment(g, PilotAssignment([0, 1, 5]), 2)



def test_the_pilot_count_is_read_from_the_pilot_array():
    # one more than the highest pilot held, 0 when nobody holds one; the
    # count is never passed in beside the array
    assert PilotAssignment([-1, 1, 0]).num_pilots == 2
    assert PilotAssignment([-1, -1, -1]).num_pilots == 0
    with pytest.raises(TypeError):
        PilotAssignment([0, 1], 2)

@given(st.integers(0, 10 ** 6), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_random_graphs_yield_valid_colorings(seed, cap):
    g = random_graph(seed, num_users=12)
    assignment = dsatur_color(g, reuse_cap=cap)
    validate_assignment(g, assignment, reuse_cap=cap)
    assert assignment.num_pilots >= int(np.ceil(12 / cap))
    assert assignment.num_pilots >= greedy_clique_bound(g.adjacency)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_matches_reference_dsatur(data):
    num_users = data.draw(st.integers(1, 60), label="num_users")
    # 0.02 is as sparse as the 216-user removal graphs, 0.9 as dense as
    # the thresholded graphs of the spread search
    density = data.draw(st.sampled_from([0.02, 0.1, 0.3, 0.5, 0.8, 0.9]), label="density")
    g = random_graph(data.draw(st.integers(0, 10 ** 6), label="seed"), num_users, density)
    if data.draw(st.booleans(), label="restrict"):
        g = g.restrict(sorted(data.draw(st.sets(st.integers(0, num_users - 1)), label="active")))
    cap = data.draw(st.integers(1, num_users + 1), label="cap")
    assignment = dsatur_color(g, reuse_cap=cap)
    pilots, num_pilots = dsatur_reference(g, cap)
    np.testing.assert_array_equal(assignment.pilots, pilots)
    assert assignment.num_pilots == num_pilots


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_color_limit_returns_none_exactly_when_the_full_coloring_exceeds_it(data):
    num_users = data.draw(st.integers(1, 40), label="num_users")
    density = data.draw(st.sampled_from([0.02, 0.1, 0.3, 0.5, 0.8, 0.9]), label="density")
    g = random_graph(data.draw(st.integers(0, 10 ** 6), label="seed"), num_users, density)
    if data.draw(st.booleans(), label="restrict"):
        g = g.restrict(sorted(data.draw(st.sets(st.integers(0, num_users - 1)), label="active")))
    cap = data.draw(st.integers(1, num_users + 1), label="cap")
    full = dsatur_color(g, reuse_cap=cap)
    # limits around the full coloring's count, where the answer turns
    limit = data.draw(st.integers(max(0, full.num_pilots - 2), full.num_pilots + 2),
                      label="max_colors")
    limited = dsatur_color(g, cap, limit)
    if full.num_pilots > limit:
        assert limited is None
    else:
        np.testing.assert_array_equal(limited.pilots, full.pilots)
        assert limited.num_pilots == full.num_pilots


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_matches_reference_dsatur_on_cluster_graphs(data):
    # restricted cluster-overlap graphs on many RRHs, as in case-1 removal
    num_users = data.draw(st.integers(10, 60), label="num_users")
    num_rrhs = data.draw(st.integers(num_users, 3 * num_users), label="num_rrhs")
    width = data.draw(st.integers(1, 6), label="width")
    rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6), label="seed"))
    clusters = np.stack([rng.choice(num_rrhs, size=width, replace=False)
                         for _ in range(num_users)])
    active = np.flatnonzero(rng.random(num_users) < data.draw(st.floats(0.2, 1.0), label="keep"))
    g = build_base_graph(clusters).restrict(active)
    cap = data.draw(st.integers(1, 6), label="cap")
    assignment = dsatur_color(g, reuse_cap=cap)
    pilots, num_pilots = dsatur_reference(g, cap)
    np.testing.assert_array_equal(assignment.pilots, pilots)
    assert assignment.num_pilots == num_pilots


def assert_limited_coloring_matches_reference(g, cap, limit):
    """dsatur_color(g, cap, limit) is the reference coloring, or None exactly
    when that coloring needs more than a non-negative ``limit`` colors."""
    pilots, num_pilots = dsatur_reference(g, cap)
    limited = dsatur_color(g, cap, limit)
    if limit is not None and 0 <= limit < num_pilots:
        assert limited is None
    else:
        np.testing.assert_array_equal(limited.pilots, pilots)
        assert limited.num_pilots == num_pilots


def dense_cluster_graph() -> ConflictGraph:
    return build_base_graph(build_network(SimConfig(num_rrhs=324, num_users=216), 7).clusters)


# the size of a dense case-2 spread probe: 216 users, thresholded graphs as
# dense as 0.58 and 0.9, and a 324-RRH cluster-overlap graph
@pytest.mark.parametrize("make_graph", [lambda: random_graph(2024, 216, 0.58),
                                        lambda: random_graph(2025, 216, 0.9),
                                        dense_cluster_graph],
                         ids=["density-0.58", "density-0.9", "cluster-overlap"])
def test_matches_reference_at_probe_scale(make_graph):
    g = make_graph()
    _, full = dsatur_reference(g, 4)
    for limit in (64, full - 1, full, full + 1):
        assert_limited_coloring_matches_reference(g, 4, limit)


@pytest.mark.parametrize("make_graph, limit", [
    (lambda: random_graph(3, 12).restrict([]), None),
    (lambda: random_graph(3, 12).restrict([]), 0),
    (lambda: random_graph(4, 12, 0.5), 12),
    (lambda: random_graph(4, 12, 0.5), 13),
    (lambda: random_graph(5, 30, 0.4).restrict(range(1, 30, 3)), None),
    (lambda: random_graph(5, 30, 0.4).restrict(range(1, 30, 3)), 2),
    (lambda: random_graph(6, 12, 0.5), -1),
    (lambda: random_graph(6, 12, 0.5).restrict(range(4)), -5),
], ids=["empty", "empty-limit-0", "limit-at-user-count", "limit-above-user-count",
        "restricted", "restricted-limit-2", "negative-limit", "restricted-negative-limit"])
def test_edge_cases_match_reference(make_graph, limit):
    # a negative limit is never reached: the full coloring comes back
    assert_limited_coloring_matches_reference(make_graph(), 3, limit)


@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(3, 7))
@settings(max_examples=40, deadline=None)
def test_never_beats_exhaustive_optimum(seed, cap, num_users):
    g = random_graph(seed, num_users)
    assignment = dsatur_color(g, reuse_cap=cap)
    optimum = exact_capped_chromatic(g.adjacency, cap)
    assert assignment.num_pilots >= optimum


@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(1, 3), st.integers(1, 7),
       st.floats(0.1, 0.9))
@settings(max_examples=40, deadline=None)
def test_max_colorable_users_matches_exhaustive_search(seed, budget, cap, num_users, p):
    # the case-1 oracle: the largest user subset whose exact capped coloring fits
    adjacency = random_graph(seed, num_users, p).adjacency
    want = max(size for size in range(num_users + 1)
               for subset in itertools.combinations(range(num_users), size)
               if exact_capped_chromatic(adjacency[np.ix_(subset, subset)], cap) <= budget)
    assert max_colorable_users(adjacency, budget, cap) == want


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


def test_users_and_group_sizes_read_the_one_pilot_array():
    active = [0, 1, 2, 4, 5, 7, 8]
    g = random_graph(7, 9).restrict(active)
    assignment = dsatur_color(g, reuse_cap=3)
    assert assignment.users.tolist() == active
    # users and group sizes both read the one pilot array
    np.testing.assert_array_equal(assignment.users, np.flatnonzero(assignment.pilots >= 0))
    sizes = assignment.group_sizes()
    assert sizes.shape == (assignment.num_pilots,)
    for c in range(assignment.num_pilots):
        assert sizes[c] == np.count_nonzero(assignment.pilots == c)


def test_cluster_overlap_to_coloring_pipeline():
    # co-clustered users come out on different pilots
    clusters = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
    g = build_base_graph(clusters)
    assignment = dsatur_color(g, reuse_cap=4)
    for a in range(4):
        for b in range(a + 1, 4):
            if set(clusters[a]) & set(clusters[b]):
                assert assignment.pilots[a] != assignment.pilots[b]
