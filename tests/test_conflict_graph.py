import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucran import (
    PilotAssignment,
    build_base_graph,
    build_thresholded_graph,
    interference_matrix,
    interference_score,
    vertex_degrees,
)

from oracles import pilot_interference


def _random_alpha(seed: int, num_rrhs: int, num_users: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return 10.0 ** rng.uniform(-12, -6, size=(num_rrhs, num_users))


def test_base_graph_edges_iff_clusters_intersect():
    clusters = np.array([[0, 1], [1, 2], [3, 4], [4, 0]])
    g = build_base_graph(clusters)
    assert g.adjacency[0, 1] and g.adjacency[1, 0]    # share RRH 1
    assert g.adjacency[2, 3]                          # share RRH 4
    assert g.adjacency[0, 3]                          # share RRH 0
    assert not g.adjacency[0, 2]
    assert not g.adjacency[1, 3]
    assert not g.adjacency.diagonal().any()


def test_base_graph_restricted_to_active_users():
    clusters = np.array([[0], [0], [0]])
    g = build_base_graph(clusters, active_users={0, 2})
    assert g.adjacency[0, 2]
    assert not g.adjacency[0, 1] and not g.adjacency[1, 2]
    np.testing.assert_array_equal(g.users, [0, 2])
    assert g.degree(1) == 0
    np.testing.assert_array_equal(g.neighbors(0), [2])


def test_pairwise_weight_hand_value():
    # cross/own ratios 0.5 and 0.2: ln(1.5) + ln(1.2)
    alpha = np.array([
        [2.0, 1.0],   # RRH 0 = user 0's cluster
        [1.0, 5.0],   # RRH 1 = user 1's cluster
    ])
    clusters = np.array([[0], [1]])
    value = pilot_interference(alpha, clusters, 0, 1)
    assert value == pytest.approx(math.log(1.5) + math.log(1.2))
    assert value == pytest.approx(0.5877866649, abs=1e-9)


def test_pairwise_weight_symmetric_case():
    # equal own and cross sums on both sides: 2 ln 2
    alpha = np.array([[1.0, 1.0], [1.0, 1.0]])
    clusters = np.array([[0], [1]])
    assert pilot_interference(alpha, clusters, 0, 1) == pytest.approx(2 * math.log(2))


def test_pairwise_weight_rejects_same_user():
    alpha = np.ones((2, 2))
    clusters = np.array([[0], [1]])
    with pytest.raises(ValueError):
        pilot_interference(alpha, clusters, 1, 1)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_matrix_matches_scalar_definition(seed):
    rng = np.random.default_rng(seed)
    num_rrhs, num_users, width = 8, 6, 3
    alpha = 10.0 ** rng.uniform(-12, -6, size=(num_rrhs, num_users))
    clusters = np.stack([rng.choice(num_rrhs, size=width, replace=False)
                         for _ in range(num_users)])
    matrix = interference_matrix(alpha, clusters)
    assert matrix.shape == (num_users, num_users)
    np.testing.assert_allclose(matrix, matrix.T)
    assert (np.diag(matrix) == 0).all()
    assert (matrix >= 0).all()
    for k in range(num_users):
        for k2 in range(k + 1, num_users):
            assert matrix[k, k2] == pytest.approx(
                pilot_interference(alpha, clusters, k, k2), rel=1e-12)


def test_threshold_graph_strict_inequality():
    clusters = np.array([[0], [1], [2]])
    base = build_base_graph(clusters)          # edgeless
    weights = np.array([
        [0.0, 1.0, 2.0],
        [1.0, 0.0, 3.0],
        [2.0, 3.0, 0.0],
    ])
    g = build_thresholded_graph(base, weights, threshold=2.0)
    assert g.adjacency[1, 2] and g.adjacency[2, 1]   # 3.0 > 2.0
    assert not g.adjacency[0, 2]                     # 2.0 == threshold stays out
    assert not g.adjacency[0, 1]


def test_threshold_graph_is_supergraph_and_monotone():
    alpha = _random_alpha(5, 10, 8)
    rng = np.random.default_rng(5)
    clusters = np.stack([rng.choice(10, size=2, replace=False) for _ in range(8)])
    base = build_base_graph(clusters)
    weights = interference_matrix(alpha, clusters)
    prev_edges = None
    for threshold in [np.inf, weights.max(), np.median(weights), 0.0]:
        g = build_thresholded_graph(base, weights, threshold)
        assert (g.adjacency | base.adjacency == g.adjacency).all()
        edges = g.adjacency.sum()
        if prev_edges is not None:
            assert edges >= prev_edges     # lower threshold, more edges
        prev_edges = edges


def test_threshold_graph_rejects_negative_threshold():
    base = build_base_graph(np.array([[0], [1]]))
    with pytest.raises(ValueError):
        build_thresholded_graph(base, np.zeros((2, 2)), -0.1)


def test_vertex_degrees():
    clusters = np.array([[0], [0], [0], [1]])
    g = build_base_graph(clusters)
    np.testing.assert_array_equal(vertex_degrees(g), [2, 2, 2, 0])


def test_interference_score_sums_group_weights():
    weights = np.array([
        [0.0, 0.3, 0.5, 0.1],
        [0.3, 0.0, 0.2, 0.4],
        [0.5, 0.2, 0.0, 0.6],
        [0.1, 0.4, 0.6, 0.0],
    ])
    assignment = PilotAssignment(pilot_of={0: 0, 1: 0, 2: 0, 3: 1}, num_pilots=2)
    assert interference_score(weights, assignment, 0) == pytest.approx(0.8)
    assert interference_score(weights, assignment, 3) == pytest.approx(0.0)


def test_interference_score_requires_assignment():
    assignment = PilotAssignment(pilot_of={0: 0}, num_pilots=1)
    with pytest.raises(ValueError, match="no pilot"):
        interference_score(np.zeros((2, 2)), assignment, 1)
