import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucran import build_base_graph, interference_matrix
from ucran.conflict_graph import build_thresholded_graph, interference_score, vertex_degrees

from oracles import base_graph_on, pilot_interference, weight_total_reference


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
    g = build_base_graph(clusters).restrict({0, 2})
    assert g.adjacency[0, 2]
    assert not g.adjacency[0, 1] and not g.adjacency[1, 2]
    np.testing.assert_array_equal(g.users, [0, 2])
    assert not g.adjacency[1].any()
    np.testing.assert_array_equal(np.flatnonzero(g.adjacency[0]), [2])


@given(st.integers(0, 10 ** 6), st.integers(1, 12), st.integers(1, 4),
       st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_restrict_matches_reference_construction(seed, num_users, width, keep):
    rng = np.random.default_rng(seed)
    num_rrhs = 8
    clusters = np.stack([rng.choice(num_rrhs, size=width, replace=False)
                         for _ in range(num_users)])
    active = np.flatnonzero(rng.random(num_users) < keep)
    g = build_base_graph(clusters).restrict(active)
    adjacency, users = base_graph_on(clusters, set(active.tolist()))
    np.testing.assert_array_equal(g.adjacency, adjacency)
    np.testing.assert_array_equal(g.users, users)
    # restricting again to a subset equals building on that subset directly
    half = active[::2]
    np.testing.assert_array_equal(g.restrict(half).adjacency,
                                  base_graph_on(clusters, set(half.tolist()))[0])


@given(st.integers(0, 10 ** 6), st.integers(0, 60), st.integers(1, 120), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_base_graph_matches_reference_construction(seed, num_users, num_rrhs, width):
    rng = np.random.default_rng(seed)
    width = min(width, num_rrhs)
    clusters = np.array([rng.choice(num_rrhs, size=width, replace=False)
                         for _ in range(num_users)], dtype=np.int64).reshape(num_users, width)
    g = build_base_graph(clusters)
    adjacency, users = base_graph_on(clusters, range(num_users))
    np.testing.assert_array_equal(g.adjacency, adjacency)
    np.testing.assert_array_equal(g.users, users)


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


def test_matrix_rejects_non_finite_weights():
    # user 1's own-cluster gain underflows to zero: its ratios divide by zero
    alpha = np.array([[1.0, 1e-3], [1e-3, 0.0]])
    clusters = np.array([[0], [1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            interference_matrix(alpha, clusters)


def test_matrix_rejects_a_cluster_gain_that_overflows_its_sum():
    # two link gains near the float maximum: the cluster's received power
    # sums to inf, which ends in the same error, not an overflow warning
    alpha = np.full((2, 2), 8.98850153e307)
    clusters = np.array([[0, 1], [1, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            interference_matrix(alpha, clusters)


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


_SCORE_WEIGHTS = np.array([
    [0.0, 0.3, 0.5, 0.1],
    [0.3, 0.0, 0.2, 0.4],
    [0.5, 0.2, 0.0, 0.6],
    [0.1, 0.4, 0.6, 0.0],
])


def test_interference_score_sums_weights_to_users():
    scores = interference_score(_SCORE_WEIGHTS, [0, 1, 2, 3], [0, 3])
    assert scores.shape == (2,)
    assert scores == pytest.approx([0.3 + 0.5 + 0.1, 0.1 + 0.4 + 0.6])
    # only the listed users count, and a candidate need not be among them
    assert interference_score(_SCORE_WEIGHTS, [1, 2], [0, 3, 1]) == pytest.approx(
        [0.3 + 0.5, 0.4 + 0.6, 0.2])
    assert interference_score(_SCORE_WEIGHTS, [], [2]).tolist() == [0.0]
    assert interference_score(_SCORE_WEIGHTS, [0, 1], []).shape == (0,)


def test_interference_score_own_diagonal_adds_nothing():
    with_self = interference_score(_SCORE_WEIGHTS, range(4), range(4))
    without = [interference_score(_SCORE_WEIGHTS, [j for j in range(4) if j != k], [k])[0]
               for k in range(4)]
    assert with_self.tolist() == without


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_interference_score_matches_the_oracle_bit_for_bit(data):
    # weights over 16 orders of magnitude and up to 40 users, so that any
    # other summation order (pairwise, blocked, compensated) shows
    num_users = data.draw(st.integers(1, 40), label="num_users")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    half = np.triu(rng.random((num_users, num_users))
                   * 10.0 ** rng.integers(-8, 9, (num_users, num_users)), 1)
    weights = half + half.T
    ids = st.integers(0, num_users - 1)
    users = data.draw(st.lists(ids, unique=True), label="users")
    candidates = data.draw(st.lists(ids, max_size=8), label="candidates")
    scores = interference_score(weights, users, candidates)
    expected = [weight_total_reference(weights, users, k) for k in candidates]
    assert scores.tolist() == expected
