"""Hand-built network instances with fully understood structure.

Positions are dummies: stage-1 code only reads ``alpha`` and ``clusters``,
so fixtures set those directly instead of reverse-engineering placements.
"""

from __future__ import annotations

import numpy as np
import pytest

from ucran.topology import NetworkInstance


def craft_instance(alpha: np.ndarray, clusters: np.ndarray) -> NetworkInstance:
    num_rrhs, num_users = alpha.shape
    return NetworkInstance(
        rrh_positions=np.zeros((num_rrhs, 2)),
        user_positions=np.zeros((num_users, 2)),
        alpha=np.asarray(alpha, dtype=float),
        clusters=np.asarray(clusters, dtype=np.int64),
    )


@pytest.fixture
def star_instance() -> NetworkInstance:
    """User 0 overlaps every leaf's cluster; leaves are mutually disjoint.

    5 hub RRHs (0..4) form user 0's cluster.  Leaf user i (1..5) gets hub
    RRH i-1 plus four private RRHs, so the conflict graph is a 5-point star
    centered on user 0.
    """
    num_rrhs = 5 + 5 * 4
    clusters = np.empty((6, 5), dtype=np.int64)
    clusters[0] = np.arange(5)
    private = 5
    for leaf in range(1, 6):
        own = [leaf - 1] + list(range(private, private + 4))
        clusters[leaf] = own
        private += 4
    alpha = np.ones((num_rrhs, 6))
    return craft_instance(alpha, clusters)


@pytest.fixture
def four_user_spread_instance() -> NetworkInstance:
    """Two cluster-disjoint user pairs with a known weight gap.

    Users 0,1 sit on RRH 0 and users 2,3 on RRH 1, so the base graph is
    two disjoint edges needing 2 pilots.  Equal own-gains make both base
    pairs weigh 2*ln(2); the cross-RRH gain of 3 makes every cross pair
    weigh 2*ln(4).  With a budget of 4 the spread search must pick
    threshold 2*ln(2), turning the graph complete: four distinct pilots.
    """
    alpha = np.array([
        [1.0, 1.0, 3.0, 3.0],
        [3.0, 3.0, 1.0, 1.0],
    ])
    clusters = np.array([[0], [0], [1], [1]])
    return craft_instance(alpha, clusters)


@pytest.fixture
def two_triangle_instance() -> NetworkInstance:
    """Two user triangles, cluster-disjoint across triangles.

    Users 0,2,4 pairwise share RRHs 0,1,2 and users 1,3,5 share RRHs
    3,4,5, so the base graph is two disjoint triangles: 3 pilots, with the
    cross pairs (0,1), (2,3), (4,5) free to share one.  Cross-triangle
    gains are tuned so each matched pair interferes far more than any
    other cross pair, which a spread step with a 4-pilot budget should
    split up.
    """
    clusters = np.array([
        [0, 1],   # user 0
        [3, 4],   # user 1
        [1, 2],   # user 2
        [4, 5],   # user 3
        [0, 2],   # user 4
        [3, 5],   # user 5
    ])
    alpha = np.full((6, 6), 1e-6)
    for k in range(6):
        alpha[clusters[k], k] = 1.0
    # matched pairs (0,1), (2,3), (4,5): strong mutual coupling
    for a, b in ((0, 1), (2, 3), (4, 5)):
        alpha[clusters[b], a] = 0.5
        alpha[clusters[a], b] = 0.5
    return craft_instance(alpha, clusters)
