"""Pilot-conflict graph over users and pairwise pilot-interference weights.

Two users conflict outright when their candidate clusters share an RRH; the
reuse scheme must then give them different pilots.  For cluster-disjoint
pairs a symmetric weight quantifies how much pilot interference the two
users would inflict on each other if they reused one pilot: the sum of both
users' log cross-to-own received-power ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConflictGraph:
    """Symmetric adjacency over the full user index set.

    Rows and columns of users outside ``users`` (the active set) are all
    False, so the matrix can stay (K, K) while users come and go.
    """

    adjacency: np.ndarray   # (K, K) bool, symmetric, zero diagonal
    users: np.ndarray       # sorted active user ids

    @property
    def num_users(self) -> int:
        return self.adjacency.shape[0]

    def restrict(self, users) -> ConflictGraph:
        """The subgraph on ``users`` (ids outside the active set are ignored):
        every edge touching another user is dropped."""
        keep = np.zeros(self.num_users, dtype=bool)
        ids = (np.asarray(users, dtype=np.int64) if isinstance(users, np.ndarray)
               else np.fromiter(users, dtype=np.int64))
        keep[ids] = True
        active = np.zeros(self.num_users, dtype=bool)
        active[self.users] = True
        keep &= active
        return ConflictGraph(adjacency=self.adjacency & keep[:, None] & keep[None, :],
                             users=np.flatnonzero(keep))


def build_base_graph(clusters: np.ndarray) -> ConflictGraph:
    """Adjacency from cluster overlap: edge iff the two clusters intersect.

    Every user is active; :meth:`ConflictGraph.restrict` cuts it down."""
    num_users = clusters.shape[0]
    num_rrhs = int(clusters.max()) + 1 if clusters.size else 0
    incidence = np.zeros((num_rrhs, num_users), dtype=bool)   # RRH i in k's cluster
    incidence[clusters, np.arange(num_users)[:, None]] = True
    # adjacency[k, k2]: some RRH of k's cluster is in k2's cluster
    adjacency = incidence[clusters].any(axis=1)
    np.fill_diagonal(adjacency, False)
    return ConflictGraph(adjacency=adjacency, users=np.arange(num_users))


def interference_matrix(alpha: np.ndarray, clusters: np.ndarray) -> np.ndarray:
    """All pairwise weights at once, (K, K) symmetric with zero diagonal.

    Raises ValueError when a weight is not finite, e.g. when a user's
    own-cluster gain underflows to zero.
    """
    # gathered[k2, l, k] = alpha[clusters[k2, l], k]
    gathered = alpha[clusters]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # cross[k, k2] = power user k receives from the cluster of k2
        cross = gathered.sum(axis=1).T
        own = np.diag(cross).copy()
        half = np.log1p(cross / own[:, None])
        weights = half + half.T
    np.fill_diagonal(weights, 0.0)
    if not np.isfinite(weights).all():
        raise ValueError("pilot-interference weights are not finite: an own-cluster "
                         "gain underflows or a link gain overflows")
    return weights


def build_thresholded_graph(base: ConflictGraph, weights: np.ndarray,
                            threshold: float) -> ConflictGraph:
    """Supergraph of the base: also connect pairs whose weight is strictly
    above the threshold.  Restricted to the base graph's active users."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    extra = weights > threshold
    np.fill_diagonal(extra, False)
    return ConflictGraph(adjacency=base.adjacency | extra, users=base.users).restrict(base.users)


def vertex_degrees(graph: ConflictGraph) -> np.ndarray:
    """Per-user degree over the active set; inactive users read 0."""
    return graph.adjacency.sum(axis=1).astype(np.int64)


def interference_score(weights: np.ndarray, users, candidates) -> np.ndarray:
    """Each candidate's total weight to ``users``, as a ``(len(candidates),)``
    array.

    Each total is summed left to right in the order of ``users``
    (``((w[c, u0] + w[c, u1]) + w[c, u2]) + ...``).  The diagonal is
    zero, so a candidate among ``users`` adds nothing for itself.  This
    order defines case-1 removal's degree-tie rule; removal keeps running
    totals and calls this exact step only for near ties (see
    :func:`ucran.stage1.select_users_case1`).
    """
    block = weights[np.ix_(candidates, users)]
    if block.shape[1] == 0:
        return np.zeros(block.shape[0])
    # a running sum is sequential, so its last column has the documented order
    return np.cumsum(block, axis=1)[:, -1]
