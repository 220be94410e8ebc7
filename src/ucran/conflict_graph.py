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

    def neighbors(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.adjacency[k])

    def degree(self, k: int) -> int:
        return int(self.adjacency[k].sum())


def build_base_graph(clusters: np.ndarray, active_users=None) -> ConflictGraph:
    """Adjacency from cluster overlap: edge iff the two clusters intersect."""
    num_users = clusters.shape[0]
    if active_users is None:
        active = np.arange(num_users)
    else:
        active = np.asarray(sorted(active_users), dtype=np.int64)
    num_rrhs = int(clusters.max()) + 1 if clusters.size else 0
    incidence = np.zeros((num_users, num_rrhs), dtype=bool)
    for k in active:
        incidence[k, clusters[k]] = True
    share = incidence @ incidence.T
    adjacency = share > 0
    np.fill_diagonal(adjacency, False)
    return ConflictGraph(adjacency=adjacency, users=active)


def interference_matrix(alpha: np.ndarray, clusters: np.ndarray) -> np.ndarray:
    """All pairwise weights at once, (K, K) symmetric with zero diagonal."""
    # gathered[k2, l, k] = alpha[clusters[k2, l], k]
    gathered = alpha[clusters]
    cross = gathered.sum(axis=1).T          # cross[k, k2] = power user k receives from cluster of k2
    own = np.diag(cross).copy()
    half = np.log1p(cross / own[:, None])
    weights = half + half.T
    np.fill_diagonal(weights, 0.0)
    return weights


def build_thresholded_graph(base: ConflictGraph, weights: np.ndarray,
                            threshold: float) -> ConflictGraph:
    """Supergraph of the base: also connect pairs whose weight is strictly
    above the threshold.  Restricted to the base graph's active users."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    active_mask = np.zeros(base.num_users, dtype=bool)
    active_mask[base.users] = True
    extra = (weights > threshold) & active_mask[:, None] & active_mask[None, :]
    np.fill_diagonal(extra, False)
    return ConflictGraph(adjacency=base.adjacency | extra, users=base.users)


def vertex_degrees(graph: ConflictGraph) -> np.ndarray:
    """Per-user degree over the active set; inactive users read 0."""
    return graph.adjacency.sum(axis=1).astype(np.int64)


def interference_score(weights: np.ndarray, assignment, k: int) -> float:
    """Total weight between ``k`` and the other users on its pilot."""
    pilot = assignment.pilot_of.get(k)
    if pilot is None:
        raise ValueError(f"user {k} has no pilot assigned")
    group = assignment.groups[pilot]
    return float(sum(weights[k, other] for other in group if other != k))
