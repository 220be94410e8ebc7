"""Greedy pilot coloring with a per-pilot reuse cap.

Saturation-driven greedy (Dsatur ordering): repeatedly color the vertex
that currently sees the most distinct colors in its neighborhood, breaking
ties by static degree and then by lowest user id.  A color is admissible
for a vertex when no neighbor holds it and fewer than ``reuse_cap`` users
hold it network-wide; the lowest admissible color wins, and a fresh color
is opened only when none qualifies.  All rules are deterministic, so a
given graph always yields the same assignment.

An assignment is one ``(K,)`` array over the full user index set:
``pilots[k]`` is user k's pilot, or -1 when k holds none.  The holder
list, the one-hot membership matrix and the per-pilot groups are all
derived from that array here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conflict_graph import ConflictGraph


@dataclass(frozen=True)
class PilotAssignment:
    """Pilot index 0..num_pilots-1 per user id, -1 for users without one."""

    pilots: np.ndarray   # (K,) int64
    num_pilots: int

    def __post_init__(self):
        object.__setattr__(self, "pilots", np.asarray(self.pilots, dtype=np.int64))

    @property
    def users(self) -> np.ndarray:
        """Sorted ids of the pilot holders."""
        return np.flatnonzero(self.pilots >= 0)

    @property
    def membership(self) -> np.ndarray:
        """One-hot (K, num_pilots) matrix; rows of users without a pilot are zero."""
        out = np.zeros((self.pilots.size, self.num_pilots))
        users = self.users
        out[users, self.pilots[users]] = 1.0
        return out

    @property
    def groups(self) -> dict[int, list[int]]:
        """Users per pilot, each list sorted by user id."""
        return {c: np.flatnonzero(self.pilots == c).tolist() for c in range(self.num_pilots)}

    def group_sizes(self) -> np.ndarray:
        return np.bincount(self.pilots[self.users], minlength=self.num_pilots)


def dsatur_color(graph: ConflictGraph, reuse_cap: int) -> PilotAssignment:
    """Color the graph's active users under the reuse cap."""
    if reuse_cap < 1:
        raise ValueError("reuse_cap must be >= 1")
    vertices = graph.users.tolist()
    adjacency = graph.adjacency
    static_degree = adjacency.sum(axis=1).tolist()

    pilots = np.full(graph.num_users, -1, dtype=np.int64)
    neighbor_colors: dict[int, set[int]] = {k: set() for k in vertices}
    color_count: list[int] = []
    uncolored = set(vertices)

    while uncolored:
        # max saturation, then max degree, then lowest id
        k = min(uncolored, key=lambda v: (-len(neighbor_colors[v]), -static_degree[v], v))
        forbidden = neighbor_colors[k]
        color = next(
            (c for c in range(len(color_count))
             if c not in forbidden and color_count[c] < reuse_cap),
            len(color_count),
        )
        if color == len(color_count):
            color_count.append(0)
        color_count[color] += 1
        pilots[k] = color
        uncolored.discard(k)
        for nb in np.flatnonzero(adjacency[k]).tolist():
            if nb in neighbor_colors:
                neighbor_colors[nb].add(color)

    return PilotAssignment(pilots=pilots, num_pilots=len(color_count))


def validate_assignment(graph: ConflictGraph, assignment: PilotAssignment,
                        reuse_cap: int) -> None:
    """Raise if the assignment is not a proper capped coloring of the graph."""
    pilots = assignment.pilots
    users = assignment.users
    if pilots.shape != (graph.num_users,) or not np.array_equal(users, np.sort(graph.users)):
        raise AssertionError("assignment does not cover the active users exactly")
    out_of_range = users[pilots[users] >= assignment.num_pilots]
    if out_of_range.size:
        k = int(out_of_range[0])
        raise AssertionError(f"user {k} holds out-of-range pilot {pilots[k]}")
    clashes = np.argwhere(graph.adjacency & (pilots[:, None] == pilots[None, :])
                          & (pilots >= 0)[:, None])
    if clashes.size:
        a, b = clashes[0].tolist()
        raise AssertionError(f"adjacent users {a} and {b} share pilot {pilots[a]}")
    sizes = assignment.group_sizes()
    if (sizes > reuse_cap).any():
        raise AssertionError("a pilot group exceeds the reuse cap")
    if (sizes == 0).any():
        raise AssertionError("pilot indices are not contiguous")
