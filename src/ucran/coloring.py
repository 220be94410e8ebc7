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
list, the one-hot membership matrix and the per-pilot group sizes are
all derived from that array here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conflict_graph import ConflictGraph
from .topology import check_integer


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

    def group_sizes(self) -> np.ndarray:
        return np.bincount(self.pilots[self.users], minlength=self.num_pilots)


def dsatur_color(graph: ConflictGraph, reuse_cap: int,
                 max_colors: int | None = None) -> PilotAssignment | None:
    """Color the graph's active users under the reuse cap.

    With ``max_colors``, None at the moment the coloring would open color
    ``max_colors``: no color is ever closed, so None comes exactly when the
    full coloring needs more than ``max_colors`` colors, and otherwise the
    assignment is the one made without the limit.
    """
    check_integer("reuse_cap", reuse_cap)
    adjacency = graph.adjacency
    degree = adjacency.sum(axis=1)
    # uncolored users by max degree, then lowest id; the first most-saturated
    # user in this order is the max saturation / max degree / lowest id pick
    order = graph.users[np.argsort(-degree[graph.users], kind="stable")].tolist()
    # user k's neighbours are neighbours[start[k]:start[k + 1]]
    neighbours = np.nonzero(adjacency)[1].tolist()
    start = np.concatenate(([0], np.cumsum(degree))).tolist()

    pilots = np.full(graph.num_users, -1, dtype=np.int64)
    neighbor_colors: list[set[int]] = [set() for _ in range(graph.num_users)]
    saturation = [0] * graph.num_users
    color_count: list[int] = []
    open_colors: list[int] = []     # colors below the cap, ascending

    while order:
        k = max(order, key=saturation.__getitem__)
        order.remove(k)
        forbidden = neighbor_colors[k]
        color = next((c for c in open_colors if c not in forbidden), len(color_count))
        if color == len(color_count):
            if color == max_colors:
                return None
            color_count.append(0)
            open_colors.append(color)
        color_count[color] += 1
        if color_count[color] == reuse_cap:
            open_colors.remove(color)
        pilots[k] = color
        for nb in neighbours[start[k]:start[k + 1]]:
            if color not in neighbor_colors[nb]:
                neighbor_colors[nb].add(color)
                saturation[nb] += 1

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
