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
list, the pilot count and the per-pilot group sizes are all derived from
that array here.
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

    def __post_init__(self):
        object.__setattr__(self, "pilots", np.asarray(self.pilots, dtype=np.int64))

    @property
    def num_pilots(self) -> int:
        """One more than the highest pilot held; 0 when nobody holds one."""
        return int(self.pilots.max(initial=-1)) + 1

    @property
    def users(self) -> np.ndarray:
        """Sorted ids of the pilot holders."""
        return np.flatnonzero(self.pilots >= 0)

    def group_sizes(self) -> np.ndarray:
        return np.bincount(self.pilots[self.users])


def dsatur_color(graph: ConflictGraph, reuse_cap: int,
                 max_colors: int | None = None) -> PilotAssignment | None:
    """Color the graph's active users under the reuse cap.

    One step per active user, each a few whole-row numpy operations.  An
    uncolored user u holds ``key[u] = saturation * (n + 1) + (n - rank)``
    (rank: u's place by static degree descending, then id), so
    ``key.argmax()`` is the max saturation / max degree / lowest id pick;
    colored and inactive users hold the int64 minimum.  ``bump[c, u]`` is
    n + 1 while c is under the cap and no neighbour of u holds it, else 0,
    so the picked user's color is its column's first nonzero row.  Coloring
    k with c adds ``bump[c] & -adjacency[k]`` to the keys (one more
    saturation for each neighbour new to c) and takes it off ``bump[c]``.

    With ``max_colors``, None at the moment the coloring would open color
    ``max_colors``: no color is ever closed, so None comes exactly when the
    full coloring needs more than ``max_colors`` colors, and otherwise the
    assignment is the one made without the limit (a negative limit is
    never reached).
    """
    check_integer("reuse_cap", reuse_cap)
    adjacency = graph.adjacency
    users = graph.users
    n = users.size
    degree = adjacency.sum(axis=1)
    done = np.iinfo(np.int64).min
    key = np.full(graph.num_users, done)
    key[users[np.argsort(-degree[users], kind="stable")]] = np.arange(n, 0, -1)
    edge_bits = -adjacency.astype(np.int64)   # all bits set on an edge, none off it
    # a step opens at most color n - 1, so n rows always leave a nonzero one
    bump = np.full((n, graph.num_users), n + 1)
    fresh = np.empty(graph.num_users, dtype=np.int64)
    pilots = np.full(graph.num_users, -1, dtype=np.int64)
    color_count: list[int] = []

    for _ in range(n):
        k = key.argmax()
        color = bump[:, k].argmax()
        if color == len(color_count):
            if color == max_colors:
                return None
            color_count.append(0)
        pilots[k] = color
        key[k] = done
        row = bump[color]
        np.bitwise_and(edge_bits[k], row, out=fresh)
        np.add(key, fresh, out=key)
        color_count[color] += 1
        if color_count[color] == reuse_cap:
            row[:] = 0
        else:
            np.subtract(row, fresh, out=row)

    return PilotAssignment(pilots=pilots)


def validate_assignment(graph: ConflictGraph, assignment: PilotAssignment,
                        reuse_cap: int) -> None:
    """Raise if the assignment is not a proper capped coloring of the graph."""
    pilots = assignment.pilots
    users = assignment.users
    if pilots.shape != (graph.num_users,) or not np.array_equal(users, np.sort(graph.users)):
        raise AssertionError("assignment does not cover the active users exactly")
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
