"""User selection and pilot allocation under a fixed pilot budget.

The base conflict graph is colored once.  Four outcomes:

* colors needed > budget: drop users one at a time until the remaining
  users fit the budget.  The victim is the user with the highest conflict
  degree (ties by the interference it currently suffers from its pilot
  group, then lowest id), or, when a random generator is given, a uniformly
  random active user;
* colors needed < budget: spare pilots are spent on extra separation, by
  searching the smallest interference threshold whose augmented graph still
  colors within the budget;
* colors needed < budget with spreading turned off: the base coloring is
  kept as is (``base``);
* colors needed = budget: the base coloring is kept as is (``exact``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coloring import PilotAssignment, dsatur_color
from .conflict_graph import (
    ConflictGraph,
    build_base_graph,
    build_thresholded_graph,
    interference_matrix,
    interference_score,
    vertex_degrees,
)
from .topology import NetworkInstance

CASE_REMOVAL = "case1"      # over budget, users removed
CASE_SPREAD = "case2"       # under budget, co-pilot groups spread apart
CASE_EXACT = "exact"        # base coloring already uses the whole budget
CASE_BASE = "base"          # under budget, base coloring kept without spreading


@dataclass(frozen=True)
class Stage1Result:
    admitted: np.ndarray            # sorted admitted user ids
    assignment: PilotAssignment     # pilots for exactly the admitted users
    case_taken: str
    removal_trace: tuple[int, ...]  # users removed, in removal order
    threshold: float | None         # selected spread threshold (case2 only)
    base_colors: int                # colors the full-user base graph needs

    @property
    def num_admitted(self) -> int:
        return len(self.admitted)

    @property
    def colors_used(self) -> int:
        return self.assignment.num_pilots


def run_stage1(instance: NetworkInstance, pilot_budget: int, reuse_cap: int, *,
               spread: bool = True,
               rng: np.random.Generator | None = None) -> Stage1Result:
    """Dispatch on how the base-graph coloring compares to the budget.

    ``spread=False`` keeps an under-budget base coloring instead of
    spreading it; ``rng`` makes removal pick uniformly random victims.
    """
    if instance.alpha is None or instance.clusters is None:
        raise ValueError("instance must carry large-scale gains and clusters")
    if pilot_budget < 1:
        raise ValueError("pilot_budget must be >= 1")
    base = build_base_graph(instance.clusters)
    assignment = dsatur_color(base, reuse_cap)
    base_colors = assignment.num_pilots
    if base_colors > pilot_budget:
        return select_users_case1(instance, pilot_budget, reuse_cap, base,
                                  assignment, rng=rng)
    if base_colors < pilot_budget and spread:
        return reallocate_case2(instance, pilot_budget, reuse_cap, base, base_colors)
    return Stage1Result(
        admitted=np.arange(instance.num_users),
        assignment=assignment,
        case_taken=CASE_EXACT if base_colors == pilot_budget else CASE_BASE,
        removal_trace=(),
        threshold=None,
        base_colors=base_colors,
    )


def select_users_case1(instance: NetworkInstance, pilot_budget: int, reuse_cap: int,
                       base: ConflictGraph, base_assignment: PilotAssignment, *,
                       rng: np.random.Generator | None = None) -> Stage1Result:
    """Remove users until the remaining base graph colors within budget.

    Starts from the base graph and its coloring; each round recolors from
    scratch.  The victim is the active user with the most conflict edges,
    ties broken by the largest total interference weight to its current
    pilot group, then by lowest user id.  With ``rng`` the victim is
    instead drawn uniformly from the active users.
    """
    weights = interference_matrix(instance.alpha, instance.clusters) if rng is None else None
    active = set(range(instance.num_users))
    trace: list[int] = []
    graph, assignment = base, base_assignment

    while assignment.num_pilots > pilot_budget:
        if rng is None:
            degrees = vertex_degrees(graph)
            victim = max(sorted(active), key=lambda k: (
                degrees[k], interference_score(weights, assignment, k)))
        else:
            victim = int(rng.choice(sorted(active)))
        active.remove(victim)
        trace.append(victim)
        graph = build_base_graph(instance.clusters, active)
        assignment = dsatur_color(graph, reuse_cap)

    return Stage1Result(
        admitted=np.array(sorted(active), dtype=np.int64),
        assignment=assignment,
        case_taken=CASE_REMOVAL,
        removal_trace=tuple(trace),
        threshold=None,
        base_colors=base_assignment.num_pilots,
    )


def reallocate_case2(instance: NetworkInstance, pilot_budget: int, reuse_cap: int,
                     base: ConflictGraph, base_colors: int) -> Stage1Result:
    """Spend spare pilots on separating the most mutually interfering pairs.

    Candidate thresholds are the distinct pairwise weights plus a sentinel
    above the maximum (which reproduces the base graph, known to fit the
    budget).  Binary search picks the smallest candidate whose augmented
    graph still colors within budget; smaller thresholds add more
    separation edges, so the colors needed do not decrease as the
    threshold drops.
    """
    weights = interference_matrix(instance.alpha, instance.clusters)

    off_diag = weights[~np.eye(instance.num_users, dtype=bool)]
    candidates = np.unique(off_diag)
    sentinel = candidates[-1] + 1.0 if candidates.size else 1.0
    candidates = np.append(candidates, sentinel)

    def colors_fit(threshold: float) -> PilotAssignment | None:
        graph = build_thresholded_graph(base, weights, threshold)
        assignment = dsatur_color(graph, reuse_cap)
        return assignment if assignment.num_pilots <= pilot_budget else None

    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if colors_fit(candidates[mid]) is not None:
            hi = mid
        else:
            lo = mid + 1
    threshold = float(candidates[hi])
    assignment = colors_fit(threshold)
    assert assignment is not None  # sentinel keeps the search bracketed

    return Stage1Result(
        admitted=np.arange(instance.num_users),
        assignment=assignment,
        case_taken=CASE_SPREAD,
        removal_trace=(),
        threshold=threshold,
        base_colors=base_colors,
    )
