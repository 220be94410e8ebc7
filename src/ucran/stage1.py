"""User selection and pilot allocation under a fixed pilot budget.

The base conflict graph is colored once.  Four outcomes:

* colors needed > budget: drop users one at a time until the remaining
  users fit the budget.  The victim is the user with the highest conflict
  degree (ties by the largest total pilot-interference weight to the other
  remaining users, then lowest id), or, when a random generator is given,
  a uniformly random active user;
* colors needed < budget: spare pilots are spent on extra separation, by
  a binary search for a low interference threshold whose augmented graph
  still colors within the budget;
* colors needed < budget with spreading turned off: the base coloring is
  kept as is (``base``);
* colors needed = budget: the base coloring is kept as is (``exact``).

The base graph, its coloring and the pairwise weights (read nowhere
else) come from a :class:`Stage1Base`: one per call, or one shared by
every call on the same network and reuse cap; every call makes and
checks the weights, whichever branch runs.  The base keeps each budget's
deterministic decision too, the removal made without a random generator
or the spread, so a later call at that budget reuses it.  Removal gets
the over-budget base graph alone: a round takes its victim's adjacency
row off one running degree vector, and only then cuts out and colors the
survivors for the budget test, once ``ceil(survivors / reuse_cap)`` no
longer exceeds the budget.  Each branch returns only its decision;
:func:`run_stage1` builds the :class:`Stage1Result`, whose single pilot
array (:class:`~ucran.coloring.PilotAssignment`) holds the admitted
users' pilots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

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
from .topology import NetworkInstance, check_integer

CASE_REMOVAL = "case1"      # over budget, users removed
CASE_SPREAD = "case2"       # under budget, co-pilot groups spread apart
CASE_EXACT = "exact"        # base coloring already uses the whole budget
CASE_BASE = "base"          # under budget, base coloring kept without spreading


@dataclass(frozen=True)
class Stage1Result:
    assignment: PilotAssignment     # pilots of the admitted users, -1 elsewhere
    case_taken: str
    removal_trace: tuple[int, ...]  # users removed, in removal order
    threshold: float | None         # selected spread threshold (case2 only)
    base_colors: int                # colors the full-user base graph needs under the cap

    @property
    def admitted(self) -> np.ndarray:
        """Sorted admitted user ids: the pilot holders."""
        return self.assignment.users

    @property
    def num_admitted(self) -> int:
        return len(self.admitted)

    @property
    def colors_used(self) -> int:
        return self.assignment.num_pilots


class Stage1Base:
    """What every stage-1 call on one network and reuse cap shares: the
    base conflict graph, its DSatur coloring under the cap, the (K, K)
    pilot-interference weights, and per budget the one decision that
    needs no random generator (the removal or the spread).  Each is made
    on first use and kept, with its arrays read-only, so a stage that
    writes into one fails instead of changing a later call.
    """

    def __init__(self, instance: NetworkInstance, reuse_cap: int):
        self.instance = instance
        self.reuse_cap = reuse_cap
        self.decisions: dict[int, tuple] = {}

    def decision(self, pilot_budget: int, make) -> tuple:
        """The (assignment, trace or threshold) of ``pilot_budget``, made by
        ``make`` on first use, its pilots read-only."""
        decision = self.decisions.get(pilot_budget)
        if decision is None:
            decision = self.decisions[pilot_budget] = make()
            decision[0].pilots.flags.writeable = False
        return decision

    @cached_property
    def weights(self) -> np.ndarray:
        """ValueError when a weight is not finite."""
        weights = interference_matrix(self.instance.alpha, self.instance.clusters)
        weights.flags.writeable = False
        return weights

    @cached_property
    def graph(self) -> ConflictGraph:
        graph = build_base_graph(self.instance.clusters)
        graph.adjacency.flags.writeable = graph.users.flags.writeable = False
        return graph

    @cached_property
    def coloring(self) -> PilotAssignment:
        coloring = dsatur_color(self.graph, self.reuse_cap)
        coloring.pilots.flags.writeable = False
        return coloring


def shared_base(instance: NetworkInstance, reuse_cap: int,
                base: Stage1Base | None) -> Stage1Base:
    """``base`` when it was made for ``instance`` and ``reuse_cap``, a new
    holder when it is None; ValueError otherwise, so no call reads a base
    graph, coloring, weights or kept decision made for another network
    or cap."""
    if base is None:
        return Stage1Base(instance, reuse_cap)
    if base.instance is not instance or base.reuse_cap != reuse_cap:
        raise ValueError("the stage-1 base was made for another network or reuse cap")
    return base


def run_stage1(instance: NetworkInstance, pilot_budget: int, reuse_cap: int, *,
               spread: bool = True, rng: np.random.Generator | None = None,
               base: Stage1Base | None = None) -> Stage1Result:
    """Dispatch on how the base-graph coloring compares to the budget.

    Removal gets the base graph alone, whose coloring is over budget.
    ``spread=False`` keeps an under-budget base coloring instead of
    spreading it; ``rng`` makes removal pick uniformly random victims.
    ``base`` shares the base graph, coloring and weights with other calls
    on the same network and cap (see :func:`shared_base`), and the removal
    without ``rng`` and the spread of each budget: a call whose branch
    and budget match an earlier one returns its pilots, read-only, under
    its own case.  ValueError when a pilot-interference weight is not
    finite, whichever branch runs.
    """
    check_integer("pilot_budget", pilot_budget)
    base = shared_base(instance, reuse_cap, base)
    weights = base.weights
    base_assignment = base.coloring
    base_colors = base_assignment.num_pilots
    trace, threshold = (), None
    if base_colors > pilot_budget:
        case = CASE_REMOVAL
        remove = partial(select_users_case1, weights, pilot_budget, reuse_cap, base.graph, rng=rng)
        assignment, trace = remove() if rng is not None else base.decision(pilot_budget, remove)
    elif base_colors < pilot_budget and spread:
        case = CASE_SPREAD
        assignment, threshold = base.decision(pilot_budget, partial(
            reallocate_case2, weights, pilot_budget, reuse_cap, base.graph, base_assignment))
    else:
        case = CASE_EXACT if base_colors == pilot_budget else CASE_BASE
        assignment = base_assignment
    return Stage1Result(assignment=assignment, case_taken=case, removal_trace=trace,
                        threshold=threshold, base_colors=base_colors)


def select_users_case1(weights: np.ndarray, pilot_budget: int, reuse_cap: int,
                       graph: ConflictGraph, *,
                       rng: np.random.Generator | None = None
                       ) -> tuple[PilotAssignment, tuple[int, ...]]:
    """Remove users from ``graph`` until the survivors color within budget.

    ``graph``'s own coloring must exceed the budget, as :func:`run_stage1`
    guarantees, so each round removes a victim before it tests.  Returns
    the coloring of the users left and the removed users in removal order.
    The victim is the active user with the most conflict edges, ties
    broken by the largest total of the (K, K) pilot-interference
    ``weights`` to the other active users
    (:func:`~ucran.conflict_graph.interference_score`), then by lowest
    user id.  With ``rng`` it is drawn uniformly from the active users.

    The degrees are summed once; each victim then takes one off each of
    its neighbours.  A removed user, or one outside ``graph.users``, reads
    a negative degree, so it never ties for the maximum.  A capped
    coloring of n users needs at least ``ceil(n / reuse_cap)`` pilots, so
    while that exceeds the budget the loop goes on without one.  The
    survivors are restricted out of ``graph`` and colored only for the
    budget test, once that bound no longer decides it; no victim pick
    reads a coloring.
    """
    users = graph.users
    degrees = np.full(graph.num_users, -1, dtype=np.int64)
    degrees[users] = vertex_degrees(graph)[users]
    trace: list[int] = []
    while True:
        if rng is None:
            tied = np.flatnonzero(degrees == degrees.max())
            victim = int(tied[0])
            if len(tied) > 1:
                # argmax keeps the lowest id on a score tie
                victim = int(tied[np.argmax(interference_score(weights, users, tied))])
        else:
            victim = int(rng.choice(users))
        trace.append(victim)
        degrees -= graph.adjacency[victim]
        degrees[victim] = -1
        users = np.flatnonzero(degrees >= 0)
        if -(-len(users) // reuse_cap) <= pilot_budget:
            assignment = dsatur_color(graph.restrict(users), reuse_cap)
            if assignment.num_pilots <= pilot_budget:
                return assignment, tuple(trace)


def reallocate_case2(weights: np.ndarray, pilot_budget: int, reuse_cap: int,
                     base: ConflictGraph, base_assignment: PilotAssignment
                     ) -> tuple[PilotAssignment, float]:
    """Spend spare pilots on separating the most mutually interfering pairs.

    Candidate thresholds are the distinct pairwise weights plus a sentinel
    above the maximum, whose graph is the base graph.  Binary search returns
    the coloring and threshold of its last probe that colors within budget
    (the base coloring and sentinel when there is no pair to probe).  Greedy
    DSatur's fit is not monotone in the threshold, so a smaller candidate
    may fit too (ROADMAP.md, Settled: "Case 2, smallest fitting candidate").
    """
    candidates = np.unique(weights[~np.eye(len(weights), dtype=bool)])
    sentinel = candidates[-1] + 1.0 if candidates.size else 1.0
    candidates = np.append(candidates, sentinel)

    assignment = base_assignment
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        probe = dsatur_color(build_thresholded_graph(base, weights, candidates[mid]),
                             reuse_cap)
        if probe.num_pilots <= pilot_budget:
            hi, assignment = mid, probe
        else:
            lo = mid + 1
    return assignment, float(candidates[hi])
