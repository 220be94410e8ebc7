"""User selection and pilot allocation under a fixed pilot budget.

The base conflict graph is colored once.  Four outcomes:

* colors needed > budget: drop users one at a time until the remaining
  users fit the budget.  One loop takes the victims in one of two orders,
  neither of which reads a coloring: the user with the highest conflict
  degree (ties by the largest total pilot-interference weight to the other
  remaining users, then lowest id), or, when random draws are given, the
  active user each round's draw picks.  So a larger budget removes a
  prefix of a smaller one's victims;
* colors needed < budget: spare pilots are spent on extra separation, by
  a binary search for a low interference threshold whose augmented graph
  still colors within the budget;
* colors needed < budget with spreading turned off: the base coloring is
  kept as is (``base``);
* colors needed = budget: the base coloring is kept as is (``exact``).

The base graph (:func:`base_graph`), its coloring under each reuse cap
(:func:`base_coloring`) and the pairwise weights (read nowhere else)
are functions of the network alone, so they are kept on its
:attr:`~ucran.topology.NetworkInstance.memo`, made on first use by
whichever call needs them; every call reads the weights, so a weight
that is not finite fails it whichever branch runs.  The memo keeps each
cap and budget's deterministic decision too, the removal made without
draws or the spread, for a later call.  Removal gets the over-budget base
graph alone (:func:`select_users_case1` says how it picks its victims).
Each branch returns only its decision; :func:`run_stage1` builds the
:class:`Stage1Result`, whose single pilot array
(:class:`~ucran.coloring.PilotAssignment`) holds the admitted users'
pilots.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from functools import partial

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


def base_graph(instance: NetworkInstance) -> ConflictGraph:
    """The conflict graph of every user of ``instance``, kept on its memo."""
    return instance.memo.once(("graph",), lambda: build_base_graph(instance.clusters))


def base_coloring(instance: NetworkInstance, reuse_cap: int) -> PilotAssignment:
    """The DSatur coloring of :func:`base_graph` under ``reuse_cap``, kept
    on the network's memo."""
    return instance.memo.once(("coloring", reuse_cap),
                              lambda: dsatur_color(base_graph(instance), reuse_cap))


def run_stage1(instance: NetworkInstance, pilot_budget: int, reuse_cap: int, *,
               spread: bool = True, draws: np.ndarray | None = None) -> Stage1Result:
    """Dispatch on how the base-graph coloring compares to the budget.

    Removal gets the base graph alone, whose coloring is over budget.
    ``spread=False`` keeps an under-budget base coloring instead of
    spreading it; ``draws`` picks removal's victims at random
    (:func:`select_users_case1`).  The network's memo keeps the weights
    and, per cap and budget, the removal without ``draws`` and the spread:
    a call whose branch, cap and budget match an earlier one on the same
    network returns its pilots, read-only, under its own case.  ValueError
    when a pilot-interference weight is not finite, whichever branch runs.
    """
    check_integer("pilot_budget", pilot_budget)
    memo = instance.memo
    weights = memo.once(("weights",), lambda: interference_matrix(instance.alpha,
                                                                  instance.clusters))
    base_assignment = base_coloring(instance, reuse_cap)
    needed = base_assignment.num_pilots
    trace, threshold = (), None
    if needed > pilot_budget:
        case = CASE_REMOVAL
        remove = partial(select_users_case1, weights, pilot_budget, reuse_cap,
                         base_graph(instance), draws=draws)
        assignment, trace = remove() if draws is not None else memo.once(
            ("removal", reuse_cap, pilot_budget), remove)
    elif needed < pilot_budget and spread:
        case = CASE_SPREAD
        assignment, threshold = memo.once(("spread", reuse_cap, pilot_budget), partial(
            reallocate_case2, weights, pilot_budget, reuse_cap, base_graph(instance),
            base_assignment))
    else:
        case = CASE_EXACT if needed == pilot_budget else CASE_BASE
        assignment = base_assignment
    return Stage1Result(assignment=assignment, case_taken=case, removal_trace=trace,
                        threshold=threshold)


def select_users_case1(weights: np.ndarray, pilot_budget: int, reuse_cap: int,
                       graph: ConflictGraph, *, draws: np.ndarray | None = None
                       ) -> tuple[PilotAssignment, tuple[int, ...]]:
    """Remove users from ``graph`` until the survivors color within budget.

    ``graph``'s own coloring must exceed the budget, as :func:`run_stage1`
    guarantees, so each round removes a victim before it tests.  Returns
    the coloring of the users left and the removed users in removal order.
    One loop takes the victims from one of two orders, neither of which
    reads a coloring: with ``draws``, one float in (0, 1) per round, the
    drawn order (:func:`_drawn_victims`); without, the conflict order
    (:func:`_conflict_victims`), whose degree ties read running weight
    totals and are re-summed exactly wherever one rounding-error bound
    (Higham) cannot tell them apart.

    Each round runs one budget test.  A capped coloring of n users needs at
    least ``ceil(n / reuse_cap)`` pilots, so while that exceeds the budget
    the loop goes on without one; otherwise the survivors are restricted
    out of ``graph`` and colored, the coloring stopping at the first color
    past the budget.  The loop needs no exit of its own: one survivor
    colors with one pilot, within any budget.
    """
    users = graph.users
    victims = _conflict_victims(weights, graph) if draws is None else _drawn_victims(
        users, draws)
    alive = np.zeros(graph.num_users, dtype=bool)
    alive[users] = True
    trace = []
    for victim in victims:
        alive[victim] = False
        trace.append(victim)
        if -(-(len(users) - len(trace)) // reuse_cap) <= pilot_budget:
            assignment = dsatur_color(graph.restrict(np.flatnonzero(alive)), reuse_cap,
                                      pilot_budget)
            if assignment is not None:
                return assignment, tuple(trace)


def _drawn_victims(users: np.ndarray, draws: np.ndarray) -> Iterator[int]:
    """Round r pops position ``int(draws[r] * n)`` of the n active users in
    ascending id; no degree or weight is read."""
    active = users.tolist()
    for r in itertools.count():
        yield active.pop(int(draws[r] * len(active)))


def _conflict_victims(weights: np.ndarray, graph: ConflictGraph) -> Iterator[int]:
    """The active user with the most conflict edges, ties broken by the
    largest total of the (K, K) pilot-interference ``weights`` to the other
    active users, summed left to right in ascending id
    (:func:`~ucran.conflict_graph.interference_score`), then by lowest id.

    The degrees and the weight totals are summed once; each victim then
    takes one off each of its neighbours' degrees and its weight row
    (``weights`` is symmetric) off the running totals.  A removed user, or
    one outside ``graph.users``, reads a negative degree, so it never ties
    for the maximum.

    A running total adds weights and subtracts some of them again,
    ``terms`` in all (the users plus the rounds so far), whose magnitudes
    sum to at most ``2 * scale``, ``scale`` its row's absolute sum: it lies
    within ``terms * eps * scale`` of the exact sum, and a left-to-right
    sum of the same weights within half that (Higham, *Accuracy and
    Stability*, sec. 4.2; eps is twice the unit roundoff).  So every tied
    total within ``terms * 4 * eps * max(scale)`` of the best one goes to
    ``interference_score``, whose argmax (lowest id on a tie) is the
    victim.  That bound gives each of a total and the best one
    ``2 * terms * eps * max(scale)``, more than its two sums can differ by
    with room for the test's own rounding, so a total further below the
    best has a strictly lower left-to-right sum: it is never the victim.
    """
    users = graph.users
    degrees = np.full(graph.num_users, -1, dtype=np.int64)
    degrees[users] = vertex_degrees(graph)[users]
    block = weights[:, users]
    totals = block.sum(axis=1)
    bound = 4 * np.finfo(float).eps * np.abs(block).sum(axis=1).max()
    for terms in itertools.count(len(users)):
        tied = np.where(degrees == degrees.max(), totals, -np.inf)
        victim = int(tied.argmax())
        near = tied >= tied[victim] - terms * bound
        if np.count_nonzero(near) > 1:
            near = np.flatnonzero(near)
            # argmax keeps the lowest id on a score tie
            victim = int(near[np.argmax(interference_score(
                weights, np.flatnonzero(degrees >= 0), near))])
        yield victim
        totals -= weights[victim]
        degrees -= graph.adjacency[victim]
        degrees[victim] = -1


def reallocate_case2(weights: np.ndarray, pilot_budget: int, reuse_cap: int,
                     base: ConflictGraph, base_assignment: PilotAssignment
                     ) -> tuple[PilotAssignment, float]:
    """Spend spare pilots on separating the most mutually interfering pairs.

    Candidate thresholds are the distinct pairwise weights plus a sentinel
    above the maximum, whose graph is the base graph.  Binary search returns
    the coloring and threshold of its last probe that colors within budget
    (the base coloring and sentinel when there is no pair to probe); a
    probe's coloring stops at the first color past the budget.  Greedy
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
                             reuse_cap, pilot_budget)
        if probe is not None:
            hi, assignment = mid, probe
        else:
            lo = mid + 1
    return assignment, float(candidates[hi])
