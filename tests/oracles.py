"""Reference implementations used to check the library.

Each quantity has at most one math reference, written plainly from its
formula and sharing no code with the package, and at most one byte
reference, an earlier or whole-array form that the production code must
match bit for bit:

- distances and clusters: :func:`pairwise_distances_reference` (a
  broadcast difference) and :func:`build_clusters_reference` (a full
  stable argsort per user), both byte;
- keyed randomness: :func:`splitmix64_reference` (math, Python ints) and
  :func:`channels_reference`, the fading of every link at once (byte);
- pilot observation and MMSE estimates: :func:`pilot_rx_reference`,
  :func:`copilot_gains_reference` and :func:`mmse_estimate_reference`,
  dense over every (RRH, pilot) and (RRH, user) pair (byte); the
  received pilot power per link against ``alpha`` times
  :func:`membership_reference` (math);
- conflict graph, weights and coloring: :func:`base_graph_on`,
  :func:`pilot_interference`, :func:`weight_total_reference`,
  :func:`dsatur_reference`, :func:`exact_capped_chromatic` and
  :func:`greedy_clique_bound` (math);
- case-1 removal: :func:`select_users_case1_reference`, recoloring after
  every removal (math);
- fronthaul cap: :func:`fronthaul_serving_sets` (math) and
  :func:`fronthaul_cap_whole_reference` (byte);
- beams: :func:`beam_systems_reference` (math) and
  :func:`robust_beam_whole_reference` (byte);
- rate coefficients: :func:`rate_coefficients_reference` (math) and
  :func:`rate_coefficients_whole_reference` (byte);
- power control: :func:`solve_power_linear` (math) and
  :func:`power_fixed_point_reference` (byte);
- the rate bound: :func:`mc_ergodic_rate`, by channel redraws (math).

The whole-served byte references rank, key and pair the served set from
scratch on every call.  Three admission oracles are not independent:
:func:`max_served_reference` tries every subset of the pilot holders,
largest first, with the production admission round,
:func:`admission_listing_reference` lists each failed round's victims
one at a time with the production round functions and power loop, and
:func:`admission_with_beam_loading` runs the production admission with
beams loaded by other error variances.
"""

from __future__ import annotations

import dataclasses
import math
from itertools import combinations
from types import SimpleNamespace
from unittest import mock

import numpy as np

import ucran.stage2
from ucran.stage2 import (
    AdmissionSolution,
    LocalBeams,
    PowerControlResult,
    admission_loop,
    build_holder_table,
    enforce_fronthaul_cap,
    expected_rate_lb,
    power_allocation_fixed_point,
    rate_coefficients,
    robust_beam_direction,
    rrh_power_share,
)
from ucran.topology import STREAM_FADING, STREAM_PILOT_NOISE, complex_normal


def pilot_interference(alpha: np.ndarray, clusters: np.ndarray, k: int, k2: int) -> float:
    """Pairwise pilot-interference weight between users ``k`` and ``k2``.

    ln(1 + cross/own) from each user's perspective, summed; cross is the
    power the user receives from the other user's cluster RRHs, own the
    power from its own cluster.
    """
    if k == k2:
        raise ValueError("pilot interference is defined for distinct users")
    own_k = alpha[clusters[k], k].sum()
    own_k2 = alpha[clusters[k2], k2].sum()
    cross_k = alpha[clusters[k2], k].sum()
    cross_k2 = alpha[clusters[k], k2].sum()
    return float(np.log1p(cross_k / own_k) + np.log1p(cross_k2 / own_k2))


def pairwise_distances_reference(rrh_positions: np.ndarray,
                                 user_positions: np.ndarray) -> np.ndarray:
    """(I, K) distances from the (I, K, 2) difference, squared and summed
    over its last axis."""
    diff = rrh_positions[:, None, :] - user_positions[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=2))


def build_clusters_reference(key: np.ndarray, cluster_size: int) -> np.ndarray:
    """(K, L) clusters: the first ``cluster_size`` RRHs of each user's full
    stable argsort of ``key``, so ties keep the lower RRH index first."""
    return np.argsort(key.T, axis=1, kind="stable")[:, :cluster_size].astype(np.int64)


def channels_reference(alpha: np.ndarray, antennas: int, seed: int) -> np.ndarray:
    """(I, K, M) Rayleigh channels of ``seed``: the fading stream's values
    at every counter 0 .. I*K*M - 1 at once, laid out row-major over
    (I, K, M) and scaled by ``sqrt(alpha)``."""
    shape = alpha.shape + (antennas,)
    values = complex_normal(seed, STREAM_FADING, np.arange(math.prod(shape))).reshape(shape)
    return np.sqrt(alpha)[:, :, None] * values


def splitmix64_reference(key: int, counter: int) -> int:
    """Word ``counter`` of the stream keyed ``key``: SplitMix64's finalizer
    of ``key + counter * 0x9E3779B97F4A7C15``, in Python ints mod 2**64."""
    mask = 2 ** 64 - 1
    z = (key + counter * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def base_graph_on(clusters: np.ndarray, active_users) -> tuple[np.ndarray, np.ndarray]:
    """Cluster-overlap graph built on the active users only.

    Returns (adjacency, users): an edge iff two active users' clusters
    share an RRH, rows and columns of inactive users all False, and the
    sorted active ids.
    """
    num_users = clusters.shape[0]
    active = np.asarray(sorted(active_users), dtype=np.int64)
    num_rrhs = int(clusters.max()) + 1 if clusters.size else 0
    incidence = np.zeros((num_users, num_rrhs), dtype=bool)
    for k in active:
        incidence[k, clusters[k]] = True
    adjacency = (incidence @ incidence.T) > 0
    np.fill_diagonal(adjacency, False)
    return adjacency, active


def fronthaul_serving_sets(clusters: np.ndarray, admitted, alpha: np.ndarray,
                           cap: int) -> dict[int, np.ndarray]:
    """Serving set per admitted user under the per-RRH fronthaul cap.

    Start from the full cluster; each over-subscribed RRH, in ascending id,
    keeps its ``cap`` strongest users (largest link gain, ties to the lower
    id) and is removed from the rest.  Sets come back sorted.
    """
    admitted = [int(k) for k in admitted]
    serving = {k: set(int(i) for i in clusters[k]) for k in admitted}
    rrhs = sorted(set().union(*serving.values())) if serving else []
    for i in rrhs:
        users = [k for k in admitted if i in serving[k]]
        if len(users) <= cap:
            continue
        users.sort(key=lambda k: (-alpha[i, k], k))
        for k in users[cap:]:
            serving[k].discard(i)
    return {k: np.array(sorted(serving[k]), dtype=np.int64) for k in admitted}


def scatter_links(links: np.ndarray, per_link: np.ndarray, num_rrhs: int) -> np.ndarray:
    """(K, L, M) vectors on each user's links ``links[k]`` spread to the
    dense (I, K, M) layout, zero off those links, one user at a time."""
    num_users, _, antennas = per_link.shape
    dense = np.zeros((num_rrhs, num_users, antennas), dtype=per_link.dtype)
    for k in range(num_users):
        dense[links[k], k] = per_link[k]
    return dense


def stack_antennas(per_link: np.ndarray) -> np.ndarray:
    """(I, K, M) per-link vectors as (I*M, K); row i*M + m is antenna m of RRH i."""
    num_rrhs, num_users, antennas = per_link.shape
    return per_link.transpose(0, 2, 1).reshape(num_rrhs * antennas, num_users)


def beam_systems_reference(estimates: np.ndarray, error_var: np.ndarray,
                           serving: dict[int, np.ndarray], served,
                           noise_power: float) -> list:
    """Per served user, (rows, cov, own): its serving-antenna rows of the
    (I*M,) RRH-major antenna stack; the sum of every served user's estimated
    outer product plus the diagonal error load (all served users'
    variances) and noise on them; and its own estimate there.  Its robust
    beam is the normalized solution of cov w = own, or the uniform beam
    when own is zero.  ``estimates`` is (I, K, M), ``error_var`` (I, K),
    ``serving`` maps each served user to its serving RRH ids."""
    served = [int(k) for k in served]
    num_rrhs, _, antennas = estimates.shape
    hhat = stack_antennas(estimates)
    load = np.repeat(error_var, antennas, axis=0)[:, served].sum(axis=1)
    systems = []
    for k in served:
        on = np.zeros(num_rrhs, dtype=bool)
        on[serving[k]] = True
        rows = np.flatnonzero(np.repeat(on, antennas))
        local = hhat[rows][:, served]
        cov = local @ local.conj().T + np.diag(load[rows] + noise_power)
        systems.append((rows, cov, hhat[rows, k]))
    return systems


def rate_coefficients_reference(estimates: np.ndarray, error_var: np.ndarray,
                                directions: np.ndarray, served):
    """(signal, self_err, cross, share) of dense (I*M, n) beams.

    gains[a, b] = <hhat_a, w_b> and leak[a, b] = sum of error_var_a |w_b|^2
    over every RRH antenna; signal and self_err are the diagonals, cross
    the off-diagonal |gains|^2 + leak.  share[i, b] is the part of |w_b|^2
    on RRH i's antennas.
    """
    served = [int(k) for k in served]
    num_rrhs, _, antennas = estimates.shape
    hhat = stack_antennas(estimates)[:, served]
    evar = np.repeat(error_var, antennas, axis=0)[:, served]
    power = np.abs(directions) ** 2
    gains = hhat.conj().T @ directions
    leak = evar.T @ power
    signal = np.abs(np.diag(gains)) ** 2
    self_err = np.diag(leak).copy()
    cross = np.abs(gains) ** 2 + leak
    np.fill_diagonal(cross, 0.0)
    share = power.reshape(num_rrhs, antennas, -1).sum(axis=1)
    return signal, self_err, cross, share


def fronthaul_cap_whole_reference(links: np.ndarray, served, alpha: np.ndarray,
                                  cap: int) -> np.ndarray:
    """Serving mask (n, L) on ``links[served]``, ranked from the served
    set alone: one lexsort of its links by (RRH, -gain, id) per call, and
    each RRH keeps its first ``cap``."""
    served = np.asarray(served, dtype=np.int64)
    rrhs = links[served].ravel()
    users = np.repeat(served, links.shape[1])
    order = np.lexsort((users, -alpha[rrhs, users], rrhs))
    by_rrh = rrhs[order]
    rank = np.arange(by_rrh.size) - np.searchsorted(by_rrh, by_rrh)
    keep = np.empty(by_rrh.size, dtype=bool)
    keep[order] = rank < cap
    return keep.reshape(served.size, links.shape[1])


@np.errstate(over="ignore", invalid="ignore")
def robust_beam_whole_reference(channel_state, valid: np.ndarray, served,
                                noise_power: float) -> LocalBeams:
    """Robust beams built from the served set alone: the RRH-pair keys by
    one ``np.unique`` per call, the per-pair covariance table by two
    bincounts over the served users' outer products in served order, and
    each covariance gathered block by block, then transposed to stacked
    antennas.  ``served`` are pilot holders, read at their rows of
    ``channel_state``.  ValueError where the solve overflows, is singular
    or too ill-conditioned."""
    rows = channel_state.holders.searchsorted(np.asarray(served, dtype=np.int64))
    num_rrhs = channel_state.error_var.shape[0]
    rrhs = channel_state.links[rows]
    est = channel_state.estimates[rows]
    n, width, antennas = est.shape
    if (~valid.any(axis=1)).any():
        raise ValueError("empty serving set")
    dim = width * antennas
    keys = rrhs[:, :, None] * num_rrhs + rrhs[:, None, :]
    keys, block = np.unique(keys.ravel(), return_inverse=True)
    outer = est[:, :, None, :, None] * est[:, None, :, None, :].conj()
    entry = (block[:, None] * antennas ** 2 + np.arange(antennas ** 2)).ravel()
    table = np.empty((keys.size, antennas, antennas), dtype=complex)
    table.real = np.bincount(entry, outer.real.ravel(), table.size).reshape(table.shape)
    table.imag = np.bincount(entry, outer.imag.ravel(), table.size).reshape(table.shape)
    cov = table[block.reshape(n, width, width)]
    cov[~(valid[:, :, None] & valid[:, None, :])] = 0.0
    cov = cov.transpose(0, 1, 3, 2, 4).reshape(n, dim, dim)
    load = channel_state.error_var[:, rows].sum(axis=1)
    diagonal = np.where(valid, load[rrhs] + noise_power, 1.0)
    cov[:, np.arange(dim), np.arange(dim)] += np.repeat(diagonal, antennas, axis=1)
    own = (est * valid[:, :, None]).reshape(n, dim, 1)
    try:
        w = np.linalg.solve(cov, own)[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular covariance") from exc
    if not (np.isfinite(cov).all() and np.isfinite(w).all()):
        raise ValueError("covariance overflows")
    on = np.repeat(valid, antennas, axis=1)
    trace = np.where(on, cov[:, np.arange(dim), np.arange(dim)].real, 0.0).sum(axis=1)
    if (trace > 1e11 * np.where(valid, diagonal, np.inf).min(axis=1)).any():
        raise ValueError("covariance too ill-conditioned")
    _, exponent = np.frexp(np.abs(w).max(axis=1))
    w *= np.ldexp(1.0, np.clip(-exponent, -1000, 1000))[:, None]
    norms = np.linalg.norm(w, axis=1)
    vanished = norms == 0.0
    w /= np.where(vanished, 1.0, norms)[:, None]
    uniform = on / np.sqrt(valid.sum(axis=1) * antennas)[:, None]
    w[vanished] = uniform[vanished]
    return LocalBeams(rrhs=rrhs, valid=valid, weights=w.reshape(n, width, antennas),
                      num_rrhs=num_rrhs)


def rate_coefficients_whole_reference(channel_state, beams, served):
    """(signal, self_err, cross) paired from the served set alone: an
    (n*L, n) mask of the beams with a slot at each cluster link's RRH and a
    ``flatnonzero`` over it per call, every gain summed by bincount over
    all n*n combinations, and ``cross`` the whole |gains|^2 plus leakage.
    ``served`` are pilot holders, read at their rows of ``channel_state``."""
    rows = channel_state.holders.searchsorted(np.asarray(served, dtype=np.int64))
    n = rows.size
    link_rrh = beams.rrhs.ravel()
    est = channel_state.estimates[rows].reshape(link_rrh.size, channel_state.estimates.shape[2])
    users = np.arange(link_rrh.size) // beams.rrhs.shape[1]
    slot = np.full((beams.num_rrhs, n), -1)
    cols, slots = np.nonzero(beams.valid)
    slot[beams.rrhs[cols, slots], cols] = slots
    link_of, col = np.divmod(np.flatnonzero((slot >= 0)[link_rrh]), n)
    terms = np.einsum("pm,pm->p", est[link_of].conj(),
                      beams.weights[col, slot[link_rrh[link_of], col]])
    flat = users[link_of] * n + col
    gains = (np.bincount(flat, terms.real, n * n)
             + 1j * np.bincount(flat, terms.imag, n * n)).reshape(n, n)
    evar = channel_state.error_var[:, rows]
    leak = np.einsum("bla,bl->ab", evar[beams.rrhs], beams.slot_power)
    signal = np.abs(np.diag(gains)) ** 2
    self_err = np.diag(leak).copy()
    cross = np.abs(gains) ** 2 + leak
    np.fill_diagonal(cross, 0.0)
    return signal, self_err, cross


def membership_reference(assignment, num_users: int) -> np.ndarray:
    """One-hot (K, num_pilots) pilot membership, filled one user at a time."""
    membership = np.zeros((num_users, assignment.num_pilots))
    for k, pilot in enumerate(assignment.pilots):
        if pilot >= 0:
            membership[k, pilot] = 1.0
    return membership


def pilot_rx_reference(true_channels: np.ndarray, assignment, pilot_power: float,
                       noise_power: float, seed: int) -> np.ndarray:
    """Pilot observation (I, num_pilots, M): sqrt(pilot_power) times the
    product of the (I, K, M) channels with the one-hot (K, num_pilots)
    membership, plus CN(0, noise_power) noise: the pilot-noise stream's
    values of ``seed`` at every counter at once, laid out row-major over
    (num_pilots, I, M)."""
    num_rrhs, num_users, antennas = true_channels.shape
    membership = membership_reference(assignment, num_users)
    y = np.sqrt(pilot_power) * np.einsum("ikm,kt->itm", true_channels, membership)
    shape = (assignment.num_pilots, num_rrhs, antennas)
    noise = complex_normal(seed, STREAM_PILOT_NOISE, np.arange(math.prod(shape)))
    return y + np.sqrt(noise_power) * noise.reshape(shape).transpose(1, 0, 2)


def copilot_gains_reference(alpha: np.ndarray, assignment) -> np.ndarray:
    """(I, K): on link (i, k), the gains alpha[i, j] summed over the other
    users j on k's pilot, as the product with the co-pilot matrix formed
    one user row at a time, from zero in ascending id (a BLAS product may
    add its terms in another order); 0 for users without a pilot."""
    membership = membership_reference(assignment, alpha.shape[1])
    copilot = membership @ membership.T
    np.fill_diagonal(copilot, 0.0)
    others = np.zeros(alpha.shape)
    for j in range(alpha.shape[1]):
        others += alpha[:, j, None] * copilot[j]
    return others


def mmse_estimate_reference(y: np.ndarray, alpha: np.ndarray, assignment,
                            clusters: np.ndarray, pilot_power: float, noise_power: float):
    """Linear MMSE estimates from the whole (I, num_pilots, M) observation
    of :func:`pilot_rx_reference`: (estimates (K, L, M) on ``clusters``,
    zero rows without a pilot; error_var (I, K), alpha on every link
    without an estimate).  The received pilot power on a link is p times
    its own gain plus :func:`copilot_gains_reference`'s sum, plus noise."""
    others = copilot_gains_reference(alpha, assignment)
    users = np.flatnonzero(assignment.pilots >= 0)
    rows, cols, pilot = clusters[users], users[:, None], assignment.pilots[users][:, None]
    gain = alpha[rows, cols]
    denom = pilot_power * (gain + others[rows, cols]) + noise_power
    coef = np.sqrt(pilot_power) * gain / denom
    estimates = np.zeros(clusters.shape + (y.shape[2],), dtype=complex)
    estimates[users] = coef[:, :, None] * y[rows, pilot]
    error_var = alpha.copy()
    error_var[rows, cols] = gain * (noise_power + pilot_power * others[rows, cols]) / denom
    return estimates, error_var


def dsatur_reference(graph, reuse_cap: int) -> tuple[np.ndarray, int]:
    """Capped DSatur on a graph's active users: (pilots, num_pilots).

    Each step colors the uncolored user with the most distinct neighbor
    colors, then the highest static degree, then the lowest id, on the
    lowest color no neighbor holds and fewer than ``reuse_cap`` users hold.
    ``pilots`` is (K,), -1 for inactive users.
    """
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

    return pilots, len(color_count)


def weight_total_reference(weights: np.ndarray, users, k: int) -> float:
    """User ``k``'s total weight to ``users``, added one at a time from 0.0
    in the order of ``users`` (a plain loop, so no compensated summation)."""
    total = 0.0
    for j in users:
        total += float(weights[k, j])
    return total


def select_users_case1_reference(clusters: np.ndarray, weights: np.ndarray,
                                 pilot_budget: int, reuse_cap: int,
                                 draws: np.ndarray | None = None):
    """Case-1 removal that recolors the survivors after every removal:
    (removal trace, pilots).

    Each round builds the cluster-overlap graph on the survivors, colors
    it with :func:`dsatur_reference`, and stops once the coloring fits the
    budget.  Otherwise the victim is the survivor of highest degree, ties
    by the larger weight sum to the other survivors (added one at a time in
    ascending id), then by lowest id; with ``draws`` it is the survivor at
    position ``int(draws[r] * n)`` of the n sorted survivors in round r.
    The coloring never decides a victim.
    """
    active = list(range(clusters.shape[0]))
    trace = []
    while True:
        adjacency, users = base_graph_on(clusters, active)
        graph = SimpleNamespace(adjacency=adjacency, users=users,
                                num_users=adjacency.shape[0])
        pilots, num_pilots = dsatur_reference(graph, reuse_cap)
        if num_pilots <= pilot_budget:
            return tuple(trace), pilots
        if draws is None:
            degree = adjacency.sum(axis=1)
            top = max(degree[k] for k in active)

            def score(k):
                return weight_total_reference(weights, [j for j in active if j != k], k)

            # max keeps the first, lowest-id user on a score tie
            victim = max((k for k in active if degree[k] == top), key=score)
        else:
            victim = active[int(draws[len(trace)] * len(active))]
        active.remove(victim)
        trace.append(victim)


def exact_capped_chromatic(adjacency: np.ndarray, cap: int) -> int:
    """Minimum number of colors for a proper coloring with at most ``cap``
    vertices per color.  Exponential backtracking; keep the graph small."""
    n = adjacency.shape[0]
    if n == 0:
        return 0
    lower = -(-n // cap)  # ceil
    for num_colors in range(lower, n + 1):
        counts = [0] * num_colors
        colors = [-1] * n

        def feasible(v: int) -> bool:
            if v == n:
                return True
            for c in range(num_colors):
                if counts[c] >= cap:
                    continue
                if any(colors[u] == c for u in range(v) if adjacency[v, u]):
                    continue
                colors[v] = c
                counts[c] += 1
                if feasible(v + 1):
                    return True
                colors[v] = -1
                counts[c] -= 1
            return False

        if feasible(0):
            return num_colors
    raise RuntimeError("unreachable: n colors always suffice")


def greedy_clique_bound(adjacency: np.ndarray) -> int:
    """Size of a clique grown greedily from each vertex; a valid lower
    bound on the chromatic number (capped or not)."""
    n = adjacency.shape[0]
    best = 1 if n else 0
    for start in range(n):
        clique = [start]
        for v in range(n):
            if v != start and all(adjacency[v, u] for u in clique):
                clique.append(v)
        best = max(best, len(clique))
    return best


def solve_power_linear(signal: np.ndarray, self_err: np.ndarray,
                       cross: np.ndarray, sinr_target: float,
                       noise_power: float) -> np.ndarray | None:
    """Exact minimal power vector for the SINR-balancing system, or None.

    Solving (diag(signal - g*self_err) - g*cross) p = g*noise directly;
    feasible iff the solution is componentwise nonnegative (equivalently
    the spectral radius condition holds).
    """
    g = sinr_target
    margins = signal - g * self_err
    if (margins <= 0).any():
        return None
    a = np.diag(margins) - g * cross
    try:
        p = np.linalg.solve(a, g * noise_power * np.ones(len(signal)))
    except np.linalg.LinAlgError:
        return None
    if (p < 0).any():
        return None
    return p


@np.errstate(over="ignore")
def power_fixed_point_reference(signal: np.ndarray, self_err: np.ndarray,
                                cross: np.ndarray, sinr_target: float,
                                noise_power: float, rrh_share: np.ndarray,
                                rrh_power_cap: float, *,
                                target_margin: float = 1e-7,
                                max_iters: int = 10_000,
                                rel_tol: float = 1e-8) -> PowerControlResult:
    """:func:`~ucran.stage2.power_allocation_fixed_point` one step at a
    time: each iterate is made, tested against the total-power ceiling,
    then against the relative stop, before the next one is made.  Same
    returns and the same underflow ValueError."""
    n = signal.shape[0]
    gamma_eff = sinr_target * (1.0 + target_margin)
    margins = signal - gamma_eff * self_err
    if n == 0:
        return PowerControlResult(True, np.zeros(0), "", margins)
    if sinr_target == 0.0:
        return PowerControlResult(True, np.zeros(n), "", margins)
    if (margins <= 0.0).any():
        return PowerControlResult(False, np.zeros(n), "margin", margins)

    # the iterates only increase, so the first one bounds them all below
    floor = gamma_eff * noise_power
    first = floor / margins
    finfo = np.finfo(float)
    if (first < finfo.tiny).any() or floor * target_margin < 10 * finfo.smallest_subnormal:
        raise ValueError(f"power control underflow: first iterate {first.min():.3g} mW, "
                         f"SINR target times noise {floor:.3g}; too small to carry the target")
    ceiling = rrh_power_cap * rrh_share.shape[0]
    p = np.zeros(n)
    for _ in range(max_iters):
        p_new = gamma_eff * (cross @ p + noise_power) / margins
        if p_new.sum() > ceiling:
            return PowerControlResult(False, p_new, "ceiling", margins)
        # per-component relative stop: keeps every user's converged SINR
        # within rel_tol of the effective target, so the margin still
        # clears the nominal one
        done = bool((np.abs(p_new - p) <= rel_tol * p_new).all())
        p = p_new
        if done:
            break
    else:
        return PowerControlResult(False, p, "no_convergence", margins)
    if (rrh_share @ p > rrh_power_cap).any():
        return PowerControlResult(False, p, "rrh_cap", margins)
    return PowerControlResult(True, p, "", margins)


def mc_ergodic_rate(estimates: np.ndarray, error_var: np.ndarray,
                    directions: np.ndarray, powers: np.ndarray,
                    noise_power: float, rng: np.random.Generator,
                    num_draws: int = 10_000, chunk: int = 500) -> np.ndarray:
    """Ergodic per-user rate by redrawing the unknown channel parts.

    ``estimates`` and ``error_var`` are stacked (dims, n_users); the true
    channel is estimate plus CN(0, error_var) per dimension, which also
    covers statistics-only links (zero estimate, full-gain variance).
    Rates average log2(1 + instantaneous SINR) over the draws.
    """
    dims, n = estimates.shape
    base = estimates.conj().T @ directions          # (n, n) deterministic part
    std = np.sqrt(error_var / 2.0)
    total = np.zeros(n)
    remaining = num_draws
    while remaining > 0:
        d = min(chunk, remaining)
        err = std * (rng.standard_normal((d, dims, n))
                     + 1j * rng.standard_normal((d, dims, n)))
        gains = base + np.einsum("dik,ij->dkj", err.conj(), directions)
        power_gain = np.abs(gains) ** 2 * powers[None, None, :]
        signal = np.einsum("dkk->dk", power_gain).copy()
        interference = power_gain.sum(axis=2) - signal
        total += np.log2(1.0 + signal / (interference + noise_power)).sum(axis=0)
        remaining -= d
    return total / num_draws


def max_served_reference(instance, stage1_result, channel_state, config) -> AdmissionSolution:
    """The largest set of pilot holders that one admission round serves whole.

    Subset sizes go down from the admitted count, each size's subsets in
    lexicographic order; the first subset that the fronthaul cap strands
    no user of, and whose beams, rate coefficients and power shares give
    a feasible power control at admission's SINR target, is returned as
    a solution (the empty set always is one).  The round is made of the
    production stage-2 functions on one holder table of the admitted users,
    so this is exact for greedy admission's own feasibility test.
    Exponential in the admitted count.
    """
    admitted = stage1_result.admitted
    table = build_holder_table(channel_state, instance.alpha)
    sinr_target = math.expm1(config.rate_req * math.log(2.0))
    for size in range(len(admitted), -1, -1):
        for subset in combinations(admitted.tolist(), size):
            served = np.array(subset, dtype=np.int64)
            valid = enforce_fronthaul_cap(table, served, config.fronthaul_cap)
            if not valid.any(axis=1).all():
                continue
            beams = robust_beam_direction(table, valid, served, config.noise_power)
            signal, self_err, cross = rate_coefficients(table, beams, served)
            share = rrh_power_share(beams)
            control = power_allocation_fixed_point(signal, self_err, cross, sinr_target,
                                                   config.noise_power, share,
                                                   config.rrh_power_cap)
            if control.feasible:
                return AdmissionSolution(
                    served=served, beams=beams, powers=control.powers,
                    rates=expected_rate_lb(signal, self_err, cross, control.powers,
                                           config.noise_power),
                    per_rrh_power=share @ control.powers,
                    removal_trace=tuple(np.setdiff1d(admitted, served).tolist()))
    raise AssertionError("the empty set must be feasible")


def admission_with_beam_loading(instance, stage1_result, channel_state, config,
                                beam_error_var: np.ndarray) -> AdmissionSolution:
    """The production admission whose beams load ``beam_error_var`` (I, H)
    instead of the channel state's error variances.

    Each round's beams read the holder table of a copy of
    ``channel_state`` with those variances; the fronthaul cap, rate
    coefficients, power control and rate bound read the true table, so a
    solution is held to the true variances.
    """
    beam_table = build_holder_table(
        dataclasses.replace(channel_state, error_var=beam_error_var), instance.alpha)

    def beams(table, valid, served, noise_power):
        return robust_beam_direction(beam_table, valid, served, noise_power)

    with mock.patch.object(ucran.stage2, "robust_beam_direction", beams):
        return admission_loop(instance, stage1_result, channel_state, config)


def admission_listing_reference(instance, stage1_result, channel_state, config) -> list[tuple]:
    """Greedy admission whose failed rounds list their victims one at a
    time on the round's fixed beams, as rounds ``(n, stranded, listed)``.

    Each round strands the users the fronthaul cap leaves with no RRH,
    which leaves ``n`` served users, then makes their beams, rate
    coefficients and power shares with the production functions.  A
    failed power control lists the user with the largest margin
    shortfall, else the largest power at the failed iterate (the lowest
    id on a tie), and the production power loop runs again, for at most
    128 iterates, on the survivors' submatrices.  The round lists while
    that call fails on ceiling, margin or rrh_cap, and at most
    ``max(1, n // 32)`` victims; then every listed victim is dropped and
    the next round re-beams.  The last round is the feasible one, with
    nothing listed.
    """
    table = build_holder_table(channel_state, instance.alpha)
    sinr_target = math.expm1(config.rate_req * math.log(2.0))
    served = [int(k) for k in stage1_result.admitted]
    rounds = []
    while True:
        valid = enforce_fronthaul_cap(table, served, config.fronthaul_cap)
        keep = valid.any(axis=1)
        stranded = [k for k, ok in zip(served, keep) if not ok]
        served = [k for k, ok in zip(served, keep) if ok]
        beams = robust_beam_direction(table, valid[keep], served, config.noise_power)
        signal, self_err, cross = rate_coefficients(table, beams, served)
        share = rrh_power_share(beams)

        def power(alive, max_iters):
            return power_allocation_fixed_point(
                signal[alive], self_err[alive], np.ascontiguousarray(cross[alive][:, alive]),
                sinr_target, config.noise_power, share[:, alive], config.rrh_power_cap,
                max_iters=max_iters)

        alive = list(range(len(served)))
        control = power(alive, 10_000)
        listed = []
        if not control.feasible:
            while True:
                margins, powers = control.margins, control.powers
                short = [a for a in range(len(alive)) if margins[a] <= 0.0]
                if short:
                    pick = max(short, key=lambda a: (-margins[a], -a))
                else:
                    pick = max(range(len(alive)), key=lambda a: (powers[a], -a))
                listed.append(served[alive.pop(pick)])
                if len(listed) == max(1, len(served) // 32):
                    break
                control = power(alive, 128)
                if control.reason not in ("ceiling", "margin", "rrh_cap"):
                    break
        rounds.append((len(served), stranded, listed))
        if not listed:
            return rounds
        served = [k for k in served if k not in listed]
