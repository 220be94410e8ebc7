"""Independent reference implementations used to check the library.

Everything here is deliberately brute-force and shares no code with the
package: exhaustive capped coloring by backtracking, Monte Carlo ergodic
rates by direct channel redraws, power control by solving the linear
fixed-point system, the pairwise pilot-interference weight one pair at a
time and a user's total weight one term at a time, the cluster-overlap
graph built on a user subset directly, fronthaul pruning one RRH at a
time on per-user serving sets, DSatur picking each next vertex by a full
(saturation, degree, id) key, case-1 user removal recoloring the
survivors after every removal, and robust-beam covariance systems and
rate coefficients as dense products over every RRH antenna, one user at
a time, on estimates spread from each user's cluster links to every RRH,
the local rate coefficients through a sorted-link CSR join, the pilot
observation as one product of the channels with the one-hot pilot
membership, and the distance matrix, the candidate clusters and the
fading draw as the plain one-liners they were first written as (a
broadcast difference summed over the coordinate axis, a full stable
argsort per user, two normal draws added as complex parts).

One oracle is exact by search rather than independent:
:func:`max_served_reference` tries every subset of the pilot holders,
largest first, and tests each with the production admission round.
"""

from __future__ import annotations

import math
from itertools import combinations
from types import SimpleNamespace

import numpy as np

from ucran.stage2 import (
    AdmissionSolution,
    enforce_fronthaul_cap,
    expected_rate_lb,
    power_allocation_fixed_point,
    rate_coefficients,
    robust_beam_direction,
    rrh_power_share,
)


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


def draw_channels_reference(alpha: np.ndarray, antennas: int,
                            rng: np.random.Generator) -> np.ndarray:
    """(I, K, M) Rayleigh channels: every real part drawn, then every
    imaginary part, added as ``re + 1j * im`` and scaled by
    ``sqrt(alpha / 2)``."""
    shape = alpha.shape + (antennas,)
    h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return np.sqrt(alpha / 2.0)[:, :, None] * h


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


def rate_coefficients_join_reference(channel_state, beams, served):
    """(signal, self_err, cross) of :class:`~ucran.stage2.LocalBeams`, with
    each serving slot joined to the cluster links at its RRH through a
    CSR layout of the links sorted by RRH (argsort, bincount, cumsum,
    repeat).  Each gain sums its terms over beam b's slots in ascending
    order; the leakage is the same einsum over the slots."""
    served = np.asarray(served, dtype=np.int64)
    n = served.size
    link_rrh = beams.rrhs.ravel()
    est = channel_state.estimates[served].reshape(link_rrh.size, channel_state.estimates.shape[2])
    users = np.arange(link_rrh.size) // beams.rrhs.shape[1]
    cols, slots = np.nonzero(beams.valid)
    slot_rrh = beams.rrhs[cols, slots]

    order = np.argsort(link_rrh, kind="stable")
    per_rrh = np.bincount(link_rrh, minlength=beams.num_rrhs)
    first = np.cumsum(per_rrh) - per_rrh
    per_slot = per_rrh[slot_rrh]
    slot_of = np.repeat(np.arange(cols.size), per_slot)
    offset = np.arange(slot_of.size) - np.repeat(np.cumsum(per_slot) - per_slot, per_slot)
    link_of = order[first[slot_rrh][slot_of] + offset]
    terms = np.einsum("pm,pm->p", est[link_of].conj(),
                      beams.weights[cols, slots][slot_of])
    flat = users[link_of] * n + cols[slot_of]
    gains = (np.bincount(flat, terms.real, n * n)
             + 1j * np.bincount(flat, terms.imag, n * n)).reshape(n, n)

    evar = channel_state.error_var[:, served]
    power = (np.abs(beams.weights) ** 2).sum(axis=2)
    leak = np.einsum("bla,bl->ab", evar[beams.rrhs], power)
    signal = np.abs(np.diag(gains)) ** 2
    self_err = np.diag(leak).copy()
    cross = np.abs(gains) ** 2 + leak
    np.fill_diagonal(cross, 0.0)
    return signal, self_err, cross


def pilot_rx_reference(true_channels: np.ndarray, assignment, pilot_power: float,
                       noise_power: float, rng: np.random.Generator) -> np.ndarray:
    """Pilot observation (I, num_pilots, M): sqrt(pilot_power) times the
    product of the (I, K, M) channels with the one-hot (K, num_pilots)
    membership, plus CN(0, noise_power) noise drawn from ``rng`` as real
    then imaginary parts."""
    num_users = true_channels.shape[1]
    membership = np.zeros((num_users, assignment.num_pilots))
    for k, pilot in enumerate(assignment.pilots):
        if pilot >= 0:
            membership[k, pilot] = 1.0
    y = np.sqrt(pilot_power) * np.einsum("ikm,kt->itm", true_channels, membership)
    noise = rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
    return y + np.sqrt(noise_power / 2.0) * noise


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
                                 rng: np.random.Generator | None = None):
    """Case-1 removal that recolors the survivors after every removal:
    (removal trace, pilots).

    Each round builds the cluster-overlap graph on the survivors, colors
    it with :func:`dsatur_reference`, and stops once the coloring fits the
    budget.  Otherwise the victim is the survivor of highest degree, ties
    by the larger weight sum to the other survivors (added one at a time in
    ascending id), then by lowest id; with ``rng`` it is ``rng.choice`` of
    the sorted survivors.  The coloring never decides a victim.
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
        if rng is None:
            degree = adjacency.sum(axis=1)
            top = max(degree[k] for k in active)

            def score(k):
                return weight_total_reference(weights, [j for j in active if j != k], k)

            # max keeps the first, lowest-id user on a score tie
            victim = max((k for k in active if degree[k] == top), key=score)
        else:
            victim = int(rng.choice(active))
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
    production stage-2 functions, so this is exact for greedy admission's
    own feasibility test.  Exponential in the admitted count.
    """
    admitted = stage1_result.admitted
    sinr_target = math.expm1(config.rate_req * math.log(2.0))
    for size in range(len(admitted), -1, -1):
        for subset in combinations(admitted.tolist(), size):
            served = np.array(subset, dtype=np.int64)
            valid = enforce_fronthaul_cap(channel_state.links, served, instance.alpha,
                                          config.fronthaul_cap)
            if not valid.any(axis=1).all():
                continue
            beams = robust_beam_direction(channel_state, valid, served, config.noise_power)
            signal, self_err, cross = rate_coefficients(channel_state, beams, served)
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
