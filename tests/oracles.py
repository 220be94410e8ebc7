"""Independent reference implementations used to check the library.

Everything here is deliberately brute-force and shares no code with the
package: exhaustive capped coloring by backtracking, Monte Carlo ergodic
rates by direct channel redraws, power control by solving the linear
fixed-point system, the pairwise pilot-interference weight one pair at a
time, the cluster-overlap graph built on a user subset directly,
fronthaul pruning one RRH at a time on per-user serving sets, DSatur
picking each next vertex by a full (saturation, degree, id) key, and
robust-beam covariance systems and rate coefficients as dense products
over every RRH antenna, one user at a time, on estimates spread from each
user's cluster links to every RRH.
"""

from __future__ import annotations

import numpy as np


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


def _stack_antennas(per_link: np.ndarray) -> np.ndarray:
    """(I, K, M) per-link vectors as (I*M, K); row i*M + m is antenna m of RRH i."""
    num_rrhs, num_users, antennas = per_link.shape
    return per_link.transpose(0, 2, 1).reshape(num_rrhs * antennas, num_users)


def beam_systems_reference(estimates: np.ndarray, error_var: np.ndarray, serving: np.ndarray,
                           served, noise_power: float) -> list:
    """Per served user, (rows, cov, own): its serving-antenna rows of the
    (I*M,) RRH-major antenna stack; the sum of every served user's estimated
    outer product plus the diagonal error load (all served users'
    variances) and noise on them; and its own estimate there.  Its robust
    beam is the normalized solution of cov w = own, or the uniform beam
    when own is zero.  ``estimates`` is (I, K, M), ``error_var`` (I, K)."""
    served = [int(k) for k in served]
    antennas = estimates.shape[2]
    hhat = _stack_antennas(estimates)
    load = np.repeat(error_var, antennas, axis=0)[:, served].sum(axis=1)
    systems = []
    for k in served:
        rows = np.flatnonzero(np.repeat(serving[:, k], antennas))
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
    hhat = _stack_antennas(estimates)[:, served]
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
