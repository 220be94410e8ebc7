"""Independent reference implementations used to check the library.

Everything here is deliberately brute-force and shares no code with the
package: exhaustive capped coloring by backtracking, Monte Carlo ergodic
rates by direct channel redraws, power control by solving the linear
fixed-point system, and the pairwise pilot-interference weight one pair
at a time.
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
