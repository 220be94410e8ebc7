"""Downlink design for the pilot-holding users: serving-set pruning under
the per-RRH fronthaul cap, robust beam directions from the estimated
channels with error loading, an expected-rate lower bound, fixed-point
power control under per-RRH power caps, and greedy admission.

Serving sets are one (I, K) bool mask, True where RRH i serves user k.
Beams live on the stacked antennas of each user's serving set but are
stored zero-padded over all RRH antennas (the RRH-major row layout of
:attr:`ChannelState.stacked`), which keeps every quadratic form a plain
matrix product.  Each admission round computes the rate coefficients
once, for both power control and the rate bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelState
from .conflict_graph import interference_matrix  # noqa: F401  (perfbench/spans.py wraps this name)
from .conflict_graph import interference_score
from .stage1 import Stage1Result
from .topology import NetworkInstance, SimConfig


def enforce_fronthaul_cap(clusters: np.ndarray, admitted, alpha: np.ndarray,
                          cap: int) -> np.ndarray:
    """Serving mask (I, K): RRH i serves user k.

    Start from the admitted users' full clusters; an over-subscribed RRH
    keeps its ``cap`` strongest users (largest link gain, ties to the lower
    id) and is removed from the rest.  May leave some users with no RRH.
    """
    if cap < 1:
        raise ValueError("fronthaul cap must be >= 1")
    admitted = np.unique(np.asarray(admitted, dtype=np.int64))
    serving = np.zeros(alpha.shape, dtype=bool)
    serving[clusters[admitted], admitted[:, None]] = True
    # a stable sort over ascending ids breaks gain ties toward the lower id;
    # links outside the clusters sort last and are masked out again below
    key = np.where(serving[:, admitted], -alpha[:, admitted], np.inf)
    strongest = np.argsort(key, axis=1, kind="stable")[:, :cap]
    keep = np.zeros(key.shape, dtype=bool)
    np.put_along_axis(keep, strongest, True, axis=1)
    serving[:, admitted] &= keep
    return serving


def robust_beam_direction(channel_state: ChannelState, serving: np.ndarray,
                          served, noise_power: float) -> np.ndarray:
    """Unit beam directions, one column per served user.

    On the stacked antennas of the user's serving set, the direction is
    the regularized inverse of the sum of all served users' estimated
    rank-one covariances plus diagonal error loading, applied to the
    user's own estimate.  Links without estimates contribute only their
    error-loading term, which there equals the full link gain.
    """
    hhat, evar = channel_state.stacked
    served = [int(k) for k in served]
    directions = np.zeros((hhat.shape[0], len(served)), dtype=complex)
    hhat_served = hhat[:, served]
    load = evar[:, served].sum(axis=1)
    antenna_rows = np.repeat(serving[:, served], channel_state.antennas, axis=0)
    for col, k in enumerate(served):
        rows = np.flatnonzero(antenna_rows[:, col])
        if rows.size == 0:
            raise ValueError(f"user {k} has an empty serving set")
        local = hhat_served[rows]
        cov = local @ local.conj().T
        cov[np.diag_indices_from(cov)] += load[rows] + noise_power
        w = np.linalg.solve(cov, hhat[rows, k])
        norm = np.linalg.norm(w)
        if norm == 0.0:
            w = np.ones(rows.size, dtype=complex)
            norm = np.sqrt(rows.size)
        directions[rows, col] = w / norm
    return directions


def rate_coefficients(channel_state: ChannelState, directions: np.ndarray,
                      served) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadratic forms feeding the expected-SINR expression.

    Returns (signal, self_err, cross): signal[a] is the beamformed gain on
    user a's own estimate, self_err[a] the residual-error leakage of its
    own beam, and cross[a, b] the average interference user a receives
    from user b's beam (estimate where one exists, statistics elsewhere).
    """
    served = [int(k) for k in served]
    hhat, evar = channel_state.stacked
    gains = hhat[:, served].conj().T @ directions            # gains[a, b] = <hhat_a, w_b>
    leak = evar[:, served].T @ (np.abs(directions) ** 2)     # leak[a, b]
    signal = np.abs(np.diag(gains)) ** 2
    self_err = np.diag(leak).copy()
    cross = np.abs(gains) ** 2 + leak
    np.fill_diagonal(cross, 0.0)
    return signal, self_err, cross


def expected_rate_lb(signal: np.ndarray, self_err: np.ndarray, cross: np.ndarray,
                     powers: np.ndarray, noise_power: float) -> np.ndarray:
    """Per-user achievable-rate lower bound, bits/s/Hz, from the
    :func:`rate_coefficients` of the beams."""
    powers = np.asarray(powers, dtype=float)
    sinr = powers * signal / (powers * self_err + cross @ powers + noise_power)
    # log1p keeps tiny rates exact where log2(1 + sinr) cancels
    return np.log1p(sinr) / math.log(2.0)


def rrh_power_share(directions: np.ndarray, num_rrhs: int, antennas: int) -> np.ndarray:
    """share[i, a]: fraction of user a's power radiated by RRH i."""
    w2 = np.abs(directions) ** 2
    return w2.reshape(num_rrhs, antennas, -1).sum(axis=1)


@dataclass(frozen=True)
class PowerControlResult:
    feasible: bool
    powers: np.ndarray    # fixed point if feasible, else the last iterate
    reason: str           # "", "margin", "ceiling", "rrh_cap", "no_convergence"
    margins: np.ndarray   # per-user signal margin at the effective target


def power_allocation_fixed_point(signal: np.ndarray, self_err: np.ndarray,
                                 cross: np.ndarray, sinr_target: float,
                                 noise_power: float, rrh_share: np.ndarray,
                                 rrh_power_cap: float, *,
                                 target_margin: float = 1e-7,
                                 max_iters: int = 10_000,
                                 rel_tol: float = 1e-8) -> PowerControlResult:
    """Minimal powers meeting the SINR target, by fixed-point iteration.

    The update p <- gamma_eff * (cross @ p + noise) / margin is a standard
    interference function, so from the zero start the iterates increase
    monotonically to the minimal fixed point whenever one exists.  The
    target carries a tiny positive margin so the converged (slightly
    truncated) iterate still clears the nominal target exactly.

    Infeasibility is a normal return: zero margin, iterates passing the
    total-power ceiling implied by the per-RRH caps, a converged point
    violating a per-RRH cap, or no convergence within the budget.
    """
    n = signal.shape[0]
    gamma_eff = sinr_target * (1.0 + target_margin)
    margins = signal - gamma_eff * self_err
    if n == 0:
        return PowerControlResult(True, np.zeros(0), "", margins)
    if sinr_target == 0.0:
        return PowerControlResult(True, np.zeros(n), "", margins)
    if (margins <= 0.0).any():
        return PowerControlResult(False, np.zeros(n), "margin", margins)

    ceiling = rrh_power_cap * rrh_share.shape[0]
    p = np.zeros(n)
    converged = False
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
            converged = True
            break
    if not converged:
        return PowerControlResult(False, p, "no_convergence", margins)
    if (rrh_share @ p > rrh_power_cap).any():
        return PowerControlResult(False, p, "rrh_cap", margins)
    return PowerControlResult(True, p, "", margins)


@dataclass(frozen=True)
class AdmissionSolution:
    served: np.ndarray               # sorted user ids
    serving: np.ndarray              # (I, K) bool, RRH i serves user k
    directions: np.ndarray           # (I*M, n) unit columns, zero-padded globally
    powers: np.ndarray               # (n,) mW
    rates: np.ndarray                # (n,) bits/s/Hz, lower bound
    per_rrh_power: np.ndarray        # (I,) mW
    removal_trace: tuple[int, ...]   # users dropped in this stage, in order

    @property
    def num_served(self) -> int:
        return len(self.served)


def admission_loop(instance: NetworkInstance, stage1_result: Stage1Result,
                   channel_state: ChannelState, config: SimConfig) -> AdmissionSolution:
    """Serve as many pilot holders as the rate, power, and fronthaul
    constraints allow.

    Each round prunes serving sets to the fronthaul cap, drops users left
    with no RRH, computes beams and the power fixed point, and on
    infeasibility removes the user with the largest power demand relative
    to an equal share at the last iterate (margin-violating users count as
    infinite demand; ties broken by pilot-group interference, then lowest
    id), and repeats.  An empty served set is a valid outcome.
    """
    served = stage1_result.admitted.tolist()
    removed: list[int] = []
    num_rrhs = instance.num_rrhs
    antennas = config.antennas_per_rrh
    # expm1 keeps tiny targets exact where 2**rate_req - 1 cancels
    sinr_target = math.expm1(config.rate_req * math.log(2.0))

    while served:
        serving = enforce_fronthaul_cap(instance.clusters, served,
                                        instance.alpha, config.fronthaul_cap)
        has_rrh = serving[:, served].any(axis=0)
        if not has_rrh.all():
            removed.extend(k for k, ok in zip(served, has_rrh) if not ok)
            served = [k for k, ok in zip(served, has_rrh) if ok]
            continue

        directions = robust_beam_direction(channel_state, serving, served,
                                           config.noise_power)
        signal, self_err, cross = rate_coefficients(channel_state, directions, served)
        share = rrh_power_share(directions, num_rrhs, antennas)
        control = power_allocation_fixed_point(
            signal, self_err, cross, sinr_target, config.noise_power,
            share, config.rrh_power_cap)

        if control.feasible:
            rates = expected_rate_lb(signal, self_err, cross, control.powers,
                                     config.noise_power)
            return AdmissionSolution(
                served=np.array(served, dtype=np.int64), serving=serving,
                directions=directions, powers=control.powers, rates=rates,
                per_rrh_power=share @ control.powers,
                removal_trace=tuple(removed))

        victim = _pick_victim(served, control, instance.weights, stage1_result)
        served.remove(victim)
        removed.append(victim)

    return AdmissionSolution(
        served=np.zeros(0, dtype=np.int64),
        serving=np.zeros((num_rrhs, instance.num_users), dtype=bool),
        directions=np.zeros((num_rrhs * antennas, 0), dtype=complex),
        powers=np.zeros(0), rates=np.zeros(0),
        per_rrh_power=np.zeros(num_rrhs),
        removal_trace=tuple(removed))


def _pick_victim(served: list[int], control: PowerControlResult,
                 weights: np.ndarray, stage1_result: Stage1Result) -> int:
    """Most burdensome user at the failed power iterate."""
    if (control.margins <= 0.0).any():
        demand = np.where(control.margins <= 0.0, -control.margins, -np.inf)
    else:
        mean_power = control.powers.mean()
        demand = control.powers / mean_power if mean_power > 0 else control.powers
    # score interference only for top-demand ties; the scan keeps the first max
    first = max(range(len(served)), key=lambda idx: demand[idx])
    tied = [k for k, d in zip(served, demand) if d == demand[first]] or [served[first]]
    return max(tied, key=lambda k: interference_score(weights, stage1_result.assignment, k))
