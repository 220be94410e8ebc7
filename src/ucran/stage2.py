"""Downlink design for the pilot-holding users: serving-set pruning under
the per-RRH fronthaul cap, robust beam directions from the estimated
channels with error loading, an expected-rate lower bound, fixed-point
power control under per-RRH power caps, and greedy admission.

Beams live on the stacked antennas of each user's serving set but are
stored zero-padded over all RRH antennas (row layout: RRH-major, antenna
within RRH), which keeps every quadratic form a plain matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelState
from .conflict_graph import interference_matrix, interference_score
from .stage1 import Stage1Result
from .topology import NetworkInstance, SimConfig


def enforce_fronthaul_cap(clusters: np.ndarray, admitted, alpha: np.ndarray,
                          cap: int) -> dict[int, np.ndarray]:
    """Prune serving sets so no RRH serves more than ``cap`` users.

    Start from the full cluster; an over-subscribed RRH keeps its ``cap``
    strongest users (largest link gain, ties to the lower id) and is
    removed from the rest.  May leave some users with an empty set.
    """
    if cap < 1:
        raise ValueError("fronthaul cap must be >= 1")
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


def _stacked(channel_state: ChannelState) -> tuple[np.ndarray, np.ndarray]:
    """Estimates and error variances flattened over RRH antennas: (I*M, K)."""
    num_rrhs, num_users, antennas = channel_state.estimates.shape
    hhat = channel_state.estimates.transpose(0, 2, 1).reshape(num_rrhs * antennas, num_users)
    evar = np.repeat(channel_state.error_var, antennas, axis=0)
    return hhat, evar


def _antenna_index(serving: np.ndarray, antennas: int) -> np.ndarray:
    return (serving[:, None] * antennas + np.arange(antennas)).ravel()


def robust_beam_direction(channel_state: ChannelState,
                          serving_sets: dict[int, np.ndarray],
                          served, noise_power: float) -> np.ndarray:
    """Unit beam directions, one column per served user.

    On the stacked antennas of the user's serving set, the direction is
    the regularized inverse of the sum of all served users' estimated
    rank-one covariances plus diagonal error loading, applied to the
    user's own estimate.  Links without estimates contribute only their
    error-loading term, which there equals the full link gain.
    """
    hhat, evar = _stacked(channel_state)
    dim, _ = hhat.shape
    antennas = channel_state.antennas
    served = [int(k) for k in served]
    directions = np.zeros((dim, len(served)), dtype=complex)
    hhat_served = hhat[:, served]
    load = evar[:, served].sum(axis=1)
    for col, k in enumerate(served):
        if serving_sets[k].size == 0:
            raise ValueError(f"user {k} has an empty serving set")
        rows = _antenna_index(serving_sets[k], antennas)
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
    hhat, evar = _stacked(channel_state)
    gains = hhat[:, served].conj().T @ directions            # gains[a, b] = <hhat_a, w_b>
    leak = evar[:, served].T @ (np.abs(directions) ** 2)     # leak[a, b]
    signal = np.abs(np.diag(gains)) ** 2
    self_err = np.diag(leak).copy()
    cross = np.abs(gains) ** 2 + leak
    np.fill_diagonal(cross, 0.0)
    return signal, self_err, cross


def expected_rate_lb(channel_state: ChannelState, directions: np.ndarray,
                     served, powers: np.ndarray, noise_power: float) -> np.ndarray:
    """Per-user achievable-rate lower bound, bits/s/Hz."""
    signal, self_err, cross = rate_coefficients(channel_state, directions, served)
    powers = np.asarray(powers, dtype=float)
    sinr = powers * signal / (powers * self_err + cross @ powers + noise_power)
    return np.log2(1.0 + sinr)


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
    serving_sets: dict[int, np.ndarray]
    directions: np.ndarray           # (I*M, n) unit columns, zero-padded globally
    powers: np.ndarray               # (n,) mW
    rates: np.ndarray                # (n,) bits/s/Hz, lower bound
    per_rrh_power: np.ndarray        # (I,) mW
    removal_trace: tuple[int, ...]   # users dropped in this stage, in order

    @property
    def num_served(self) -> int:
        return len(self.served)


def _empty_solution(num_rrhs: int, antennas: int, removed) -> AdmissionSolution:
    return AdmissionSolution(
        served=np.zeros(0, dtype=np.int64), serving_sets={},
        directions=np.zeros((num_rrhs * antennas, 0), dtype=complex),
        powers=np.zeros(0), rates=np.zeros(0),
        per_rrh_power=np.zeros(num_rrhs),
        removal_trace=tuple(removed))


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
    weights = interference_matrix(instance.alpha, instance.clusters)
    served = stage1_result.admitted.tolist()
    removed: list[int] = []
    num_rrhs = instance.num_rrhs
    antennas = config.antennas_per_rrh
    sinr_target = 2.0 ** config.rate_req - 1.0

    while served:
        serving = enforce_fronthaul_cap(instance.clusters, served,
                                        instance.alpha, config.fronthaul_cap)
        starved = [k for k in served if serving[k].size == 0]
        if starved:
            removed.extend(starved)
            served = [k for k in served if serving[k].size > 0]
            continue

        directions = robust_beam_direction(channel_state, serving, served,
                                           config.noise_power)
        signal, self_err, cross = rate_coefficients(channel_state, directions, served)
        share = rrh_power_share(directions, num_rrhs, antennas)
        control = power_allocation_fixed_point(
            signal, self_err, cross, sinr_target, config.noise_power,
            share, config.rrh_power_cap)

        if control.feasible:
            rates = expected_rate_lb(channel_state, directions, served,
                                     control.powers, config.noise_power)
            return AdmissionSolution(
                served=np.array(served, dtype=np.int64), serving_sets=serving,
                directions=directions, powers=control.powers, rates=rates,
                per_rrh_power=share @ control.powers,
                removal_trace=tuple(removed))

        victim = _pick_victim(served, control, weights, stage1_result)
        served.remove(victim)
        removed.append(victim)

    return _empty_solution(num_rrhs, antennas, removed)


def _pick_victim(served: list[int], control: PowerControlResult,
                 weights: np.ndarray, stage1_result: Stage1Result) -> int:
    """Most burdensome user at the failed power iterate."""
    if (control.margins <= 0.0).any():
        demand = np.where(control.margins <= 0.0, -control.margins, -np.inf)
    else:
        mean_power = control.powers.mean()
        demand = control.powers / mean_power if mean_power > 0 else control.powers
    best = None
    best_key = None
    for idx, k in enumerate(served):
        key = (demand[idx], interference_score(weights, stage1_result.assignment, k))
        if best is None or key > best_key:
            best, best_key = k, key
    return best
