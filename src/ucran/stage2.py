"""Downlink design for the pilot-holding users: serving-set pruning under
the per-RRH fronthaul cap, robust beam directions from the estimated
channels with error loading, an expected-rate lower bound, fixed-point
power control under per-RRH power caps, and greedy admission.

Serving sets are one (I, K) bool mask, True where RRH i serves user k.
As in the user-centric C-RAN, a beam lives on its user's serving
antennas only: :class:`LocalBeams` holds each one as an (L, M) block on
the user's cluster links (:attr:`ChannelState.links`, where the
estimates live too), with the slots the fronthaul cap pruned invalid.
Every admission round solves all users' covariances in one batch, then
gathers the rate coefficients (for power control and the rate bound)
and the power shares from those blocks, so no quadratic form runs over
all I*M antennas.  Only the final solution spreads the beams over all
RRH antennas, as :attr:`AdmissionSolution.directions`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelState
from .conflict_graph import interference_matrix  # noqa: F401  (perfbench/spans.py wraps this name)
from .conflict_graph import cluster_link_mask, interference_score
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
    serving = cluster_link_mask(clusters, admitted, alpha.shape[0])
    # a stable sort over ascending ids breaks gain ties toward the lower id;
    # links outside the clusters sort last and are masked out again below
    key = np.where(serving[:, admitted], -alpha[:, admitted], np.inf)
    strongest = np.argsort(key, axis=1, kind="stable")[:, :cap]
    keep = np.zeros(key.shape, dtype=bool)
    np.put_along_axis(keep, strongest, True, axis=1)
    serving[:, admitted] &= keep
    return serving


@dataclass(frozen=True)
class LocalBeams:
    """Unit beams on each served user's serving antennas.

    Slot l of the beam in column a sits on RRH ``rrhs[a, l]`` and carries
    the weights ``weights[a, l]`` on its M antennas.  The slots are the
    user's cluster RRHs in ascending order; those outside its serving set
    (pruned by the fronthaul cap) have ``valid`` False and zero weights.
    """
    rrhs: np.ndarray      # (n, L) int64, distinct in each row
    valid: np.ndarray     # (n, L) bool
    weights: np.ndarray   # (n, L, M) complex
    num_rrhs: int

    @property
    def slot_power(self) -> np.ndarray:
        """(n, L) share of each beam's unit power on each slot."""
        return (np.abs(self.weights) ** 2).sum(axis=2)

    def dense(self) -> np.ndarray:
        """(I*M, n) beams zero-padded over all RRH antennas; row i*M + m is
        antenna m of RRH i."""
        n, _, antennas = self.weights.shape
        out = np.zeros((self.num_rrhs, antennas, n), dtype=complex)
        out[self.rrhs, :, np.arange(n)[:, None]] = self.weights
        return out.reshape(self.num_rrhs * antennas, n)


@np.errstate(over="ignore", invalid="ignore")
def robust_beam_direction(channel_state: ChannelState, serving: np.ndarray,
                          served, noise_power: float) -> LocalBeams:
    """Unit beam directions, one per served user, on its serving antennas.

    On the stacked antennas of the user's serving set, the direction is
    the regularized inverse of the sum of all served users' estimated
    rank-one covariances plus diagonal error loading, applied to the
    user's own estimate.  Links without estimates contribute only their
    error-loading term, which there equals the full link gain.  A user
    whose own estimate vanishes there gets the uniform unit beam.

    The covariance block of RRHs (i, j) sums only the users with both in
    their cluster, so every block comes from one table of per-RRH-pair
    sums, and all users' systems are solved in one batch.
    """
    served = np.asarray(served, dtype=np.int64)
    num_rrhs = serving.shape[0]
    rrhs = channel_state.links[served]
    valid = serving[rrhs, served[:, None]]
    est = channel_state.estimates[served]
    n, width, antennas = est.shape
    empty = ~valid.any(axis=1)
    if empty.any():
        raise ValueError(f"user {served[np.argmax(empty)]} has an empty serving set")
    dim = width * antennas

    # table[t]: sum of hhat_b[i] hhat_b[j]^H over the users b with both
    # RRHs of pair key t = i*I + j in their cluster.  Each user's own
    # pairs are keys, so the inverse indexes its covariance blocks.
    keys = rrhs[:, :, None] * num_rrhs + rrhs[:, None, :]
    keys, block = np.unique(keys.ravel(), return_inverse=True)
    table = np.zeros((keys.size, antennas, antennas), dtype=complex)
    np.add.at(table, block, (est[:, :, None, :, None] * est[:, None, :, None, :].conj())
              .reshape(-1, antennas, antennas))
    cov = table[block.reshape(n, width, width)]
    cov[~(valid[:, :, None] & valid[:, None, :])] = 0.0
    cov = cov.transpose(0, 1, 3, 2, 4).reshape(n, dim, dim)
    load = channel_state.error_var[:, served].sum(axis=1)
    # pruned slots get an identity diagonal and a zero right-hand side,
    # so their weights solve to zero
    diagonal = np.where(valid, load[rrhs] + noise_power, 1.0)
    cov[:, np.arange(dim), np.arange(dim)] += np.repeat(diagonal, antennas, axis=1)
    own = (est * valid[:, :, None]).reshape(n, dim, 1)
    try:
        w = np.linalg.solve(cov, own)[:, :, 0]
    except np.linalg.LinAlgError:
        _raise_first_singular(cov, own, served)
        raise
    overflow = ~(np.isfinite(cov).all(axis=(1, 2)) & np.isfinite(w).all(axis=1))
    if overflow.any():
        raise ValueError(f"beam solve failed for user {served[np.argmax(overflow)]}: its "
                         "covariance overflows; the link gains span too wide a range")
    # an exact power-of-two scale brings each beam's peak near one, so its
    # norm can neither under- nor overflow; normal beams keep every bit
    _, exponent = np.frexp(np.abs(w).max(axis=1))
    w *= np.ldexp(1.0, np.clip(-exponent, -1000, 1000))[:, None]
    norms = np.linalg.norm(w, axis=1)
    vanished = norms == 0.0
    w /= np.where(vanished, 1.0, norms)[:, None]
    uniform = np.repeat(valid, antennas, axis=1) / np.sqrt(valid.sum(axis=1) * antennas)[:, None]
    w[vanished] = uniform[vanished]
    return LocalBeams(rrhs=rrhs, valid=valid, weights=w.reshape(n, width, antennas),
                      num_rrhs=num_rrhs)


def _raise_first_singular(cov: np.ndarray, own: np.ndarray, served: np.ndarray) -> None:
    """Re-solve user by user after a failed batch, to name the first user
    whose system is singular."""
    for a, k in enumerate(served):
        try:
            np.linalg.solve(cov[a], own[a])
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"beam solve failed for user {k}: its serving-antenna "
                             f"covariance is singular ({exc}); the link gains span "
                             "too wide a range") from exc


def rate_coefficients(channel_state: ChannelState, beams: LocalBeams,
                      served) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadratic forms feeding the expected-SINR expression.

    Returns (signal, self_err, cross): signal[a] is the beamformed gain on
    user a's own estimate, self_err[a] the residual-error leakage of its
    own beam, and cross[a, b] the average interference user a receives
    from user b's beam (estimate where one exists, statistics elsewhere).

    A gain <hhat_a, w_b> sums over the RRHs where user a has a cluster
    link and beam b has a serving slot; the leakage reads the error
    variances at beam b's serving RRHs only.
    """
    served = np.asarray(served, dtype=np.int64)
    n = served.size
    link_rrh = channel_state.links[served].ravel()
    est = channel_state.estimates[served].reshape(link_rrh.size, -1)
    users = np.arange(link_rrh.size) // channel_state.links.shape[1]
    cols, slots = np.nonzero(beams.valid)
    slot_rrh = beams.rrhs[cols, slots]

    # pair every serving slot with each cluster link at its RRH
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
             + 1j * np.bincount(flat, terms.imag, n * n)).reshape(n, n)   # <hhat_a, w_b>

    evar = channel_state.error_var[:, served]
    leak = np.einsum("bla,bl->ab", evar[beams.rrhs], beams.slot_power)    # leak[a, b]
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


def rrh_power_share(beams: LocalBeams) -> np.ndarray:
    """share[i, a]: fraction of user a's power radiated by RRH i."""
    n = beams.rrhs.shape[0]
    share = np.zeros((beams.num_rrhs, n))
    share[beams.rrhs, np.arange(n)[:, None]] = beams.slot_power
    return share


@dataclass(frozen=True)
class PowerControlResult:
    feasible: bool
    powers: np.ndarray    # fixed point if feasible, else the last iterate
    reason: str           # "", "margin", "ceiling", "rrh_cap", "no_convergence"
    margins: np.ndarray   # per-user signal margin at the effective target


@np.errstate(over="ignore")
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
    total-power ceiling implied by the per-RRH caps (an overflow does),
    a converged point violating a per-RRH cap, or no convergence within
    the budget.  ValueError when a float cannot carry the target: the
    first iterate is subnormal, or gamma * noise, below every SINR
    numerator here and in the rate bound, cannot resolve the margin.
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

        beams = robust_beam_direction(channel_state, serving, served,
                                      config.noise_power)
        signal, self_err, cross = rate_coefficients(channel_state, beams, served)
        share = rrh_power_share(beams)
        control = power_allocation_fixed_point(
            signal, self_err, cross, sinr_target, config.noise_power,
            share, config.rrh_power_cap)

        if control.feasible:
            rates = expected_rate_lb(signal, self_err, cross, control.powers,
                                     config.noise_power)
            return AdmissionSolution(
                served=np.array(served, dtype=np.int64), serving=serving,
                directions=beams.dense(), powers=control.powers, rates=rates,
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


@np.errstate(over="ignore")
def _pick_victim(served: list[int], control: PowerControlResult,
                 weights: np.ndarray, stage1_result: Stage1Result) -> int:
    """Most burdensome user at the failed power iterate."""
    if (control.margins <= 0.0).any():
        demand = np.where(control.margins <= 0.0, -control.margins, -np.inf)
    else:
        mean_power = control.powers.mean()
        # past the largest float, the raw powers rank the demand
        demand = (control.powers / mean_power if 0 < mean_power < np.inf
                  else control.powers)
    # score interference only for top-demand ties; the scan keeps the first max
    first = max(range(len(served)), key=lambda idx: demand[idx])
    tied = [k for k, d in zip(served, demand) if d == demand[first]] or [served[first]]
    return max(tied, key=lambda k: interference_score(weights, stage1_result.assignment, k))
