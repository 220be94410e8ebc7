"""Downlink design for the pilot-holding users: serving-set pruning under
the per-RRH fronthaul cap, robust beam directions from the estimated
channels with error loading, an expected-rate lower bound, fixed-point
power control under per-RRH power caps, and greedy admission.

As in the user-centric C-RAN, a user is served by its own cluster only,
so stage 2 works on the served users' cluster links
(:attr:`ChannelState.links`, where the estimates live too) from the
fronthaul cap to the final solution.  A serving set is an (n, L) bool
mask on those links, False where the cap pruned one, and a beam is an
(L, M) block on the same links (:class:`LocalBeams`).  Every admission
round solves all users' covariances in one batch, then gathers the rate
coefficients (for power control and the rate bound) and the power shares
from those blocks; nothing is spread over all I*M antennas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelState
from .conflict_graph import interference_matrix  # noqa: F401  (perfbench/spans.py wraps this name)
from .conflict_graph import interference_score  # noqa: F401  (perfbench/spans.py wraps this name)
from .stage1 import Stage1Result
from .topology import NetworkInstance, SimConfig, check_integer


def enforce_fronthaul_cap(links: np.ndarray, served, alpha: np.ndarray,
                          cap: int) -> np.ndarray:
    """Serving mask (n, L) on ``links[served]``: True where the link's RRH
    serves the user.

    Start from the served users' full clusters; an over-subscribed RRH
    keeps its ``cap`` strongest users (largest link gain, ties to the lower
    id) and is removed from the rest.  May leave some users with no RRH.
    """
    check_integer("fronthaul_cap", cap)
    served = np.asarray(served, dtype=np.int64)
    rrhs = links[served].ravel()
    users = np.repeat(served, links.shape[1])
    # rank each link within its RRH: strongest first, ties to the lower id
    order = np.lexsort((users, -alpha[rrhs, users], rrhs))
    by_rrh = rrhs[order]
    rank = np.arange(by_rrh.size) - np.searchsorted(by_rrh, by_rrh)
    keep = np.empty(by_rrh.size, dtype=bool)
    keep[order] = rank < cap
    return keep.reshape(served.size, links.shape[1])


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


@np.errstate(over="ignore", invalid="ignore")
def robust_beam_direction(channel_state: ChannelState, valid: np.ndarray,
                          served, noise_power: float) -> LocalBeams:
    """Unit beam directions, one per served user, on its serving antennas:
    the links of ``channel_state.links[served]`` that ``valid`` marks.

    On the stacked antennas of the user's serving set, the direction is
    the regularized inverse of the sum of all served users' estimated
    rank-one covariances plus diagonal error loading, applied to the
    user's own estimate.  Links without estimates contribute only their
    error-loading term, which there equals the full link gain.  A user
    whose own estimate vanishes there gets the uniform unit beam.

    The covariance block of RRHs (i, j) sums only the users with both in
    their cluster, so every block comes from one table of per-RRH-pair
    sums, and all users' systems are solved in one batch.  ValueError
    names the first user whose system overflows, is singular, or is too
    ill-conditioned for its beam to be trusted.
    """
    served = np.asarray(served, dtype=np.int64)
    num_rrhs = channel_state.error_var.shape[0]
    rrhs = channel_state.links[served]
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
    outer = est[:, :, None, :, None] * est[:, None, :, None, :].conj()
    # entry e of block b sits at b*M*M + e; bincount adds in input order
    entry = (block[:, None] * antennas ** 2 + np.arange(antennas ** 2)).ravel()
    table = np.empty((keys.size, antennas, antennas), dtype=complex)
    table.real = np.bincount(entry, outer.real.ravel(), table.size).reshape(table.shape)
    table.imag = np.bincount(entry, outer.imag.ravel(), table.size).reshape(table.shape)
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
    # cond(cov) <= trace / min loading on the valid slots; the pruned slots
    # are decoupled identity rows and say nothing about the solve
    on = np.repeat(valid, antennas, axis=1)
    trace = np.where(on, cov[:, np.arange(dim), np.arange(dim)].real, 0.0).sum(axis=1)
    ill = trace > 1e11 * np.where(valid, diagonal, np.inf).min(axis=1)
    if ill.any():
        raise ValueError(f"beam solve failed for user {served[np.argmax(ill)]}: its "
                         "covariance is too ill-conditioned; the link gains swamp the "
                         "noise and error loading")
    # an exact power-of-two scale brings each beam's peak near one, so its
    # norm can neither under- nor overflow; normal beams keep every bit
    _, exponent = np.frexp(np.abs(w).max(axis=1))
    w *= np.ldexp(1.0, np.clip(-exponent, -1000, 1000))[:, None]
    norms = np.linalg.norm(w, axis=1)
    vanished = norms == 0.0
    w /= np.where(vanished, 1.0, norms)[:, None]
    uniform = on / np.sqrt(valid.sum(axis=1) * antennas)[:, None]
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

    A gain <hhat_a, w_b> sums, in ascending RRH order, over the RRHs
    where user a has a cluster link and beam b has a serving slot; the
    leakage reads the error variances at beam b's serving RRHs only.
    """
    served = np.asarray(served, dtype=np.int64)
    n = served.size
    link_rrh = beams.rrhs.ravel()
    est = channel_state.estimates[served].reshape(link_rrh.size, channel_state.estimates.shape[2])
    users = np.arange(link_rrh.size) // beams.rrhs.shape[1]
    slot = np.full((beams.num_rrhs, n), -1)          # slot[i, b]: beam b's slot on RRH i
    cols, slots = np.nonzero(beams.valid)
    slot[beams.rrhs[cols, slots], cols] = slots

    # pair each cluster link with every beam that has a slot at its RRH
    link_of, col = np.divmod(np.flatnonzero((slot >= 0)[link_rrh]), n)
    terms = np.einsum("pm,pm->p", est[link_of].conj(),
                      beams.weights[col, slot[link_rrh[link_of], col]])
    flat = users[link_of] * n + col
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


# Power control runs its iterates in blocks of rows, the first few small so
# a quick fixed point costs little, then doubling up to this many.
_FIRST_BLOCK = 4
_MAX_BLOCK = 128


@np.errstate(over="ignore", invalid="ignore")
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

    The iterates are computed in blocks of rows, each row by the BLAS
    matrix-vector product that ``cross @ p`` makes of a C- or
    Fortran-ordered ``cross`` and the same three element-wise steps in the
    same order, so every iterate is the one a step-at-a-time loop makes,
    bit for bit.  The stop tests run once per block, and the first row in
    iterate order where one fires is returned: the total-power ceiling
    before the relative stop within a row, as a step-at-a-time loop tests
    them.  Rows computed past it are discarded.

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
    # the scalars as 0-d arrays: the same values, and cheaper in-place steps
    noise, gain = np.array(noise_power, dtype=float), np.array(gamma_eff, dtype=float)
    # row 0 holds the last iterate of the previous block (zero at the start),
    # rows 1..size the block's own
    rows = np.zeros((max(0, min(max_iters, _MAX_BLOCK)) + 1, n))
    size, left = _FIRST_BLOCK, max_iters
    while left > 0:
        size = min(size, left)
        block = rows[:size + 1]
        for p, p_new in zip(block[:-1], block[1:]):
            # p_new = gamma_eff * (cross @ p + noise) / margins, step by step
            np.dot(cross, p, out=p_new)
            p_new += noise
            p_new *= gain
            p_new /= margins
        new = block[1:]
        over = new.sum(axis=1) > ceiling
        # per-component relative stop: keeps every user's converged SINR
        # within rel_tol of the effective target, so the margin still
        # clears the nominal one
        done = (np.abs(new - block[:-1]) <= rel_tol * new).all(axis=1)
        stop = over | done
        if stop.any():
            row = int(np.argmax(stop))
            p = new[row].copy()
            if over[row]:
                return PowerControlResult(False, p, "ceiling", margins)
            break
        rows[0] = new[-1]
        left -= size
        size = min(2 * size, _MAX_BLOCK)
    else:
        return PowerControlResult(False, rows[0].copy(), "no_convergence", margins)
    if (rrh_share @ p > rrh_power_cap).any():
        return PowerControlResult(False, p, "rrh_cap", margins)
    return PowerControlResult(True, p, "", margins)


@dataclass(frozen=True)
class AdmissionSolution:
    served: np.ndarray               # sorted user ids
    beams: LocalBeams                # unit beams on the served users' serving links
    powers: np.ndarray               # (n,) mW
    rates: np.ndarray                # (n,) bits/s/Hz, lower bound
    per_rrh_power: np.ndarray        # (I,) mW
    removal_trace: tuple[int, ...]   # users dropped in this stage, in order

    @property
    def num_served(self) -> int:
        return len(self.served)


def admission_loop(instance: NetworkInstance, stage1_result: Stage1Result,
                   channel_state: ChannelState, config: SimConfig) -> AdmissionSolution:
    """Serve pilot holders greedily under the rate, power, and fronthaul
    constraints (one drop per failed round; not always the largest set).

    Each round prunes serving sets to the fronthaul cap and drops, in that
    same round, the users it leaves with no RRH; then it computes beams
    and the power fixed point.  On infeasibility it removes one user and
    repeats: the margin-short user with the largest shortfall, otherwise
    the user with the largest power at the failed iterate; an exact tie
    goes to the lowest id.  An empty served set is feasible, so it ends
    through the same return as any other: a valid empty solution.
    """
    served = stage1_result.admitted
    removed: list[int] = []
    # expm1 keeps tiny targets exact where 2**rate_req - 1 cancels
    sinr_target = math.expm1(config.rate_req * math.log(2.0))

    while True:
        valid = enforce_fronthaul_cap(channel_state.links, served,
                                      instance.alpha, config.fronthaul_cap)
        has_rrh = valid.any(axis=1)
        # a stranded user ranked below the cap at each of its RRHs, so
        # dropping it moves no other user across the cap: no second pass
        removed.extend(served[~has_rrh].tolist())
        served, valid = served[has_rrh], valid[has_rrh]

        beams = robust_beam_direction(channel_state, valid, served,
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
                served=served, beams=beams,
                powers=control.powers, rates=rates,
                per_rrh_power=share @ control.powers,
                removal_trace=tuple(removed))

        short = control.margins <= 0.0
        demand = np.where(short, -control.margins, -np.inf) if short.any() else control.powers
        # served is ascending, so an exact tie goes to the lowest id
        victim = int(np.argmax(demand))
        removed.append(int(served[victim]))
        served = np.delete(served, victim)
