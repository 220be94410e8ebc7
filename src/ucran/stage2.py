"""Downlink design for the pilot-holding users: serving-set pruning under
the per-RRH fronthaul cap, robust beam directions from the estimated
channels with error loading, an expected-rate lower bound, fixed-point
power control under per-RRH power caps, and greedy admission.

As in the user-centric C-RAN, a user is served by its own cluster only,
so stage 2 works on the served users' cluster links, the pilot holders'
rows of the :class:`ChannelState` where the estimates live too.  It
names a user by that holder row from the fronthaul cap on; only the
final solution reads the rows' user ids.  A serving set is an (n, L)
bool mask on those links, False where the cap pruned one, and a beam is
an (L, M) block on the same links (:class:`LocalBeams`).  Every admission
round solves all users' covariances in one batch, then gathers the rate
coefficients (for power control and the rate bound) and the power shares
from those blocks; nothing is spread over all I*M antennas.

A failed round drops a few users at most, listed on its own beams, so
what depends only on the pilot holders is built once per admission, in a
:class:`HolderTable`, the channel state extended by the fronthaul
ranking of every holder link, the RRH-pair keys and outer products of
the beam covariance table with each holder's index into it, and every
(link, beam slot) pair that the rate coefficients sum.  A round reads
the table at its surviving rows and filters it.  Each of its sums adds
the same terms in the same order as one built from the round's users
alone, so every result keeps its bits.

Power control iterates the fixed point from zero.  A slow call jumps
once, to a start below the fixed point that one linear solve certifies,
and stops within a few iterates; the listing's one-block calls never
jump.  A failed call stops as soon as an iterate p shows T p >= p, read
for free off the next iterate: that proves rho(T) >= 1, so no power
vector serves its users whatever the cap, and it ends as a ceiling at
that iterate, mostly long before one would cross the ceiling.  Each
listing pick cuts its victim out of the previous call's arrays by
slicing, the bytes a fancy-indexed copy of the survivors gives.
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


@dataclass(frozen=True)
class HolderTable(ChannelState):
    """What no admission round changes: the pilot holders' channel state
    and what its links give, built once per admission by
    :func:`build_holder_table`.

    Row h of every per-holder array, and column h of ``error_var``, is
    holder ``holders[h]``; a holder link, or the beam slot on it, is the
    flat index h*L + l.  A round reads the table at its served users'
    holder rows.
    """
    # fronthaul cap: every holder link sorted by (RRH, -gain, id)
    cap_links: np.ndarray     # (H*L,) flat link index
    cap_holders: np.ndarray   # (H*L,) its holder row
    cap_rrhs: np.ndarray      # (H*L,) its RRH
    # beams: table entry t*M*M + m*M + m' of RRH-pair key t over all
    # holders, real part at bin 2 * entry and imaginary part at the next
    num_keys: int
    outer_bins: np.ndarray    # (H, 2*L*L*M*M) bins of each holder's outer products
    outer_parts: np.ndarray   # (H, 2*L*L*M*M) their real and imaginary parts
    cov_index: np.ndarray     # (H, L*M, L*M) entry of each stacked-antenna element
    # rate coefficients: every (holder link, holder beam slot) pair on a
    # shared RRH, ordered by (link, beam), and its (link holder, beam
    # holder) combination
    pair_user: np.ndarray     # (P,) holder row of the link
    pair_slot: np.ndarray     # (P,) flat beam slot
    pair_est: np.ndarray      # (P, M) conjugate estimate on the link
    pair_comb: np.ndarray     # (P,) combination id
    comb_user: np.ndarray     # (C,) link holder row of each combination
    comb_beam: np.ndarray     # (C,) beam holder row
    self_comb: np.ndarray     # (H,) combination id of (h, h)


def build_holder_table(channel_state: ChannelState, alpha: np.ndarray) -> HolderTable:
    """The :class:`HolderTable` of the channel state's pilot holders, on
    its arrays as they are: the fronthaul ranking of their links, the
    RRH-pair keys and outer products of the beam covariance table with
    each holder's index into it, and the (link, beam slot) pairs of the
    rate coefficients."""
    holders, links = channel_state.holders, channel_state.links
    est, num_rrhs = channel_state.estimates, channel_state.error_var.shape[0]
    size, width, antennas = est.shape
    link_rrh = links.ravel()
    owner = np.arange(link_rrh.size) // width

    # holders ascend, so the row breaks a gain tie as the id does
    cap_links = np.lexsort((owner, -alpha[link_rrh, holders[owner]], link_rrh))

    # the covariance table's row t sums hhat_b[i] hhat_b[j]^H over the users
    # b with both RRHs of pair key t = i*I + j in their cluster; each
    # holder's own pairs are keys, so the inverse indexes its blocks
    keys = links[:, :, None] * num_rrhs + links[:, None, :]
    keys, block = np.unique(keys.ravel(), return_inverse=True)
    dim, square = width * antennas, antennas ** 2
    # cov_index[h, l*M + m, l'*M + m'] = block[h, l, l'] * M*M + m*M + m'
    within = np.arange(square).reshape(antennas, 1, antennas)
    cov_index = (block.reshape(size, width, 1, width, 1) * square + within).reshape(size, dim, dim)
    # the outer products in (h, l, l', m, m') order, each entry's real part
    # then its imaginary part, as the bins receive them
    outer_bins = (block.reshape(size, width * width, 1) * (2 * square)
                  + np.arange(2 * square)).reshape(size, 2 * width * width * square)
    with np.errstate(over="ignore", invalid="ignore"):    # the beam solve reports it
        outer = est[:, :, None, :, None] * est[:, None, :, None, :].conj()
    # C order for the float view: perfect-CSI estimates come antenna-major
    outer_parts = np.ascontiguousarray(outer).reshape(size, width * width * square).view(float)

    # each link meets every beam slot at its RRH, beams ascending
    by_rrh = np.argsort(link_rrh, kind="stable")
    per_rrh = np.bincount(link_rrh, minlength=num_rrhs)
    count = per_rrh[link_rrh]
    pair_link = np.repeat(np.arange(link_rrh.size), count)
    offset = np.arange(pair_link.size) - np.repeat(np.cumsum(count) - count, count)
    pair_slot = by_rrh[(np.cumsum(per_rrh) - per_rrh)[link_rrh][pair_link] + offset]
    pair_user = owner[pair_link]
    combs, pair_comb = np.unique(pair_user * size + owner[pair_slot], return_inverse=True)
    comb_user, comb_beam = np.divmod(combs, size)
    return HolderTable(
        holders=holders, links=links, estimates=est, error_var=channel_state.error_var,
        cap_links=cap_links, cap_holders=owner[cap_links], cap_rrhs=link_rrh[cap_links],
        num_keys=keys.size, outer_bins=outer_bins, outer_parts=outer_parts,
        cov_index=cov_index, pair_user=pair_user, pair_slot=pair_slot,
        pair_est=np.take(est.reshape(-1, antennas), pair_link, axis=0).conj(),
        pair_comb=pair_comb, comb_user=comb_user, comb_beam=comb_beam,
        self_comb=np.searchsorted(combs, np.arange(size) * (size + 1)))


def enforce_fronthaul_cap(table: HolderTable, served, cap: int) -> np.ndarray:
    """Serving mask (n, L) on ``table.links`` at ``served``, the served
    users' holder rows: True where the link's RRH serves the user.

    Start from the served users' full clusters; an over-subscribed RRH
    keeps its ``cap`` strongest users (largest link gain, ties to the lower
    id) and is removed from the rest.  May leave some users with no RRH.
    The table sorts every holder link by (RRH, -gain, id) once; a round
    keeps the served users' entries, which stay in that order, and ranks
    them within each RRH.
    """
    check_integer("fronthaul_cap", cap)
    alive = np.zeros(table.holders.size, dtype=bool)
    alive[served] = True
    live = alive[table.cap_holders]
    by_rrh = table.cap_rrhs[live]
    rank = np.arange(by_rrh.size) - np.searchsorted(by_rrh, by_rrh)
    keep = np.zeros(table.links.size, dtype=bool)
    keep[table.cap_links[live]] = rank < cap
    return keep.reshape(table.links.shape)[served]


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
def robust_beam_direction(table: HolderTable, valid: np.ndarray, served,
                          noise_power: float) -> LocalBeams:
    """Unit beam directions, one per served user, on its serving antennas:
    the links of ``table.links`` at ``served``, the served users' holder
    rows, that ``valid`` marks.

    On the stacked antennas of the user's serving set, the direction is
    the regularized inverse of the sum of all served users' estimated
    rank-one covariances plus diagonal error loading, applied to the
    user's own estimate.  Links without estimates contribute only their
    error-loading term, which there equals the full link gain.  A user
    whose own estimate vanishes there gets the uniform unit beam.

    The covariance block of RRHs (i, j) sums only the users with both in
    their cluster, so every block comes from one table of per-RRH-pair
    sums, and all users' systems are solved in one batch.  The holder
    table keys every RRH pair and each holder's outer products once; a
    round bincounts only its served users' rows, each bin adding them in
    served order (the keys of dropped users stay zero and nothing reads
    them), and gathers each covariance from the sums in one step.
    ValueError names the first user whose system overflows, is singular,
    or is too ill-conditioned for its beam to be trusted.
    """
    num_rrhs = table.error_var.shape[0]
    rrhs = table.links[served]
    est = table.estimates[served]
    n, width, antennas = est.shape
    empty = ~valid.any(axis=1)
    if empty.any():
        raise ValueError(f"user {table.holders[served[np.argmax(empty)]]} has an empty "
                         "serving set")
    dim = width * antennas

    # bincount adds each bin's terms in input order: the served order
    sums = np.bincount(table.outer_bins[served].ravel(), table.outer_parts[served].ravel(),
                       2 * table.num_keys * antennas ** 2).view(complex)
    cov = sums[table.cov_index[served]]
    on = np.repeat(valid, antennas, axis=1)
    cov[~(on[:, :, None] & on[:, None, :])] = 0.0
    load = table.error_var[:, served].sum(axis=1)
    # pruned slots get an identity diagonal and a zero right-hand side,
    # so their weights solve to zero
    diagonal = np.where(valid, load[rrhs] + noise_power, 1.0)
    cov_diagonal = cov.reshape(n, dim * dim)[:, ::dim + 1]     # a view
    cov_diagonal += np.repeat(diagonal, antennas, axis=1)
    own = (est * valid[:, :, None]).reshape(n, dim, 1)
    try:
        w = np.linalg.solve(cov, own)[:, :, 0]
    except np.linalg.LinAlgError:
        _raise_first_singular(cov, own, table.holders[served])
        raise
    overflow = ~(np.isfinite(cov).all(axis=(1, 2)) & np.isfinite(w).all(axis=1))
    if overflow.any():
        k = table.holders[served[np.argmax(overflow)]]
        raise ValueError(f"beam solve failed for user {k}: its covariance overflows; the "
                         "link gains span too wide a range")
    # cond(cov) <= trace / min loading on the valid slots; the pruned slots
    # are decoupled identity rows and say nothing about the solve
    trace = np.where(on, cov_diagonal.real, 0.0).sum(axis=1)
    ill = trace > 1e11 * np.where(valid, diagonal, np.inf).min(axis=1)
    if ill.any():
        k = table.holders[served[np.argmax(ill)]]
        raise ValueError(f"beam solve failed for user {k}: its covariance is too "
                         "ill-conditioned; the link gains swamp the noise and error loading")
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


def _raise_first_singular(cov: np.ndarray, own: np.ndarray, users: np.ndarray) -> None:
    """Re-solve user by user after a failed batch, to name the first of
    ``users``, the batch's user ids, whose system is singular."""
    for a, k in enumerate(users):
        try:
            np.linalg.solve(cov[a], own[a])
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"beam solve failed for user {k}: its serving-antenna "
                             f"covariance is singular ({exc}); the link gains span "
                             "too wide a range") from exc


def rate_coefficients(table: HolderTable, beams: LocalBeams,
                      served) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadratic forms feeding the expected-SINR expression.

    Returns (signal, self_err, cross): signal[a] is the beamformed gain on
    user a's own estimate, self_err[a] the residual-error leakage of its
    own beam, and cross[a, b] the average interference user a receives
    from user b's beam (estimate where one exists, statistics elsewhere).

    A gain <hhat_a, w_b> sums, in ascending RRH order, over the RRHs
    where user a has a cluster link and beam b has a serving slot; the
    leakage reads the error variances at beam b's serving RRHs only.  The
    holder table lists every (link, beam slot) pair on a shared RRH once;
    a round keeps the pairs of live users on valid slots and sums each
    (a, b) combination by bincount, adding |gain|^2 to the leakage only
    where both users live.  ``served`` are the served users' holder rows,
    in the order of the beams.  ``cross`` is C-ordered, which power
    control's matrix-vector product needs for its bits.
    """
    antennas = table.estimates.shape[2]
    alive = np.zeros(table.holders.size, dtype=bool)
    alive[served] = True
    on = np.zeros(table.links.shape, dtype=bool)
    on[served] = beams.valid
    weights = np.zeros(table.estimates.shape, dtype=complex)
    weights[served] = beams.weights

    kept = np.flatnonzero(alive[table.pair_user] & on.ravel()[table.pair_slot])
    # np.take gathers these short rows several times faster than indexing
    terms = np.einsum("pm,pm->p", np.take(table.pair_est, kept, axis=0),
                      np.take(weights.reshape(-1, antennas), table.pair_slot[kept], axis=0))
    comb = table.pair_comb[kept]
    size = table.comb_user.size
    gains = (np.bincount(comb, terms.real, size)
             + 1j * np.bincount(comb, terms.imag, size))     # <hhat_a, w_b> per combination

    evar = table.error_var[:, served]
    leak = np.einsum("bla,bl->ab", evar[beams.rrhs], beams.slot_power)    # leak[a, b]
    signal = np.abs(gains[table.self_comb[served]]) ** 2
    self_err = np.diag(leak).copy()
    cross = np.ascontiguousarray(leak)
    live = np.flatnonzero(alive[table.comb_user] & alive[table.comb_beam])
    position = np.zeros(table.holders.size, dtype=np.int64)
    position[served] = np.arange(len(served))
    cross[position[table.comb_user[live]], position[table.comb_beam[live]]] += (
        np.abs(gains[live]) ** 2)
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
    powers: np.ndarray    # converged iterate if feasible, else the last iterate: on "ceiling"
                          # the first that certifies rho(T) >= 1 or passes the ceiling; zeros on
                          # "margin", where no iterate runs and _victim reads the margins instead
    reason: str           # "", "margin", "ceiling" (past the ceiling, or certified rho(T) >= 1:
                          # no cap serves the set), "rrh_cap", "no_convergence" (the budget ran
                          # out with no certified jump: see power_allocation_fixed_point)
    margins: np.ndarray   # per-user signal margin at the effective target


# Power control runs its iterates in blocks of rows, the first few small so
# a quick fixed point costs little, then doubling up to this many.
_FIRST_BLOCK = 4
_MAX_BLOCK = 128
# T p >= p holds only to within rounding, so the certificate asks for a
# few ulps more: no rho(T) below one passes it
_CERTIFY = 1.0 + 8 * np.finfo(float).eps


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
    iterate order where one fires is returned: the total-power ceiling,
    then the relative stop, then the certificate within a row, as a
    step-at-a-time loop tests them.  Rows computed past it are discarded.

    The certificate ends a call that no power vector can serve.  With T =
    gamma_eff * diag(margins)^-1 cross, each row gives p_new - first = T p
    for the row before it, so p_new - first >= p at a positive p (any
    iterate but the zero start) proves rho(T) >= 1 by the Collatz-Wielandt
    bound, and then no fixed point exists, whatever the cap.  The test
    asks for (1 + 8 eps) p, so rounding never certifies a rho(T) below
    one, and returns "ceiling" with that iterate.  A user coupled to no
    one never meets it, so a system with one falls back to the crossing.

    A slow system jumps once.  When the doubling blocks (4 to 64, 124
    iterates) end with no stop and a full block of 128 is left in the
    budget, one solve of (diag(margins) - gamma_eff * cross) p* =
    gamma_eff * noise gives the fixed point; a positive p* within the
    ceiling certifies that it exists.  The blocks then restart, from the
    first size and in what is left of the budget, at x = max(p, (1 -
    rel_tol) p*) if one step from x is nowhere lower (f(x) >= x).  Such an
    x is a sub-solution: the iterates from it rise monotonically to the
    minimal fixed point, never pass it, and meet the relative stop within
    a few steps.  Otherwise the iterates go on from p as if there were no
    jump, so every ceiling crossing keeps its bits.  A budget under 252
    iterates never jumps.

    Infeasibility is a normal return: zero margin, iterates passing the
    total-power ceiling implied by the per-RRH caps (an overflow does) or
    certifying rho(T) >= 1, a converged point violating a per-RRH cap, or
    no convergence within the budget, only where the jump is not taken: a
    budget under 252, a solve that fails or that a spectral radius too
    near one leaves uncertified, or a step that falls below x.  ValueError
    when a float cannot carry the target: the first iterate is subnormal,
    or gamma * noise, below every SINR numerator here and in the rate
    bound, cannot resolve the margin.
    """
    n = signal.shape[0]
    gamma_eff = sinr_target * (1.0 + target_margin)
    margins = signal - gamma_eff * self_err
    if n == 0 or sinr_target == 0.0:
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
        # new - first = T p for T = gamma_eff * diag(margins)^-1 cross, so
        # T p >= p at a positive p certifies rho(T) >= 1 (Collatz-Wielandt)
        certified = (new - first >= _CERTIFY * block[:-1]).all(axis=1)
        if left == max_iters:
            certified[0] = False    # the zero start certifies nothing
        stop = over | done | certified
        if stop.any():
            row = int(np.argmax(stop))
            p = new[row].copy()
            if over[row] or not done[row]:
                return PowerControlResult(False, p, "ceiling", margins)
            break
        rows[0] = new[-1]
        left -= size
        size = min(2 * size, _MAX_BLOCK)
        # the doubling blocks ran out with a full block left: jump, once
        if max_iters - left == _MAX_BLOCK - _FIRST_BLOCK and left >= _MAX_BLOCK:
            start = _sub_solution(cross, rows[0], noise, gain, margins, ceiling, rel_tol)
            if start is not None:
                rows[0] = start
                size = _FIRST_BLOCK
    else:
        return PowerControlResult(False, rows[0].copy(), "no_convergence", margins)
    if (rrh_share @ p > rrh_power_cap).any():
        return PowerControlResult(False, p, "rrh_cap", margins)
    return PowerControlResult(True, p, "", margins)


def _sub_solution(cross: np.ndarray, p: np.ndarray, noise: np.ndarray, gain: np.ndarray,
                  margins: np.ndarray, ceiling: float, rel_tol: float) -> np.ndarray | None:
    """The jump's start max(p, (1 - rel_tol) p*) from the solve's fixed
    point p*, or None unless p* is positive, within the ceiling, and one
    step from the start is nowhere lower than it."""
    system = np.diag(margins) - gain * cross
    try:
        fixed = np.linalg.solve(system, np.full(margins.size, gain * noise))
    except np.linalg.LinAlgError:
        return None
    if not (fixed > 0.0).all() or fixed.sum() > ceiling:
        return None
    start = np.maximum(p, (1.0 - rel_tol) * fixed)
    # the loop's step, with the bits of its rows
    step = (np.dot(cross, start) + noise) * gain / margins
    return start if (step >= start).all() else None


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


# A failed round of n served users drops up to n // 32 of them, at least
# one, before it re-beams: below 64 users that is one drop per round.  The
# beams of a round go stale as its victims leave, and a divisor of 16
# served fewer users on dense admissions (ROADMAP.md, Settled).
_LISTING_DIVISOR = 32


def _victim(control: PowerControlResult) -> int:
    """Position of the user to drop after a failed power control: the
    largest margin shortfall, else the largest power at the failed
    iterate (the one that certified rho(T) >= 1 or crossed the ceiling);
    an exact tie goes to the first position."""
    short = control.margins <= 0.0
    demand = np.where(short, -control.margins, -np.inf) if short.any() else control.powers
    return int(np.argmax(demand))


def _without(cross: np.ndarray, share: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
    """``cross`` without row and column j, C-ordered, and ``share`` without
    column j, Fortran-ordered: the bytes and layouts of
    ``cross[np.ix_(keep, keep)]`` and ``share[:, keep]``, made of slices."""
    n = cross.shape[0]
    kept = np.empty((n - 1, n - 1))
    kept[:j, :j] = cross[:j, :j]
    kept[:j, j:] = cross[:j, j + 1:]
    kept[j:, :j] = cross[j + 1:, :j]
    kept[j:, j:] = cross[j + 1:, j + 1:]
    columns = np.empty((share.shape[0], n - 1), order="F")
    columns[:, :j] = share[:, :j]
    columns[:, j:] = share[:, j + 1:]
    return kept, columns


def admission_loop(instance: NetworkInstance, stage1_result: Stage1Result,
                   channel_state: ChannelState, config: SimConfig) -> AdmissionSolution:
    """Serve pilot holders greedily under the rate, power, and fronthaul
    constraints (not always the largest set).

    The holders' :class:`HolderTable` is built once, before the first
    round; the rounds name users by their rows in it, the solution by
    their ids.  Each round prunes serving sets to the fronthaul cap and
    drops, in that same round, the users it leaves with no RRH; then it
    computes beams and the power fixed point.  On infeasibility it lists
    victims on the round's beams, one at a time: the margin-short user
    with the largest shortfall, otherwise the user with the largest power
    at the failed iterate; an exact tie goes to the lowest id.  After each
    pick the power fixed point of the survivors' rate coefficients and
    power shares is run again for one block of iterates (``_MAX_BLOCK``),
    and the listing goes on while it fails on the ceiling, a margin or an
    RRH cap, up to ``max(1, n // 32)`` victims of the round's n users (one
    below 64 users); a call that certifies rho(T) >= 1 within its block
    is a ceiling, so the listing goes on.  A feasible or unconverged
    listing call ends it.
    The round then drops every listed victim, in order, and repeats.  An
    empty served set is feasible, so it ends through the same return as
    any other: a valid empty solution.  ValueError unless
    ``channel_state`` was built for the admitted users.
    """
    if not np.array_equal(stage1_result.admitted, channel_state.holders):
        raise ValueError("the channel state was made for other pilot holders")
    table = build_holder_table(channel_state, instance.alpha)
    served = np.arange(table.holders.size)      # holder rows, ascending
    removed: list[int] = []                     # holder rows, in drop order
    # expm1 keeps tiny targets exact where 2**rate_req - 1 cancels
    sinr_target = math.expm1(config.rate_req * math.log(2.0))

    while True:
        valid = enforce_fronthaul_cap(table, served, config.fronthaul_cap)
        has_rrh = valid.any(axis=1)
        # a stranded user ranked below the cap at each of its RRHs, so
        # dropping it moves no other user across the cap: no second pass
        removed.extend(served[~has_rrh].tolist())
        served, valid = served[has_rrh], valid[has_rrh]

        beams = robust_beam_direction(table, valid, served, config.noise_power)
        signal, self_err, cross = rate_coefficients(table, beams, served)
        share = rrh_power_share(beams)
        control = power_allocation_fixed_point(
            signal, self_err, cross, sinr_target, config.noise_power,
            share, config.rrh_power_cap)

        if control.feasible:
            rates = expected_rate_lb(signal, self_err, cross, control.powers,
                                     config.noise_power)
            return AdmissionSolution(
                served=table.holders[served], beams=beams,
                powers=control.powers, rates=rates,
                per_rrh_power=share @ control.powers,
                removal_trace=tuple(table.holders[removed].tolist()))

        # list victims on this round's beams: after each pick the survivors'
        # power problem is re-solved while it still shows infeasibility, for
        # one block at most (calls without that limit served fewer); alive
        # and served ascend, as the holders do, so the first position on a
        # tie is the lowest id.  Each pick cuts the victim out of the last
        # call's arrays, which then hold the survivors in order.
        limit = max(1, served.size // _LISTING_DIVISOR)
        alive = np.arange(served.size)
        victims = []
        while True:
            victim = _victim(control)
            victims.append(alive[victim])
            alive = np.delete(alive, victim)
            if len(victims) == limit:
                break
            signal, self_err = np.delete(signal, victim), np.delete(self_err, victim)
            cross, share = _without(cross, share, victim)
            control = power_allocation_fixed_point(
                signal, self_err, cross, sinr_target, config.noise_power, share,
                config.rrh_power_cap, max_iters=_MAX_BLOCK)
            if control.feasible or control.reason == "no_convergence":
                break
        removed.extend(served[victims].tolist())
        served = served[alive]
