"""Small-scale fading, uplink pilot reception, and per-link channel knowledge.

Array conventions: the true channels are (num_rrhs, num_users, antennas)
complex, h[i, k] ~ CN(0, alpha[i, k] * Identity), and the pilot noise is
(num_rrhs, num_pilots, antennas).  Neither is ever held whole: each
value is a pure function of the seed, its stream tag and its index,
made by :func:`~ucran.topology.complex_normal` from the keyed stream,
so a call makes only the links it reads, in any order and batch, and
every trial of a seed reads the same value on a shared link.
Value m of link (i, k) sits at counter (i * K + k) * M + m of the fading
stream, and the noise of RRH i on pilot t at counter (t * I + i) * M + m
of the pilot-noise stream, a layout that reads no pilot count.

Only the pilot holders know more than large-scale CSI, so a
:class:`ChannelState` holds them alone, row (or column) h being the h-th
holder in ascending id: estimates (H, L, antennas) on the only links they
are made on, its L cluster RRHs in ascending order, and per-antenna
error variances (I, H).  Estimates come by linear MMSE from the pilot
phase, or exactly under perfect CSI.  Every RRH outside a holder's
cluster keeps the full gain alpha as its error variance, so consumers
treat every link alike: known part plus a zero-mean residual.

The pilot phase makes only what it reads: each pilot holder's
cluster RRHs, on its own pilot, the channels of that pilot's holders
there and the noise there.  The observation and the co-pilot gain sum
add the link's co-pilot holders from zero in ascending id, as an
``np.add.at`` over every (RRH, pilot) pair and a co-pilot product over
every (RRH, user) pair formed one user at a time do, and a test holds
them bit for bit to those forms.  The MMSE coefficient and the error
variance both read that one sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coloring import PilotAssignment
from .topology import (NetworkInstance, SimConfig, STREAM_FADING, STREAM_PILOT_NOISE,
                       complex_normal)


@dataclass(frozen=True)
class ChannelState:
    holders: np.ndarray         # (H,) the pilot holders' user ids, ascending
    links: np.ndarray           # (H, L) each holder's cluster RRHs, ascending
    estimates: np.ndarray       # (H, L, M) complex on links
    error_var: np.ndarray       # (I, H) per-antenna residual variance, column h holder h


def _per_antenna(seed: int, stream: int, flat: np.ndarray, antennas: int) -> np.ndarray:
    """The stream's values at counters ``flat * antennas + m``, shaped
    ``flat.shape + (antennas,)``; made antenna-major, so each numpy call
    runs along ``flat`` rather than along the few antennas."""
    flat = np.asarray(flat)
    m = np.arange(antennas).reshape((antennas,) + (1,) * flat.ndim)
    values = complex_normal(seed, stream, flat * antennas + m)
    return values.transpose(tuple(range(1, values.ndim)) + (0,))


def link_channels(seed: int, alpha: np.ndarray, antennas: int,
                  rrhs: np.ndarray, users: np.ndarray) -> np.ndarray:
    """The true channels ``h[rrhs, users]`` of ``seed``: i.i.d. Rayleigh,
    h[i, k] ~ CN(0, alpha[i, k] * Identity), shaped as the broadcast index
    arrays plus (antennas,)."""
    values = _per_antenna(seed, STREAM_FADING, rrhs * alpha.shape[1] + users, antennas)
    return np.sqrt(alpha[rrhs, users])[..., None] * values


def simulate_pilot_rx(seed: int, alpha: np.ndarray, antennas: int,
                      assignment: PilotAssignment, links: np.ndarray,
                      pilot_power: float, noise_power: float) -> np.ndarray:
    """Post-correlation pilot observation on each pilot holder's links.

    Orthogonal pilots separate perfectly, so the observation of pilot t
    at RRH i is the sqrt(pilot_power)-scaled superposition of the
    channels of every user on pilot t, plus CN(0, noise_power * Identity)
    noise.  ``links`` (H, L) holds the links of ``assignment.users``, row
    h those of the h-th holder in any order; returns the observation
    (H, L, M) there: row h holds holder h's pilot at its links.  Only
    those links' channels and noise are made, as the values of ``seed``
    there (see :func:`link_channels`).
    """
    # y[r, l] = sqrt(p) * sum of h[links[r, l], j] over the users j on the
    # pilot of holder r, added from zero in ascending id as np.add.at adds
    users = assignment.users
    pilot = assignment.pilots[users]
    # every (reader, holder) pair of holders on one pilot, readers ascending
    # and each reader's holders ascending
    reader, holder = np.nonzero(pilot[:, None] == pilot)
    y = np.zeros(links.shape + (antennas,), dtype=complex)
    np.add.at(y, reader, link_channels(seed, alpha, antennas, links[reader],
                                       users[holder][:, None]))
    y *= np.sqrt(pilot_power)
    noise = _per_antenna(seed, STREAM_PILOT_NOISE, pilot[:, None] * alpha.shape[0] + links,
                         antennas)
    return y + np.sqrt(noise_power) * noise


def mmse_estimate(y: np.ndarray, alpha: np.ndarray, assignment: PilotAssignment,
                  links: np.ndarray, pilot_power: float, noise_power: float):
    """Per-link linear MMSE estimates on intra-cluster links.

    ``y`` is :func:`simulate_pilot_rx`'s observation on the same
    ``links``.  The scaling uses the total received pilot energy on the
    link's pilot, ``received = p * (alpha + others) + noise``, with
    ``others`` the gain summed over the link's co-pilot users, the other
    holders of its pilot network-wide, in ascending id; co-pilot users
    leave a residual error even at high pilot power.  The error variance
    is ``alpha * (noise + p * others) / received``, which reads ``others``
    alone, so it stays exact when one user dominates its pilot.

    Returns (estimates, error_var) in the ChannelState layout: estimates
    (H, L, M) on ``links``, in its order; error_var (I, H), alpha on every
    link without an estimate.  ValueError when the received pilot power on
    an estimated link overflows.
    """
    users = assignment.users
    pilot = assignment.pilots[users]
    # others[r, l] = sum of alpha[links[r, l], j] over the other users j on
    # the pilot of holder r, added from zero in ascending id
    copilot = pilot[:, None] == pilot
    np.fill_diagonal(copilot, False)
    reader, holder = np.nonzero(copilot)
    others = np.zeros(links.shape)
    np.add.at(others, reader, alpha[links[reader], users[holder][:, None]])
    gain = alpha[links, users[:, None]]
    # p * (the gain of every user on the link's pilot) + noise
    denom = pilot_power * (gain + others) + noise_power
    overflowed = int((~np.isfinite(denom)).sum())
    if overflowed:
        # p * alpha = inf would give a zero coefficient and a zero error variance
        raise ValueError(f"channel estimation failed: the received pilot power overflows "
                         f"on {overflowed} estimated links, so their estimates are not finite")
    coef = np.sqrt(pilot_power) * gain / denom
    error_var = alpha[:, users]
    error_var[links, np.arange(users.size)[:, None]] = (
        gain * (noise_power + pilot_power * others) / denom)
    return coef[:, :, None] * y, error_var


def perfect_csi(seed: int, alpha: np.ndarray, antennas: int, links: np.ndarray,
                holders: np.ndarray):
    """The holders' links ``links`` (H, L) known exactly, as the values of
    ``seed`` there (see :func:`link_channels`); the rest keep only their
    large-scale statistics.  Returns (estimates, error_var) in the layout
    of :func:`mmse_estimate`."""
    error_var = alpha[:, holders]
    error_var[links, np.arange(holders.size)[:, None]] = 0.0
    return link_channels(seed, alpha, antennas, links, holders[:, None]), error_var


def build_channel_state(instance: NetworkInstance, assignment: PilotAssignment,
                        config: SimConfig, perfect: bool = False) -> ChannelState:
    """Run the pilot phase on the fading of the network's seed and estimate
    on each pilot holder's cluster links in ascending RRH order.

    Perfect and imperfect modes read the same channels for the same network,
    and so does every call on it whatever its pilots.  ValueError for a bad
    seed, or when an error variance or estimate is not finite (extreme gains).
    """
    alpha, antennas, holders = instance.alpha, config.antennas_per_rrh, assignment.users
    links = np.sort(instance.clusters[holders], axis=1)
    if perfect:
        estimates, error_var = perfect_csi(instance.seed, alpha, antennas, links, holders)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            y = simulate_pilot_rx(instance.seed, alpha, antennas, assignment, links,
                                  config.pilot_power, config.noise_power)
            estimates, error_var = mmse_estimate(
                y, alpha, assignment, links, config.pilot_power, config.noise_power)
    for what, values in (("error variances", error_var), ("estimates", estimates)):
        bad = int((~np.isfinite(values)).sum())
        if bad:
            raise ValueError(f"channel estimation failed: {bad} {what} are not "
                             "finite; the link gains span too wide a range")
    return ChannelState(holders=holders, links=links, estimates=estimates,
                        error_var=error_var)
