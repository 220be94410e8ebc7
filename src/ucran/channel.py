"""Small-scale fading, uplink pilot reception, and per-link channel knowledge.

Array conventions: true channels are (num_rrhs, num_users, antennas)
complex and read-only, and only the pilot phase reads them; a
:class:`Fading` value keeps one seed's draw for every trial of that
seed, and without one they live only through the call.  Error
variances are (num_rrhs, num_users) per antenna.  Estimates are stored
on the only links they are made on, each user's cluster links:
(num_users, L, antennas) on :attr:`ChannelState.links`, the L cluster
RRHs in ascending order.  Pilot holders are estimated by linear MMSE
from the pilot phase, or exactly under perfect CSI; other users keep
zero rows.
Every link without an estimate keeps its full gain alpha as its error
variance, so downstream consumers can treat every link uniformly (known
part + zero-mean residual of that variance per antenna).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coloring import PilotAssignment
from .topology import NetworkInstance, SimConfig, STREAM_FADING, read_only, stream_rng


@dataclass(frozen=True)
class ChannelState:
    links: np.ndarray           # (K, L) each user's cluster RRHs, ascending
    estimates: np.ndarray       # (K, L, M) complex on links, zero rows without a pilot
    error_var: np.ndarray       # (I, K) per-antenna residual variance


def draw_channels(alpha: np.ndarray, antennas: int, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. Rayleigh links: h[i, k] ~ CN(0, alpha[i, k] * Identity)."""
    shape = alpha.shape + (antennas,)
    h = np.empty(shape, dtype=complex)
    h.real = rng.standard_normal(shape)
    h.imag = rng.standard_normal(shape)
    h *= np.sqrt(alpha / 2.0)[:, :, None]
    return h


def simulate_pilot_rx(true_channels: np.ndarray, assignment: PilotAssignment,
                      pilot_power: float, noise_power: float, rng) -> np.ndarray:
    """Post-correlation pilot observation per (RRH, pilot).

    Orthogonal pilots separate perfectly, so observation t at RRH i is the
    sqrt(pilot_power)-scaled superposition of the channels of every user
    on pilot t, plus CN(0, noise_power * Identity) noise.
    """
    # y[i, t, :] = sqrt(p) * sum of h[i, k, :] over the users k on pilot t,
    # added in ascending user id
    num_rrhs, _, antennas = true_channels.shape
    users = assignment.users
    y = np.zeros((num_rrhs, assignment.num_pilots, antennas), dtype=complex)
    np.add.at(y, (slice(None), assignment.pilots[users]), true_channels[:, users])
    y *= np.sqrt(pilot_power)
    noise = rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
    return y + np.sqrt(noise_power / 2.0) * noise


def mmse_estimate(y: np.ndarray, alpha: np.ndarray, assignment: PilotAssignment,
                  clusters: np.ndarray, pilot_power: float, noise_power: float):
    """Per-link linear MMSE estimates on intra-cluster links.

    The scaling uses the total received pilot energy on the link's pilot,
    summed over every user sharing it network-wide; co-pilot users leave a
    residual error even at high pilot power.  The error variance is
    ``alpha * (noise + p * others) / received``, with ``others`` the gain
    summed over the link's co-pilot users alone, so it stays exact when
    one user dominates its pilot.

    Returns (estimates, error_var) in the ChannelState layout: estimates
    (K, L, M) on the links of ``clusters``, in its order, with zero rows
    for users without a pilot; error_var (I, K), alpha on every link
    without an estimate.  ValueError when the received pilot power on an
    estimated link overflows.
    """
    pilots = assignment.pilots
    membership = assignment.membership
    # received[i, t] = p * sum of alpha over users on pilot t, plus noise
    received = pilot_power * (alpha @ membership) + noise_power
    # others[i, k] = sum of alpha[i, j] over the users j != k on k's pilot
    copilot = membership @ membership.T
    np.fill_diagonal(copilot, 0.0)
    others = alpha @ copilot

    users = assignment.users
    rows, cols, pilot = clusters[users], users[:, None], pilots[users][:, None]
    denom = received[rows, pilot]
    overflowed = int((~np.isfinite(denom)).sum())
    if overflowed:
        # p * alpha = inf would give a zero coefficient and a zero error variance
        raise ValueError(f"channel estimation failed: the received pilot power overflows "
                         f"on {overflowed} estimated links, so their estimates are not finite")
    gain = alpha[rows, cols]
    coef = np.sqrt(pilot_power) * gain / denom
    estimates = np.zeros(clusters.shape + (y.shape[2],), dtype=complex)
    estimates[users] = coef[:, :, None] * y[rows, pilot]
    error_var = alpha.copy()
    error_var[rows, cols] = gain * (noise_power + pilot_power * others[rows, cols]) / denom
    return estimates, error_var


def perfect_csi(true_channels: np.ndarray, clusters: np.ndarray,
                admitted: np.ndarray, alpha: np.ndarray):
    """Intra-cluster links of admitted users known exactly; the rest keep
    only their large-scale statistics.  Returns (estimates, error_var) in
    the layout of :func:`mmse_estimate`."""
    rows, cols = clusters[admitted], admitted[:, None]
    estimates = np.zeros(clusters.shape + (true_channels.shape[2],), dtype=complex)
    estimates[admitted] = true_channels[rows, cols]
    error_var = alpha.copy()
    error_var[rows, cols] = 0.0
    return estimates, error_var


@dataclass(frozen=True)
class Fading:
    """One seed's fading draw: its true channels, read-only, and the
    fading stream's state just after drawing them, so a pilot phase that
    restores it continues the stream exactly as after a fresh draw."""

    seed: int
    channels: np.ndarray    # (I, K, M) complex
    stream: dict            # the fading stream's bit-generator state


def draw_fading(alpha: np.ndarray, antennas: int, seed: int) -> Fading:
    """The fading stream's first draw for ``seed``, as a :class:`Fading`."""
    rng = stream_rng(seed, STREAM_FADING)
    channels = draw_channels(alpha, antennas, rng)
    return read_only(Fading(seed=seed, channels=channels, stream=rng.bit_generator.state))


def build_channel_state(instance: NetworkInstance, assignment: PilotAssignment,
                        config: SimConfig, seed: int,
                        perfect: bool = False, *,
                        fading: Fading | None = None) -> ChannelState:
    """Draw fading, run the pilot phase, estimate on each user's cluster
    links in ascending RRH order.

    The fading stream draws the true channels first, so perfect and
    imperfect modes see identical physics for the same seed.  Calls given
    the same ``fading`` (see :func:`draw_fading`) share one draw; without
    one, the call draws its own.  ValueError when ``fading`` was drawn for
    another seed or shape, or when an error variance or estimate is not
    finite (extreme gains).
    """
    shape = instance.alpha.shape + (config.antennas_per_rrh,)
    if fading is None:
        fading = draw_fading(instance.alpha, config.antennas_per_rrh, seed)
    elif fading.seed != seed or fading.channels.shape != shape:
        raise ValueError(f"the fading was drawn for seed {fading.seed} and shape "
                         f"{fading.channels.shape}, not seed {seed} and shape {shape}")
    h, rng = fading.channels, stream_rng(seed, STREAM_FADING)
    rng.bit_generator.state = fading.stream
    links = np.sort(instance.clusters, axis=1)
    if perfect:
        estimates, error_var = perfect_csi(h, links, assignment.users, instance.alpha)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            y = simulate_pilot_rx(h, assignment, config.pilot_power, config.noise_power, rng)
            estimates, error_var = mmse_estimate(
                y, instance.alpha, assignment, links, config.pilot_power, config.noise_power)
    for what, values in (("error variances", error_var), ("estimates", estimates)):
        bad = int((~np.isfinite(values)).sum())
        if bad:
            raise ValueError(f"channel estimation failed: {bad} {what} are not "
                             "finite; the link gains span too wide a range")
    return ChannelState(links=links, estimates=estimates, error_var=error_var)
