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

The pilot phase works only on the links it reads: each pilot holder's
cluster RRHs, on its own pilot.  The noise of every (RRH, pilot)
observation is still drawn, so the fading stream moves on as if all
were made.  The observation and the co-pilot gain sum of the error
variance add the link's co-pilot holders from zero in ascending id, the
order of the whole-array forms they replace (an ``np.add.at`` over
every (RRH, pilot) pair and an ``alpha @ copilot`` product over every
(RRH, user) pair), and a test holds them bit for bit to those forms.
The total received pilot power stays one dense ``alpha @ membership``
product: a per-link sum would not add in the order its BLAS kernel
adds on every link.
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
                      links: np.ndarray, pilot_power: float, noise_power: float,
                      rng) -> np.ndarray:
    """Post-correlation pilot observation on each pilot holder's links.

    Orthogonal pilots separate perfectly, so the observation of pilot t
    at RRH i is the sqrt(pilot_power)-scaled superposition of the
    channels of every user on pilot t, plus CN(0, noise_power * Identity)
    noise.  Returns it as (K, L, M) on the links of ``links`` (K, L), in
    its order: row k holds user k's pilot at its links, zero rows for
    users without a pilot.  The noise of every (RRH, pilot) is drawn, as
    real then imaginary (I, num_pilots, M) arrays, so the stream moves on
    as if every observation were made; only the holders' links are read.
    """
    # y[k, l] = sqrt(p) * sum of h[links[k, l], j] over the users j on k's
    # pilot, added from zero in ascending user id as np.add.at adds
    num_rrhs, _, antennas = true_channels.shape
    noise_shape = (num_rrhs, assignment.num_pilots, antennas)
    real, imag = rng.standard_normal(noise_shape), rng.standard_normal(noise_shape)
    users = assignment.users
    pilot = assignment.pilots[users]
    rows = links[users]
    # every (reader, holder) pair of holders on one pilot, readers ascending
    # and each reader's holders ascending
    reader, holder = np.nonzero(pilot[:, None] == pilot)
    y = np.zeros(rows.shape + (antennas,), dtype=complex)
    np.add.at(y, reader, true_channels[rows[reader], users[holder][:, None]])
    y *= np.sqrt(pilot_power)
    at = rows, pilot[:, None]
    noise = real[at] + 1j * imag[at]
    observed = np.zeros(links.shape + (antennas,), dtype=complex)
    observed[users] = y + np.sqrt(noise_power / 2.0) * noise
    return observed


def mmse_estimate(y: np.ndarray, alpha: np.ndarray, assignment: PilotAssignment,
                  links: np.ndarray, pilot_power: float, noise_power: float):
    """Per-link linear MMSE estimates on intra-cluster links.

    ``y`` is :func:`simulate_pilot_rx`'s observation on the same
    ``links``.  The scaling uses the total received pilot energy on the
    link's pilot, summed over every user sharing it network-wide; co-pilot
    users leave a residual error even at high pilot power.  The error
    variance is ``alpha * (noise + p * others) / received``, with
    ``others`` the gain summed over the link's co-pilot users alone, in
    ascending id, so it stays exact when one user dominates its pilot.

    Returns (estimates, error_var) in the ChannelState layout: estimates
    (K, L, M) on ``links``, in its order, with zero rows for users without
    a pilot; error_var (I, K), alpha on every link without an estimate.
    ValueError when the received pilot power on an estimated link
    overflows.
    """
    # received[i, t] = p * sum of alpha over users on pilot t, plus noise
    received = pilot_power * (alpha @ assignment.membership) + noise_power
    users = assignment.users
    pilot = assignment.pilots[users]
    rows, cols = links[users], users[:, None]
    denom = received[rows, pilot[:, None]]
    overflowed = int((~np.isfinite(denom)).sum())
    if overflowed:
        # p * alpha = inf would give a zero coefficient and a zero error variance
        raise ValueError(f"channel estimation failed: the received pilot power overflows "
                         f"on {overflowed} estimated links, so their estimates are not finite")
    # others[k, l] = sum of alpha[links[k, l], j] over the users j != k on
    # k's pilot, added from zero in ascending id
    copilot = pilot[:, None] == pilot
    np.fill_diagonal(copilot, False)
    reader, holder = np.nonzero(copilot)
    others = np.zeros(rows.shape)
    np.add.at(others, reader, alpha[rows[reader], users[holder][:, None]])
    gain = alpha[rows, cols]
    coef = np.sqrt(pilot_power) * gain / denom
    estimates = np.zeros(links.shape + (y.shape[2],), dtype=complex)
    estimates[users] = coef[:, :, None] * y[users]
    error_var = alpha.copy()
    error_var[rows, cols] = gain * (noise_power + pilot_power * others) / denom
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
            y = simulate_pilot_rx(h, assignment, links, config.pilot_power,
                                  config.noise_power, rng)
            estimates, error_var = mmse_estimate(
                y, instance.alpha, assignment, links, config.pilot_power, config.noise_power)
    for what, values in (("error variances", error_var), ("estimates", estimates)):
        bad = int((~np.isfinite(values)).sum())
        if bad:
            raise ValueError(f"channel estimation failed: {bad} {what} are not "
                             "finite; the link gains span too wide a range")
    return ChannelState(links=links, estimates=estimates, error_var=error_var)
