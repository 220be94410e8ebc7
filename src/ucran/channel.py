"""Small-scale fading, uplink pilot reception, and per-link channel knowledge.

Array conventions: true channels and estimates are (num_rrhs, num_users,
antennas) complex; error variances are (num_rrhs, num_users) per antenna.
A :class:`ChannelState` holds those three arrays and caches one per-user
view of the links that carry an estimate.  Only the intra-cluster links
of pilot holders (:func:`~ucran.conflict_graph.cluster_link_mask`) are
estimated: by linear MMSE from the pilot phase, or exactly under perfect
CSI.  Every other link carries a zero estimate and its full gain alpha
as its error variance, so downstream consumers can treat every link
uniformly (known part + zero-mean residual of that variance per antenna).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .coloring import PilotAssignment
from .conflict_graph import cluster_link_mask
from .topology import NetworkInstance, SimConfig, STREAM_FADING, stream_rng


@dataclass(frozen=True)
class ChannelState:
    true_channels: np.ndarray   # (I, K, M) complex
    estimates: np.ndarray       # (I, K, M) complex, zero off estimated links
    error_var: np.ndarray       # (I, K) per-antenna residual variance

    @property
    def antennas(self) -> int:
        return self.true_channels.shape[2]

    @functools.cached_property
    def estimated_links(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each user's links with a nonzero estimate, padded per user:
        (K, E) RRH index, (K, E) valid mask and (K, E, M) estimates, zero
        on padding.  A zero estimate adds nothing to any beam quantity, so
        these links are all that stage 2 reads of the estimates."""
        rrhs, valid = padded_rows((self.estimates != 0).any(axis=2))
        users = np.arange(rrhs.shape[0])[:, None]
        return rrhs, valid, self.estimates[rrhs, users] * valid[:, :, None]


def padded_rows(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The True rows of each column of a 2-D bool mask, ascending and padded
    to the longest column: (columns, width) row index, 0 on padding, and
    the (columns, width) valid mask."""
    # flatnonzero on the transposed copy is many times faster than 2-D nonzero
    cols, rows = np.divmod(np.flatnonzero(mask.T), mask.shape[0])
    counts = np.bincount(cols, minlength=mask.shape[1])
    starts = np.cumsum(counts) - counts
    index = np.zeros((mask.shape[1], counts.max(initial=0)), dtype=np.int64)
    valid = np.zeros(index.shape, dtype=bool)
    slots = np.arange(cols.size) - starts[cols]
    index[cols, slots] = rows
    valid[cols, slots] = True
    return index, valid


def draw_channels(alpha: np.ndarray, antennas: int, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. Rayleigh links: h[i, k] ~ CN(0, alpha[i, k] * Identity)."""
    shape = alpha.shape + (antennas,)
    h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return np.sqrt(alpha / 2.0)[:, :, None] * h


def simulate_pilot_rx(true_channels: np.ndarray, assignment: PilotAssignment,
                      pilot_power: float, noise_power: float, rng) -> np.ndarray:
    """Post-correlation pilot observation per (RRH, pilot).

    Orthogonal pilots separate perfectly, so observation t at RRH i is the
    sqrt(pilot_power)-scaled superposition of the channels of every user
    on pilot t, plus CN(0, noise_power * Identity) noise.
    """
    # y[i, t, :] = sqrt(p) * sum_k membership[k, t] * h[i, k, :] + noise
    y = np.sqrt(pilot_power) * np.einsum("ikm,kt->itm", true_channels,
                                         assignment.membership)
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

    Returns (estimates, error_var) in the ChannelState layout; links
    without an estimate carry a zero vector and alpha as their variance.
    """
    pilots = assignment.pilots
    membership = assignment.membership
    # received[i, t] = p * sum of alpha over users on pilot t, plus noise
    received = pilot_power * (alpha @ membership) + noise_power
    # others[i, k] = sum of alpha[i, j] over the users j != k on k's pilot
    copilot = membership @ membership.T
    np.fill_diagonal(copilot, 0.0)
    others = alpha @ copilot

    estimates = np.zeros(alpha.shape + (y.shape[2],), dtype=complex)
    error_var = alpha.copy()
    rows, cols = np.nonzero(cluster_link_mask(clusters, assignment.users, alpha.shape[0]))
    denom = received[rows, pilots[cols]]
    gain = alpha[rows, cols]
    coef = np.sqrt(pilot_power) * gain / denom
    estimates[rows, cols] = coef[:, None] * y[rows, pilots[cols]]
    error_var[rows, cols] = gain * (noise_power + pilot_power * others[rows, cols]) / denom
    return estimates, error_var


def perfect_csi(true_channels: np.ndarray, clusters: np.ndarray,
                admitted: np.ndarray, alpha: np.ndarray) -> ChannelState:
    """Intra-cluster links of admitted users known exactly; the rest keep
    only their large-scale statistics."""
    mask = cluster_link_mask(clusters, admitted, alpha.shape[0])
    estimates = np.where(mask[:, :, None], true_channels, 0.0)
    error_var = np.where(mask, 0.0, alpha)
    return ChannelState(true_channels=true_channels, estimates=estimates,
                        error_var=error_var)


def build_channel_state(instance: NetworkInstance, assignment: PilotAssignment,
                        config: SimConfig, seed: int,
                        perfect: bool = False) -> ChannelState:
    """Draw fading, run the pilot phase, estimate.

    The fading stream draws the true channels first, so perfect and
    imperfect modes see identical physics for the same seed.  ValueError
    when an MMSE error variance is not finite (extreme gains).
    """
    rng = stream_rng(seed, STREAM_FADING)
    h = draw_channels(instance.alpha, config.antennas_per_rrh, rng)
    if perfect:
        return perfect_csi(h, instance.clusters, assignment.users, instance.alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        y = simulate_pilot_rx(h, assignment, config.pilot_power, config.noise_power, rng)
        estimates, error_var = mmse_estimate(
            y, instance.alpha, assignment, instance.clusters,
            config.pilot_power, config.noise_power)
    bad = int((~np.isfinite(error_var)).sum())
    if bad:
        raise ValueError(f"channel estimation failed: {bad} error variances are not "
                         "finite; the link gains span too wide a range")
    return ChannelState(true_channels=h, estimates=estimates, error_var=error_var)
