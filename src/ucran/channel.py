"""Small-scale fading, uplink pilot reception, and per-link MMSE estimation.

Array conventions: true channels and estimates are (num_rrhs, num_users,
antennas) complex; error variances are (num_rrhs, num_users) per antenna.
Estimates exist only on intra-cluster links of users holding a pilot; the
``error_var`` entry is the MMSE residual variance there and falls back to
the full link gain alpha everywhere else, so downstream consumers can
treat every link uniformly (known part + zero-mean residual of that
variance per antenna).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .coloring import PilotAssignment
from .topology import NetworkInstance, SimConfig, STREAM_FADING, stream_rng

MODE_IMPERFECT = "imperfect"
MODE_PERFECT = "perfect"


@dataclass(frozen=True)
class ChannelState:
    true_channels: np.ndarray   # (I, K, M) complex
    estimates: np.ndarray       # (I, K, M) complex, zero off estimated links
    error_var: np.ndarray       # (I, K) per-antenna residual variance
    estimated_mask: np.ndarray  # (I, K) bool, True where an estimate exists
    mode: str

    @property
    def num_rrhs(self) -> int:
        return self.true_channels.shape[0]

    @property
    def num_users(self) -> int:
        return self.true_channels.shape[1]

    @property
    def antennas(self) -> int:
        return self.true_channels.shape[2]

    @functools.cached_property
    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """Estimates and error variances flattened over RRH antennas, (I*M, K)
        each; row i*M + m is antenna m of RRH i."""
        num_rrhs, num_users, antennas = self.estimates.shape
        hhat = self.estimates.transpose(0, 2, 1).reshape(num_rrhs * antennas, num_users)
        return hhat, np.repeat(self.error_var, antennas, axis=0)


def _as_rng(rng_or_seed) -> np.random.Generator:
    if isinstance(rng_or_seed, np.random.Generator):
        return rng_or_seed
    return stream_rng(int(rng_or_seed), STREAM_FADING)


def draw_channels(alpha: np.ndarray, antennas: int, rng_or_seed) -> np.ndarray:
    """I.i.d. Rayleigh links: h[i, k] ~ CN(0, alpha[i, k] * Identity)."""
    rng = _as_rng(rng_or_seed)
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


def _cluster_link_mask(clusters: np.ndarray, users, shape: tuple[int, int]) -> np.ndarray:
    """(I, K) bool, True on the intra-cluster links of ``users``."""
    mask = np.zeros(shape, dtype=bool)
    users = np.asarray(users, dtype=np.int64)
    mask[clusters[users], users[:, None]] = True
    return mask


def mmse_estimate(y: np.ndarray, alpha: np.ndarray, assignment: PilotAssignment,
                  clusters: np.ndarray, pilot_power: float, noise_power: float):
    """Per-link linear MMSE estimates on intra-cluster links.

    The scaling uses the total received pilot energy on the link's pilot,
    summed over every user sharing it network-wide; co-pilot users leave a
    residual error even at high pilot power.

    Returns (estimates, error_var, estimated_mask) in the ChannelState
    layout; links without an estimate carry a zero vector and alpha as
    their variance.
    """
    pilots = assignment.pilots
    # received[i, t] = p * sum of alpha over users on pilot t, plus noise
    received = pilot_power * (alpha @ assignment.membership) + noise_power
    mask = _cluster_link_mask(clusters, assignment.users, alpha.shape)

    estimates = np.zeros(alpha.shape + (y.shape[2],), dtype=complex)
    error_var = alpha.copy()
    rows, cols = np.nonzero(mask)
    denom = received[rows, pilots[cols]]
    coef = np.sqrt(pilot_power) * alpha[rows, cols] / denom
    estimates[rows, cols] = coef[:, None] * y[rows, pilots[cols]]
    error_var[rows, cols] = alpha[rows, cols] - pilot_power * alpha[rows, cols] ** 2 / denom
    return estimates, error_var, mask


def perfect_csi(true_channels: np.ndarray, clusters: np.ndarray,
                admitted: np.ndarray, alpha: np.ndarray) -> ChannelState:
    """Intra-cluster links of admitted users known exactly; the rest keep
    only their large-scale statistics."""
    mask = _cluster_link_mask(clusters, admitted, alpha.shape)
    estimates = np.where(mask[:, :, None], true_channels, 0.0)
    error_var = np.where(mask, 0.0, alpha)
    return ChannelState(true_channels=true_channels, estimates=estimates,
                        error_var=error_var, estimated_mask=mask,
                        mode=MODE_PERFECT)


def build_channel_state(instance: NetworkInstance, assignment: PilotAssignment,
                        config: SimConfig, seed: int,
                        perfect: bool = False) -> ChannelState:
    """Draw fading, run the pilot phase, estimate.

    The fading stream draws the true channels first, so perfect and
    imperfect modes see identical physics for the same seed.
    """
    if instance.alpha is None or instance.clusters is None:
        raise ValueError("instance must carry large-scale gains and clusters")
    rng = stream_rng(seed, STREAM_FADING)
    h = draw_channels(instance.alpha, config.antennas_per_rrh, rng)
    if perfect:
        return perfect_csi(h, instance.clusters, assignment.users, instance.alpha)
    y = simulate_pilot_rx(h, assignment, config.pilot_power, config.noise_power, rng)
    estimates, error_var, mask = mmse_estimate(
        y, instance.alpha, assignment, instance.clusters,
        config.pilot_power, config.noise_power)
    return ChannelState(true_channels=h, estimates=estimates, error_var=error_var,
                        estimated_mask=mask, mode=MODE_IMPERFECT)
