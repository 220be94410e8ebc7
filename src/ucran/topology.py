"""Network geometry, large-scale fading and user-centric cluster formation.

Every source of randomness draws from ``numpy.random.default_rng((seed, TAG))``
where TAG is one of the stream constants below.  The campaign harness derives
trial seeds as ``master_seed + trial_index``, so two algorithms evaluated at
the same trial seed see identical RRH/user placements, shadowing and fading.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Per-trial random sub-streams.  Baseline randomness gets its own stream so
# that random user removal (Con) or random user sampling (Ortho) never
# perturbs the physical realization shared by all algorithms.
STREAM_PLACEMENT = 0
STREAM_SHADOWING = 1
STREAM_FADING = 2
STREAM_BASELINE = 3


def _is_integer(value) -> bool:
    """True for Python and numpy integers, False for bools and floats."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _finite(func, *args) -> bool:
    """True when ``func(*args)`` is a finite float, False also when it overflows one."""
    try:
        return math.isfinite(func(*args))
    except OverflowError:
        return False


# SimConfig field type (a string under `from __future__ import annotations`)
# -> (the values it takes, what errors call them); only a bool field takes bools
_FIELD_KINDS = {"int": (numbers.Integral, "an integer"),
                "float": (numbers.Real, "a real number"), "bool": (bool, "a bool")}


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Generator for one of a trial's independent randomness sub-streams."""
    if not _is_integer(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng((int(seed), int(stream)))


@dataclass(frozen=True)
class SimConfig:
    """All scenario parameters, in SI-ish units (meters, milliwatts, dB).

    Defaults describe a 700 m x 700 m area with 36 RRHs and 24 users, per-RRH
    power cap of 100 mW, 200 mW pilots, a reuse cap of 4 per pilot, mmWave
    fronthaul links limited to 3 users each, and a 4 bit/s/Hz rate target.
    Path loss follows 128.1 + 37.6 log10(d_km) dB with 8 dB log-normal
    shadowing; noise power defaults to -104 dBm.
    """

    area_side: float = 700.0
    num_rrhs: int = 36
    num_users: int = 24
    cluster_size: int = 4
    antennas_per_rrh: int = 2
    pilot_count: int = 4
    reuse_cap: int = 4
    rrh_power_cap: float = 100.0      # mW
    pilot_power: float = 200.0        # mW
    noise_power: float = 10.0 ** -10.4  # mW  (-104 dBm)
    rate_req: float = 4.0             # bit/s/Hz
    fronthaul_cap: int = 3            # users per fronthaul link
    pathloss_exponent: float = 37.6   # dB per decade of distance
    pathloss_intercept: float = 128.1  # dB at 1 km
    shadowing_stddev: float = 8.0     # dB
    min_distance: float = 1.0         # m, clamp below this
    cluster_by_gain: bool = False     # rank candidate RRHs by gain instead of distance
    master_seed: int = 1

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            kind, what = _FIELD_KINDS[field.type]
            if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
                raise ValueError(f"{field.name} must be {what}, got {value!r}")
            if kind is numbers.Real and not _finite(float, value):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
        for name in ("num_rrhs", "num_users", "cluster_size", "antennas_per_rrh",
                     "pilot_count", "reuse_cap", "fronthaul_cap"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if self.cluster_size > self.num_rrhs:
            raise ValueError("cluster_size cannot exceed num_rrhs")
        for name in ("rrh_power_cap", "pilot_power", "noise_power", "area_side",
                     "min_distance"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.shadowing_stddev < 0:
            raise ValueError("shadowing_stddev must be >= 0")
        if self.rate_req < 0:
            raise ValueError("rate_req must be >= 0")
        if not _finite(math.pow, 2.0, self.rate_req):
            raise ValueError(f"rate_req too large: 2**rate_req overflows a float, "
                             f"got {self.rate_req!r}")


@dataclass(frozen=True)
class NetworkInstance:
    """One realization of the network, built complete by :func:`build_network`
    and immutable after.

    ``alpha[i, k]`` is the linear large-scale power gain from RRH i to user k,
    ``clusters[k]`` the candidate serving set (best RRHs first).
    """

    rrh_positions: np.ndarray    # (I, 2) m
    user_positions: np.ndarray   # (K, 2) m
    alpha: np.ndarray            # (I, K) linear gain
    clusters: np.ndarray         # (K, L) RRH indices

    @property
    def num_users(self) -> int:
        return self.user_positions.shape[0]


def pairwise_distances(rrh_positions: np.ndarray, user_positions: np.ndarray) -> np.ndarray:
    """Euclidean RRH-to-user distance matrix, shape (I, K)."""
    dx = rrh_positions[:, 0, None] - user_positions[:, 0]
    dy = rrh_positions[:, 1, None] - user_positions[:, 1]
    return np.sqrt(dx * dx + dy * dy)


def compute_large_scale(distances: np.ndarray, config: SimConfig, seed: int) -> np.ndarray:
    """Linear power gains (I, K): path loss over clamped distance plus shadowing.

    PL(d) = intercept + exponent * log10(d / 1000) in dB, d clamped below
    ``min_distance``; shadowing is i.i.d. log-normal with the configured dB
    standard deviation.  ValueError when a gain overflows a float.
    """
    dist = np.maximum(distances, config.min_distance)
    pl_db = config.pathloss_intercept + config.pathloss_exponent * np.log10(dist / 1000.0)
    rng = stream_rng(seed, STREAM_SHADOWING)
    shadow_db = config.shadowing_stddev * rng.standard_normal(dist.shape)
    with np.errstate(over="ignore"):
        alpha = 10.0 ** ((-pl_db + shadow_db) / 10.0)
    if np.isinf(alpha).any():
        raise ValueError("large-scale gains overflow a float: the path loss is too low")
    return alpha


def build_clusters(key: np.ndarray, cluster_size: int) -> np.ndarray:
    """Candidate serving sets (K, L): per user k, the ``cluster_size`` RRHs i
    with the smallest ``key[i, k]`` (a distance, or a negated gain), best
    first; ties break toward the lower RRH index.

    Only the candidates at or below each user's L-th smallest key are
    sorted, by (user, key, RRH id), and the first L of each user are kept.
    """
    if not _is_integer(cluster_size) or cluster_size < 1:
        raise ValueError(f"cluster_size must be an integer >= 1, got {cluster_size!r}")
    if cluster_size > key.shape[0]:
        raise ValueError("cluster_size cannot exceed the number of RRHs")
    kth = np.partition(key, cluster_size - 1, axis=0)[cluster_size - 1]
    rrhs, users = np.nonzero(key <= kth)
    order = np.lexsort((rrhs, key[rrhs, users], users))
    rrhs, users = rrhs[order], users[order]
    # rank each candidate within its user, best first
    rank = np.arange(users.size) - np.searchsorted(users, users)
    return rrhs[rank < cluster_size].reshape(-1, cluster_size)


def build_network(config: SimConfig, seed: int) -> NetworkInstance:
    """Placement, large-scale gains and clusters for one trial seed.

    RRHs and users drop i.i.d. uniformly over the square service area.
    Clusters rank RRHs by distance, or by gain with ``cluster_by_gain``.
    """
    rng = stream_rng(seed, STREAM_PLACEMENT)
    rrh = rng.uniform(0.0, config.area_side, size=(config.num_rrhs, 2))
    users = rng.uniform(0.0, config.area_side, size=(config.num_users, 2))
    distances = pairwise_distances(rrh, users)
    alpha = compute_large_scale(distances, config, seed)
    clusters = build_clusters(-alpha if config.cluster_by_gain else distances,
                              config.cluster_size)
    return NetworkInstance(rrh_positions=rrh, user_positions=users,
                           alpha=alpha, clusters=clusters)


# --- plain-text config files -------------------------------------------------

# SimConfig field name -> type, for config files and CLI flags (annotations
# are strings under `from __future__ import annotations`)
CONFIG_FIELD_TYPES = {f.name: {"float": float, "int": int, "bool": bool}[f.type]
                      for f in dataclasses.fields(SimConfig)}

_BOOL_STRINGS = {"true": True, "false": False, "1": True, "0": False,
                 "yes": True, "no": False}


def load_config_file(path: str | Path) -> dict:
    """Parse a ``key = value`` config file into a dict of SimConfig fields.

    Blank lines and ``#`` comments are ignored.  Unknown keys are an error so
    typos do not silently fall back to defaults.
    """
    values: dict[str, object] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in CONFIG_FIELD_TYPES:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        text, target_type = text.strip(), CONFIG_FIELD_TYPES[key]
        try:
            values[key] = (_BOOL_STRINGS[text.lower()] if target_type is bool
                           else target_type(text))
        except (KeyError, ValueError):
            kind = "boolean" if target_type is bool else target_type.__name__
            raise ValueError(f"{path}:{lineno}: config key {key!r}: cannot parse "
                             f"{kind} from {text!r}") from None
    return values


def make_config(config_file: str | Path | None = None, **overrides) -> SimConfig:
    """SimConfig from an optional file plus keyword overrides (overrides win)."""
    values: dict[str, object] = {}
    if config_file is not None:
        values.update(load_config_file(config_file))
    values.update({k: v for k, v in overrides.items() if v is not None})
    return SimConfig(**values)
