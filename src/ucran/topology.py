"""Network geometry, large-scale fading and user-centric cluster formation.

Every source of randomness is one of a seed's streams, tagged by one of the
stream constants below.  Placement and shadowing draw from
``numpy.random.default_rng((seed, TAG))``; the fading, the pilot noise and
the baseline picks are keyed values of (seed, TAG, index) from
:func:`uniforms`, a counter-based stream (Salmon et al., SC 2011).  The
harness's trial seeds are ``master_seed + trial_index``, so two algorithms
at the same trial seed see identical RRH/user placements, shadowing and fading.
As the bottom layer it also holds the one read-only rule and the one memo
(:func:`read_only`, :class:`Memo`) by which later layers share a value.
"""

from __future__ import annotations

import dataclasses
import hashlib
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
STREAM_PILOT_NOISE = 4


def _shown(value) -> str:
    """``repr(value)``, or the size of an int too long for Python to print."""
    try:
        return repr(value)
    except ValueError:
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"


def check_integer(name: str, value, minimum: int = 1) -> None:
    """ValueError unless ``value`` is a Python or numpy integer, not a bool,
    of at least ``minimum``: the one rule for every count and seed."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {_shown(value)}")


def read_only(value):
    """``value`` with every array in it, in tuples and dataclasses too,
    made read-only: the one rule for anything a later call reads again.
    Anything else is returned as is."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for item in value:
            # a scalar holds no array, so a long trace of user ids stays cheap
            if not isinstance(item, (int, float)):
                read_only(item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            read_only(getattr(value, field.name))
    return value


class Memo:
    """Values made on first use and kept, each through :func:`read_only`,
    so a stage that writes into one fails instead of changing a later
    reader."""

    def __init__(self):
        self.kept: dict[tuple, object] = {}

    def once(self, key: tuple, make):
        """The value kept under ``key``, made by ``make`` on first use."""
        if key not in self.kept:
            self.kept[key] = read_only(make())
        return self.kept[key]


def _finite(func, *args) -> bool:
    """True when ``func(*args)`` is a finite float, False also when it overflows one."""
    try:
        return math.isfinite(func(*args))
    except OverflowError:
        return False


# Each SimConfig field's rule, written once: its plain Python type and least value
# (-inf: no bound; math.ulp(0.0), the least float above 0: "> 0").  SimConfig checks
# and stores every field by it; config files and flags parse each field as its type.
FIELD_RULES = {name: rule for rule, names in [
    ((int, 1), "num_rrhs num_users cluster_size antennas_per_rrh pilot_count reuse_cap "
               "fronthaul_cap"),
    ((int, 0), "master_seed"),
    ((float, math.ulp(0.0)), "area_side rrh_power_cap pilot_power noise_power min_distance"),
    ((float, 0.0), "rate_req shadowing_stddev"),
    ((float, -math.inf), "pathloss_exponent pathloss_intercept"),
] for name in names.split()}


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Generator for one of a trial's independent randomness sub-streams."""
    check_integer("seed", seed, 0)
    return np.random.default_rng((int(seed), int(stream)))


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the counter step, odd, and
# the two multipliers of its bijective finalizer
GAMMA = 0x9E3779B97F4A7C15
MIX1, MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def stream_key(seed: int, stream: int) -> int:
    """The 64-bit key of one seed's stream: the first 8 bytes, little-endian,
    of the BLAKE2b digest of ``"seed:stream"``, so a seed of any size has
    one.  ValueError unless ``seed`` is an integer >= 0."""
    check_integer("seed", seed, 0)
    digest = hashlib.blake2b(f"{int(seed)}:{int(stream)}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def uniforms(seed: int, stream: int, counters) -> np.ndarray:
    """The u1, u2 in (0, 1) at each counter of the (``seed``, ``stream``)
    stream, shaped ``(2,) + counters.shape``.  Pair n reads the 64-bit
    words 2n and 2n + 1 (mod 2**64), word c being SplitMix64's finalizer
    of ``key + c * GAMMA`` (mod 2**64) for :func:`stream_key`'s key; each
    word's top 52 bits give its u.  Every step is elementwise, so a
    value's bits read nothing of its batch."""
    counters = np.asarray(counters, dtype=np.uint64)
    # words 2n and 2n + 1 of every value, each row contiguous
    words = np.empty((2,) + counters.shape, dtype=np.uint64)
    np.multiply(counters, 2 * GAMMA % 2 ** 64, out=words[0])
    words[0] += stream_key(seed, stream)
    np.add(words[0], GAMMA, out=words[1])
    words ^= words >> 30
    words *= MIX1
    words ^= words >> 27
    words *= MIX2
    words ^= words >> 31
    # (top 52 bits + 1/2) / 2**52, exact in float64
    u = np.multiply(words >> 12, 2.0 ** -52)
    u += 2.0 ** -53
    return u


def complex_normal(seed: int, stream: int, counters) -> np.ndarray:
    """The CN(0, 1) value at each counter of the (``seed``, ``stream``)
    stream, as a complex array of the counters' shape: Box–Muller in polar
    form, ``sqrt(-ln u1) * exp(2 pi i u2)``, of :func:`uniforms`' pair."""
    u1, u2 = uniforms(seed, stream, counters)
    radius = np.sqrt(-np.log(u1))
    angle = (2.0 * math.pi) * u2
    values = np.empty(u1.shape, dtype=complex)
    np.multiply(radius, np.cos(angle), out=values.real)
    np.multiply(radius, np.sin(angle), out=values.imag)
    return values


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
    master_seed: int = 1

    def __post_init__(self):
        for name, (kind, least) in FIELD_RULES.items():
            value = getattr(self, name)
            if kind is int:
                check_integer(name, value, least)
            elif isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {_shown(value)}")
            elif not _finite(float, value):
                raise ValueError(f"{name} must be finite, got {_shown(value)}")
            elif float(value) < least:
                rule = "> 0" if least > 0 else ">= 0"
                raise ValueError(f"{name} must be {rule}, got {_shown(value)}")
            object.__setattr__(self, name, kind(value))
        if self.cluster_size > self.num_rrhs:
            raise ValueError("cluster_size cannot exceed num_rrhs")
        if not _finite(math.pow, 2.0, self.rate_req):
            raise ValueError(f"rate_req too large: 2**rate_req overflows, got {self.rate_req}")
        if not math.isfinite(2.0 * self.area_side * self.area_side):
            raise ValueError(f"area_side too large: 2*side**2 overflows, got {self.area_side}")


@dataclass(frozen=True)
class NetworkInstance:
    """One realization of the network, built complete by :func:`build_network`
    and immutable after: its arrays are read-only.

    ``alpha[i, k]`` is the linear large-scale power gain from RRH i to user k,
    ``clusters[k]`` the candidate serving set (best RRHs first), ``seed`` the
    trial seed whose streams the fading, pilot noise and baseline picks read.
    ``memo`` keeps what later layers derive from these fields, the seed among
    them; a copy made by ``dataclasses.replace`` starts with an empty one.
    """

    rrh_positions: np.ndarray    # (I, 2) m
    user_positions: np.ndarray   # (K, 2) m
    alpha: np.ndarray            # (I, K) linear gain
    clusters: np.ndarray         # (K, L) RRH indices
    seed: int                    # the trial seed
    memo: Memo = dataclasses.field(default_factory=Memo, init=False, repr=False,
                                   compare=False)

    def __post_init__(self):
        read_only(self)

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
    with the smallest ``key[i, k]``, an RRH-to-user distance, nearest
    first; ties break toward the lower RRH index.

    Only the candidates at or below each user's L-th smallest key are
    sorted, by (user, key, RRH id), and the first L of each user are kept.
    """
    check_integer("cluster_size", cluster_size)
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
    """Placement, large-scale gains and clusters for one trial seed, kept on the network.

    RRHs and users drop i.i.d. uniformly over the square service area.
    Each user's cluster is its ``cluster_size`` nearest RRHs.
    The placement and shadowing streams read no cluster size, so every
    cluster size of a seed sees the same positions and gains.
    """
    rng = stream_rng(seed, STREAM_PLACEMENT)
    rrh = rng.uniform(0.0, config.area_side, size=(config.num_rrhs, 2))
    users = rng.uniform(0.0, config.area_side, size=(config.num_users, 2))
    distances = pairwise_distances(rrh, users)
    alpha = compute_large_scale(distances, config, seed)
    clusters = build_clusters(distances, config.cluster_size)
    return NetworkInstance(rrh_positions=rrh, user_positions=users,
                           alpha=alpha, clusters=clusters, seed=seed)


# --- plain-text config files -------------------------------------------------

def load_config_file(path: str | Path) -> dict:
    """Parse a ``key = value`` config file into a dict of SimConfig fields.

    Blank lines and ``#`` comments are ignored.  Unknown and repeated keys
    are errors, so a typo never silently falls back to a default.
    """
    values: dict[str, object] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in FIELD_RULES:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: duplicate config key {key!r}")
        text, target_type = text.strip(), FIELD_RULES[key][0]
        try:
            values[key] = target_type(text)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: config key {key!r}: cannot parse "
                             f"{target_type.__name__} from {text!r}") from None
    return values


def make_config(config_file: str | Path | None = None, **overrides) -> SimConfig:
    """SimConfig from an optional file plus keyword overrides (overrides win)."""
    values = {} if config_file is None else load_config_file(config_file)
    values.update({k: v for k, v in overrides.items() if v is not None})
    return SimConfig(**values)
