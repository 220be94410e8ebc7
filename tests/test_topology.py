import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ucran import SimConfig, build_network, make_config, pairwise_distances
from ucran.topology import (
    FIELD_RULES,
    Memo,
    NetworkInstance,
    STREAM_PLACEMENT,
    STREAM_SHADOWING,
    build_clusters,
    compute_large_scale,
    load_config_file,
    read_only,
    stream_rng,
)

from oracles import build_clusters_reference, pairwise_distances_reference


def test_default_config_matches_reference_scenario():
    cfg = SimConfig()
    assert cfg.num_rrhs == 36
    assert cfg.num_users == 24
    assert cfg.area_side == 700.0
    assert cfg.rrh_power_cap == 100.0
    assert cfg.pilot_power == 200.0
    assert cfg.reuse_cap == 4
    assert cfg.rate_req == 4.0
    assert cfg.fronthaul_cap == 3
    assert cfg.noise_power == pytest.approx(10 ** -10.4)


@pytest.mark.parametrize("field,value", [
    ("num_rrhs", 0),
    ("num_users", -1),
    ("cluster_size", 0),
    ("pilot_count", 0),
    ("reuse_cap", 0),
    ("fronthaul_cap", 0),
    ("rrh_power_cap", 0.0),
    ("pilot_power", -1.0),
    ("noise_power", 0.0),
    ("area_side", 0.0),
    ("min_distance", -2.0),
    ("shadowing_stddev", -1.0),
    ("rate_req", -0.5),
    ("num_users", 6.0),
    ("reuse_cap", True),
    ("master_seed", 1.5),
])
def test_config_validation(field, value):
    with pytest.raises(ValueError):
        SimConfig(**{field: value})


@pytest.mark.parametrize("value", [1024.0, 2000.0, float("inf"), float("nan")])
def test_config_rejects_rate_req_whose_target_overflows(value):
    with pytest.raises(ValueError, match="rate_req"):
        SimConfig(rate_req=value)
    assert SimConfig(rate_req=1023.0).rate_req == 1023.0


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(SimConfig)
                                   if f.type == "float"])
@pytest.mark.parametrize("value", [
    float("nan"), float("inf"),
    # an int too large for a float, and numpy floats that are not finite
    pytest.param(10**400, id="int-beyond-float"),
    # and one too long for Python to print, which the message must still name
    pytest.param(10**5000, id="int-beyond-printing"),
    pytest.param(np.float32("nan"), id="float32-nan"),
    pytest.param(np.float32("inf"), id="float32-inf"),
])
def test_config_rejects_non_finite_floats(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got "):
        SimConfig(**{field: value})


@pytest.mark.parametrize("field,value,kind", [
    ("rrh_power_cap", "100", "a real number"),
    ("rate_req", None, "a real number"),
    ("area_side", 1 + 0j, "a real number"),
    ("noise_power", True, "a real number"),
    ("pilot_power", np.bool_(True), "a real number"),
    pytest.param("num_rrhs", "36", "an integer >= 1", id="num_rrhs-36-an integer"),
])
def test_config_rejects_wrongly_typed_fields(field, value, kind):
    with pytest.raises(ValueError, match=f"^{field} must be {kind}, got "):
        SimConfig(**{field: value})


def test_config_rejects_the_removed_cluster_by_gain_field():
    with pytest.raises(TypeError, match="cluster_by_gain"):
        SimConfig(cluster_by_gain=True)


def test_config_accepts_any_real_number_in_float_fields():
    cfg = SimConfig(area_side=700, rate_req=np.float32(2.0), pilot_power=np.int64(200))
    assert (cfg.area_side, cfg.rate_req, cfg.pilot_power) == (700, 2.0, 200)
    other = SimConfig(pilot_power=Fraction(200), noise_power=np.float16(200.0),
                      rate_req=np.longdouble(4.0), num_users=np.int64(24))
    assert (other.pilot_power, other.noise_power, other.rate_req, other.num_users) == \
        (200.0, 200.0, 4.0, 24)
    # every field is stored as its plain Python type, never a numpy scalar or a Fraction
    for config in (cfg, other):
        for field in dataclasses.fields(SimConfig):
            expected = {"float": float, "int": int}[field.type]
            assert type(getattr(config, field.name)) is expected, field.name


_COUNTS = ("num_rrhs", "num_users", "cluster_size", "antennas_per_rrh", "pilot_count",
           "reuse_cap", "fronthaul_cap")
# field -> (the value at its bound, accepted; the nearest value past it, rejected;
# the rule as the message states it); None for a field with no bound
_EDGES = {
    **{name: (1, 0, "an integer >= 1") for name in _COUNTS},
    "master_seed": (0, -1, "an integer >= 0"),
    **{name: (5e-324, 0.0, "> 0") for name in ("area_side", "rrh_power_cap", "pilot_power",
                                               "noise_power", "min_distance")},
    **{name: (0.0, -5e-324, ">= 0") for name in ("shadowing_stddev", "rate_req")},
    "pathloss_exponent": None,
    "pathloss_intercept": None,
}


@pytest.mark.parametrize("field", [name for name, (kind, _) in FIELD_RULES.items()
                                   if kind is not bool])
def test_each_bound_holds_at_its_edge_on_both_sides(field):
    # a one-RRH cluster, so that num_rrhs = 1 is not refused for cluster_size
    base = {} if field == "cluster_size" else {"cluster_size": 1}
    if _EDGES[field] is None:
        # path loss may fall with distance, or gain at 1 km
        assert getattr(SimConfig(**base, **{field: -1e3}), field) == -1e3
        return
    accepted, rejected, rule = _EDGES[field]
    assert getattr(SimConfig(**base, **{field: accepted}), field) == accepted
    with pytest.raises(ValueError) as excinfo:
        SimConfig(**base, **{field: rejected})
    assert str(excinfo.value) == f"{field} must be {rule}, got {rejected!r}"


def test_cluster_size_cannot_exceed_rrh_count():
    with pytest.raises(ValueError):
        SimConfig(num_rrhs=4, cluster_size=5)


def test_placement_inside_area_and_deterministic():
    cfg = SimConfig(num_rrhs=10, num_users=7, cluster_size=2, area_side=300.0)
    a = build_network(cfg, seed=11)
    b = build_network(cfg, seed=11)
    c = build_network(cfg, seed=12)
    assert a.rrh_positions.shape == (10, 2)
    assert a.user_positions.shape == (7, 2)
    assert (a.rrh_positions >= 0).all() and (a.rrh_positions <= 300).all()
    np.testing.assert_array_equal(a.rrh_positions, b.rrh_positions)
    np.testing.assert_array_equal(a.user_positions, b.user_positions)
    assert not np.array_equal(a.user_positions, c.user_positions)


def test_pathloss_reference_value_at_1km():
    # no shadowing: alpha(1 km) is exactly -128.1 dB
    cfg = SimConfig(num_rrhs=1, num_users=1, cluster_size=1, shadowing_stddev=0.0,
                    area_side=2000.0)
    rrh = np.array([[0.0, 0.0]])
    user = np.array([[1000.0, 0.0]])
    alpha = compute_large_scale(pairwise_distances(rrh, user), cfg, seed=0)
    assert alpha[0, 0] == pytest.approx(10 ** -12.81, rel=1e-12)


def test_pathloss_distance_clamp():
    cfg = SimConfig(num_rrhs=1, num_users=1, cluster_size=1, shadowing_stddev=0.0,
                    min_distance=1.0)
    rrh = np.array([[50.0, 50.0]])
    at_zero = compute_large_scale(pairwise_distances(rrh, np.array([[50.0, 50.0]])),
                                  cfg, seed=0)
    at_one = compute_large_scale(pairwise_distances(rrh, np.array([[51.0, 50.0]])),
                                 cfg, seed=0)
    assert at_zero[0, 0] == pytest.approx(at_one[0, 0], rel=1e-12)
    # 128.1 - 37.6 * 3 dB at the 1 m clamp
    assert at_zero[0, 0] == pytest.approx(10 ** (-(128.1 - 112.8) / 10), rel=1e-12)


def test_shadowing_statistics():
    cfg = SimConfig(num_rrhs=200, num_users=200, cluster_size=1,
                    shadowing_stddev=8.0, min_distance=1.0)
    rrh = np.zeros((200, 2))
    users = np.tile([[1000.0, 0.0]], (200, 1))
    alpha = compute_large_scale(pairwise_distances(rrh, users), cfg, seed=3)
    shadow_db = 10 * np.log10(alpha) + 128.1
    assert abs(shadow_db.mean()) < 0.2
    assert shadow_db.std() == pytest.approx(8.0, rel=0.05)


def test_clusters_are_nearest_rrhs_in_order():
    rrh = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0], [35.0, 0.0]])
    user = np.array([[12.0, 0.0]])
    clusters = build_clusters(pairwise_distances(rrh, user), cluster_size=3)
    np.testing.assert_array_equal(clusters[0], [1, 2, 0])


def test_cluster_distance_tie_prefers_lower_rrh_index():
    rrh = np.array([[0.0, 10.0], [0.0, -10.0], [0.0, 30.0]])
    user = np.array([[0.0, 0.0]])
    clusters = build_clusters(pairwise_distances(rrh, user), cluster_size=2)
    np.testing.assert_array_equal(clusters[0], [0, 1])


@pytest.mark.parametrize("size", [0, 2.5, True])
def test_build_clusters_rejects_bad_size(size):
    with pytest.raises(ValueError, match=f"cluster_size must be an integer >= 1, got {size!r}"):
        build_clusters(np.ones((3, 2)), size)
    # a numpy integer is an integer
    assert build_clusters(np.ones((3, 2)), np.int64(2)).tolist() == [[0, 1], [0, 1]]


@given(rrh=arrays(np.float64, st.tuples(st.integers(1, 8), st.just(2)),
                  elements=st.floats(-1e150, 1e150)),
       users=arrays(np.float64, st.tuples(st.integers(0, 8), st.just(2)),
                    elements=st.floats(-1e150, 1e150)))
@settings(max_examples=200, deadline=None)
def test_pairwise_distances_match_the_reference_bit_for_bit(rrh, users):
    got = pairwise_distances(rrh, users)
    want = pairwise_distances_reference(rrh, users)
    assert got.shape == want.shape == (len(rrh), len(users))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_build_clusters_matches_the_stable_argsort_bit_for_bit(data):
    num_rrhs = data.draw(st.integers(1, 10), label="num_rrhs")
    num_users = data.draw(st.integers(0, 6), label="num_users")
    size = data.draw(st.integers(1, num_rrhs), label="cluster_size")
    kind = data.draw(st.sampled_from(["ties", "distance", "gain"]), label="kind")
    shape = (num_rrhs, num_users)
    if kind == "ties":
        # small integers times +-1, so zero comes as both 0.0 and -0.0
        magnitude = data.draw(arrays(np.int64, shape, elements=st.integers(0, 3)))
        sign = data.draw(arrays(np.float64, shape, elements=st.sampled_from([-1.0, 1.0])))
        key = sign * magnitude
    elif kind == "distance":
        # positions on a coarse grid, so equal distances are common
        def grid(n):
            return data.draw(arrays(np.int64, (n, 2), elements=st.integers(0, 3))) * 10.0
        key = pairwise_distances(grid(num_rrhs), grid(num_users))
    else:
        # negated gains; a zero gain negates to -0.0
        key = -data.draw(arrays(np.float64, shape,
                                elements=st.sampled_from([0.0, 1e-300, 1e-12, 0.5, 1.0])))
    got = build_clusters(key, size)
    want = build_clusters_reference(key, size)
    assert got.dtype == want.dtype and got.shape == want.shape == (num_users, size)
    assert np.array_equal(got, want)


def test_build_network_composes_everything():
    cfg = SimConfig(num_rrhs=12, num_users=6, cluster_size=3)
    inst = build_network(cfg, seed=5)
    assert inst.alpha.shape == (12, 6)
    assert inst.clusters.shape == (6, 3)
    assert (inst.alpha > 0).all()
    # each user's cluster is its nearest RRHs
    key = pairwise_distances(inst.rrh_positions, inst.user_positions)
    for k in range(6):
        best = np.argsort(key[:, k], kind="stable")[:3]
        np.testing.assert_array_equal(inst.clusters[k], best)


def test_streams_are_independent_and_reproducible():
    a = stream_rng(9, STREAM_PLACEMENT).standard_normal(8)
    b = stream_rng(9, STREAM_PLACEMENT).standard_normal(8)
    c = stream_rng(9, STREAM_SHADOWING).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(
        "# scenario\n"
        "num_users = 10\n"
        "cluster_size = 2   # trailing comment\n"
        "shadowing_stddev = 6.5\n"
        "noise_power = 1e-9\n"
        "\n")
    values = load_config_file(path)
    assert values == {"num_users": 10, "cluster_size": 2,
                      "shadowing_stddev": 6.5, "noise_power": 1e-9}
    cfg = make_config(path)
    assert cfg.num_users == 10 and cfg.shadowing_stddev == 6.5


def test_config_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("num_user = 10\n")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config_file(path)


def test_config_file_with_a_byte_order_mark_parses(tmp_path):
    path = tmp_path / "bom.cfg"
    path.write_bytes("\ufeffnum_rrhs = 12\nnum_users = 6\n".encode("utf-8"))
    assert load_config_file(path) == {"num_rrhs": 12, "num_users": 6}


def test_config_file_rejects_a_repeated_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("num_users = 10\n# again\nnum_users = 12\n")
    with pytest.raises(ValueError) as excinfo:
        load_config_file(path)
    assert str(excinfo.value) == f"{path}:3: duplicate config key 'num_users'"


def test_config_file_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("num_users 10\n")
    with pytest.raises(ValueError, match="expected 'key = value'"):
        load_config_file(path)


@pytest.mark.parametrize("line,message", [
    ("master_seed = 1.5", "config key 'master_seed': cannot parse int from '1.5'"),
    ("noise_power = 1e-9W", "config key 'noise_power': cannot parse float from '1e-9W'"),
    ("cluster_by_gain = true", "unknown config key 'cluster_by_gain'"),
])
def test_config_file_bad_value_names_file_line_and_key(tmp_path, line, message):
    path = tmp_path / "bad.cfg"
    path.write_text(f"num_users = 10\n{line}\n")
    with pytest.raises(ValueError) as excinfo:
        load_config_file(path)
    assert str(excinfo.value) == f"{path}:2: {message}"


def test_make_config_overrides_win_and_none_is_skipped(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("num_users = 10\nmaster_seed = 4\n")
    cfg = make_config(path, num_users=12, master_seed=None)
    assert cfg.num_users == 12
    assert cfg.master_seed == 4


def test_instance_is_immutable():
    cfg = SimConfig(num_rrhs=4, num_users=2, cluster_size=1)
    inst = build_network(cfg, seed=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.alpha = None


def test_instance_arrays_are_read_only():
    built = build_network(SimConfig(num_rrhs=4, num_users=2, cluster_size=1), seed=0)
    made = NetworkInstance(rrh_positions=np.zeros((2, 2)), user_positions=np.zeros((1, 2)),
                           alpha=np.ones((2, 1)), clusters=np.zeros((1, 1), dtype=np.int64),
                           seed=0)
    for instance in (built, made):
        for name in ("rrh_positions", "user_positions", "alpha", "clusters"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(instance, name)[0] = 0


@pytest.mark.parametrize("kept", [None, ()], ids=["None", "empty"])
def test_memo_makes_a_falsy_value_once(kept):
    memo, made = Memo(), []

    def make():
        made.append(1)
        return kept

    assert [memo.once(("key",), make) for _ in range(3)] == [kept] * 3
    assert made == [1]


def test_memo_keeps_arrays_in_tuples_and_dataclasses_read_only():
    @dataclasses.dataclass(frozen=True)
    class Holder:
        array: np.ndarray
        nested: tuple

    inner, outer, loose = np.zeros(2), np.zeros(3), np.zeros(4)
    memo = Memo()
    kept = memo.once(("key",), lambda: (Holder(array=inner, nested=(outer, 5)), loose, "x"))
    assert kept[0].array is inner and kept[1] is loose
    for array in (inner, outer, loose):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    assert read_only(7) == 7
