import dataclasses
import warnings

import numpy as np
import pytest

from ucran import SimConfig, build_network, make_config
from ucran.topology import (
    STREAM_PLACEMENT,
    STREAM_SHADOWING,
    NetworkInstance,
    build_clusters,
    compute_large_scale,
    generate_topology,
    load_config_file,
    stream_rng,
)


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
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_non_finite_floats(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        SimConfig(**{field: value})


def test_build_network_rejects_non_finite_interference_weights():
    # every gain underflows to zero, so each own-cluster gain does too
    cfg = SimConfig(num_rrhs=6, num_users=4, cluster_size=2, pathloss_intercept=4000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            build_network(cfg, seed=0)


def test_cluster_size_cannot_exceed_rrh_count():
    with pytest.raises(ValueError):
        SimConfig(num_rrhs=4, cluster_size=5)


def test_placement_inside_area_and_deterministic():
    cfg = SimConfig(num_rrhs=10, num_users=7, cluster_size=2, area_side=300.0)
    a = generate_topology(cfg, seed=11)
    b = generate_topology(cfg, seed=11)
    c = generate_topology(cfg, seed=12)
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
    alpha = compute_large_scale(rrh, user, cfg, seed=0)
    assert alpha[0, 0] == pytest.approx(10 ** -12.81, rel=1e-12)


def test_pathloss_distance_clamp():
    cfg = SimConfig(num_rrhs=1, num_users=1, cluster_size=1, shadowing_stddev=0.0,
                    min_distance=1.0)
    rrh = np.array([[50.0, 50.0]])
    at_zero = compute_large_scale(rrh, np.array([[50.0, 50.0]]), cfg, seed=0)
    at_one = compute_large_scale(rrh, np.array([[51.0, 50.0]]), cfg, seed=0)
    assert at_zero[0, 0] == pytest.approx(at_one[0, 0], rel=1e-12)
    # 128.1 - 37.6 * 3 dB at the 1 m clamp
    assert at_zero[0, 0] == pytest.approx(10 ** (-(128.1 - 112.8) / 10), rel=1e-12)


def test_shadowing_statistics():
    cfg = SimConfig(num_rrhs=200, num_users=200, cluster_size=1,
                    shadowing_stddev=8.0, min_distance=1.0)
    rrh = np.zeros((200, 2))
    users = np.tile([[1000.0, 0.0]], (200, 1))
    alpha = compute_large_scale(rrh, users, cfg, seed=3)
    shadow_db = 10 * np.log10(alpha) + 128.1
    assert abs(shadow_db.mean()) < 0.2
    assert shadow_db.std() == pytest.approx(8.0, rel=0.05)


def test_clusters_are_nearest_rrhs_in_order():
    rrh = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0], [35.0, 0.0]])
    user = np.array([[12.0, 0.0]])
    inst = NetworkInstance(rrh_positions=rrh, user_positions=user)
    clusters = build_clusters(inst, cluster_size=3)
    np.testing.assert_array_equal(clusters[0], [1, 2, 0])


def test_cluster_distance_tie_prefers_lower_rrh_index():
    rrh = np.array([[0.0, 10.0], [0.0, -10.0], [0.0, 30.0]])
    user = np.array([[0.0, 0.0]])
    inst = NetworkInstance(rrh_positions=rrh, user_positions=user)
    clusters = build_clusters(inst, cluster_size=2)
    np.testing.assert_array_equal(clusters[0], [0, 1])


def test_cluster_by_gain_uses_alpha_ranking():
    rrh = np.array([[0.0, 0.0], [10.0, 0.0]])
    user = np.array([[1.0, 0.0]])
    # gain ranking contradicts the distance ranking
    alpha = np.array([[0.1], [0.9]])
    inst = NetworkInstance(rrh_positions=rrh, user_positions=user, alpha=alpha)
    np.testing.assert_array_equal(build_clusters(inst, 1, by_gain=True)[0], [1])
    np.testing.assert_array_equal(build_clusters(inst, 1, by_gain=False)[0], [0])


def test_build_network_composes_everything():
    cfg = SimConfig(num_rrhs=12, num_users=6, cluster_size=3)
    inst = build_network(cfg, seed=5)
    assert inst.alpha.shape == (12, 6)
    assert inst.clusters.shape == (6, 3)
    assert (inst.alpha > 0).all()
    # clusters hold valid, distinct RRH ids
    for k in range(6):
        assert len(set(inst.clusters[k])) == 3
        assert inst.clusters[k].min() >= 0 and inst.clusters[k].max() < 12


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
        "cluster_by_gain = true\n"
        "noise_power = 1e-9\n"
        "\n")
    values = load_config_file(path)
    assert values == {"num_users": 10, "cluster_size": 2,
                      "cluster_by_gain": True, "noise_power": 1e-9}
    cfg = make_config(path)
    assert cfg.num_users == 10 and cfg.cluster_by_gain is True


def test_config_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("num_user = 10\n")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config_file(path)


def test_config_file_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("num_users 10\n")
    with pytest.raises(ValueError, match="expected 'key = value'"):
        load_config_file(path)


def test_config_file_rejects_bad_bool(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("cluster_by_gain = maybe\n")
    with pytest.raises(ValueError, match="boolean"):
        load_config_file(path)


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
