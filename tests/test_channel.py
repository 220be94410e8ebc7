import numpy as np
import pytest

from ucran import (
    PilotAssignment,
    SimConfig,
    build_channel_state,
    build_network,
    draw_channels,
    mmse_estimate,
    run_stage1,
    simulate_pilot_rx,
)
from ucran.channel import perfect_csi
from ucran.conflict_graph import cluster_link_mask

from oracles import scatter_links


def _pair_system(num_draws: int, a0: float, a1: float):
    """One RRH observing two co-pilot users, replicated num_draws times
    along the RRH axis so a single call gives many i.i.d. realizations."""
    alpha = np.tile([[a0, a1]], (num_draws, 1))
    clusters = np.array([np.arange(num_draws), np.arange(num_draws)])
    assignment = PilotAssignment(pilots=[0, 0], num_pilots=1)
    return alpha, clusters, assignment


def test_draw_channels_statistics():
    rng = np.random.default_rng(0)
    alpha = np.full((1, 100_000), 2.3)
    h = draw_channels(alpha, antennas=2, rng=rng)
    energy = (np.abs(h) ** 2).sum(axis=2)
    assert energy.mean() == pytest.approx(2 * 2.3, rel=0.01)


def test_draw_channels_zero_gain_and_determinism():
    alpha = np.array([[0.0, 1.0]])
    a = draw_channels(alpha, antennas=3, rng=np.random.default_rng(5))
    b = draw_channels(alpha, antennas=3, rng=np.random.default_rng(5))
    assert (a[0, 0] == 0).all()
    np.testing.assert_array_equal(a, b)


def test_draw_channels_independent_across_links():
    rng = np.random.default_rng(1)
    h = draw_channels(np.ones((2, 50_000)), antennas=1, rng=rng)
    x = h[0, :, 0].real
    y = h[1, :, 0].real
    corr = np.corrcoef(x, y)[0, 1]
    assert abs(corr) < 0.02


def test_pilot_rx_noise_free_single_user():
    h = draw_channels(np.ones((3, 1)), antennas=2, rng=np.random.default_rng(2))
    assignment = PilotAssignment(pilots=[0], num_pilots=1)
    rng = np.random.default_rng(0)
    y = simulate_pilot_rx(h, assignment, pilot_power=4.0, noise_power=0.0, rng=rng)
    np.testing.assert_allclose(y[:, 0], 2.0 * h[:, 0])


def test_pilot_rx_superposition():
    h = draw_channels(np.ones((2, 3)), antennas=2, rng=np.random.default_rng(3))
    assignment = PilotAssignment(pilots=[0, 0, 1], num_pilots=2)
    rng = np.random.default_rng(0)
    y = simulate_pilot_rx(h, assignment, pilot_power=9.0, noise_power=0.0, rng=rng)
    np.testing.assert_allclose(y[:, 0], 3.0 * (h[:, 0] + h[:, 1]))
    np.testing.assert_allclose(y[:, 1], 3.0 * h[:, 2])


def test_pilot_rx_empty_group_is_noise():
    h = np.zeros((400, 1, 2), dtype=complex)
    assignment = PilotAssignment(pilots=[1], num_pilots=2)
    rng = np.random.default_rng(4)
    y = simulate_pilot_rx(h, assignment, pilot_power=1.0, noise_power=0.5, rng=rng)
    noise_energy = (np.abs(y[:, 0]) ** 2).mean()   # per complex entry
    assert noise_energy == pytest.approx(0.5, rel=0.1)


def test_mmse_sole_user_error_formula():
    p, noise, a = 3.0, 0.2, 1.7
    alpha = np.array([[a]])
    clusters = np.array([[0]])
    assignment = PilotAssignment(pilots=[0], num_pilots=1)
    h = draw_channels(alpha, antennas=2, rng=np.random.default_rng(1))
    rng = np.random.default_rng(1)
    y = simulate_pilot_rx(h, assignment, p, noise, rng)
    _, error_var = mmse_estimate(y, alpha, assignment, clusters, p, noise)
    assert error_var[0, 0] == pytest.approx(a * noise / (p * a + noise))


def test_mmse_error_stays_exact_when_one_user_dominates():
    # the dominant user's error is about noise/p, far below what
    # alpha - p*alpha**2/received can resolve at alpha = 1e30
    p, noise = 200.0, 4e-11
    alpha = np.array([[1e30, 1.0]])
    clusters = np.array([[0], [0]])
    assignment = PilotAssignment(pilots=[0, 0], num_pilots=1)
    h = draw_channels(alpha, antennas=1, rng=np.random.default_rng(0))
    y = simulate_pilot_rx(h, assignment, p, noise, np.random.default_rng(0))
    _, error_var = mmse_estimate(y, alpha, assignment, clusters, p, noise)
    received = p * (1e30 + 1.0) + noise
    assert error_var[0, 0] == pytest.approx(1e30 * (noise + p * 1.0) / received, rel=1e-12)
    assert error_var[0, 1] == pytest.approx((noise + p * 1e30) / received, rel=1e-12)


def test_mmse_contamination_floor():
    # two equal-gain users on one pilot: error tends to alpha/2 as the
    # pilot power grows
    a = 0.8
    alpha = np.array([[a, a]])
    clusters = np.array([[0], [0]])
    assignment = PilotAssignment(pilots=[0, 0], num_pilots=1)
    h = draw_channels(alpha, antennas=1, rng=np.random.default_rng(0))
    noise = 0.1
    errors = []
    for p in (2.0, 200.0):
        rng = np.random.default_rng(0)
        y = simulate_pilot_rx(h, assignment, p, noise, rng)
        _, error_var = mmse_estimate(y, alpha, assignment, clusters, p, noise)
        errors.append(error_var[0, 0])
    assert errors[1] == pytest.approx(a / 2, rel=0.05)
    assert errors[1] < errors[0]


def test_mmse_error_decreases_with_power_when_alone():
    a = 1.0
    alpha = np.array([[a]])
    clusters = np.array([[0]])
    assignment = PilotAssignment(pilots=[0], num_pilots=1)
    h = draw_channels(alpha, antennas=1, rng=np.random.default_rng(0))
    noise = 0.3
    prev = None
    for p in (0.5, 1.0, 2.0, 8.0):
        y = simulate_pilot_rx(h, assignment, p, noise, np.random.default_rng(0))
        _, error_var = mmse_estimate(y, alpha, assignment, clusters, p, noise)
        if prev is not None:
            assert error_var[0, 0] < prev
        prev = error_var[0, 0]


def test_mmse_empirical_error_matches_analytic():
    num_draws = 100_000
    a0, a1, p, noise = 1.0, 0.6, 5.0, 0.4
    alpha, clusters, assignment = _pair_system(num_draws, a0, a1)
    rng = np.random.default_rng(7)
    h = draw_channels(alpha, antennas=2, rng=rng)
    y = simulate_pilot_rx(h, assignment, p, noise, rng)
    estimates, error_var = mmse_estimate(y, alpha, assignment, clusters, p, noise)
    assert (error_var < alpha).all()
    err = h - scatter_links(clusters, estimates, num_draws)
    for k in (0, 1):
        empirical = (np.abs(err[:, k]) ** 2).mean()   # per antenna
        assert empirical == pytest.approx(error_var[0, k], rel=0.03)


def test_mmse_orthogonality_of_estimate_and_error():
    num_draws = 100_000
    alpha, clusters, assignment = _pair_system(num_draws, 1.0, 0.5)
    rng = np.random.default_rng(11)
    h = draw_channels(alpha, antennas=1, rng=rng)
    y = simulate_pilot_rx(h, assignment, 4.0, 0.3, rng)
    estimates, _ = mmse_estimate(y, alpha, assignment, clusters, 4.0, 0.3)
    dense = scatter_links(clusters, estimates, num_draws)
    err = h - dense
    est = dense[:, 0, 0]
    res = err[:, 0, 0]
    corr = np.abs((est * res.conj()).mean()) / np.sqrt(
        (np.abs(est) ** 2).mean() * (np.abs(res) ** 2).mean())
    assert corr < 0.01


def test_mmse_copilot_estimates_are_collinear():
    # both users' estimates at a shared RRH scale the same observation
    alpha = np.array([[1.0, 0.5]])
    clusters = np.array([[0], [0]])
    assignment = PilotAssignment(pilots=[0, 0], num_pilots=1)
    rng = np.random.default_rng(3)
    h = draw_channels(alpha, antennas=4, rng=rng)
    y = simulate_pilot_rx(h, assignment, 2.0, 0.2, rng)
    estimates, _ = mmse_estimate(y, alpha, assignment, clusters, 2.0, 0.2)
    e0, e1 = estimates[0, 0], estimates[1, 0]
    cross = e0 * np.linalg.norm(e1) - e1 * np.linalg.norm(e0) * np.exp(
        1j * np.angle(np.vdot(e1, e0)))
    np.testing.assert_allclose(cross, 0, atol=1e-12)


def test_mmse_estimates_follow_the_given_cluster_order():
    alpha = np.array([[1.0, 0.2], [0.5, 0.7], [0.3, 0.9]])
    assignment = PilotAssignment(pilots=[0, 1], num_pilots=2)
    rng = np.random.default_rng(4)
    h = draw_channels(alpha, antennas=2, rng=rng)
    y = simulate_pilot_rx(h, assignment, 2.0, 0.1, rng)
    clusters = np.array([[2, 0], [1, 2]])
    estimates, error_var = mmse_estimate(y, alpha, assignment, clusters, 2.0, 0.1)
    ordered, ordered_var = mmse_estimate(y, alpha, assignment, np.sort(clusters, axis=1),
                                         2.0, 0.1)
    np.testing.assert_array_equal(estimates[0], ordered[0, ::-1])
    np.testing.assert_array_equal(estimates[1], ordered[1])
    np.testing.assert_array_equal(error_var, ordered_var)


def test_estimates_exist_only_inside_clusters():
    cfg = SimConfig(num_rrhs=9, num_users=6, cluster_size=2, pilot_count=3,
                    area_side=300.0)
    instance = build_network(cfg, seed=5)
    s1 = run_stage1(instance, cfg.pilot_count, cfg.reuse_cap)
    state = build_channel_state(instance, s1.assignment, cfg, seed=5)
    np.testing.assert_array_equal(state.links, np.sort(instance.clusters, axis=1))
    holders = s1.assignment.pilots >= 0
    assert not holders.all()
    assert (state.estimates[holders] != 0).all()
    assert (state.estimates[~holders] == 0).all()
    for k in range(6):
        inside = np.zeros(9, dtype=bool)
        if holders[k]:
            inside[instance.clusters[k]] = True
        np.testing.assert_array_equal(state.error_var[~inside, k],
                                      instance.alpha[~inside, k])
    assert (state.error_var >= 0).all()
    assert (state.error_var <= instance.alpha + 1e-15).all()


def test_copilot_users_never_share_cluster_rrhs():
    cfg = SimConfig()
    instance = build_network(cfg, seed=9)
    s1 = run_stage1(instance, cfg.pilot_count, cfg.reuse_cap)
    for group in s1.assignment.groups.values():
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                assert not set(instance.clusters[a]) & set(instance.clusters[b])


def test_perfect_mode_copies_channels():
    cfg = SimConfig(num_rrhs=6, num_users=4, cluster_size=2, area_side=200.0)
    instance = build_network(cfg, seed=1)
    s1 = run_stage1(instance, cfg.pilot_count, cfg.reuse_cap)
    state = build_channel_state(instance, s1.assignment, cfg, seed=1, perfect=True)
    mask = cluster_link_mask(instance.clusters, s1.admitted, cfg.num_rrhs)
    dense = scatter_links(state.links, state.estimates, cfg.num_rrhs)
    np.testing.assert_array_equal(dense[mask], state.true_channels[mask])
    assert not dense[~mask].any()
    assert (state.error_var[mask] == 0).all()
    np.testing.assert_array_equal(state.error_var[~mask], instance.alpha[~mask])


def test_perfect_and_imperfect_share_fading():
    cfg = SimConfig(num_rrhs=6, num_users=4, cluster_size=2, area_side=200.0)
    instance = build_network(cfg, seed=8)
    s1 = run_stage1(instance, cfg.pilot_count, cfg.reuse_cap)
    imperfect = build_channel_state(instance, s1.assignment, cfg, seed=8)
    perfect = build_channel_state(instance, s1.assignment, cfg, seed=8, perfect=True)
    np.testing.assert_array_equal(imperfect.true_channels, perfect.true_channels)


def test_perfect_csi_direct():
    h = draw_channels(np.ones((3, 2)), antennas=2, rng=np.random.default_rng(0))
    clusters = np.array([[0, 1], [1, 2]])
    estimates, error_var = perfect_csi(h, clusters, admitted=np.array([0]),
                                       alpha=np.ones((3, 2)))
    np.testing.assert_array_equal(error_var, [[0.0, 1.0], [0.0, 1.0], [1.0, 1.0]])
    np.testing.assert_array_equal(estimates[0], h[:2, 0])
    assert not estimates[1].any()
