import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ucran import (
    PilotAssignment,
    SimConfig,
    build_channel_state,
    build_network,
    link_channels,
    mmse_estimate,
    run_stage1,
    simulate_pilot_rx,
)
from ucran.channel import perfect_csi
from ucran.topology import (STREAM_BASELINE, STREAM_FADING, STREAM_PILOT_NOISE, complex_normal,
                            stream_key, uniforms)

from conftest import craft_instance
from oracles import (
    channels_reference,
    copilot_gains_reference,
    membership_reference,
    mmse_estimate_reference,
    pilot_rx_reference,
    scatter_links,
    splitmix64_reference,
)


def _pair_system(num_draws: int, a0: float, a1: float):
    """One RRH observing two co-pilot users, replicated num_draws times
    along the RRH axis so a single call gives many i.i.d. realizations."""
    alpha = np.tile([[a0, a1]], (num_draws, 1))
    clusters = np.array([np.arange(num_draws), np.arange(num_draws)])
    assignment = PilotAssignment(pilots=[0, 0])
    return alpha, clusters, assignment


def _all_links(seed: int, alpha: np.ndarray, antennas: int) -> np.ndarray:
    """The (I, K, M) channels of ``seed``, asked for link by link as one batch."""
    rrhs, users = np.indices(alpha.shape)
    return link_channels(seed, alpha, antennas, rrhs, users)


def test_splitmix64_reference_gives_the_published_outputs():
    # SplitMix64 seeded 1234567: its outputs 1..5 (Steele, Lea & Flood's
    # generator as in java.util.SplittableRandom)
    assert [splitmix64_reference(1234567, c) for c in range(1, 6)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423,
        4593380528125082431, 16408922859458223821]


@pytest.mark.parametrize("counter", [0, 1, 12345, 2 ** 63, 2 ** 64 - 1])
@pytest.mark.parametrize("stream", [STREAM_FADING, STREAM_PILOT_NOISE, STREAM_BASELINE])
def test_complex_normal_is_box_muller_of_two_splitmix64_words(counter, stream):
    # value n reads words 2n and 2n + 1 mod 2**64, each word's top 52 bits
    # give u on (0, 1), and sqrt(-ln u1) * exp(2 pi i u2) is the value;
    # finite at both ends of the counter range
    key = stream_key(9, stream)
    u1, u2 = (((splitmix64_reference(key, (2 * counter + j) % 2 ** 64) >> 12) + 0.5)
              * 2.0 ** -52 for j in (0, 1))
    assert 0.0 < u1 < 1.0 and 0.0 < u2 < 1.0
    assert uniforms(9, stream, [counter])[:, 0].tobytes() == np.array([u1, u2]).tobytes()
    radius = np.sqrt(-np.log(np.array([u1])))
    angle = 2.0 * math.pi * np.array([u2])
    want = radius * np.cos(angle) + 1j * (radius * np.sin(angle))
    got = complex_normal(9, stream, [counter])
    assert np.isfinite(got).all()
    assert got.tobytes() == want.tobytes()


def test_channel_and_noise_keys_differ():
    for seed in (0, 1, 2 ** 70):
        assert stream_key(seed, STREAM_FADING) != stream_key(seed, STREAM_PILOT_NOISE)
        counters = np.arange(64)
        fading = complex_normal(seed, STREAM_FADING, counters)
        noise = complex_normal(seed, STREAM_PILOT_NOISE, counters)
        assert not np.isin(fading, noise).any()
    assert stream_key(1, STREAM_FADING) != stream_key(2, STREAM_FADING)


def test_link_channels_statistics():
    alpha = np.full((1, 100_000), 2.3)
    h = _all_links(0, alpha, antennas=2)
    energy = (np.abs(h) ** 2).sum(axis=2)
    assert energy.mean() == pytest.approx(2 * 2.3, rel=0.01)


def test_link_channels_are_circular_and_uncorrelated_across_antennas():
    h = _all_links(3, np.ones((1, 100_000)), antennas=2)[0]
    power = (np.abs(h[:, 0]) ** 2).mean()
    assert abs((h[:, 0] ** 2).mean()) / power < 0.02
    assert h[:, 0].real.var() == pytest.approx(h[:, 0].imag.var(), rel=0.02)
    corr = abs((h[:, 0] * h[:, 1].conj()).mean()) / power
    assert corr < 0.02


def test_link_channels_zero_gain_and_determinism():
    alpha = np.array([[0.0, 1.0]])
    a = _all_links(5, alpha, antennas=3)
    b = _all_links(5, alpha, antennas=3)
    assert (a[0, 0] == 0).all()
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, _all_links(6, alpha, antennas=3))


@given(alpha=arrays(np.float64, st.tuples(st.integers(0, 5), st.integers(0, 5)),
                    elements=st.sampled_from([0.0, 5e-324, 1e-300, 1e-12, 0.5, 3.0, 1e300])),
       antennas=st.integers(1, 3), seed=st.integers(0, 2 ** 32))
@settings(max_examples=200, deadline=None)
def test_link_channels_matches_the_reference_bit_for_bit(alpha, antennas, seed):
    # a link's value is the same bits whether asked for with every link,
    # alone, or in another order and batch, signed zeros included
    want = channels_reference(alpha, antennas, seed)
    got = _all_links(seed, alpha, antennas)
    assert got.dtype == want.dtype and got.shape == want.shape == alpha.shape + (antennas,)
    assert got.tobytes() == want.tobytes()
    rrhs, users = np.indices(alpha.shape).reshape(2, -1)
    order = np.random.default_rng(seed).permutation(rrhs.size)
    shuffled = link_channels(seed, alpha, antennas, rrhs[order], users[order])
    assert shuffled.tobytes() == want[rrhs[order], users[order]].tobytes()
    for i, k in zip(rrhs[order[:3]], users[order[:3]]):
        alone = link_channels(seed, alpha, antennas, np.array([i]), np.array([k]))
        assert alone.tobytes() == want[i, k][None].tobytes()


def test_link_channels_independent_across_links():
    h = _all_links(1, np.ones((2, 50_000)), antennas=1)
    x = h[0, :, 0].real
    y = h[1, :, 0].real
    corr = np.corrcoef(x, y)[0, 1]
    assert abs(corr) < 0.02


def test_pilot_rx_noise_free_single_user():
    alpha = np.ones((3, 1))
    h = _all_links(2, alpha, antennas=2)
    assignment = PilotAssignment(pilots=[0])
    y = simulate_pilot_rx(2, alpha, 2, assignment, np.array([[0, 1, 2]]), pilot_power=4.0,
                          noise_power=0.0)
    np.testing.assert_allclose(y[0], 2.0 * h[:, 0])


@pytest.mark.parametrize("seed", range(6))
def test_pilot_rx_matches_reference(seed):
    # random assignments with users left without a pilot and pilots left
    # unused: the observation on each holder's links, in their given order,
    # must equal the one-hot product there bit for bit, one row per holder
    rng = np.random.default_rng(seed)
    num_rrhs, num_users, num_pilots = rng.integers(1, 7), rng.integers(1, 13), rng.integers(1, 6)
    alpha = rng.uniform(0.01, 2.0, (num_rrhs, num_users))
    antennas = int(rng.integers(1, 4))
    pilots = np.where(rng.random(num_users) < 0.3, -1, rng.integers(0, num_pilots, num_users))
    assignment = PilotAssignment(pilots=pilots)
    p, noise = rng.uniform(0.1, 10.0), rng.uniform(0.0, 1.0)
    links = np.argsort(rng.random((num_users, num_rrhs)), axis=1)[
        :, :rng.integers(1, num_rrhs + 1)]
    users = assignment.users
    y = simulate_pilot_rx(seed, alpha, antennas, assignment, links[users], p, noise)
    whole = pilot_rx_reference(channels_reference(alpha, antennas, seed), assignment,
                               p, noise, seed)
    assert np.array_equal(y, whole[links[users], pilots[users][:, None]])


def test_pilot_rx_superposition():
    alpha = np.ones((2, 3))
    h = _all_links(3, alpha, antennas=2)
    assignment = PilotAssignment(pilots=[0, 0, 1])
    links = np.array([[0, 1]] * 3)
    y = simulate_pilot_rx(3, alpha, 2, assignment, links, pilot_power=9.0, noise_power=0.0)
    np.testing.assert_allclose(y[0], 3.0 * (h[:, 0] + h[:, 1]))
    np.testing.assert_allclose(y[1], 3.0 * (h[:, 0] + h[:, 1]))
    np.testing.assert_allclose(y[2], 3.0 * h[:, 2])


def test_pilot_rx_empty_group_is_noise():
    # no link reads the empty pilot 0: the holder of pilot 1 reads the
    # noise stream at pilot 1's counters, past pilot 0's, and with a zero
    # channel that noise is all it reads
    alpha = np.zeros((400, 1))
    assignment = PilotAssignment(pilots=[1])
    y = simulate_pilot_rx(4, alpha, 2, assignment, np.arange(400)[None, :], pilot_power=1.0,
                          noise_power=0.5)
    counters = ((400 + np.arange(400)) * 2)[:, None] + np.arange(2)
    noise = complex_normal(4, STREAM_PILOT_NOISE, counters)
    np.testing.assert_array_equal(y[0], np.sqrt(0.5) * noise)
    noise_energy = (np.abs(y[0]) ** 2).mean()   # per complex entry
    assert noise_energy == pytest.approx(0.5, rel=0.1)


def test_pilot_noise_reads_no_pilot_count_or_cluster_size():
    # the noise of RRH i on pilot t is the same value whatever the number
    # of pilots, the holder reading it and its cluster
    alpha = np.zeros((6, 3))
    seen = {}
    for num_pilots, size in ((2, 2), (3, 4), (5, 6)):
        pilots = np.arange(3) % num_pilots
        links = np.tile(np.arange(size), (3, 1))
        y = simulate_pilot_rx(7, alpha, 2, PilotAssignment(pilots=pilots), links,
                              pilot_power=1.0, noise_power=1.0)
        for k in range(3):
            for l, i in enumerate(links[k]):
                value = seen.setdefault((i, pilots[k]), y[k, l].tobytes())
                assert y[k, l].tobytes() == value
    assert len(seen) < 3 * (2 + 4 + 6)


def test_mmse_sole_user_error_formula():
    p, noise, a = 3.0, 0.2, 1.7
    alpha = np.array([[a]])
    clusters = np.array([[0]])
    assignment = PilotAssignment(pilots=[0])
    y = simulate_pilot_rx(1, alpha, 2, assignment, clusters, p, noise)
    _, error_var = mmse_estimate(y, alpha, assignment, clusters, p, noise)
    assert error_var[0, 0] == pytest.approx(a * noise / (p * a + noise))


def test_mmse_error_stays_exact_when_one_user_dominates():
    # the dominant user's error is about noise/p, far below what
    # alpha - p*alpha**2/received can resolve at alpha = 1e30
    p, noise = 200.0, 4e-11
    alpha = np.array([[1e30, 1.0]])
    clusters = np.array([[0], [0]])
    assignment = PilotAssignment(pilots=[0, 0])
    y = simulate_pilot_rx(0, alpha, 1, assignment, clusters, p, noise)
    _, error_var = mmse_estimate(y, alpha, assignment, clusters, p, noise)
    received = p * (1e30 + 1.0) + noise
    assert error_var[0, 0] == pytest.approx(1e30 * (noise + p * 1.0) / received, rel=1e-12)
    assert error_var[0, 1] == pytest.approx((noise + p * 1e30) / received, rel=1e-12)


def test_mmse_rejects_an_overflowing_received_power():
    # p * alpha overflows while sqrt(p) * alpha does not: the coefficient
    # would round to zero and report a zero estimate with zero error
    p, noise = 3e299, 1.0
    alpha = np.array([[3e158]])
    clusters = np.array([[0]])
    assignment = PilotAssignment(pilots=[0])
    with np.errstate(over="ignore"):
        y = simulate_pilot_rx(0, alpha, 1, assignment, clusters, p, noise)
        assert np.isfinite(y).all()
        with pytest.raises(ValueError, match="received pilot power overflows on 1 "):
            mmse_estimate(y, alpha, assignment, clusters, p, noise)


def test_mmse_contamination_floor():
    # two equal-gain users on one pilot: error tends to alpha/2 as the
    # pilot power grows
    a = 0.8
    alpha = np.array([[a, a]])
    clusters = np.array([[0], [0]])
    assignment = PilotAssignment(pilots=[0, 0])
    noise = 0.1
    errors = []
    for p in (2.0, 200.0):
        y = simulate_pilot_rx(0, alpha, 1, assignment, clusters, p, noise)
        _, error_var = mmse_estimate(y, alpha, assignment, clusters, p, noise)
        errors.append(error_var[0, 0])
    assert errors[1] == pytest.approx(a / 2, rel=0.05)
    assert errors[1] < errors[0]


def test_mmse_error_decreases_with_power_when_alone():
    a = 1.0
    alpha = np.array([[a]])
    clusters = np.array([[0]])
    assignment = PilotAssignment(pilots=[0])
    noise = 0.3
    prev = None
    for p in (0.5, 1.0, 2.0, 8.0):
        y = simulate_pilot_rx(0, alpha, 1, assignment, clusters, p, noise)
        _, error_var = mmse_estimate(y, alpha, assignment, clusters, p, noise)
        if prev is not None:
            assert error_var[0, 0] < prev
        prev = error_var[0, 0]


def test_mmse_empirical_error_matches_analytic():
    num_draws = 100_000
    a0, a1, p, noise = 1.0, 0.6, 5.0, 0.4
    alpha, clusters, assignment = _pair_system(num_draws, a0, a1)
    h = _all_links(7, alpha, antennas=2)
    y = simulate_pilot_rx(7, alpha, 2, assignment, clusters, p, noise)
    estimates, error_var = mmse_estimate(y, alpha, assignment, clusters, p, noise)
    assert (error_var < alpha).all()
    err = h - scatter_links(clusters, estimates, num_draws)
    for k in (0, 1):
        empirical = (np.abs(err[:, k]) ** 2).mean()   # per antenna
        assert empirical == pytest.approx(error_var[0, k], rel=0.03)


def test_mmse_orthogonality_of_estimate_and_error():
    num_draws = 100_000
    alpha, clusters, assignment = _pair_system(num_draws, 1.0, 0.5)
    h = _all_links(11, alpha, antennas=1)
    y = simulate_pilot_rx(11, alpha, 1, assignment, clusters, 4.0, 0.3)
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
    assignment = PilotAssignment(pilots=[0, 0])
    y = simulate_pilot_rx(3, alpha, 4, assignment, clusters, 2.0, 0.2)
    estimates, _ = mmse_estimate(y, alpha, assignment, clusters, 2.0, 0.2)
    e0, e1 = estimates[0, 0], estimates[1, 0]
    cross = e0 * np.linalg.norm(e1) - e1 * np.linalg.norm(e0) * np.exp(
        1j * np.angle(np.vdot(e1, e0)))
    np.testing.assert_allclose(cross, 0, atol=1e-12)


def test_mmse_estimates_follow_the_given_cluster_order():
    alpha = np.array([[1.0, 0.2], [0.5, 0.7], [0.3, 0.9]])
    assignment = PilotAssignment(pilots=[0, 1])
    clusters = np.array([[2, 0], [1, 2]])

    def estimate(links):
        y = simulate_pilot_rx(4, alpha, 2, assignment, links, 2.0, 0.1)
        return mmse_estimate(y, alpha, assignment, links, 2.0, 0.1)

    estimates, error_var = estimate(clusters)
    ordered, ordered_var = estimate(np.sort(clusters, axis=1))
    np.testing.assert_array_equal(estimates[0], ordered[0, ::-1])
    np.testing.assert_array_equal(estimates[1], ordered[1])
    np.testing.assert_array_equal(error_var, ordered_var)


def test_estimates_exist_only_inside_clusters():
    cfg = SimConfig(num_rrhs=9, num_users=6, cluster_size=2, pilot_count=3,
                    area_side=300.0)
    instance = build_network(cfg, seed=5)
    s1 = run_stage1(instance, cfg.pilot_count, cfg.reuse_cap)
    state = build_channel_state(instance, s1.assignment, cfg)
    holders = s1.assignment.users
    assert holders.size < 6
    np.testing.assert_array_equal(state.holders, holders)
    np.testing.assert_array_equal(state.links, np.sort(instance.clusters[holders], axis=1))
    assert state.estimates.shape == (holders.size, 2, cfg.antennas_per_rrh)
    assert (state.estimates != 0).all()
    for h, k in enumerate(holders):
        inside = np.zeros(9, dtype=bool)
        inside[instance.clusters[k]] = True
        np.testing.assert_array_equal(state.error_var[~inside, h],
                                      instance.alpha[~inside, k])
    assert (state.error_var >= 0).all()
    assert (state.error_var <= instance.alpha[:, holders] + 1e-15).all()


def test_copilot_users_never_share_cluster_rrhs():
    cfg = SimConfig()
    instance = build_network(cfg, seed=9)
    s1 = run_stage1(instance, cfg.pilot_count, cfg.reuse_cap)
    for pilot in range(s1.assignment.num_pilots):
        group = np.flatnonzero(s1.assignment.pilots == pilot)
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                assert not set(instance.clusters[a]) & set(instance.clusters[b])


def test_perfect_mode_copies_channels():
    cfg = SimConfig(num_rrhs=6, num_users=4, cluster_size=2, area_side=200.0)
    instance = build_network(cfg, seed=1)
    s1 = run_stage1(instance, cfg.pilot_count, cfg.reuse_cap)
    state = build_channel_state(instance, s1.assignment, cfg, perfect=True)
    # the true channels are the seed's values on the fading stream, taken
    # at the holders' columns as the state keeps them
    users = s1.admitted
    h = channels_reference(instance.alpha, cfg.antennas_per_rrh, 1)[:, users]
    mask = np.zeros((cfg.num_rrhs, cfg.num_users), dtype=bool)
    mask[instance.clusters[users], users[:, None]] = True
    mask = mask[:, users]
    dense = scatter_links(state.links, state.estimates, cfg.num_rrhs)
    np.testing.assert_array_equal(dense[mask], h[mask])
    assert not dense[~mask].any()
    assert (state.error_var[mask] == 0).all()
    np.testing.assert_array_equal(state.error_var[~mask], instance.alpha[:, users][~mask])


def test_perfect_and_imperfect_share_fading():
    cfg = SimConfig(num_rrhs=6, num_users=4, cluster_size=2, area_side=200.0)
    instance = build_network(cfg, seed=8)
    s1 = run_stage1(instance, cfg.pilot_count, cfg.reuse_cap)
    imperfect = build_channel_state(instance, s1.assignment, cfg)
    perfect = build_channel_state(instance, s1.assignment, cfg, perfect=True)
    # both modes read the seed's channels: perfect mode copies them, and
    # the pilot phase observes them under the seed's pilot noise
    h = channels_reference(instance.alpha, cfg.antennas_per_rrh, 8)
    users = s1.assignment.users
    np.testing.assert_array_equal(perfect.estimates, h[perfect.links, users[:, None]])
    y = simulate_pilot_rx(8, instance.alpha, cfg.antennas_per_rrh, s1.assignment,
                          imperfect.links, cfg.pilot_power, cfg.noise_power)
    estimates, error_var = mmse_estimate(y, instance.alpha, s1.assignment, imperfect.links,
                                         cfg.pilot_power, cfg.noise_power)
    np.testing.assert_array_equal(imperfect.estimates, estimates)
    np.testing.assert_array_equal(imperfect.error_var, error_var)


def test_a_crafted_network_carries_seed_0_unless_given_one():
    alpha, clusters = np.ones((2, 3)), np.array([[0], [1], [0]])
    assert craft_instance(alpha, clusters).seed == 0
    assert craft_instance(alpha, clusters, 7).seed == 7


def test_perfect_csi_direct():
    alpha = np.ones((3, 2))
    h = _all_links(0, alpha, antennas=2)
    clusters = np.array([[0, 1], [1, 2]])
    estimates, error_var = perfect_csi(0, alpha, 2, clusters, holders=np.array([0, 1]))
    np.testing.assert_array_equal(error_var, [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
    np.testing.assert_array_equal(estimates, [h[:2, 0], h[1:, 1]])
    # row and column h are the h-th holder's, whatever its id
    estimates, error_var = perfect_csi(0, alpha, 2, clusters[1:], holders=np.array([1]))
    np.testing.assert_array_equal(error_var, [[1.0], [0.0], [0.0]])
    np.testing.assert_array_equal(estimates, [h[1:, 1]])


def _greedy_pilots(clusters: np.ndarray, order, num_pilots: int, cap: int) -> PilotAssignment:
    """Each user in ``order`` takes the lowest pilot with fewer than ``cap``
    holders, none of them sharing a cluster RRH with it, else no pilot:
    a valid capped coloring whose groups fill to the cap while they can."""
    pilots = np.full(len(clusters), -1)
    groups: list[list[int]] = [[] for _ in range(num_pilots)]
    for k in order:
        for pilot, group in enumerate(groups):
            if len(group) < cap and not any(set(clusters[k]) & set(clusters[j]) for j in group):
                group.append(k)
                pilots[k] = pilot
                break
    return PilotAssignment(pilots=pilots)


@given(st.data())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_channel_state_matches_the_whole_array_oracles_bit_for_bit(data):
    # the pilot phase on the read links against the observation of every
    # (RRH, pilot) pair and the dense products on every (RRH, user) pair;
    # at one RRH every cluster is that RRH, so each holder has a pilot of
    # its own and the co-pilot gain sums are 0 on both sides
    num_rrhs = data.draw(st.integers(1, 40), label="num_rrhs")
    num_users = data.draw(st.integers(1, 30), label="num_users")
    size = data.draw(st.integers(1, min(num_rrhs, 4)), label="cluster_size")
    cap = data.draw(st.integers(1, 4), label="reuse_cap")
    num_pilots = data.draw(st.integers(1, 8), label="num_pilots")
    antennas = data.draw(st.integers(1, 3), label="antennas")
    perfect = data.draw(st.booleans(), label="perfect")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    alpha = 10.0 ** rng.uniform(-15.0, -3.0, (num_rrhs, num_users))
    alpha[rng.random(alpha.shape) < 0.05] = 0.0
    clusters = np.argsort(rng.random((num_users, num_rrhs)), axis=1)[:, :size]
    assignment = _greedy_pilots(clusters, rng.permutation(num_users).tolist(), num_pilots, cap)
    config = SimConfig(num_rrhs=num_rrhs, num_users=num_users, cluster_size=size,
                       antennas_per_rrh=antennas, pilot_count=num_pilots, reuse_cap=cap)
    state = build_channel_state(craft_instance(alpha, clusters, seed), assignment, config,
                                perfect=perfect)

    h = channels_reference(alpha, antennas, seed)
    links = np.sort(clusters, axis=1)
    users = assignment.users
    if perfect:
        estimates = np.zeros(links.shape + (antennas,), dtype=complex)
        estimates[users] = h[links[users], users[:, None]]
        error_var = alpha.copy()
        error_var[links[users], users[:, None]] = 0.0
    else:
        y = pilot_rx_reference(h, assignment, config.pilot_power, config.noise_power, seed)
        estimates, error_var = mmse_estimate_reference(
            y, alpha, assignment, links, config.pilot_power, config.noise_power)
        # the per-link received pilot power, own gain plus co-pilot gains,
        # is the dense product of the gains with the one-hot membership
        rows, cols = links[users], users[:, None]
        p, noise = config.pilot_power, config.noise_power
        per_link = p * (alpha + copilot_gains_reference(alpha, assignment))[rows, cols] + noise
        dense = p * (alpha @ membership_reference(assignment, num_users)) + noise
        np.testing.assert_allclose(per_link, dense[rows, assignment.pilots[cols]], rtol=1e-12)
    # the state holds the pilot holders alone: the oracles at their rows
    assert state.holders.tobytes() == users.tobytes()
    assert state.links.shape == (users.size, size)
    assert state.estimates.shape == (users.size, size, antennas)
    assert state.error_var.shape == (num_rrhs, users.size)
    assert state.links.tobytes() == links[users].tobytes()
    assert state.estimates.tobytes() == estimates[users].tobytes()
    assert state.error_var.tobytes() == error_var[:, users].tobytes()
