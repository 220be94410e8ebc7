import dataclasses

import numpy as np
import pytest

from ucran import (
    SimConfig,
    admission_loop,
    build_channel_state,
    build_network,
    enforce_fronthaul_cap,
    expected_rate_lb,
    power_allocation_fixed_point,
    rate_coefficients,
    robust_beam_direction,
    rrh_power_share,
    run_stage1,
)
from ucran.channel import MODE_IMPERFECT, ChannelState

from conftest import craft_instance
from oracles import solve_power_linear


def _state(estimates: np.ndarray, error_var: np.ndarray) -> ChannelState:
    mask = np.ones(error_var.shape, dtype=bool)
    return ChannelState(true_channels=estimates.copy(), estimates=estimates,
                        error_var=error_var, estimated_mask=mask,
                        mode=MODE_IMPERFECT)


def _complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ----------------------------------------------------------- fronthaul cap

def test_fronthaul_cap_keeps_strongest():
    clusters = np.array([[0], [0], [0]])
    alpha = np.array([[0.1, 0.5, 0.3]])
    serving = enforce_fronthaul_cap(clusters, [0, 1, 2], alpha, cap=2)
    assert serving[1].tolist() == [0]
    assert serving[2].tolist() == [0]
    assert serving[0].size == 0


def test_fronthaul_cap_tie_prefers_lower_id():
    clusters = np.array([[0], [0]])
    alpha = np.array([[0.4, 0.4]])
    serving = enforce_fronthaul_cap(clusters, [0, 1], alpha, cap=1)
    assert serving[0].tolist() == [0]
    assert serving[1].size == 0


def test_fronthaul_cap_under_cap_untouched():
    clusters = np.array([[2, 0], [1, 2]])
    alpha = np.ones((3, 2))
    serving = enforce_fronthaul_cap(clusters, [0, 1], alpha, cap=3)
    assert serving[0].tolist() == [0, 2]
    assert serving[1].tolist() == [1, 2]


def test_fronthaul_cap_rejects_bad_cap():
    with pytest.raises(ValueError):
        enforce_fronthaul_cap(np.array([[0]]), [0], np.ones((1, 1)), cap=0)


# ------------------------------------------------------------------- beams

def test_beam_single_user_is_matched_filter():
    rng = np.random.default_rng(0)
    est = _complex(rng, (2, 1, 2))
    state = _state(est, np.zeros((2, 1)))
    serving = {0: np.array([0, 1])}
    w = robust_beam_direction(state, serving, [0], noise_power=0.3)
    hhat = est.transpose(0, 2, 1).reshape(4)
    expected = hhat / np.linalg.norm(hhat)
    np.testing.assert_allclose(w[:, 0], expected, atol=1e-12)
    assert np.linalg.norm(w[:, 0]) == pytest.approx(1.0)


def test_beam_two_users_match_dense_inverse():
    rng = np.random.default_rng(1)
    est = _complex(rng, (2, 2, 2))
    evar = rng.uniform(0.05, 0.4, (2, 2))
    state = _state(est, evar)
    serving = {0: np.array([0, 1]), 1: np.array([0, 1])}
    noise = 0.2
    w = robust_beam_direction(state, serving, [0, 1], noise_power=noise)
    hhat = est.transpose(0, 2, 1).reshape(4, 2)
    load = np.repeat(evar.sum(axis=1), 2)
    cov = hhat @ hhat.conj().T + np.diag(load + noise)
    for col in (0, 1):
        ref = np.linalg.solve(cov, hhat[:, col])
        ref /= np.linalg.norm(ref)
        np.testing.assert_allclose(w[:, col], ref, atol=1e-10)


def test_beam_zero_outside_serving_set():
    rng = np.random.default_rng(2)
    est = _complex(rng, (3, 1, 2))
    state = _state(est, np.zeros((3, 1)))
    serving = {0: np.array([1])}
    w = robust_beam_direction(state, serving, [0], noise_power=0.1)
    assert (w[[0, 1, 4, 5], 0] == 0).all()
    assert np.linalg.norm(w[:, 0]) == pytest.approx(1.0)
    local = est[1, 0]
    np.testing.assert_allclose(w[2:4, 0], local / np.linalg.norm(local), atol=1e-12)


def test_beam_empty_serving_set_raises():
    est = np.ones((1, 1, 1), dtype=complex)
    state = _state(est, np.zeros((1, 1)))
    with pytest.raises(ValueError):
        robust_beam_direction(state, {0: np.array([], dtype=np.int64)}, [0], 0.1)


# ------------------------------------------------------------ rate formula

def test_rate_lb_single_user_closed_form():
    rng = np.random.default_rng(3)
    est = _complex(rng, (2, 1, 2))
    state = _state(est, np.zeros((2, 1)))
    serving = {0: np.array([0, 1])}
    noise = 0.05
    w = robust_beam_direction(state, serving, [0], noise)
    energy = (np.abs(est) ** 2).sum()
    for p in (0.2, 1.0, 7.0):
        rate = expected_rate_lb(state, w, [0], np.array([p]), noise)
        assert rate[0] == pytest.approx(np.log2(1 + p * energy / noise))


def test_rate_lb_zero_power_is_zero():
    est = np.ones((1, 2, 1), dtype=complex)
    state = _state(est, np.zeros((1, 2)))
    serving = {0: np.array([0]), 1: np.array([0])}
    w = robust_beam_direction(state, serving, [0, 1], 0.1)
    rates = expected_rate_lb(state, w, [0, 1], np.zeros(2), 0.1)
    np.testing.assert_array_equal(rates, 0.0)


def test_rate_coefficients_error_terms():
    # one user, one RRH, one antenna, estimate 1 with error variance v:
    # beam is the scalar 1, so signal 1 and self-error v exactly
    v = 0.3
    est = np.ones((1, 1, 1), dtype=complex)
    state = _state(est, np.full((1, 1), v))
    w = np.ones((1, 1), dtype=complex)
    signal, self_err, cross = rate_coefficients(state, w, [0])
    assert signal[0] == pytest.approx(1.0)
    assert self_err[0] == pytest.approx(v)
    assert cross.shape == (1, 1) and cross[0, 0] == 0.0


def test_rrh_power_share_columns_sum_to_one():
    rng = np.random.default_rng(4)
    est = _complex(rng, (3, 2, 2))
    state = _state(est, np.zeros((3, 2)))
    serving = {0: np.array([0, 1]), 1: np.array([1, 2])}
    w = robust_beam_direction(state, serving, [0, 1], 0.1)
    share = rrh_power_share(w, num_rrhs=3, antennas=2)
    np.testing.assert_allclose(share.sum(axis=0), 1.0)
    assert (share >= 0).all()


# ----------------------------------------------------------- power control

def _random_coeffs(rng: np.random.Generator, n: int = 2):
    signal = rng.uniform(0.5, 2.0, n)
    self_err = rng.uniform(0.0, 0.05, n)
    cross = rng.uniform(0.0, 0.2, (n, n))
    np.fill_diagonal(cross, 0.0)
    return signal, self_err, cross


def test_power_fixed_point_matches_linear_solve():
    rng = np.random.default_rng(5)
    share = np.ones((4, 2)) * 0.25
    checked = 0
    for _ in range(20):
        signal, self_err, cross = _random_coeffs(rng)
        target, noise = 1.5, 0.1
        exact = solve_power_linear(signal, self_err, cross, target, noise)
        if exact is None:
            continue
        result = power_allocation_fixed_point(signal, self_err, cross, target,
                                              noise, share, rrh_power_cap=1e9)
        assert result.feasible
        np.testing.assert_allclose(result.powers, exact, rtol=1e-6)
        checked += 1
    assert checked >= 10


def test_power_converged_point_clears_target():
    rng = np.random.default_rng(6)
    share = np.ones((4, 2)) * 0.25
    for _ in range(20):
        signal, self_err, cross = _random_coeffs(rng)
        target, noise = 2.0, 0.1
        result = power_allocation_fixed_point(signal, self_err, cross, target,
                                              noise, share, rrh_power_cap=1e9)
        if not result.feasible:
            continue
        p = result.powers
        sinr = p * signal / (p * self_err + cross @ p + noise)
        # margin trick: the truncated iterate still clears the nominal target
        assert (sinr >= target).all()


def test_power_zero_target_and_empty_system():
    share = np.ones((1, 2))
    result = power_allocation_fixed_point(np.ones(2), np.zeros(2),
                                          np.zeros((2, 2)), 0.0, 0.1, share, 1.0)
    assert result.feasible and (result.powers == 0).all()
    empty = power_allocation_fixed_point(np.zeros(0), np.zeros(0),
                                         np.zeros((0, 0)), 1.0, 0.1,
                                         np.ones((1, 0)), 1.0)
    assert empty.feasible and empty.powers.size == 0


def test_power_margin_infeasible():
    # self-error alone exceeds what the signal can support at the target
    result = power_allocation_fixed_point(np.array([1.0]), np.array([0.9]),
                                          np.zeros((1, 1)), 2.0, 0.1,
                                          np.ones((1, 1)), 1.0)
    assert not result.feasible
    assert result.reason == "margin"
    assert result.margins[0] < 0


def test_power_ceiling_infeasible():
    # coupling spectral radius above one: iterates blow past the total cap
    signal = np.ones(2)
    cross = np.array([[0.0, 2.0], [2.0, 0.0]])
    result = power_allocation_fixed_point(signal, np.zeros(2), cross, 1.0, 1.0,
                                          np.ones((2, 2)) * 0.5,
                                          rrh_power_cap=5.0)
    assert not result.feasible
    assert result.reason == "ceiling"


def test_power_rrh_cap_infeasible():
    # fixed point exists (p = 3) and stays under the total ceiling of 4,
    # but the user radiates everything from one RRH whose cap is 2
    share = np.array([[1.0], [0.0]])
    result = power_allocation_fixed_point(np.array([1.0]), np.zeros(1),
                                          np.zeros((1, 1)), 3.0, 1.0,
                                          share, rrh_power_cap=2.0)
    assert not result.feasible
    assert result.reason == "rrh_cap"
    assert result.powers[0] == pytest.approx(3.0, rel=1e-6)


def test_power_iterates_monotone_and_budget_bounded():
    signal = np.ones(2)
    cross = np.array([[0.0, 0.99], [0.99, 0.0]])
    share = np.ones((1, 2))
    prev = None
    for iters in (1, 2, 3, 5, 8):
        result = power_allocation_fixed_point(signal, np.zeros(2), cross, 1.0,
                                              1.0, share, rrh_power_cap=1e9,
                                              max_iters=iters)
        assert not result.feasible
        assert result.reason == "no_convergence"
        if prev is not None:
            assert (result.powers >= prev - 1e-15).all()
        prev = result.powers
    full = power_allocation_fixed_point(signal, np.zeros(2), cross, 1.0, 1.0,
                                        share, rrh_power_cap=1e9)
    assert full.feasible
    np.testing.assert_allclose(full.powers, 100.0, rtol=1e-5)


# ---------------------------------------------------------- admission loop

def _small_config(**overrides) -> SimConfig:
    base = dict(num_rrhs=9, num_users=6, cluster_size=2, pilot_count=3,
                reuse_cap=2, area_side=300.0, rate_req=1.0,
                rrh_power_cap=500.0, fronthaul_cap=2)
    base.update(overrides)
    return SimConfig(**base)


def _run_pipeline(config: SimConfig, seed: int):
    instance = build_network(config, seed=seed)
    s1 = run_stage1(instance, config.pilot_count, config.reuse_cap)
    state = build_channel_state(instance, s1.assignment, config, seed=seed)
    return instance, s1, admission_loop(instance, s1, state, config)


def test_admission_constraints_hold():
    config = _small_config()
    for seed in (0, 1, 2):
        instance, s1, sol = _run_pipeline(config, seed)
        assert (sol.rates >= config.rate_req - 1e-9).all()
        assert (sol.per_rrh_power <= config.rrh_power_cap + 1e-9).all()
        counts = np.zeros(config.num_rrhs, dtype=int)
        for k in sol.served:
            counts[sol.serving_sets[int(k)]] += 1
        assert (counts <= config.fronthaul_cap).all()
        # served plus dropped is exactly the stage-1 admitted set
        together = sorted(list(sol.served) + list(sol.removal_trace))
        assert together == sorted(int(k) for k in s1.admitted)
        for col in range(sol.num_served):
            assert np.linalg.norm(sol.directions[:, col]) == pytest.approx(1.0)
        assert (sol.powers > 0).all()


def test_admission_generous_config_serves_everyone():
    config = _small_config(rate_req=0.25, rrh_power_cap=5000.0, fronthaul_cap=6)
    _, s1, sol = _run_pipeline(config, 3)
    assert sol.removal_trace == ()
    np.testing.assert_array_equal(sol.served, np.sort(s1.admitted))


def test_admission_starved_user_dropped():
    # one RRH, fronthaul cap 1: the weaker of two single-RRH users loses
    # its only server before any beamforming happens
    instance = craft_instance(np.array([[0.5, 1.0]]), np.array([[0], [0]]))
    config = SimConfig(num_rrhs=1, num_users=2, cluster_size=1, pilot_count=2,
                       reuse_cap=2, antennas_per_rrh=2, rate_req=0.5,
                       rrh_power_cap=100.0, fronthaul_cap=1, noise_power=1e-3)
    s1 = run_stage1(instance, config.pilot_count, config.reuse_cap)
    state = build_channel_state(instance, s1.assignment, config, seed=0)
    sol = admission_loop(instance, s1, state, config)
    assert sol.served.tolist() == [1]
    assert 0 in sol.removal_trace


def test_admission_unreachable_rate_empties():
    config = _small_config(rate_req=60.0)
    _, s1, sol = _run_pipeline(config, 4)
    assert sol.num_served == 0
    assert sorted(sol.removal_trace) == sorted(int(k) for k in s1.admitted)
    assert sol.directions.shape == (config.num_rrhs * config.antennas_per_rrh, 0)
    assert (sol.per_rrh_power == 0).all()


def test_admission_never_beats_exhaustive_subsets():
    from itertools import combinations

    config = _small_config(num_rrhs=4, num_users=3, pilot_count=3,
                           rate_req=3.0, rrh_power_cap=1.0, area_side=400.0)
    for seed in (0, 1, 2, 3, 4):
        instance = build_network(config, seed=seed)
        s1 = run_stage1(instance, config.pilot_count, config.reuse_cap)
        state = build_channel_state(instance, s1.assignment, config, seed=seed)
        sol = admission_loop(instance, s1, state, config)

        target = 2.0 ** config.rate_req - 1.0
        best = 0
        admitted = [int(k) for k in s1.admitted]
        for size in range(len(admitted), 0, -1):
            for subset in combinations(admitted, size):
                serving = enforce_fronthaul_cap(instance.clusters, subset,
                                                instance.alpha,
                                                config.fronthaul_cap)
                if any(serving[k].size == 0 for k in subset):
                    continue
                w = robust_beam_direction(state, serving, subset,
                                          config.noise_power)
                sig, serr, cross = rate_coefficients(state, w, subset)
                share = rrh_power_share(w, config.num_rrhs,
                                        config.antennas_per_rrh)
                control = power_allocation_fixed_point(
                    sig, serr, cross, target, config.noise_power, share,
                    config.rrh_power_cap)
                if control.feasible:
                    best = size
                    break
            if best:
                break
        assert sol.num_served <= best or best == 0


def test_admission_scaling_invariance():
    # scaling all link gains and the noise floor together must not change
    # the solution (pilot power fixed: estimation quality scales along)
    config = _small_config()
    c = 7.3
    instance = build_network(config, seed=6)
    scaled = dataclasses.replace(instance, alpha=c * instance.alpha)
    scaled_config = dataclasses.replace(config, noise_power=c * config.noise_power)

    s1 = run_stage1(instance, config.pilot_count, config.reuse_cap)
    s1_scaled = run_stage1(scaled, config.pilot_count, config.reuse_cap)
    np.testing.assert_array_equal(s1.admitted, s1_scaled.admitted)
    assert s1.assignment.pilot_of == s1_scaled.assignment.pilot_of

    state = build_channel_state(instance, s1.assignment, config, seed=6)
    state_scaled = build_channel_state(scaled, s1_scaled.assignment,
                                       scaled_config, seed=6)
    sol = admission_loop(instance, s1, state, config)
    sol_scaled = admission_loop(scaled, s1_scaled, state_scaled, scaled_config)

    np.testing.assert_array_equal(sol.served, sol_scaled.served)
    np.testing.assert_allclose(sol_scaled.powers, sol.powers, rtol=1e-6)
    np.testing.assert_allclose(sol_scaled.rates, sol.rates, rtol=1e-6)
    assert sol.removal_trace == sol_scaled.removal_trace
