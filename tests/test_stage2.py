import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucran import SimConfig, admission_loop, build_channel_state, build_network, run_stage1
from ucran.stage2 import (
    LocalBeams,
    enforce_fronthaul_cap,
    expected_rate_lb,
    power_allocation_fixed_point,
    rate_coefficients,
    robust_beam_direction,
    rrh_power_share,
)
from ucran.channel import ChannelState

from conftest import craft_instance
from oracles import (beam_systems_reference, fronthaul_serving_sets,
                     rate_coefficients_reference, scatter_links, solve_power_linear)


def _state(estimates: np.ndarray, error_var: np.ndarray) -> ChannelState:
    """Channel state from dense (I, K, M) estimates, every RRH one of each
    user's links."""
    num_rrhs, num_users, _ = estimates.shape
    return ChannelState(true_channels=estimates.copy(),
                        links=np.tile(np.arange(num_rrhs), (num_users, 1)),
                        estimates=estimates.transpose(1, 0, 2), error_var=error_var)


def _complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _mask(num_rrhs: int, sets: dict[int, list[int]]) -> np.ndarray:
    """Serving mask from per-user RRH lists."""
    serving = np.zeros((num_rrhs, max(sets) + 1), dtype=bool)
    for k, rrhs in sets.items():
        serving[rrhs, k] = True
    return serving


# ----------------------------------------------------------- fronthaul cap

def test_fronthaul_cap_keeps_strongest():
    clusters = np.array([[0], [0], [0]])
    alpha = np.array([[0.1, 0.5, 0.3]])
    serving = enforce_fronthaul_cap(clusters, [0, 1, 2], alpha, cap=2)
    assert serving.tolist() == [[False, True, True]]


def test_fronthaul_cap_tie_prefers_lower_id():
    clusters = np.array([[0], [0]])
    alpha = np.array([[0.4, 0.4]])
    serving = enforce_fronthaul_cap(clusters, [0, 1], alpha, cap=1)
    assert serving.tolist() == [[True, False]]


def test_fronthaul_cap_under_cap_untouched():
    clusters = np.array([[2, 0], [1, 2]])
    alpha = np.ones((3, 2))
    serving = enforce_fronthaul_cap(clusters, [0, 1], alpha, cap=3)
    np.testing.assert_array_equal(serving, _mask(3, {0: [0, 2], 1: [1, 2]}))


def test_fronthaul_cap_rejects_bad_cap():
    with pytest.raises(ValueError):
        enforce_fronthaul_cap(np.array([[0]]), [0], np.ones((1, 1)), cap=0)


@given(st.integers(0, 10 ** 6), st.integers(1, 10), st.integers(1, 4),
       st.integers(1, 5), st.floats(0.0, 1.0), st.booleans())
@settings(max_examples=80, deadline=None)
def test_fronthaul_mask_matches_reference_sets(seed, num_users, width, cap, keep, ties):
    rng = np.random.default_rng(seed)
    num_rrhs = 6
    clusters = np.stack([rng.choice(num_rrhs, size=width, replace=False)
                         for _ in range(num_users)])
    # a few distinct gain levels force ties that only the user id can break
    levels = rng.choice([0.25, 0.5, 1.0], size=(num_rrhs, num_users))
    alpha = levels if ties else rng.uniform(0.1, 1.0, (num_rrhs, num_users))
    admitted = np.flatnonzero(rng.random(num_users) < keep).tolist()
    serving = enforce_fronthaul_cap(clusters, admitted, alpha, cap)
    reference = fronthaul_serving_sets(clusters, admitted, alpha, cap)
    expected = np.zeros((num_rrhs, num_users), dtype=bool)
    for k, rrhs in reference.items():
        expected[rrhs, k] = True
    np.testing.assert_array_equal(serving, expected)


# ------------------------------------------------------------------- beams

def test_beam_single_user_is_matched_filter():
    rng = np.random.default_rng(0)
    est = _complex(rng, (2, 1, 2))
    state = _state(est, np.zeros((2, 1)))
    w = robust_beam_direction(state, _mask(2, {0: [0, 1]}), [0], noise_power=0.3).dense()
    hhat = est.transpose(0, 2, 1).reshape(4)
    expected = hhat / np.linalg.norm(hhat)
    np.testing.assert_allclose(w[:, 0], expected, atol=1e-12)
    assert np.linalg.norm(w[:, 0]) == pytest.approx(1.0)


def test_beam_two_users_match_dense_inverse():
    rng = np.random.default_rng(1)
    est = _complex(rng, (2, 2, 2))
    evar = rng.uniform(0.05, 0.4, (2, 2))
    state = _state(est, evar)
    serving = _mask(2, {0: [0, 1], 1: [0, 1]})
    noise = 0.2
    w = robust_beam_direction(state, serving, [0, 1], noise_power=noise).dense()
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
    w = robust_beam_direction(state, _mask(3, {0: [1]}), [0], noise_power=0.1).dense()
    assert (w[[0, 1, 4, 5], 0] == 0).all()
    assert np.linalg.norm(w[:, 0]) == pytest.approx(1.0)
    local = est[1, 0]
    np.testing.assert_allclose(w[2:4, 0], local / np.linalg.norm(local), atol=1e-12)


@pytest.mark.parametrize("scale", [1e-200, 1e-160])
def test_beam_matched_filter_at_extreme_scales(scale):
    # at 1e-200 the plain norm of the solved beam underflows to zero
    rng = np.random.default_rng(8)
    est = scale * _complex(rng, (2, 1, 2))
    state = _state(est, np.zeros((2, 1)))
    w = robust_beam_direction(state, _mask(2, {0: [0, 1]}), [0], noise_power=1.0).dense()
    hhat = est.transpose(0, 2, 1).reshape(4)
    np.testing.assert_allclose(w[:, 0], hhat / np.linalg.norm(hhat / scale) / scale,
                               atol=1e-12)


def test_beam_covariance_overflow_raises():
    est = np.full((1, 2, 1), 1e200, dtype=complex)
    state = _state(est, np.zeros((1, 2)))
    with pytest.raises(ValueError, match="beam solve failed for user 0: its covariance overflows"):
        robust_beam_direction(state, _mask(1, {0: [0], 1: [0]}), [0, 1], noise_power=1.0)


def test_beam_empty_serving_set_raises():
    est = np.ones((1, 1, 1), dtype=complex)
    state = _state(est, np.zeros((1, 1)))
    with pytest.raises(ValueError):
        robust_beam_direction(state, np.zeros((1, 1), dtype=bool), [0], 0.1)


def test_beam_solve_failure_names_the_first_singular_user():
    # noiseless, error-free, one antenna per RRH: user 5 is served by RRHs
    # 0 and 1 but nobody is estimated at RRH 1, so its covariance has a
    # zero row; user 2 (first in the batch) solves fine
    est = np.zeros((2, 6, 1), dtype=complex)
    est[0, 2, 0] = 1.0
    est[0, 5, 0] = 2.0
    state = _state(est, np.zeros((2, 6)))
    serving = _mask(2, {2: [0], 5: [0, 1]})
    with pytest.raises(ValueError, match="beam solve failed for user 5"):
        robust_beam_direction(state, serving, [2, 5], noise_power=0.0)


def test_beam_vanishing_own_estimate_gets_uniform_beam():
    # user 1 has no estimate on its serving RRHs: the solve returns zero
    # and the beam falls back to uniform weights on its serving antennas
    rng = np.random.default_rng(7)
    est = _complex(rng, (3, 2, 2))
    est[1:, 1] = 0.0
    state = _state(est, rng.uniform(0.05, 0.4, (3, 2)))
    serving = _mask(3, {0: [0], 1: [1, 2]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = robust_beam_direction(state, serving, [0, 1], noise_power=0.1).dense()
    np.testing.assert_allclose(w[:, 1], [0, 0, 0.5, 0.5, 0.5, 0.5])
    assert np.linalg.norm(w[:, 1]) == pytest.approx(1.0)


def _assert_matches_reference(state, serving, served, noise):
    """Local beams, rate coefficients and power shares against the dense
    per-user oracles.

    A beam is checked by its normwise backward error on the oracle's own
    covariance system, which stays at rounding level however ill-conditioned
    the system is; an elementwise comparison of two solves would instead
    grow with the condition number.  The rate coefficients and shares are
    checked against the dense products of the same beams; atol covers
    entries that cancel to near zero.
    """
    beams = robust_beam_direction(state, serving, served, noise)
    dense = beams.dense()
    estimates = scatter_links(state.links, state.estimates, serving.shape[0])
    systems = beam_systems_reference(estimates, state.error_var, serving, served, noise)
    for col, (rows, cov, own) in enumerate(systems):
        w = dense[:, col]
        assert not np.delete(w, rows).any()
        assert np.linalg.norm(w) == pytest.approx(1.0, rel=1e-12)
        if not own.any():
            np.testing.assert_allclose(w[rows], 1.0 / np.sqrt(rows.size), rtol=1e-12)
            continue
        image = cov @ w[rows]
        scale = np.vdot(image, own) / np.vdot(image, image)
        residual = np.linalg.norm(scale * image - own)
        assert residual <= 1e-13 * (np.linalg.norm(cov, 2) * abs(scale) + np.linalg.norm(own))
    ours = rate_coefficients(state, beams, served) + (rrh_power_share(beams),)
    theirs = rate_coefficients_reference(estimates, state.error_var, dense, served)
    scale = theirs[0].max()
    for name, got, want in zip(("signal", "self_err", "cross", "share"), ours, theirs):
        atol = 1e-12 if name == "share" else 1e-12 * scale
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=atol, err_msg=name)
    return beams


def _pruned_round(seed: int, cluster_size: int, cap: int, perfect: bool):
    config = _small_config(num_rrhs=9, num_users=8, cluster_size=cluster_size,
                           pilot_count=4, reuse_cap=2, fronthaul_cap=cap)
    instance = build_network(config, seed=seed)
    s1 = run_stage1(instance, config.pilot_count, config.reuse_cap)
    state = build_channel_state(instance, s1.assignment, config, seed=seed, perfect=perfect)
    serving = enforce_fronthaul_cap(instance.clusters, s1.admitted, instance.alpha, cap)
    served = [int(k) for k in s1.admitted if serving[:, k].any()]
    return state, serving, served, config.noise_power


@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.integers(1, 3), st.booleans())
@settings(max_examples=40, deadline=None)
def test_local_blocks_match_dense_reference(seed, cluster_size, cap, perfect):
    state, serving, served, noise = _pruned_round(seed, cluster_size, cap, perfect)
    if served:
        _assert_matches_reference(state, serving, served, noise)


@pytest.mark.parametrize("perfect", [False, True])
def test_local_blocks_match_dense_reference_with_padding(perfect):
    # the fronthaul cap prunes the serving sets to unequal sizes, so the
    # shorter ones carry invalid slots
    state, serving, served, noise = _pruned_round(0, 3, 2, perfect)
    beams = _assert_matches_reference(state, serving, served, noise)
    sizes = beams.valid.sum(axis=1)
    assert sizes.min() < sizes.max()
    # a pilot holder whose estimate on one serving link is exactly zero
    # keeps that link as a zero slot of its beam
    a, slot = np.argwhere(beams.valid)[0]
    estimates = state.estimates.copy()
    estimates[served[a], slot] = 0.0
    zeroed = dataclasses.replace(state, estimates=estimates)
    np.testing.assert_array_equal(
        _assert_matches_reference(zeroed, serving, served, noise).valid, beams.valid)


# ------------------------------------------------------------ rate formula

def test_rate_lb_single_user_closed_form():
    rng = np.random.default_rng(3)
    est = _complex(rng, (2, 1, 2))
    state = _state(est, np.zeros((2, 1)))
    noise = 0.05
    w = robust_beam_direction(state, _mask(2, {0: [0, 1]}), [0], noise)
    coeffs = rate_coefficients(state, w, [0])
    energy = (np.abs(est) ** 2).sum()
    for p in (0.2, 1.0, 7.0):
        rate = expected_rate_lb(*coeffs, np.array([p]), noise)
        assert rate[0] == pytest.approx(np.log2(1 + p * energy / noise))


def test_rate_lb_zero_power_is_zero():
    est = np.ones((1, 2, 1), dtype=complex)
    state = _state(est, np.zeros((1, 2)))
    w = robust_beam_direction(state, _mask(1, {0: [0], 1: [0]}), [0, 1], 0.1)
    rates = expected_rate_lb(*rate_coefficients(state, w, [0, 1]), np.zeros(2), 0.1)
    np.testing.assert_array_equal(rates, 0.0)


def test_rate_coefficients_error_terms():
    # one user, one RRH, one antenna, estimate 1 with error variance v:
    # beam is the scalar 1, so signal 1 and self-error v exactly
    v = 0.3
    est = np.ones((1, 1, 1), dtype=complex)
    state = _state(est, np.full((1, 1), v))
    w = LocalBeams(rrhs=np.zeros((1, 1), dtype=np.int64), valid=np.ones((1, 1), dtype=bool),
                   weights=np.ones((1, 1, 1), dtype=complex), num_rrhs=1)
    signal, self_err, cross = rate_coefficients(state, w, [0])
    assert signal[0] == pytest.approx(1.0)
    assert self_err[0] == pytest.approx(v)
    assert cross.shape == (1, 1) and cross[0, 0] == 0.0


def test_rrh_power_share_columns_sum_to_one():
    rng = np.random.default_rng(4)
    est = _complex(rng, (3, 2, 2))
    state = _state(est, np.zeros((3, 2)))
    w = robust_beam_direction(state, _mask(3, {0: [0, 1], 1: [1, 2]}), [0, 1], 0.1)
    share = rrh_power_share(w)
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


def test_power_overflowing_iterate_passes_the_ceiling():
    result = power_allocation_fixed_point(np.array([1e-300, 1.0]), np.zeros(2),
                                          np.zeros((2, 2)), 1.0, 1e300,
                                          np.ones((1, 2)), rrh_power_cap=1.0)
    assert not result.feasible
    assert result.reason == "ceiling"
    assert np.isinf(result.powers[0])


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


@pytest.mark.parametrize("signal,target,noise", [
    # the first iterate gamma * noise / margin underflows to zero
    (1.0, 1e-200, 1e-200),
    # the first iterate is 1e-120, but gamma * noise = 1e-320 keeps three
    # digits, too few to carry the 1e-7 target margin through the rate
    (1e-200, 1e-160, 1e-160),
])
def test_power_underflow_raises(signal, target, noise):
    with pytest.raises(ValueError, match="power control underflow"):
        power_allocation_fixed_point(np.array([signal]), np.zeros(1), np.zeros((1, 1)),
                                     target, noise, np.ones((1, 1)), rrh_power_cap=1e9)


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
        assert (sol.serving.sum(axis=1) <= config.fronthaul_cap).all()
        # only served users hold serving links, and each holds at least one
        np.testing.assert_array_equal(np.flatnonzero(sol.serving.any(axis=0)), sol.served)
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
                if not serving[:, subset].any(axis=0).all():
                    continue
                w = robust_beam_direction(state, serving, subset,
                                          config.noise_power)
                sig, serr, cross = rate_coefficients(state, w, subset)
                share = rrh_power_share(w)
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
    np.testing.assert_array_equal(s1.assignment.pilots, s1_scaled.assignment.pilots)

    state = build_channel_state(instance, s1.assignment, config, seed=6)
    state_scaled = build_channel_state(scaled, s1_scaled.assignment,
                                       scaled_config, seed=6)
    sol = admission_loop(instance, s1, state, config)
    sol_scaled = admission_loop(scaled, s1_scaled, state_scaled, scaled_config)

    np.testing.assert_array_equal(sol.served, sol_scaled.served)
    np.testing.assert_allclose(sol_scaled.powers, sol.powers, rtol=1e-6)
    np.testing.assert_allclose(sol_scaled.rates, sol.rates, rtol=1e-6)
    assert sol.removal_trace == sol_scaled.removal_trace
