import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ucran import SimConfig, admission_loop, build_channel_state, build_network, run_stage1
from ucran.stage2 import (
    _MAX_BLOCK,
    LocalBeams,
    _without,
    build_holder_table,
    enforce_fronthaul_cap,
    expected_rate_lb,
    power_allocation_fixed_point,
    rate_coefficients,
    robust_beam_direction,
    rrh_power_share,
)
from ucran.channel import ChannelState
from ucran.coloring import PilotAssignment
from ucran.harness import audit_solution
from ucran.stage1 import Stage1Result

from conftest import craft_instance
from oracles import (admission_listing_reference, beam_systems_reference,
                     fronthaul_cap_whole_reference, fronthaul_serving_sets,
                     power_fixed_point_reference, rate_coefficients_reference,
                     rate_coefficients_whole_reference, robust_beam_whole_reference,
                     scatter_links, solve_power_linear, stack_antennas)


def _state(estimates: np.ndarray, error_var: np.ndarray) -> ChannelState:
    """Channel state from dense (I, K, M) estimates: every user a pilot
    holder, and every RRH one of its links."""
    num_rrhs, num_users, _ = estimates.shape
    return ChannelState(holders=np.arange(num_users),
                        links=np.tile(np.arange(num_rrhs), (num_users, 1)),
                        estimates=estimates.transpose(1, 0, 2), error_var=error_var)


def _sliced(state: ChannelState, holders) -> ChannelState:
    """``state`` cut to ``holders``, distinct pilot holders of it."""
    rows = state.holders.searchsorted(np.sort(np.asarray(holders, dtype=np.int64)))
    return ChannelState(holders=state.holders[rows], links=state.links[rows],
                        estimates=state.estimates[rows], error_var=state.error_var[:, rows])


def _complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _valid(num_rrhs: int, sets: dict[int, list[int]]) -> np.ndarray:
    """Serving mask on the links of :func:`_state` (every RRH, ascending),
    one row per user of ``sets`` in its order, from per-user RRH lists."""
    valid = np.zeros((len(sets), num_rrhs), dtype=bool)
    for row, rrhs in enumerate(sets.values()):
        valid[row, rrhs] = True
    return valid


def _table(state: ChannelState, holders):
    """Holder table of ``holders`` on ``state`` cut to them, with unit link gains."""
    gains = np.ones((state.error_var.shape[0], state.holders.max(initial=-1) + 1))
    return build_holder_table(_sliced(state, holders), gains)


def _links_state(links: np.ndarray, num_rrhs: int) -> ChannelState:
    """Channel state on ``links``, every user a pilot holder, with zero
    estimates: all the fronthaul cap reads."""
    num_users, width = links.shape
    return ChannelState(holders=np.arange(num_users), links=links,
                        estimates=np.zeros((num_users, width, 1), dtype=complex),
                        error_var=np.zeros((num_rrhs, num_users)))


def _cap(links: np.ndarray, served, alpha: np.ndarray, cap) -> np.ndarray:
    """The fronthaul mask of ``served``, distinct user ids in any order, on
    the holder table of ``served``: at their rows there, in that order."""
    table = build_holder_table(_sliced(_links_state(links, alpha.shape[0]), served), alpha)
    return enforce_fronthaul_cap(table, table.holders.searchsorted(served), cap)


def _dense(beams: LocalBeams) -> np.ndarray:
    """(I*M, n) beams zero-padded over all RRH antennas."""
    return stack_antennas(scatter_links(beams.rrhs, beams.weights, beams.num_rrhs))


# ----------------------------------------------------------- fronthaul cap

def test_fronthaul_cap_keeps_strongest():
    links = np.array([[0], [0], [0]])
    alpha = np.array([[0.1, 0.5, 0.3]])
    valid = _cap(links, [0, 1, 2], alpha, cap=2)
    assert valid.tolist() == [[False], [True], [True]]


def test_fronthaul_cap_tie_prefers_lower_id():
    links = np.array([[0], [0]])
    alpha = np.array([[0.4, 0.4]])
    valid = _cap(links, [0, 1], alpha, cap=1)
    assert valid.tolist() == [[True], [False]]
    # the rank does not depend on the order of the served list
    assert _cap(links, [1, 0], alpha, cap=1).tolist() == [[False], [True]]


def test_fronthaul_cap_under_cap_untouched():
    links = np.array([[0, 2], [1, 2]])
    alpha = np.ones((3, 2))
    valid = _cap(links, [0, 1], alpha, cap=3)
    assert valid.shape == (2, 2) and valid.all()
    assert _cap(links, [], alpha, cap=3).shape == (0, 2)


@pytest.mark.parametrize("ties", [False, True])
def test_fronthaul_cap_second_pass_changes_nothing(ties):
    # a user left with no RRH ranks below the cap at each of its RRHs, so
    # capping the remaining users again changes no link: one pass per round
    # is enough
    stranded = 0
    for seed in range(150):
        rng = np.random.default_rng(seed)
        num_rrhs, num_users, width = 6, 10, int(rng.integers(1, 4))
        clusters = np.stack([rng.choice(num_rrhs, size=width, replace=False)
                             for _ in range(num_users)])
        levels = rng.choice([0.25, 0.5, 1.0], size=(num_rrhs, num_users))
        alpha = levels if ties else rng.uniform(0.1, 1.0, (num_rrhs, num_users))
        served = np.flatnonzero(rng.random(num_users) < 0.8)
        table = build_holder_table(_sliced(_links_state(clusters, num_rrhs), served), alpha)
        rows = np.arange(served.size)
        for cap in (1, 2, 3):
            valid = enforce_fronthaul_cap(table, rows, cap)
            has_rrh = valid.any(axis=1)
            stranded += int((~has_rrh).sum())
            np.testing.assert_array_equal(
                enforce_fronthaul_cap(table, rows[has_rrh], cap), valid[has_rrh])
    assert stranded > 0


def test_fronthaul_cap_rejects_bad_cap():
    links = np.array([[0], [0], [0]])
    for cap in (0, 1.5, 2.5, True):
        with pytest.raises(ValueError, match=f"fronthaul_cap must be an integer >= 1, got {cap}"):
            _cap(links, [0, 1, 2], np.ones((1, 3)), cap=cap)
    assert _cap(links, [0, 1, 2], np.ones((1, 3)), cap=np.int64(2)).sum() == 2


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
    valid = _cap(clusters, admitted, alpha, cap)
    reference = fronthaul_serving_sets(clusters, admitted, alpha, cap)
    expected = np.array([np.isin(clusters[k], reference[k]) for k in admitted],
                        dtype=bool).reshape(len(admitted), width)
    np.testing.assert_array_equal(valid, expected)


# ------------------------------------------------------------------- beams

def test_beam_single_user_is_matched_filter():
    rng = np.random.default_rng(0)
    est = _complex(rng, (2, 1, 2))
    state = _state(est, np.zeros((2, 1)))
    w = _dense(robust_beam_direction(_table(state, [0]), _valid(2, {0: [0, 1]}), [0],
                                     noise_power=0.3))
    hhat = est.transpose(0, 2, 1).reshape(4)
    expected = hhat / np.linalg.norm(hhat)
    np.testing.assert_allclose(w[:, 0], expected, atol=1e-12)
    assert np.linalg.norm(w[:, 0]) == pytest.approx(1.0)


def test_beam_two_users_match_dense_inverse():
    rng = np.random.default_rng(1)
    est = _complex(rng, (2, 2, 2))
    evar = rng.uniform(0.05, 0.4, (2, 2))
    state = _state(est, evar)
    valid = _valid(2, {0: [0, 1], 1: [0, 1]})
    noise = 0.2
    w = _dense(robust_beam_direction(_table(state, [0, 1]), valid, [0, 1], noise_power=noise))
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
    w = _dense(robust_beam_direction(_table(state, [0]), _valid(3, {0: [1]}), [0],
                                     noise_power=0.1))
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
    w = _dense(robust_beam_direction(_table(state, [0]), _valid(2, {0: [0, 1]}), [0],
                                     noise_power=1.0))
    hhat = est.transpose(0, 2, 1).reshape(4)
    np.testing.assert_allclose(w[:, 0], hhat / np.linalg.norm(hhat / scale) / scale,
                               atol=1e-12)


def test_beam_covariance_overflow_raises():
    est = np.full((1, 2, 1), 1e200, dtype=complex)
    state = _state(est, np.zeros((1, 2)))
    with pytest.raises(ValueError, match="beam solve failed for user 0: its covariance overflows"):
        robust_beam_direction(_table(state, [0, 1]), _valid(1, {0: [0], 1: [0]}), [0, 1],
                              noise_power=1.0)


@pytest.mark.parametrize("scale", [1e100, 1e6], ids=["1e100", "1e6"])
def test_beam_ill_conditioned_covariance_raises(scale):
    # one user on two RRHs, error-free estimates, unit noise: hh^H + I is
    # finite but has condition number about scale**2, so a solved beam
    # could be off the matched filter by order one at 1e100, and is off by
    # 3.4e-4 already at 1e6 (trace over loading 1.4e13)
    rng = np.random.default_rng(8)
    est = scale * _complex(rng, (2, 1, 2))
    state = _state(est, np.zeros((2, 1)))
    with pytest.raises(ValueError, match="beam solve failed for user 0: its covariance is "
                                         "too ill-conditioned"):
        robust_beam_direction(_table(state, [0]), _valid(2, {0: [0, 1]}), [0], noise_power=1.0)


def test_beam_empty_serving_set_raises():
    est = np.ones((1, 1, 1), dtype=complex)
    state = _state(est, np.zeros((1, 1)))
    with pytest.raises(ValueError):
        robust_beam_direction(_table(state, [0]), np.zeros((1, 1), dtype=bool), [0], 0.1)


def test_beam_solve_failure_names_the_first_singular_user():
    # noiseless, error-free, one antenna per RRH: user 5 is served by RRHs
    # 0 and 1 but nobody is estimated at RRH 1, so its covariance has a
    # zero row; user 2 (first in the batch) solves fine
    est = np.zeros((2, 6, 1), dtype=complex)
    est[0, 2, 0] = 1.0
    est[0, 5, 0] = 2.0
    state = _state(est, np.zeros((2, 6)))
    valid = _valid(2, {2: [0], 5: [0, 1]})
    # users 2 and 5 are rows 0 and 1 of the table cut to them
    with pytest.raises(ValueError, match="beam solve failed for user 5"):
        robust_beam_direction(_table(state, [2, 5]), valid, [0, 1], noise_power=0.0)


def test_beam_vanishing_own_estimate_gets_uniform_beam():
    # user 1 has no estimate on its serving RRHs: the solve returns zero
    # and the beam falls back to uniform weights on its serving antennas
    rng = np.random.default_rng(7)
    est = _complex(rng, (3, 2, 2))
    est[1:, 1] = 0.0
    state = _state(est, rng.uniform(0.05, 0.4, (3, 2)))
    valid = _valid(3, {0: [0], 1: [1, 2]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = _dense(robust_beam_direction(_table(state, [0, 1]), valid, [0, 1], noise_power=0.1))
    np.testing.assert_allclose(w[:, 1], [0, 0, 0.5, 0.5, 0.5, 0.5])
    assert np.linalg.norm(w[:, 1]) == pytest.approx(1.0)


def _assert_matches_reference(state, valid, served, noise):
    """Local beams, rate coefficients and power shares against the dense
    per-user oracles.

    A beam is checked by its normwise backward error on the oracle's own
    covariance system, which stays at rounding level however ill-conditioned
    the system is; an elementwise comparison of two solves would instead
    grow with the condition number.  The rate coefficients and shares are
    checked against the dense products of the same beams; atol covers
    entries that cancel to near zero.
    """
    # served ascends, so its rows of the table cut to it are 0..n-1
    table, table_rows = _table(state, served), np.arange(len(served))
    beams = robust_beam_direction(table, valid, table_rows, noise)
    dense = _dense(beams)
    # the dense oracles take one column per pilot holder: served at its rows
    columns = state.holders.searchsorted(served)
    estimates = scatter_links(state.links, state.estimates, state.error_var.shape[0])
    serving = {h: state.links[h][valid[a]] for a, h in enumerate(columns)}
    systems = beam_systems_reference(estimates, state.error_var, serving, columns, noise)
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
    ours = rate_coefficients(table, beams, table_rows) + (rrh_power_share(beams),)
    theirs = rate_coefficients_reference(estimates, state.error_var, dense, columns)
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
    state = build_channel_state(instance, s1.assignment, config, perfect=perfect)
    table = build_holder_table(state, instance.alpha)
    valid = enforce_fronthaul_cap(table, np.arange(table.holders.size), cap)
    has_rrh = valid.any(axis=1)
    served = [int(k) for k in s1.admitted[has_rrh]]
    return state, valid[has_rrh], served, config.noise_power


@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.integers(1, 3), st.booleans())
@settings(max_examples=40, deadline=None)
def test_local_blocks_match_dense_reference(seed, cluster_size, cap, perfect):
    state, valid, served, noise = _pruned_round(seed, cluster_size, cap, perfect)
    if served:
        _assert_matches_reference(state, valid, served, noise)


@pytest.mark.parametrize("perfect", [False, True])
def test_local_blocks_match_dense_reference_with_padding(perfect):
    # the fronthaul cap prunes the serving sets to unequal sizes, so the
    # shorter ones carry invalid slots
    state, valid, served, noise = _pruned_round(0, 3, 2, perfect)
    beams = _assert_matches_reference(state, valid, served, noise)
    sizes = beams.valid.sum(axis=1)
    assert sizes.min() < sizes.max()
    # a pilot holder whose estimate on one serving link is exactly zero
    # keeps that link as a zero slot of its beam
    a, slot = np.argwhere(beams.valid)[0]
    estimates = state.estimates.copy()
    estimates[state.holders.searchsorted(served[a]), slot] = 0.0
    zeroed = dataclasses.replace(state, estimates=estimates)
    np.testing.assert_array_equal(
        _assert_matches_reference(zeroed, valid, served, noise).valid, beams.valid)


@given(st.integers(0, 10 ** 6), st.integers(2, 6), st.integers(1, 4), st.integers(0, 8),
       st.integers(1, 3), st.floats(0.0, 0.6))
@example(seed=0, num_rrhs=3, width=3, num_users=4, antennas=2, prune=0.0)
@example(seed=1, num_rrhs=4, width=4, num_users=5, antennas=1, prune=0.3)
@example(seed=0, num_rrhs=4, width=2, num_users=0, antennas=2, prune=0.0)
@settings(max_examples=150, deadline=None)
def test_rate_coefficients_match_the_whole_reference_bit_for_bit(seed, num_rrhs, width,
                                                                num_users, antennas, prune):
    # each gain must add its terms in the reference's order (ascending RRH),
    # so the comparison is exact; order shows from three terms on, and the
    # examples pin users sharing three or four RRHs, pruned slots on shared
    # RRHs, and an empty round
    rng = np.random.default_rng(seed)
    width = min(width, num_rrhs)
    links = np.array([np.sort(rng.choice(num_rrhs, width, replace=False))
                      for _ in range(num_users)], dtype=np.int64).reshape(num_users, width)
    state = ChannelState(holders=np.arange(num_users), links=links,
                         estimates=_complex(rng, (num_users, width, antennas)),
                         error_var=rng.uniform(0.0, 1.0, (num_rrhs, num_users)))
    served = np.flatnonzero(rng.random(num_users) < 0.8)
    valid = rng.random((served.size, width)) >= prune
    beams = LocalBeams(rrhs=links[served], valid=valid, num_rrhs=num_rrhs,
                       weights=_complex(rng, (served.size, width, antennas)) * valid[:, :, None])
    # the holders are 0..K-1, so the ids in served are also their rows of
    # the whole state; on the table cut to served their rows are 0..n-1
    got = rate_coefficients(_table(state, served), beams, np.arange(served.size))
    want = rate_coefficients_whole_reference(state, beams, served)
    for name, ours, theirs in zip(("signal", "self_err", "cross"), got, want):
        assert ours.shape == theirs.shape and np.array_equal(ours, theirs), name


def _same_bytes(got: np.ndarray, want: np.ndarray, name: str) -> None:
    assert got.shape == want.shape and got.dtype == want.dtype, name
    assert got.tobytes() == want.tobytes(), name


@given(seed=st.integers(0, 2 ** 32 - 1), num_rrhs=st.integers(1, 40),
       num_users=st.integers(1, 30), num_holders=st.integers(0, 30), width=st.integers(1, 4),
       antennas=st.integers(1, 3), cap=st.integers(1, 4), perfect=st.booleans())
@example(seed=0, num_rrhs=6, num_users=5, num_holders=0, width=2, antennas=2, cap=1,
         perfect=False)
@example(seed=1, num_rrhs=6, num_users=5, num_holders=1, width=3, antennas=2, cap=1,
         perfect=True)
@example(seed=2, num_rrhs=4, num_users=12, num_holders=12, width=4, antennas=3, cap=2,
         perfect=False)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_every_round_on_the_holder_table_matches_the_whole_served_references(
        seed, num_rrhs, num_users, num_holders, width, antennas, cap, perfect):
    # a random channel state of the holders: gains spanning three decades,
    # or a few levels that tie; estimates on their cluster links, with zero
    # error there under perfect CSI, and the full gain as error elsewhere
    rng = np.random.default_rng(seed)
    width = min(width, num_rrhs)
    links = np.array([np.sort(rng.choice(num_rrhs, width, replace=False))
                      for _ in range(num_users)], dtype=np.int64)
    if rng.random() < 0.5:
        alpha = rng.choice([0.25, 0.5, 1.0], size=(num_rrhs, num_users))
    else:
        alpha = 10.0 ** rng.uniform(-3.0, 0.0, (num_rrhs, num_users))
    holders = np.sort(rng.choice(num_users, min(num_holders, num_users), replace=False))
    gains = alpha[links.T, np.arange(num_users)].T                  # (K, L)
    estimates = (np.sqrt(gains[holders] / 2.0)[:, :, None]
                 * _complex(rng, (holders.size, width, antennas)))
    error_var = alpha[:, holders]
    rows, cols = np.repeat(np.arange(holders.size), width), links[holders].ravel()
    error_var[cols, rows] = (0.0 if perfect else
                             alpha[cols, holders[rows]] * rng.uniform(0.0, 1.0, rows.size))
    state = ChannelState(holders=holders, links=links[holders], estimates=estimates,
                         error_var=error_var)
    noise = 10.0 ** rng.uniform(-3.0, 0.0)

    table = build_holder_table(state, alpha)
    served = np.arange(holders.size)
    while True:
        valid = enforce_fronthaul_cap(table, served, cap)
        _same_bytes(valid, fronthaul_cap_whole_reference(links, holders[served], alpha, cap),
                    "valid")
        has_rrh = valid.any(axis=1)
        served, valid = served[has_rrh], valid[has_rrh]
        beams = robust_beam_direction(table, valid, served, noise)
        want = robust_beam_whole_reference(state, valid, served, noise)
        for name in ("rrhs", "valid", "weights"):
            _same_bytes(getattr(beams, name), getattr(want, name), name)
        got = rate_coefficients(table, beams, served)
        for name, ours, theirs in zip(("signal", "self_err", "cross"), got,
                                      rate_coefficients_whole_reference(state, beams, served)):
            _same_bytes(ours, theirs, name)
        # power control's BLAS matrix-vector product adds in another order
        # for a Fortran-ordered matrix, so its bits depend on this order
        assert got[2].flags.c_contiguous
        if not served.size:
            break
        served = np.delete(served, rng.integers(served.size))


@pytest.mark.parametrize("served", [[], np.zeros(0, dtype=np.int64)], ids=["list", "array"])
def test_every_step_takes_an_empty_served_set(served):
    config = _small_config()
    instance = build_network(config, seed=0)
    s1 = run_stage1(instance, config.pilot_count, config.reuse_cap)
    state = build_channel_state(instance, s1.assignment, config)
    width, antennas = config.cluster_size, config.antennas_per_rrh
    # the holders stay, and the round has dropped every one of them
    table = build_holder_table(state, instance.alpha)
    valid = enforce_fronthaul_cap(table, served, config.fronthaul_cap)
    assert valid.shape == (0, width) and valid.dtype == bool
    beams = robust_beam_direction(table, valid, served, config.noise_power)
    assert beams.rrhs.shape == beams.valid.shape == (0, width)
    assert beams.weights.shape == (0, width, antennas)
    signal, self_err, cross = rate_coefficients(table, beams, served)
    assert signal.shape == self_err.shape == (0,) and cross.shape == (0, 0)
    share = rrh_power_share(beams)
    assert share.shape == (config.num_rrhs, 0)
    control = power_allocation_fixed_point(signal, self_err, cross, 1.0, config.noise_power,
                                           share, config.rrh_power_cap)
    assert control.feasible and control.powers.shape == (0,)
    rates = expected_rate_lb(signal, self_err, cross, control.powers, config.noise_power)
    assert rates.shape == (0,)
    assert (share @ control.powers == 0).all()


# ------------------------------------------------------------ rate formula

def test_rate_lb_single_user_closed_form():
    rng = np.random.default_rng(3)
    est = _complex(rng, (2, 1, 2))
    state = _state(est, np.zeros((2, 1)))
    noise = 0.05
    table = _table(state, [0])
    w = robust_beam_direction(table, _valid(2, {0: [0, 1]}), [0], noise)
    coeffs = rate_coefficients(table, w, [0])
    energy = (np.abs(est) ** 2).sum()
    for p in (0.2, 1.0, 7.0):
        rate = expected_rate_lb(*coeffs, np.array([p]), noise)
        assert rate[0] == pytest.approx(np.log2(1 + p * energy / noise))


def test_rate_lb_zero_power_is_zero():
    est = np.ones((1, 2, 1), dtype=complex)
    state = _state(est, np.zeros((1, 2)))
    table = _table(state, [0, 1])
    w = robust_beam_direction(table, _valid(1, {0: [0], 1: [0]}), [0, 1], 0.1)
    rates = expected_rate_lb(*rate_coefficients(table, w, [0, 1]), np.zeros(2), 0.1)
    np.testing.assert_array_equal(rates, 0.0)


def test_rate_coefficients_error_terms():
    # one user, one RRH, one antenna, estimate 1 with error variance v:
    # beam is the scalar 1, so signal 1 and self-error v exactly
    v = 0.3
    est = np.ones((1, 1, 1), dtype=complex)
    state = _state(est, np.full((1, 1), v))
    w = LocalBeams(rrhs=np.zeros((1, 1), dtype=np.int64), valid=np.ones((1, 1), dtype=bool),
                   weights=np.ones((1, 1, 1), dtype=complex), num_rrhs=1)
    signal, self_err, cross = rate_coefficients(_table(state, [0]), w, [0])
    assert signal[0] == pytest.approx(1.0)
    assert self_err[0] == pytest.approx(v)
    assert cross.shape == (1, 1) and cross[0, 0] == 0.0


def test_rrh_power_share_columns_sum_to_one():
    rng = np.random.default_rng(4)
    est = _complex(rng, (3, 2, 2))
    state = _state(est, np.zeros((3, 2)))
    w = robust_beam_direction(_table(state, [0, 1]), _valid(3, {0: [0, 1], 1: [1, 2]}),
                              [0, 1], 0.1)
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



def _power_system(seed: int, n: int, radius: float, num_rrhs: int = 3,
                  err: float = 0.05):
    """(signal, self_err, cross, share) of n users on num_rrhs RRHs: cross
    spans six decades, so the order of a sum shows in its last bits, and is
    scaled so that cross / signal has spectral radius ``radius``."""
    rng = np.random.default_rng(seed)
    signal = rng.uniform(0.5, 2.0, n)
    self_err = rng.uniform(0.0, err, n)
    cross = rng.uniform(0.0, 1.0, (n, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (n, n))
    np.fill_diagonal(cross, 0.0)
    rho = np.abs(np.linalg.eigvals(cross / signal[:, None])).max()
    if rho > 0.0:
        cross *= radius / rho
    share = rng.uniform(0.0, 1.0, (num_rrhs, n)) ** 4
    share /= share.sum(axis=0)
    return signal, self_err, cross, share


def _rho_t(signal, self_err, cross, target):
    """Spectral radius, by eigvals, of T = gamma_eff * diag(margins)^-1 cross,
    the matrix power control iterates at its default target margin."""
    gamma_eff = target * (1.0 + 1e-7)
    margins = signal - gamma_eff * self_err
    return float(np.abs(np.linalg.eigvals(gamma_eff * cross / margins[:, None])).max())


def _system_at_rho(seed, n, rho, num_rrhs, err, target):
    """:func:`_power_system`'s draw with cross scaled so that rho(T) at the
    target is ``rho``; n >= 2, so cross has a positive spectral radius."""
    signal, self_err, cross, share = _power_system(seed, n, 1.0, num_rrhs, err)
    cross *= rho / _rho_t(signal, self_err, cross, target)
    return signal, self_err, cross, share


def _same_as_step_loop(signal, self_err, cross, target, noise, share, cap, **kwargs):
    """power_allocation_fixed_point's result, after checking that it equals
    the step-at-a-time loop's bit for bit."""
    got = power_allocation_fixed_point(signal, self_err, cross, target, noise, share,
                                       cap, **kwargs)
    want = power_fixed_point_reference(signal, self_err, cross, target, noise, share,
                                       cap, **kwargs)
    assert (got.feasible, got.reason) == (want.feasible, want.reason)
    assert got.powers.dtype == want.powers.dtype
    assert got.powers.tobytes() == want.powers.tobytes()
    assert got.margins.tobytes() == want.margins.tobytes()
    return got


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 24), radius=st.floats(0.0, 1.2),
       num_rrhs=st.integers(1, 4), err=st.floats(0.0, 1.0),
       target=st.one_of(st.just(0.0), st.floats(0.01, 4.0)),
       noise=st.floats(1e-3, 10.0), cap_exp=st.floats(-2.0, 4.0),
       max_iters=st.one_of(st.integers(0, 300), st.just(2_000)),
       rel_tol=st.sampled_from([1e-8, 1e-4, 0.0]), fortran=st.booleans())
def test_power_blocks_match_the_step_loop(seed, n, radius, num_rrhs, err, target, noise,
                                          cap_exp, max_iters, rel_tol, fortran):
    signal, self_err, cross, share = _power_system(seed, n, radius, num_rrhs, err)
    if fortran:
        cross = np.asfortranarray(cross)
    _same_as_step_loop(signal, self_err, cross, target, noise, share, 10.0 ** cap_exp,
                       max_iters=max_iters, rel_tol=rel_tol)


@pytest.mark.parametrize("reason,radius,err,target,cap,max_iters", [
    ("", 0.7, 0.05, 1.0, 10.0, 10_000),
    ("margin", 0.7, 1.0, 3.0, 10.0, 10_000),
    ("ceiling", 0.99, 0.05, 1.0, 10.0, 10_000),
    ("rrh_cap", 0.5, 0.05, 1.0, 1.0, 10_000),
    # error-free margins put rho(T) just below one, and a budget under 252
    # leaves no room for the jump
    ("no_convergence", 0.999, 0.0, 1.0, 1e6, 251),
])
def test_power_blocks_match_the_step_loop_on_every_outcome(reason, radius, err, target,
                                                           cap, max_iters):
    signal, self_err, cross, share = _power_system(3, 12, radius, err=err)
    result = _same_as_step_loop(signal, self_err, cross, target, 0.1, share, cap,
                                max_iters=max_iters)
    assert result.reason == reason
    if reason != "margin":
        # every system but the ceiling's has a fixed point
        assert (_rho_t(signal, self_err, cross, target) < 1.0) == (reason != "ceiling")


@pytest.mark.parametrize("radius,max_iters", [(0.98, 10_000), (0.98, 252), (0.999, 10_000)])
def test_power_slow_feasible_system_jumps_to_the_solve(radius, max_iters):
    # error-free margins put rho(T) at the radius: from zero, the relative
    # stop takes 721 steps at 0.98 and more than 10 000 at 0.999, while the
    # jump after step 124 meets it a few steps later
    signal, self_err, cross, share = _power_system(3, 12, radius, err=0.0)
    result = _same_as_step_loop(signal, self_err, cross, 1.0, 0.1, share, 1e6,
                                max_iters=max_iters)
    assert result.feasible
    plain = power_fixed_point_reference(signal, self_err, cross, 1.0, 0.1, share, 1e6,
                                        max_iters=max_iters, jump=False)
    assert plain.reason == ("" if (radius, max_iters) == (0.98, 10_000) else "no_convergence")
    assert result.powers.tobytes() != plain.powers.tobytes()
    exact = solve_power_linear(signal, self_err, cross, 1.0 + 1e-7, 0.1)
    np.testing.assert_allclose(result.powers, exact, rtol=1e-7)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 24), rho=st.floats(0.95, 0.999),
       num_rrhs=st.integers(1, 4), err=st.floats(0.0, 1e-6), target=st.floats(0.1, 4.0),
       noise=st.floats(1e-3, 10.0), max_iters=st.one_of(st.integers(252, 2_000),
                                                        st.just(10_000)),
       fortran=st.booleans())
def test_power_slow_feasible_systems_jump_to_the_solve(seed, n, rho, num_rrhs, err, target,
                                                       noise, max_iters, fortran):
    # rho(T) this near one keeps the relative stop out of reach for
    # hundreds of steps at least, so every call here needs the jump to end
    # feasible, within the tolerance of the exact fixed point
    signal, self_err, cross, share = _system_at_rho(seed, n, rho, num_rrhs, err, target)
    if fortran:
        cross = np.asfortranarray(cross)
    result = _same_as_step_loop(signal, self_err, cross, target, noise, share, 1e9,
                                max_iters=max_iters)
    assert result.feasible
    exact = solve_power_linear(signal, self_err, cross, target * (1.0 + 1e-7), noise)
    np.testing.assert_allclose(result.powers, exact, rtol=1e-7)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 24),
       rho=st.one_of(st.floats(0.9, 1.1), st.floats(6.0, 13.0).map(lambda e: 1.0 - 10.0 ** -e)),
       num_rrhs=st.integers(1, 4), err=st.floats(0.0, 0.1), target=st.floats(0.01, 4.0),
       noise=st.floats(1e-3, 10.0))
def test_power_certificate_never_stops_a_servable_system(seed, n, rho, num_rrhs, err, target,
                                                         noise):
    # with the ceiling out of reach, only the certificate ends a call
    # "ceiling", and it must never do so while rho(T) < 1
    signal, self_err, cross, share = _system_at_rho(seed, n, rho, num_rrhs, err, target)
    result = _same_as_step_loop(signal, self_err, cross, target, noise, share, 1e200)
    if _rho_t(signal, self_err, cross, target) < 1.0:
        assert result.reason != "ceiling"


@pytest.mark.parametrize("radius,err,cap", [(0.98, 0.0, 1e6), (0.999, 0.0, 1e6),
                                            (0.999, 0.05, 1e6), (0.99, 0.05, 10.0),
                                            (0.5, 0.05, 1.0), (1.1, 0.05, 1e4)])
def test_power_listing_budget_never_jumps(radius, err, cap):
    # a listing call's one block, and any budget under 252, keep the bits
    # of the loop without the jump; its certificate still stops them, so
    # the rho(T) >= 1 systems (0.999 and 1.1 with err 0.05) end "ceiling"
    signal, self_err, cross, share = _power_system(4, 9, radius, err=err)
    unservable = _rho_t(signal, self_err, cross, 1.0) >= 1.0
    for max_iters in (_MAX_BLOCK, 251):
        got = power_allocation_fixed_point(signal, self_err, cross, 1.0, 0.1, share, cap,
                                           max_iters=max_iters)
        want = power_fixed_point_reference(signal, self_err, cross, 1.0, 0.1, share, cap,
                                           max_iters=max_iters, jump=False)
        assert (got.feasible, got.reason) == (want.feasible, want.reason)
        assert got.powers.tobytes() == want.powers.tobytes()
        if unservable:
            assert got.reason == "ceiling"


@pytest.mark.parametrize("radius,cap,end", [(0.999, 50.0, "no_convergence"),
                                            (0.7, 1e3, ""), (1.1, 1e4, "ceiling")])
def test_power_blocks_match_the_step_loop_at_every_budget(radius, cap, end):
    # every budget up to 140 steps and either side of later block ends:
    # the slow system runs out at each (its fixed point lies past the
    # ceiling, so no budget jumps), the others converge or stop on the
    # ceiling within 140 steps, inside a block.  Error-free margins put
    # rho(T) at the radius times 1 + 1e-7
    signal, self_err, cross, share = _power_system(4, 7, radius, err=0.0)
    assert (_rho_t(signal, self_err, cross, 1.0) < 1.0) == (end != "ceiling")
    reasons = set()
    for max_iters in [*range(0, 141), 251, 252, 253, 379, 380, 381]:
        result = _same_as_step_loop(signal, self_err, cross, 1.0, 0.1, share, cap,
                                    max_iters=max_iters)
        reasons.add(result.reason)
    assert reasons == {"no_convergence", end}


@pytest.mark.parametrize("n", [7, 9, 37])
def test_power_ceiling_equal_to_an_iterate_sum_is_not_passed(n):
    # the ceiling equals the 1-D sum of iterate j exactly, so only a row
    # sum with that sum's bits lets the loop go on to iterate j + 1
    signal, self_err, cross, _ = _power_system(5, n, 0.999)
    share = np.ones((1, n))
    for j in range(1, 41):
        iterate = power_fixed_point_reference(signal, self_err, cross, 1.0, 0.1, share, 1e9,
                                              max_iters=j).powers
        result = _same_as_step_loop(signal, self_err, cross, 1.0, 0.1, share,
                                    float(iterate.sum()))
        assert result.reason == "ceiling"
        assert result.powers.sum() > iterate.sum()


def test_power_ceiling_wins_over_the_stop_in_the_converged_row():
    # the ceiling sits at the sum of the iterate before the converged one,
    # so the converged row both passes the ceiling and meets the stop test
    signal, self_err, cross, _ = _power_system(6, 9, 0.7)
    share = np.ones((1, 9))
    converged = power_fixed_point_reference(signal, self_err, cross, 1.0, 0.1, share, 1e9)
    assert converged.feasible
    steps = next(k for k in range(1, 10_000) if power_fixed_point_reference(
        signal, self_err, cross, 1.0, 0.1, share, 1e9, max_iters=k).reason != "no_convergence")
    before = power_fixed_point_reference(signal, self_err, cross, 1.0, 0.1, share, 1e9,
                                         max_iters=steps - 1).powers
    result = _same_as_step_loop(signal, self_err, cross, 1.0, 0.1, share,
                                float(before.sum()))
    assert result.reason == "ceiling"
    assert result.powers.tobytes() == converged.powers.tobytes()


def test_power_overflow_inside_a_block_passes_the_ceiling_quietly():
    # each step multiplies the first two users' powers by about 1e60, and
    # the third user, coupled to no one, keeps its first iterate: its row
    # never certifies rho(T) >= 1, so only the ceiling can stop the loop.
    # Iterates 1-6 stay finite and under the ceiling, iterate 7 overflows
    # inside the second block, and the discarded rows after it compute
    # inf - inf and 0 * inf
    signal = np.ones(3)
    cross = np.array([[0.0, 1e60, 0.0], [1e60, 0.0, 0.0], [0.0, 0.0, 0.0]])
    args = (signal, np.zeros(3), cross, 1.0, 1.0, np.ones((1, 3)), 1e308)
    sixth = power_fixed_point_reference(*args, max_iters=6)
    assert sixth.reason == "no_convergence" and np.isfinite(sixth.powers).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = _same_as_step_loop(*args)
    assert result.reason == "ceiling"
    assert np.isinf(result.powers[:2]).all() and np.isfinite(result.powers[2])


def test_power_certificate_stops_the_coupled_pair_before_any_overflow():
    # the same pair alone: iterate 2 is 1e60 times iterate 1, which
    # certifies rho(T) >= 1 long before any iterate overflows
    signal, cross = np.ones(2), np.array([[0.0, 1e60], [1e60, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = _same_as_step_loop(signal, np.zeros(2), cross, 1.0, 1.0, np.ones((1, 2)),
                                    1e308)
    assert result.reason == "ceiling"
    assert np.isfinite(result.powers).all() and result.powers.sum() <= 1e308


def test_power_certificate_stops_a_coupling_failure_before_the_crossing():
    # rho(T) = 1.1: no power vector serves the set, and the certificate
    # says so at an iterate far below the ceiling, which the loop would
    # otherwise climb to
    signal, self_err, cross, share = _power_system(7, 10, 1.1, err=0.0)
    assert _rho_t(signal, self_err, cross, 1.0) >= 1.0
    result = _same_as_step_loop(signal, self_err, cross, 1.0, 0.1, share, 1e6)
    assert result.reason == "ceiling"
    assert result.powers.sum() <= 3e6


@pytest.mark.parametrize("n,j", [(1, 0), (6, 0), (6, 3), (6, 5), (37, 18), (37, 36)])
def test_listing_cut_equals_the_fancy_indexed_copies(n, j):
    rng = np.random.default_rng(n + j)
    cross, share = rng.standard_normal((n, n)), rng.standard_normal((5, n))
    keep = np.delete(np.arange(n), j)
    kept, columns = _without(cross, share, j)
    want_cross, want_share = cross[np.ix_(keep, keep)], share[:, keep]
    assert kept.tobytes() == want_cross.tobytes() and kept.flags.c_contiguous
    assert columns.tobytes() == want_share.tobytes()
    assert columns.flags.f_contiguous == want_share.flags.f_contiguous
    if n > 2:
        # a second cut, from the first one's arrays, as the listing makes it
        kept, columns = _without(kept, columns, n // 3)
        keep = np.delete(keep, n // 3)
        assert kept.tobytes() == cross[np.ix_(keep, keep)].tobytes()
        assert kept.flags.c_contiguous
        assert columns.tobytes() == share[:, keep].tobytes()


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
    state = build_channel_state(instance, s1.assignment, config)
    return instance, s1, admission_loop(instance, s1, state, config)


def test_admission_constraints_hold():
    config = _small_config()
    for seed in (0, 1, 2):
        instance, s1, sol = _run_pipeline(config, seed)
        beams = sol.beams
        assert (sol.rates >= config.rate_req - 1e-9).all()
        assert (sol.per_rrh_power <= config.rrh_power_cap + 1e-9).all()
        loads = np.bincount(beams.rrhs[beams.valid], minlength=config.num_rrhs)
        assert (loads <= config.fronthaul_cap).all()
        # each served user's beam sits on its cluster links, holds at least
        # one serving link, and keeps exactly those the cap leaves it
        links = np.sort(instance.clusters, axis=1)
        np.testing.assert_array_equal(beams.rrhs, links[sol.served])
        assert beams.valid.any(axis=1).all()
        np.testing.assert_array_equal(beams.valid, _cap(
            links, sol.served, instance.alpha, config.fronthaul_cap))
        assert not beams.weights[~beams.valid].any()
        # served plus dropped is exactly the stage-1 admitted set
        together = sorted(list(sol.served) + list(sol.removal_trace))
        assert together == sorted(int(k) for k in s1.admitted)
        for weights in beams.weights:
            assert np.linalg.norm(weights) == pytest.approx(1.0)
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
    state = build_channel_state(instance, s1.assignment, config)
    sol = admission_loop(instance, s1, state, config)
    assert sol.served.tolist() == [1]
    assert 0 in sol.removal_trace


def test_admission_unreachable_rate_empties():
    config = _small_config(rate_req=60.0)
    _, s1, sol = _run_pipeline(config, 4)
    assert sol.num_served == 0
    assert sorted(sol.removal_trace) == sorted(int(k) for k in s1.admitted)
    shape = (0, config.cluster_size)
    assert sol.beams.rrhs.shape == sol.beams.valid.shape == shape
    assert sol.beams.weights.shape == shape + (config.antennas_per_rrh,)
    assert (sol.per_rrh_power == 0).all()
    # the empty solution comes from the normal round, with the usual dtypes
    assert sol.served.dtype == np.int64
    assert sol.beams.valid.dtype == bool
    assert np.iscomplexobj(sol.beams.weights)
    assert sol.powers.shape == sol.rates.shape == (0,)


def test_admission_rejects_a_channel_state_made_for_other_pilot_holders():
    # a state with one holder fewer than stage 1 admitted, or one more,
    # must not be served in place of the admitted users' own state
    config = _small_config()
    instance = build_network(config, seed=0)
    s1 = run_stage1(instance, config.pilot_count, config.reuse_cap)
    pilots = s1.assignment.pilots.copy()
    pilots[s1.admitted[0]] = -1
    fewer = dataclasses.replace(s1, assignment=dataclasses.replace(s1.assignment, pilots=pilots))
    for stage1, made_for in ((s1, fewer), (fewer, s1)):
        state = build_channel_state(instance, made_for.assignment, config)
        with pytest.raises(ValueError, match="^the channel state was made for other pilot "
                                             "holders$"):
            admission_loop(instance, stage1, state, config)
    sol = admission_loop(instance, fewer, build_channel_state(instance, fewer.assignment, config),
                         config)
    assert sorted(sol.served.tolist() + list(sol.removal_trace)) == fewer.admitted.tolist()


def test_admission_lists_victims_on_each_failed_rounds_beams(monkeypatch):
    # the dense point at tau 64, with a rate target that takes admission
    # from rounds of over 200 users, which list several victims, down to
    # rounds below 64 users, which list one each
    config = SimConfig(num_rrhs=324, num_users=216, cluster_size=4, pilot_count=64,
                       rate_req=10.0)
    instance = build_network(config, seed=1)
    s1 = run_stage1(instance, config.pilot_count, config.reuse_cap)
    state = build_channel_state(instance, s1.assignment, config)
    rounds = admission_listing_reference(instance, s1, state, config)

    entering = []

    def recording(table, served, cap):
        entering.append(len(served))
        return enforce_fronthaul_cap(table, served, cap)

    monkeypatch.setattr("ucran.stage2.enforce_fronthaul_cap", recording)
    sol = admission_loop(instance, s1, state, config)
    # each round drops the users entering it less those entering the next
    dropped = -np.diff(entering + [sol.num_served])
    per_round = np.split(np.array(sol.removal_trace), np.cumsum(dropped)[:-1])
    assert [r.tolist() for r in per_round] == [stranded + listed
                                               for _, stranded, listed in rounds]
    assert max(len(listed) for _, _, listed in rounds) > 1
    below = [len(listed) for n, _, listed in rounds[:-1] if n < 64]
    assert below and set(below) == {1}
    assert audit_solution(sol, config, s1.admitted) == []


def test_admission_never_beats_exhaustive_subsets():
    from itertools import combinations

    config = _small_config(num_rrhs=4, num_users=3, pilot_count=3,
                           rate_req=3.0, rrh_power_cap=1.0, area_side=400.0)
    for seed in (0, 1, 2, 3, 4):
        instance = build_network(config, seed=seed)
        s1 = run_stage1(instance, config.pilot_count, config.reuse_cap)
        state = build_channel_state(instance, s1.assignment, config)
        sol = admission_loop(instance, s1, state, config)

        target = 2.0 ** config.rate_req - 1.0
        best = 0
        table = build_holder_table(state, instance.alpha)
        for size in range(table.holders.size, 0, -1):
            for subset in combinations(range(table.holders.size), size):
                rows = np.array(subset)
                valid = enforce_fronthaul_cap(table, rows, config.fronthaul_cap)
                if not valid.any(axis=1).all():
                    continue
                w = robust_beam_direction(table, valid, rows,
                                          config.noise_power)
                sig, serr, cross = rate_coefficients(table, w, rows)
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

    state = build_channel_state(instance, s1.assignment, config)
    state_scaled = build_channel_state(scaled, s1_scaled.assignment, scaled_config)
    sol = admission_loop(instance, s1, state, config)
    sol_scaled = admission_loop(scaled, s1_scaled, state_scaled, scaled_config)

    np.testing.assert_array_equal(sol.served, sol_scaled.served)
    np.testing.assert_allclose(sol_scaled.powers, sol.powers, rtol=1e-6)
    np.testing.assert_allclose(sol_scaled.rates, sol.rates, rtol=1e-6)
    assert sol.removal_trace == sol_scaled.removal_trace


def _hand_round(est: np.ndarray, error_var: np.ndarray, rate_req: float,
                rrh_power_cap: float):
    """Admission inputs for dense (I, K, M) estimates: every user holds its
    own pilot and has every RRH in its cluster, unit noise, and a fronthaul
    cap that prunes nothing."""
    num_rrhs, num_users, antennas = est.shape
    instance = craft_instance(np.ones((num_rrhs, num_users)),
                              np.tile(np.arange(num_rrhs), (num_users, 1)))
    s1 = Stage1Result(assignment=PilotAssignment(pilots=np.arange(num_users)),
                      case_taken="base", removal_trace=(), threshold=None)
    config = SimConfig(num_rrhs=num_rrhs, num_users=num_users, cluster_size=num_rrhs,
                       antennas_per_rrh=antennas, pilot_count=num_users, reuse_cap=1,
                       rate_req=rate_req, noise_power=1.0, fronthaul_cap=num_users,
                       rrh_power_cap=rrh_power_cap)
    return instance, s1, _state(est.astype(complex), error_var), config


@pytest.mark.parametrize("est,error_var,rate_req,cap,reason,victim", [
    # margin-short users 0 and 2 (shortfalls 2 and 1, either way round);
    # user 1 clears its margin and stays
    (np.ones((1, 3, 1)), np.array([[3.0, 0.0, 2.0]]), 1.0, 100.0, "margin", 0),
    (np.ones((1, 3, 1)), np.array([[2.0, 0.0, 3.0]]), 1.0, 100.0, "margin", 2),
    # no margin-short user: the iterate crosses the power ceiling, and the
    # weaker user, either way round, demands more power
    (np.sqrt([[[1.0], [4.0]]]), np.zeros((1, 2)), math.log2(1.5), 1.0, "ceiling", 0),
    (np.sqrt([[[4.0], [1.0]]]), np.zeros((1, 2)), math.log2(1.5), 1.0, "ceiling", 1),
    # mirror-image users on mirrored RRHs: equal demands, the lower id goes
    (np.array([[[1.0], [0.5]], [[0.5], [1.0]]]), np.zeros((2, 2)), 1.0, 1.0, "ceiling", 0),
], ids=["shortfall-0", "shortfall-2", "power-0", "power-1", "tie"])
def test_admission_drops_the_largest_demand_first(est, error_var, rate_req, cap, reason,
                                                  victim):
    instance, s1, state, config = _hand_round(est, error_var, rate_req, cap)
    table = build_holder_table(state, instance.alpha)
    served = np.arange(table.holders.size)
    beams = robust_beam_direction(table, np.ones((served.size, est.shape[0]), dtype=bool),
                                  served, config.noise_power)
    control = power_allocation_fixed_point(
        *rate_coefficients(table, beams, served), 2.0 ** rate_req - 1.0,
        config.noise_power, rrh_power_share(beams), cap)
    assert control.reason == reason
    if np.array_equal(est, est[::-1, ::-1]):
        assert control.powers[0] == control.powers[1]
    sol = admission_loop(instance, s1, state, config)
    assert sol.removal_trace[0] == victim
    assert sol.num_served >= 1
