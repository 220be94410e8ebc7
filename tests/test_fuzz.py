"""End-to-end fuzz of extreme scenario values through whole trials.

Only values vary, and only on small networks (at most 10 RRHs and 10
users), so every example is one short trial in this process.  A trial
must either stop with a clean ValueError or return a row whose numeric
fields are finite; ``run_trial`` audits each solution itself and raises
``AuditError`` (not a ValueError) on any violated constraint.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from ucran import ALGORITHMS, SimConfig, run_trial


def _magnitudes(low: int, high: int):
    """Positive floats from 10**low to 10**high: log-uniform draws plus
    hypothesis's own boundary-seeking ones."""
    return st.one_of(st.floats(low, high).map(lambda e: 10.0 ** e),
                     st.floats(10.0 ** low, 10.0 ** high))


@st.composite
def _configs(draw) -> dict:
    num_rrhs = draw(st.integers(1, 10))
    num_users = draw(st.integers(1, 10))
    return dict(
        num_rrhs=num_rrhs,
        num_users=num_users,
        cluster_size=draw(st.integers(1, num_rrhs)),
        antennas_per_rrh=draw(st.integers(1, 3)),
        pilot_count=draw(st.integers(1, num_users + 1)),
        reuse_cap=draw(st.integers(1, num_users + 1)),
        fronthaul_cap=draw(st.integers(1, num_users + 1)),
        area_side=draw(_magnitudes(-3, 6)),
        rrh_power_cap=draw(_magnitudes(-300, 300)),
        pilot_power=draw(_magnitudes(-300, 300)),
        noise_power=draw(_magnitudes(-300, 300)),
        rate_req=draw(st.one_of(st.just(0.0), _magnitudes(-300, 3))),
        pathloss_exponent=draw(st.floats(-200.0, 200.0)),
        pathloss_intercept=draw(st.floats(-3000.0, 3000.0)),
        shadowing_stddev=draw(st.floats(0.0, 1000.0)),
        min_distance=draw(_magnitudes(-6, 6)),
        cluster_by_gain=draw(st.booleans()),
    )


@given(_configs(), st.integers(0, 2 ** 32 - 1), st.sampled_from(ALGORITHMS))
@settings(max_examples=400, deadline=None)
def test_extreme_values_end_in_a_clean_error_or_a_finite_row(fields, seed, algorithm):
    try:
        result = run_trial(SimConfig(**fields), seed, algorithm)
    except ValueError:
        return
    for name in ("min_rate", "mean_rate", "max_rrh_power_mw"):
        assert math.isfinite(getattr(result, name)), name
    assert 0 <= result.stage2_served <= result.stage1_admitted <= fields["num_users"]
