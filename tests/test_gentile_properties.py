"""Property checks of the Gentile kernels (hypothesis, derandomized).

Exact-arithmetic identities are checked to a few ulp of floating point:
the complement identity, monotonicity with a positive variance, the open
range (0, d), and continuity where the kernels switch from the Bernoulli
series to the closed forms at |lambda| (d + 1) = SERIES_CUTOFF.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from hierstat import gentile_mean, gentile_mean_dlambda, log_partition
from hierstat.gentile import SERIES_CUTOFF

_settings = settings(derandomize=True, database=None, max_examples=300, deadline=None)

capacities = st.integers(min_value=1, max_value=10 ** 6)
small_capacities = st.integers(min_value=1, max_value=10 ** 4)
# beyond |lambda| ~ 700 the variance underflows to an exact 0
activities = st.floats(min_value=-700.0, max_value=700.0, allow_nan=False)


@_settings
@given(lam=activities, d=capacities)
def test_complement_identity(lam, d):
    assert abs(gentile_mean(lam, d) + gentile_mean(-lam, d) - d) <= 2 * math.ulp(d)


@_settings
@given(lam=activities, step=st.floats(min_value=1e-9, max_value=10.0), d=capacities)
def test_mean_increasing_with_positive_variance(lam, step, d):
    assert gentile_mean(lam, d) <= gentile_mean(lam + step, d)
    assert gentile_mean_dlambda(lam, d) > 0.0


@_settings
@given(lam=st.floats(min_value=-20.0, max_value=20.0), d=small_capacities)
def test_mean_inside_open_range(lam, d):
    # at |lambda| <= 20 the distance to either end, about e^-20, stays
    # above half an ulp of d for every d up to 1e4
    assert 0.0 < gentile_mean(lam, d) < d


def _switch_point(d: int) -> float:
    """Smallest lambda > 0 served by the closed forms."""
    lam = SERIES_CUTOFF / (d + 1.0)
    while lam * (d + 1.0) < SERIES_CUTOFF:
        lam = math.nextafter(lam, math.inf)
    while math.nextafter(lam, 0.0) * (d + 1.0) >= SERIES_CUTOFF:
        lam = math.nextafter(lam, 0.0)
    return lam


@_settings
@given(d=capacities, sign=st.sampled_from([1.0, -1.0]))
def test_kernels_continuous_across_series_switch(d, sign):
    # one ulp of lambda moves each kernel by well under one ulp, so the
    # step from the last series point to the first closed-form point is
    # their disagreement; measured at most 4 (mean), 14 (variance) and
    # 2 (log Z) ulp over d <= 200
    closed = sign * _switch_point(d)
    series = math.nextafter(closed, 0.0)
    assert abs(series * (d + 1.0)) < SERIES_CUTOFF <= abs(closed * (d + 1.0))
    for kernel in (gentile_mean, gentile_mean_dlambda, log_partition):
        a, b = kernel(closed, d), kernel(series, d)
        assert abs(a - b) <= 16 * math.ulp(b), kernel.__name__
