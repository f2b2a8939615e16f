"""Single-level statistics: worked values, limits and closed-form identities."""

import math
import sys
import warnings

import numpy as np
import pytest

from hierstat import (
    EnergySign,
    GibbsParams,
    OccupancyLevel,
    TwoPoint,
    ValidationError,
    activity,
    activity_for_mean,
    bose_einstein,
    ensemble_moments,
    eos_sweep,
    fermi_dirac,
    gentile_mean,
    gentile_mean_direct,
    gentile_mean_dlambda,
    log_partition,
    occupancy_probabilities,
    partition,
)
from hierstat.gentile import _kernels


# --- activity --------------------------------------------------------------

def test_activity_zero_scale_matches_alpha():
    level = OccupancyLevel(1, 0.0, EnergySign.COST)
    lam = activity(level, GibbsParams(0.7, 2.0))
    assert type(lam) is float and lam == 0.7


def test_activity_cost_convention():
    level = OccupancyLevel(3, 2.0, EnergySign.COST)
    assert float(activity(level, GibbsParams(1.0, 1.0))) == -1.0


def test_activity_salary_convention():
    level = OccupancyLevel(3, 2.0, EnergySign.SALARY)
    assert float(activity(level, GibbsParams(-5.0, 1.0))) == -3.0


@pytest.mark.parametrize("sign", list(EnergySign))
def test_activity_overflow_names_the_inputs(sign):
    level = OccupancyLevel(3, 2.0, sign)
    with pytest.raises(ValidationError) as err:
        activity(level, GibbsParams(-3.0, 1e308))
    message = str(err.value)
    assert "alpha=-3.0" in message and "beta=1e+308" in message
    assert "money_scale=2.0" in message


# --- partition sum ---------------------------------------------------------

def test_partition_capacity_one_at_zero():
    assert partition(0.0, 1) == 2.0


def test_partition_worked_value():
    expected = 1 + math.exp(-1) + math.exp(-2) + math.exp(-3)
    assert partition(-1.0, 3) == pytest.approx(expected, rel=1e-15)
    assert round(partition(-1.0, 3), 4) == 1.5530


def test_partition_zero_activity_is_exact():
    assert partition(0.0, 5) == 6.0


def test_partition_overflow_guard_and_log_variant():
    with pytest.raises(OverflowError):
        partition(2.0, 1000)
    # log variant stays usable far past the overflow point
    expected = 2.0 * 1000 - math.log1p(-math.exp(-2.0))
    assert log_partition(2.0, 1000) == pytest.approx(expected, rel=1e-12)


def test_log_partition_matches_direct_sum():
    rng = np.random.default_rng(1)
    for _ in range(50):
        d = int(rng.integers(1, 200))
        lam = float(rng.uniform(-5, 5))
        r = np.arange(d + 1)
        direct = math.log(np.exp(lam * r - max(lam * d, 0.0)).sum()) + max(lam * d, 0.0)
        assert log_partition(lam, d) == pytest.approx(direct, rel=1e-12)


# --- occupation probabilities ----------------------------------------------

def test_pmf_uniform_at_zero_activity():
    assert occupancy_probabilities(0.0, 1) == pytest.approx([0.5, 0.5], abs=1e-15)
    assert occupancy_probabilities(0.0, 2) == pytest.approx([1 / 3] * 3, abs=1e-15)


def test_pmf_geometric_weights():
    p = occupancy_probabilities(math.log(2.0), 2)
    assert p == pytest.approx([1 / 7, 2 / 7, 4 / 7], rel=1e-14)


@pytest.mark.parametrize("d", [1, 2, 10, 1000])
def test_pmf_normalization(d):
    for lam in np.linspace(-50, 50, 21):
        p = occupancy_probabilities(float(lam), d)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p >= 0.0) and np.all(p <= 1.0)


@pytest.mark.parametrize("lam", [1e308, -1e308])
def test_pmf_and_direct_mean_at_huge_activity(lam):
    # lambda r overflows for r >= 2: the exponent is formed relative to the
    # largest weight, so the answer is one-hot and nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = occupancy_probabilities(lam, 2)
        direct = gentile_mean_direct(lam, 2)
    assert p.tolist() == ([0.0, 0.0, 1.0] if lam > 0 else [1.0, 0.0, 0.0])
    assert np.all(np.isfinite(p)) and p.sum() == 1.0
    assert direct == (2.0 if lam > 0 else 0.0)


# --- the grid helper ---------------------------------------------------------

def _grid_cases():
    """(start, stop, num): edge cases, the CLI default and every figure grid."""
    from hierstat.figures import EOS_D_VALUES, _solve_omega
    tiny = 5e-324
    cases = [(-2.0, 3.0, 1), (4.0, 4.0, 1), (4.0, 4.0, 6), (-0.0, -0.0, 3), (-0.0, 0.0, 2),
             (0.0, -0.0, 1), (-0.0, 1.0, 1), (-0.0, 1.0, 7), (-1.0, -0.0, 5),
             (-tiny, tiny, 9), (-1e-320, 3e-321, 17), (0.0, 4 * tiny, 1000),
             (1.0, 1.0 + 2.2e-16, 50), (-1e-300, -1e-300 + 1e-316, 64),
             (-10.0, 10.0, 401), (0.0, 10.0, 201)]
    for d in EOS_D_VALUES:
        cases.append((activity_for_mean(d, 1e-3), activity_for_mean(d, 0.99 * d), 301))
        log_dp1 = math.log1p(d)
        cases.append((_solve_omega(d, log_dp1 / 2.0), _solve_omega(d, log_dp1 / 0.4), 301))
    return cases


@pytest.mark.parametrize("start, stop, num", _grid_cases())
def test_grid_matches_numpy_bit_for_bit(start, stop, num):
    from hierstat.gentile import _grid
    ref = np.linspace(start, stop, num)
    assert np.array(_grid(start, stop, num)).tobytes() == ref.tobytes()
    with_zero = np.unique(np.concatenate([ref, [0.0]]))
    assert np.array(_grid(start, stop, num, zero=True)).tobytes() == with_zero.tobytes()


# --- mean occupation -------------------------------------------------------

def test_mean_capacity_one_is_fermi_dirac():
    for lam in np.linspace(-30, 30, 101):
        assert gentile_mean(float(lam), 1) == pytest.approx(
            fermi_dirac(float(lam)), abs=1e-15)


def test_mean_worked_value():
    assert gentile_mean(-1.0, 3) == pytest.approx(0.787911 / 1.553002, abs=5e-7)
    assert round(gentile_mean(-1.0, 3), 5) == 0.50735


def test_mean_midpoint_is_half_capacity():
    for d in (1, 2, 7, 10, 50, 50000):
        assert gentile_mean(0.0, d) == d / 2


def test_mean_matches_pmf_first_moment():
    rng = np.random.default_rng(2)
    for _ in range(40):
        d = int(rng.integers(1, 500))
        lam = float(rng.uniform(-8, 8))
        p = occupancy_probabilities(lam, d)
        mean_from_pmf = float(np.arange(d + 1) @ p)
        assert gentile_mean(lam, d) == pytest.approx(mean_from_pmf, rel=1e-10)


def test_mean_closed_form_vs_direct_sum():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 200:
        d = int(rng.integers(1, 10_001))
        lam = float(rng.uniform(-20, 20))
        if abs(lam) < 1e-6:
            continue
        assert gentile_mean(lam, d) == pytest.approx(
            gentile_mean_direct(lam, d), rel=1e-10)
        checked += 1


def test_mean_series_branch_against_direct_sum():
    # activities small enough that the series branch is active
    rng = np.random.default_rng(4)
    for _ in range(50):
        d = int(rng.integers(5, 2000))
        lam = float(rng.uniform(-1, 1)) * 0.5e-4 / (d + 1)
        assert gentile_mean(lam, d) == pytest.approx(
            gentile_mean_direct(lam, d), rel=1e-10)


def _oracle_kernels(mpmath, lam, d):
    """log Z, mean and variance of r at activity lambda by 50-digit direct sums."""
    with mpmath.workdps(50):
        q = mpmath.exp(mpmath.mpf(lam))
        w = [mpmath.mpf(1)]
        for _ in range(d):
            w.append(w[-1] * q)
        z = mpmath.fsum(w)
        mean = mpmath.fsum(r * wr for r, wr in enumerate(w)) / z
        var = mpmath.fsum((r - mean) ** 2 * wr for r, wr in enumerate(w)) / z
        return mpmath.log(z), mean, var


@pytest.mark.parametrize("d", [1, 2, 9, 100])
def test_kernels_against_mpmath_oracle(d):
    # both sides of the series switch and of the old cutoffs at 1e-4 and
    # 1e-2, where the closed forms used to lose digits to cancellation
    mpmath = pytest.importorskip("mpmath")
    ulp = 2.0 ** -52
    xs = list(np.geomspace(1e-7, 30.0, 120))
    for centre in (1e-4, 1e-2, 1.0, 2.0):
        xs.extend(centre * np.linspace(0.95, 1.05, 41))
    worst = {}
    for x in xs:
        for lam in (-x / (d + 1), x / (d + 1)):
            exact = _oracle_kernels(mpmath, lam, d)
            got = (log_partition(lam, d), gentile_mean(lam, d),
                   gentile_mean_dlambda(lam, d))
            for name, g, e in zip(("log_partition", "gentile_mean",
                                   "gentile_mean_dlambda"), got, exact):
                err = float(abs((mpmath.mpf(g) - e) / e)) / ulp
                if err > worst.get(name, (0.0,))[0]:
                    worst[name] = (err, lam)
    too_far = {name: f"{err:.1f} ulp at lambda={lam!r}"
               for name, (err, lam) in worst.items() if err > 32}
    assert not too_far, f"d={d}: {too_far}"


def test_variance_where_the_capacity_squared_overflows():
    # above d ~ 1.3e154, (d + 1)^2 overflows where e^{-|lambda| (d + 1)}
    # underflows; the second term of f' is 0.0 there, not inf * 0.0 = nan
    mpmath = pytest.importorskip("mpmath")
    for d in (10**155, 10**200, 10**300):
        with mpmath.workdps(50):
            q, qd = mpmath.exp(-5), mpmath.exp(-5 * mpmath.mpf(d + 1))
            exact = q / (1 - q) ** 2 - mpmath.mpf(d + 1) ** 2 * qd / (1 - qd) ** 2
        for lam in (-5.0, 5.0):
            got = gentile_mean_dlambda(lam, d)
            assert float(abs((mpmath.mpf(got) - exact) / exact)) <= 4 * 2.0 ** -52, (d, lam, got)


def _oracle_closed(mpmath, lam, d):
    """log Z, mean and variance at activity lambda from the closed forms in
    80 digits, for capacities too large to sum."""
    with mpmath.workdps(80):
        a, dd = abs(mpmath.mpf(lam)), mpmath.mpf(d) + 1
        if lam == 0:
            return mpmath.log(dd), dd / 2 - mpmath.mpf(0.5), (dd ** 2 - 1) / 12
        logz = mpmath.log(-mpmath.expm1(-a * dd)) - mpmath.log(-mpmath.expm1(-a))
        mean = 1 / mpmath.expm1(a) - dd / mpmath.expm1(a * dd)
        var = (mpmath.exp(a) / mpmath.expm1(a) ** 2
               - dd ** 2 * mpmath.exp(a * dd) / mpmath.expm1(a * dd) ** 2)
        if lam > 0:
            return logz + a * d, d - mean, var
        return logz, mean, var


def _relative_ulp(mpmath, got, exact):
    return float(abs((mpmath.mpf(got) - exact) / exact)) / 2.0 ** -52


def _rounded_or_within(mpmath, got, exact, ulps):
    """got equals the double nearest exact where that is 0.0 or inf, and is
    within ulps of exact otherwise."""
    rounded = float(exact)
    if rounded == 0.0 or math.isinf(rounded):
        return got == rounded
    return _relative_ulp(mpmath, got, exact) <= ulps


@pytest.mark.parametrize("d", [10**154, 10**155, 10**163, 10**200, 10**300,
                               int(sys.float_info.max)],
                         ids=["1e154", "1e155", "1e163", "1e200", "1e300", "max"])
def test_kernels_above_two_to_the_500(d):
    # above d + 1 = 2**500 the kernels factor d + 1 out: without it the
    # series f' overflows to -inf (from d = 1e154), the closed f' meets
    # inf - inf or inf * 0 (from 1e155), (1 - e^-|lambda|)^2 underflows to a
    # division by zero (from ~1e163) and the series f overflows at the
    # largest double.  Bounds stated before the run: f and log Z within 4
    # ulp, f' within the module's ten, and f' = +inf exactly where the exact
    # value is above the largest double
    mpmath = pytest.importorskip("mpmath")
    for x in (1e-6, 0.5, 1.99, 2.01, 5.0, 40.0, 700.0, 1e5):
        for lam in (-x / (d + 1.0), x / (d + 1.0)):
            logz, mean, var = _oracle_closed(mpmath, lam, d)
            f, fp, log_z = _kernels(lam, d)
            assert _relative_ulp(mpmath, f, mean) <= 4, (x, lam, f)
            assert _relative_ulp(mpmath, log_z, logz) <= 4, (x, lam, log_z)
            if var > sys.float_info.max:
                assert fp == math.inf, (x, lam, fp)
            else:
                assert _relative_ulp(mpmath, fp, var) <= 10, (x, lam, fp)
    # where lambda (d + 1) itself overflows, t = inf meets e^-t = 0.0 and
    # must not give inf * 0.0 = nan: each value is the double nearest the
    # closed form where that is 0.0 or inf, and within the bounds above
    # otherwise, and the public f' is the kernels' one
    for big in (4.0 * (sys.float_info.max / (d + 1.0)), 1e9, 1e109):
        if not math.isinf(big * (d + 1.0)):
            continue
        for lam in (-big, big):
            logz, mean, var = _oracle_closed(mpmath, lam, d)
            f, fp, log_z = _kernels(lam, d)
            assert _rounded_or_within(mpmath, f, mean, 4), (lam, f)
            assert _rounded_or_within(mpmath, fp, var, 10), (lam, fp)
            assert _rounded_or_within(mpmath, log_z, logz, 4), (lam, log_z)
            assert gentile_mean_dlambda(lam, d) == fp, lam


def _public_at_1e200(mpmath, call):
    """(value, 80-digit closed form) pairs of one public call at capacity 1e200."""
    d = 10**200
    if call == "gentile_mean":
        return [(gentile_mean(-1e-170, d), _oracle_closed(mpmath, -1e-170, d)[1])]
    if call == "log_partition":
        return [(log_partition(-1e-170, d), _oracle_closed(mpmath, -1e-170, d)[0])]
    if call == "eos_sweep":
        table = eos_sweep(d, [-1e-199, -1e-198])
        exact = [_oracle_closed(mpmath, lam, d) for lam in table.lam]
        return list(zip(table.n_over_d + table.p_over_T,
                        [e[1] / d for e in exact] + [e[0] for e in exact]))
    # half the companies at activity alpha + beta * 1, half at alpha + beta * 3
    params = GibbsParams(-3e-200, 1e-200)
    mom = ensemble_moments(TwoPoint(1.0, 3.0, 0.5), d, params)
    (z1, n1, _), (z3, n3, _) = (_oracle_closed(mpmath, params.alpha + params.beta * eps, d)
                                for eps in (1.0, 3.0))
    n = (n1 + n3) / 2
    return [(mom.n, n), (mom.u, -(n1 + 3 * n3) / 2 / n), (mom.omega, (z1 + z3) / 2)]


@pytest.mark.parametrize("call", ["gentile_mean", "log_partition", "eos_sweep",
                                  "ensemble_moments"])
def test_public_kernels_at_capacity_1e200(call):
    # calls that divided by an underflowed (1 - e^-|lambda|)^2; bound stated
    # before the run: each value within 1e-13 of its 80-digit closed form
    mpmath = pytest.importorskip("mpmath")
    for got, exact in _public_at_1e200(mpmath, call):
        assert float(abs((mpmath.mpf(got) - exact) / exact)) <= 1e-13, (got, exact)


def _switch_pair(d):
    """The largest lambda > 0 with lambda (d+1) below the series cutoff, and
    the next double up, on the closed-form side."""
    dd = d + 1.0
    lam = 2.0 / dd
    while lam * dd >= 2.0:
        lam = math.nextafter(lam, 0.0)
    while math.nextafter(lam, math.inf) * dd < 2.0:
        lam = math.nextafter(lam, math.inf)
    return lam, math.nextafter(lam, math.inf)


def test_kernel_bits_pinned():
    # every bit of (f, f', log Z) on both branches, both sides of the switch
    # and at the extremes of the double range; recorded once, never re-recorded
    import hashlib
    records = []
    for d in (1, 2, 9, 100, 10**6, 2**60 + 1):
        magnitudes = _switch_pair(d) + (5e-324, 1e-300, 0.5, 30.0, 700.0, 1e308)
        for lam in [s * m for m in magnitudes for s in (-1.0, 1.0)]:
            records.append(repr((gentile_mean(lam, d), gentile_mean_dlambda(lam, d),
                                 log_partition(lam, d))))
    assert len(records) == 96
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "0180d55038edfb853824d038e63f38e6b4197d969122273b9cd2270ac8650f3c"


def _bernoulli_ratios_by_recurrence():
    """B_2k / (2k)! for k = 1 .. 18 as Fractions, from the recurrence
    sum_{j<=m} C(m+1, j) B_j = 0 with B_0 = 1."""
    from fractions import Fraction
    bern = [Fraction(1)]
    for m in range(1, 37):
        bern.append(-sum(math.comb(m + 1, k) * bern[k] for k in range(m)) / (m + 1))
    return [bern[2 * k] / math.factorial(2 * k) for k in range(1, 19)]


def test_series_coefficients_match_exact_fractions():
    # the literal table and the int / int roundings against Fractions built
    # here: float(Fraction) rounds correctly, as int / int does
    from fractions import Fraction
    from hierstat.gentile import (_BERNOULLI_RATIOS, _LI2_COEFFICIENTS, _SERIES_TERMS,
                                  _series_coefficients)
    ratios = _bernoulli_ratios_by_recurrence()
    assert [Fraction(*pair) for pair in _BERNOULLI_RATIOS] == ratios
    assert all(math.gcd(*pair) == 1 for pair in _BERNOULLI_RATIOS)
    assert len(ratios) == _SERIES_TERMS
    assert _LI2_COEFFICIENTS == tuple(float(c / ((2 * k) * (2 * k + 1)))
                                      for k, c in reversed(list(enumerate(ratios, 1))))
    for d in (1, 2, 3, 9, 100, 12345, 10**6, 2**60 + 1, 10**15, 10**40):
        q = Fraction(1, (d + 1) ** 2)
        t = [b * (1 - q ** k) for k, b in enumerate(ratios, 1)]
        mean = [float(c) for c in reversed(t)]
        var = [0.0] + [float((2 * k - 1) * t[k - 1]) for k in range(18, 1, -1)]
        logz = [float(t[k - 1] / (2 * k)) for k in range(18, 0, -1)]
        assert _series_coefficients(d) == tuple(zip(mean, var, logz)), d


def test_particle_hole_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(100):
        d = int(rng.integers(1, 5000))
        lam = float(rng.uniform(-30, 30))
        assert abs(gentile_mean(lam, d) + gentile_mean(-lam, d) - d) \
            <= 1e-9 * max(1.0, d)


def test_mean_monotone_and_bounded():
    # strict growth where doubles can still resolve it; at |lambda| ~ 40
    # the value saturates to the boundary within machine precision
    for d in (1, 3, 40):
        lams = np.linspace(-25, 25, 401)
        vals = [gentile_mean(float(l), d) for l in lams]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v < d for v in vals)
        wide = [gentile_mean(float(l), d) for l in np.linspace(-40, 40, 81)]
        assert all(0.0 <= v <= d for v in wide)


def test_mean_derivative_matches_finite_difference():
    rng = np.random.default_rng(6)
    for _ in range(40):
        d = int(rng.integers(1, 300))
        lam = float(rng.uniform(-4, 4))
        h = 1e-6 * max(1.0, abs(lam))
        fd = (gentile_mean(lam + h, d) - gentile_mean(lam - h, d)) / (2 * h)
        assert gentile_mean_dlambda(lam, d) == pytest.approx(fd, rel=1e-5, abs=1e-12)
    assert gentile_mean_dlambda(0.0, 10) == 10 * 12 / 12


# --- limits ----------------------------------------------------------------

def test_fermi_dirac_values():
    assert fermi_dirac(0.0) == 0.5
    assert fermi_dirac(-2.0) == pytest.approx(1 / (math.e ** 2 + 1), rel=1e-15)
    assert round(fermi_dirac(-2.0), 5) == 0.11920
    assert fermi_dirac(-800.0) == 0.0  # saturates without overflow
    assert fermi_dirac(800.0) == 1.0


def test_bose_einstein_values():
    assert bose_einstein(-math.log(2.0)) == pytest.approx(1.0, rel=1e-15)
    assert bose_einstein(-1.0) == pytest.approx(1 / (math.e - 1), rel=1e-15)
    assert round(bose_einstein(-1.0), 5) == 0.58198


def test_bose_einstein_domain_error():
    with pytest.raises(ValidationError):
        bose_einstein(0.0)
    with pytest.raises(ValidationError):
        bose_einstein(0.3)


def test_bose_einstein_limit_monotone_in_capacity():
    # the gap decays like (d+1) e^{lambda (d+1)}, which can underflow to
    # an exact 0 at the large-capacity end
    for lam in (-0.1, -0.5, -2.0):
        be = bose_einstein(lam)
        gaps = [abs(gentile_mean(lam, d) - be) for d in (10, 100, 1000)]
        assert gaps[0] > gaps[1] >= gaps[2]
        assert gaps[2] <= 1e-12 * be or gaps[1] > gaps[2]


def test_bose_einstein_convergence_rate_documented():
    # near-zero activity needs a very large capacity before the unbounded
    # form is a 1% approximation
    lam = -1e-4
    be = bose_einstein(lam)
    assert abs(gentile_mean(lam, 50_000) - be) / be >= 0.01
    assert abs(gentile_mean(lam, 10 ** 6) - be) / be < 0.01


# --- inverse ---------------------------------------------------------------

def test_activity_for_mean_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(30):
        d = int(rng.integers(1, 3000))
        lam = float(rng.uniform(-6, 6))
        target = gentile_mean(lam, d)
        assert activity_for_mean(d, target) == pytest.approx(lam, abs=1e-9)
    with pytest.raises(ValidationError):
        activity_for_mean(5, 5.0)


def test_activity_estimate_within_its_bound():
    # the inverse problem's start: a closed form exact at n = d/2 and two
    # Newton steps, within 6.3e-3 / d of the root for every d >= 2 (worst
    # measured 3.14e-3 at d = 2, n = 0.065), on a grid of fillings and the
    # nearly empty and nearly full ends
    from hierstat.gentile import _activity_estimate
    for d in (2, 3, 5, 9, 20, 50, 200, 1000, 10**4, 10**6):
        targets = [k / 400 * d for k in range(1, 400)]
        targets += [1e-6 * d, 1e-3, d - 1e-3, d * (1 - 1e-6)]
        for n in targets:
            assert abs(_activity_estimate(d, n) - activity_for_mean(d, n)) <= 6.3e-3 / d, (d, n)


def _brent_problems():
    """(kernel, d, target): the figure 5/6/7 targets plus a seeded grid."""
    from hierstat.figures import EOS_D_VALUES

    problems = []
    for d in EOS_D_VALUES:
        log_dp1 = math.log1p(d)
        problems += [(gentile_mean, d, 1e-3), (gentile_mean, d, 0.99 * d),
                     (log_partition, d, log_dp1 / 2.0), (log_partition, d, log_dp1 / 0.4)]
    rng = np.random.default_rng(11)
    for d in [1, 2, 3, 9, 100, 60000, *rng.integers(1, 60001, 8).tolist()]:
        for u in rng.uniform(0.0, 1.0, 10):
            problems.append((gentile_mean, d, float(u) * d))
            problems.append((log_partition, d, float(u) * 6.0 * math.log1p(d)))
    # tiny targets: brentq.c's extrapolation denominator underflows to zero
    for d in (1, 5, 1000, 10**6):
        problems += [(gentile_mean, d, t) for t in (1e-300, 1e-250, 1e-200, 1e-150, 1e-110)]
    return problems


def test_brent_port_bit_identical_to_scipy():
    from scipy.optimize import brentq

    from hierstat.gentile import _increasing_root

    for kernel, d, target in _brent_problems():
        func = lambda lam: kernel(lam, d)  # noqa: E731
        lo, hi = -1.0, 1.0  # the port's bracket expansion
        while func(lo) >= target:
            lo *= 2.0
        while func(hi) <= target:
            hi *= 2.0
        ref = brentq(lambda lam: func(lam) - target, lo, hi,
                     xtol=1e-15, rtol=8.882e-16, maxiter=200)
        got = _increasing_root(func, target)
        assert got.hex() == ref.hex(), (kernel.__name__, d, target)


# --- validation ---------------------------------------------------------------

def test_type_invariants_enforced():
    with pytest.raises(ValidationError):
        OccupancyLevel(0, 1.0)
    with pytest.raises(ValidationError):
        OccupancyLevel(2, -1.0)
    with pytest.raises(ValidationError):
        GibbsParams(0.0, 0.0)
    with pytest.raises(ValidationError):
        GibbsParams(0.0, -1.0)
    with pytest.raises(ValidationError):
        activity(OccupancyLevel(1, 1e308), GibbsParams(0.0, 1e308))
    with pytest.raises(ValidationError):
        gentile_mean(math.nan, 3)
