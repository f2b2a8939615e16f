"""Ensemble moments against brute-force quadrature and closed forms."""

import math

import numpy as np
import pytest

from conftest import midpoint_integral

from hierstat import (
    Delta,
    GibbsParams,
    Histogram,
    TwoPoint,
    Uniform,
    ValidationError,
    ensemble_moments,
    fermi_dirac,
    fermi_market_share,
    gentile_mean,
    omega,
)
from hierstat.distributions import _pieces
from hierstat.ensemble import W_MIN
from hierstat.gentile import _kernels


# --- occupancy density -------------------------------------------------------

def test_density_delta_midpoint():
    # activity zero at the atom: half filling, no quadrature involved
    params = GibbsParams(-2.0, 1.0)
    assert ensemble_moments(Delta(2.0), 6, params).n == 3.0


def test_density_two_point_is_atom_sum():
    params = GibbsParams(-1.0, 0.7)
    d = 4
    got = ensemble_moments(TwoPoint(1.0, 3.0, 0.5), d, params).n
    expected = 0.5 * gentile_mean(-1.0 + 0.7 * 1.0, d) \
        + 0.5 * gentile_mean(-1.0 + 0.7 * 3.0, d)
    assert got == pytest.approx(expected, rel=1e-14)


def test_density_uniform_vs_midpoint_oracle():
    params = GibbsParams(-1.5, 1.0)
    got = ensemble_moments(Uniform(1.0, 2.0), 3, params).n
    oracle = midpoint_integral(lambda e: gentile_mean(-1.5 + e, 3), 1.0, 2.0)
    assert got == pytest.approx(oracle, abs=1e-8)


# --- energy per element ------------------------------------------------------

def test_energy_delta_is_minus_point():
    for params in (GibbsParams(-1.0, 1.0), GibbsParams(3.0, 0.2)):
        assert ensemble_moments(Delta(2.5), 5, params).u == -2.5


def test_energy_two_point_closed_form():
    params = GibbsParams(-2.0, 1.0)
    d = 5
    for w in (0.2, 0.5, 0.9):
        f1 = gentile_mean(-2.0 + 1.0, d)
        f2 = gentile_mean(-2.0 + 3.0, d)
        expected = -(1.0 * w * f1 + 3.0 * (1 - w) * f2) / (w * f1 + (1 - w) * f2)
        got = ensemble_moments(TwoPoint(1.0, 3.0, w), d, params).u
        assert got == pytest.approx(expected, rel=1e-13)


def test_energy_bounded_by_support(rng):
    dists = [TwoPoint(1.0, 3.0, 0.4), Uniform(0.5, 2.5),
             Histogram((0.5, 1.5, 3.0), (0.6, 0.4))]
    for _ in range(20):
        params = GibbsParams(float(rng.uniform(-4, 2)), float(rng.uniform(0.2, 3)))
        for dist in dists:
            u = ensemble_moments(dist, 4, params).u
            assert -3.0 - 1e-12 <= u <= -0.5 + 1e-12


# --- omega -------------------------------------------------------------------

def test_omega_delta_at_zero_activity():
    params = GibbsParams(-2.0, 1.0)
    assert omega(Delta(2.0), 6, params) == pytest.approx(math.log(7.0), rel=1e-15)


def test_omega_large_capacity_worked_value():
    # lambda = -2e-4 on a 50000-capacity level
    lam = -2e-4
    params = GibbsParams(lam - 1.0, 1.0)
    got = omega(Delta(1.0), 50_000, params)
    expected = math.log((1 - math.exp(lam * 50_001)) / (-math.expm1(lam)))
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(8.517, abs=5e-4)


def test_omega_vanishes_at_deep_negative_activity():
    params = GibbsParams(-60.0, 1.0)
    assert omega(Delta(1.0), 10, params) == pytest.approx(0.0, abs=1e-20)
    assert omega(Delta(1.0), 10, params) > 0.0


# --- market share ------------------------------------------------------------

def test_market_share_delta_midpoint():
    assert fermi_market_share(Delta(2.0), GibbsParams(2.0, 1.0)) == 0.5


def test_market_share_decreases_with_cost():
    share_cheap = fermi_market_share(Delta(0.5), GibbsParams(2.0, 1.0))
    share_dear = fermi_market_share(Delta(20.0), GibbsParams(2.0, 1.0))
    assert share_cheap > 0.8
    assert share_dear < 1e-6


def test_market_share_symmetric_uniform_is_half():
    # support symmetric around alpha/beta: the shares mirror to 1/2
    alpha, beta = 2.0, 1.0
    got = fermi_market_share(Uniform(0.0, 2 * alpha / beta), GibbsParams(alpha, beta))
    oracle = midpoint_integral(lambda e: fermi_dirac(alpha - beta * e), 0.0, 4.0) / 4.0
    assert got == pytest.approx(0.5, abs=1e-12)
    assert got == pytest.approx(oracle, abs=1e-8)


def _share_oracle(mpmath, dist, alpha, beta):
    """The share at 60 digits.  Over a uniform piece [lo, hi] it is the
    softplus difference (s(alpha - beta lo) - s(alpha - beta hi)) /
    (beta (hi - lo)), s(x) = log(1 + e^x); an atom at eps adds its mass times
    1 / (1 + e^-lambda) at the float activity lambda = alpha - beta eps."""
    with mpmath.workdps(60):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        softplus = lambda x: mpmath.log1p(mpmath.exp(x))
        total = mpmath.mpf(0)
        for lo, hi, mass in _pieces(dist):
            if lo == hi:
                share = 1 / (1 + mpmath.exp(-mpmath.mpf(alpha - beta * lo)))
            else:
                share = ((softplus(a - b * lo) - softplus(a - b * hi))
                         / (b * (mpmath.mpf(hi) - lo)))
            total += mass * share
        return total


def _share_draws():
    """600 fixed draws: (params, Uniform, Histogram with bins 0.01 to 0.5
    wide, TwoPoint, Delta), alpha in [-30, 30], beta log-uniform in [1e-3, 30]."""
    rng = np.random.default_rng(3)
    for _ in range(600):
        alpha = rng.uniform(-30.0, 30.0)
        beta = math.exp(rng.uniform(math.log(1e-3), math.log(30.0)))
        lo, width, e1, e2 = rng.uniform(0.0, 3.0, 4).tolist()
        edges = lo + np.cumsum(np.r_[0.0, rng.uniform(0.01, 0.5, 4)])
        masses = rng.dirichlet(np.ones(4))
        masses[-1] = 1.0 - masses[:-1].sum()
        yield (GibbsParams(float(alpha), beta), Uniform(lo, lo + 0.05 + width),
               Histogram(tuple(edges.tolist()), tuple(masses.tolist())),
               TwoPoint(e1, e2, float(rng.uniform(0.05, 0.95))), Delta(e1))


def test_market_share_matches_a_60_digit_oracle():
    # measured worst cases over these draws: Uniform 1.1e-15 and Histogram
    # 7.9e-16 relative (6.8e-15 and 6.1e-15 on the former scalar quadrature),
    # TwoPoint 1.9 and Delta 2.1 ulp; most histogram bins are narrower than
    # W_MIN in activity and take the quadrature fallback
    mpmath = pytest.importorskip("mpmath")
    narrow = 0
    for params, uniform, hist, two_point, delta in _share_draws():
        a, b = params.alpha, params.beta
        for dist in (uniform, hist):
            oracle = _share_oracle(mpmath, dist, a, b)
            error = abs(fermi_market_share(dist, params) - oracle)
            assert error <= 2e-15 * oracle, (dist, a, b, error / oracle)
        for dist in (two_point, delta):
            oracle = float(_share_oracle(mpmath, dist, a, b))
            ulps = abs(fermi_market_share(dist, params) - oracle) / math.ulp(oracle)
            assert ulps <= 4.0, (dist, a, b, ulps)
        narrow += sum(b * (hi - lo) < W_MIN for lo, hi, _ in _pieces(hist))
    assert narrow > 1000


@pytest.mark.parametrize("alpha", [-1.0, 0.5])
def test_market_share_over_a_wide_bin(alpha):
    # the bin [1, 1e10] adds about 1e-11 to the share; a first K21 panel
    # over it sees only zeros, so the former quadrature returned exactly
    # 0.25 at alpha = 0.5; the closed form is within 1.2e-16 here
    mpmath = pytest.importorskip("mpmath")
    hist = Histogram((0.0, 1.0, 1e10), (0.5, 0.5))
    oracle = _share_oracle(mpmath, hist, alpha, 1.0)
    assert abs(fermi_market_share(hist, GibbsParams(alpha, 1.0)) - oracle) <= 2e-15 * oracle


# --- generating identity -----------------------------------------------------

def test_omega_activity_derivative_is_occupancy():
    d = 7
    eps0 = 1.2
    h = 1e-5
    for lam in np.linspace(-4.0, 3.0, 50):
        alpha = float(lam) - eps0
        hi = omega(Delta(eps0), d, GibbsParams(alpha + h, 1.0))
        lo = omega(Delta(eps0), d, GibbsParams(alpha - h, 1.0))
        fd = (hi - lo) / (2 * h)
        assert fd == pytest.approx(gentile_mean(float(lam), d), rel=1e-6)


# --- quadrature vs dense oracle ----------------------------------------------

def _midpoint_n_and_omega(params, d, a, b, n):
    """``midpoint_integral`` over [a, b] of gentile_mean and of log_partition
    at activity alpha + beta e: the same nodes and sums, but f and log Z
    come from one fused kernel call per node."""
    h = (b - a) / n
    xs = a + h * (np.arange(n) + 0.5)
    nodes = [_kernels(float(params.alpha + params.beta * x), d) for x in xs]
    return float(sum(k[0] for k in nodes) * h), float(sum(k[2] for k in nodes) * h)


def test_all_variants_match_midpoint_oracle(rng):
    continuous = [Uniform(0.5, 2.5),
                  Histogram((0.0, 1.0, 2.0, 4.0), (0.2, 0.5, 0.3))]
    d = 4
    n_oracle = 20_000  # keeps the midpoint bias well below the 1e-8 gate
    for _ in range(25):
        params = GibbsParams(float(rng.uniform(-4, 2)), float(rng.uniform(0.2, 2.5)))
        for dist in continuous:
            got_n = ensemble_moments(dist, d, params).n
            got_o = omega(dist, d, params)
            if isinstance(dist, Uniform):
                width = dist.upper - dist.lower
                on, oo = (x / width for x in _midpoint_n_and_omega(
                    params, d, dist.lower, dist.upper, n_oracle))
            else:
                parts = [(m / (b - a), _midpoint_n_and_omega(params, d, a, b, n_oracle))
                         for a, b, m in zip(dist.edges, dist.edges[1:], dist.masses)]
                on = sum(w * n for w, (n, _) in parts)
                oo = sum(w * o for w, (_, o) in parts)
            assert got_n == pytest.approx(on, rel=1e-8)
            assert got_o == pytest.approx(oo, rel=1e-8)


# --- shape properties ----------------------------------------------------------

def test_density_and_omega_monotone_in_alpha(rng):
    dist = TwoPoint(1.0, 3.0, 0.4)
    d = 5
    for _ in range(10):
        beta = float(rng.uniform(0.2, 2.0))
        alphas = np.linspace(-5, 1, 15)
        ns = [ensemble_moments(dist, d, GibbsParams(float(a), beta)).n for a in alphas]
        oms = [omega(dist, d, GibbsParams(float(a), beta)) for a in alphas]
        assert all(b > a for a, b in zip(ns, ns[1:]))
        assert all(b > a for a, b in zip(oms, oms[1:]))


def test_outputs_continuous_across_activity_crossing():
    # alpha near -beta*eps for eps inside the support: lambda changes sign
    dist = Uniform(0.5, 2.0)
    d = 3
    base = -1.25
    values = []
    for da in (-1e-7, 0.0, 1e-7):
        params = GibbsParams(base + da, 1.0)
        mom = ensemble_moments(dist, d, params)
        values.append((mom.n, mom.u, mom.omega))
    for left, mid in ((values[0], values[1]), (values[1], values[2])):
        for a, b in zip(left, mid):
            assert abs(a - b) < 1e-5 * max(1.0, abs(a))


def test_moment_bundle_consistent():
    dist = Uniform(1.0, 2.0)
    params = GibbsParams(-1.2, 0.9)
    mom = ensemble_moments(dist, 4, params)
    assert mom.omega == pytest.approx(omega(dist, 4, params), rel=1e-12)
    assert 0.0 < mom.n < 4 and mom.omega > 0.0


def test_moment_pass_makes_one_kernel_call_per_node(monkeypatch):
    # deterministic work counts: a piece 2 wide in activity takes the closed
    # form, one fused (f, f', log Z) evaluation at each end; a piece narrower
    # than W_MIN with no grading point inside, lambda in [-1.5, -1.4] at
    # d = 9, takes one panel of the graded rule, one evaluation per node
    import hierstat.ensemble as ensemble
    calls = []
    real = ensemble._kernels

    def counted(lam, d):
        calls.append(lam)
        return real(lam, d)

    monkeypatch.setattr(ensemble, "_kernels", counted)
    ensemble.moment_integrals(Uniform(0.5, 2.5), 9, GibbsParams(-2.0, 1.0))
    assert len(calls) == 2
    calls.clear()
    ensemble.moment_integrals(Uniform(0.5, 0.6), 9, GibbsParams(-2.0, 1.0))
    assert 0.1 < ensemble.W_MIN and len(calls) == 12


def test_narrow_piece_converts_its_ends_to_activity_once(monkeypatch):
    # the moment pass corrects the two ends of a piece once and hands them to
    # both the closed form (which declines a piece below W_MIN) and the rule
    import hierstat.ensemble as ensemble
    calls = []
    real = ensemble._activity

    def counted(a, b, eps):
        calls.append(eps)
        return real(a, b, eps)

    monkeypatch.setattr(ensemble, "_activity", counted)
    ensemble.moment_integrals(Uniform(0.5, 0.6), 9, GibbsParams(-2, 1))
    assert calls == [0.5, 0.6]


@pytest.mark.parametrize("dist, alpha", [(Uniform(0.5, 2.5), -760.0),
                                         (TwoPoint(1.0, 3.0, 0.5), -800.0)])
def test_underflowed_occupancy_is_a_validation_error(dist, alpha):
    # n underflows to 0.0; the check runs before u = -m1 / n is formed
    with pytest.raises(ValidationError) as err:
        ensemble_moments(dist, 9, GibbsParams(alpha, 1.0))
    assert f"alpha={alpha!r}, beta=1.0" in str(err.value)
    assert str(err.value).startswith("occupancy density 0.0 outside (0, 9) ")
    assert str(err.value).endswith(": underflowed")


def test_saturated_occupancy_is_refused_with_its_cause():
    # the level is full to double precision, so n rounds to d or, through the
    # graded rule's weights, just above it: outside (0, d), and said so
    with pytest.raises(ValidationError, match=r"^occupancy density 9\.000000000000002 "
                       r"outside \(0, 9\) at alpha=-1\.0, beta=1\.0: "
                       r"saturated to double precision$"):
        ensemble_moments(Uniform(0, 1e300), 9, GibbsParams(-1, 1))


@pytest.mark.parametrize("alpha, beta", [(-7.4073663903078, 3.6491958186739293),
                                         (-2.7326, 4.6923)])
def test_forward_moments_at_a_million_positions(alpha, beta):
    # activity widths of about 7 and 9 take the closed form; the quadrature
    # could not meet its per-panel tolerance here
    mom = ensemble_moments(Uniform(0.5, 2.5), 10**6, GibbsParams(alpha, beta))
    assert 0.0 < mom.n < 10**6
