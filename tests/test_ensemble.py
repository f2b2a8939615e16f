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
    log_partition,
    omega,
)


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
                on = midpoint_integral(
                    lambda e: gentile_mean(params.alpha + params.beta * e, d),
                    dist.lower, dist.upper, n_oracle) / width
                oo = midpoint_integral(
                    lambda e: log_partition(params.alpha + params.beta * e, d),
                    dist.lower, dist.upper, n_oracle) / width
            else:
                on = sum(m / (b - a) * midpoint_integral(
                    lambda e: gentile_mean(params.alpha + params.beta * e, d),
                    a, b, n_oracle)
                    for a, b, m in zip(dist.edges, dist.edges[1:], dist.masses))
                oo = sum(m / (b - a) * midpoint_integral(
                    lambda e: log_partition(params.alpha + params.beta * e, d),
                    a, b, n_oracle)
                    for a, b, m in zip(dist.edges, dist.edges[1:], dist.masses))
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
    # form, one fused (f, f', log Z) evaluation at each end and no panel; a
    # piece narrower than W_MIN keeps one evaluation per K21 node
    import hierstat.ensemble as ensemble
    import hierstat.quadrature as quadrature
    calls, panels = [], []
    real, panel = ensemble._kernels, quadrature.gauss_legendre_panel

    def counted(lam, d):
        calls.append(lam)
        return real(lam, d)

    def counted_panel(*args):
        panels.append(None)
        return panel(*args)

    monkeypatch.setattr(ensemble, "_kernels", counted)
    monkeypatch.setattr(quadrature, "gauss_legendre_panel", counted_panel)
    ensemble.moment_integrals(Uniform(0.5, 2.5), 9, GibbsParams(-2.0, 1.0))
    assert (len(calls), len(panels)) == (2, 0)
    calls.clear()
    ensemble.moment_integrals(Uniform(0.5, 0.6), 9, GibbsParams(-2.0, 1.0))
    assert 0.1 < ensemble.W_MIN and len(panels) > 0 and len(calls) == 21 * len(panels)


@pytest.mark.parametrize("dist, alpha", [(Uniform(0.5, 2.5), -760.0),
                                         (TwoPoint(1.0, 3.0, 0.5), -800.0)])
def test_underflowed_occupancy_is_a_validation_error(dist, alpha):
    # n underflows to 0.0; the check runs before u = -m1 / n is formed
    with pytest.raises(ValidationError) as err:
        ensemble_moments(dist, 9, GibbsParams(alpha, 1.0))
    assert f"alpha={alpha!r}, beta=1.0" in str(err.value)


@pytest.mark.parametrize("alpha, beta", [(-7.4073663903078, 3.6491958186739293),
                                         (-2.7326, 4.6923)])
def test_forward_moments_at_a_million_positions(alpha, beta):
    # activity widths of about 7 and 9 take the closed form; the quadrature
    # could not meet its per-panel tolerance here
    mom = ensemble_moments(Uniform(0.5, 2.5), 10**6, GibbsParams(alpha, beta))
    assert 0.0 < mom.n < 10**6
