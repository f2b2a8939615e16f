"""Adaptive panel quadrature against closed-form integrals."""

import math

import numpy as np
import pytest

import hierstat.ensemble as ensemble
from hierstat import AccuracyError, GibbsParams, Uniform, ValidationError, quadrature
from hierstat.ensemble import moment_integrals
from hierstat.quadrature import integrate_adaptive


def test_polynomial_is_exact():
    est = integrate_adaptive(lambda x: 3 * x ** 2, 0.0, 2.0)
    assert est == pytest.approx(8.0, rel=1e-14)


def test_oscillatory_integrand():
    est = integrate_adaptive(math.sin, 0.0, math.pi)
    assert est == pytest.approx(2.0, rel=1e-12)
    est = integrate_adaptive(lambda x: math.sin(40 * x), 0.0, 1.0)
    assert est == pytest.approx((1 - math.cos(40.0)) / 40.0, rel=1e-10, abs=1e-12)


def test_breakpoints_isolate_kink():
    f = lambda x: abs(x - 0.3)
    exact = 0.3 ** 2 / 2 + 0.7 ** 2 / 2
    est = integrate_adaptive(f, 0.0, 1.0, breakpoints=(0.3,))
    assert est == pytest.approx(exact, rel=1e-14)


def test_vector_integrand():
    est = integrate_adaptive(lambda x: np.array([1.0, x, x * x]), 0.0, 1.0)
    assert est == pytest.approx([1.0, 0.5, 1 / 3], rel=1e-13)
    empty = integrate_adaptive(lambda x: (x, 2 * x), 1.0, 1.0)
    assert isinstance(empty, np.ndarray) and empty.tolist() == [0.0, 0.0]


def test_nonconvergence_carries_estimate_and_bound():
    # the panel holding a jump never meets the per-panel tolerance
    f = lambda x: 0.0 if x < math.pi / 6 else 1.0
    with pytest.raises(AccuracyError) as err:
        integrate_adaptive(f, 0.0, 1.0)
    assert err.value.estimate == pytest.approx(1 - math.pi / 6, abs=1e-2)
    assert err.value.error_bound > 0.0


def test_panel_budget_stops_a_nonconverging_integral(monkeypatch):
    # a six-component integrand that is NaN on every panel meets the
    # tolerance nowhere; without the budget the bisection would run
    # 2,097,151 panels to MAX_DEPTH before failing
    panels = []
    panel = quadrature.gauss_legendre_panel

    def counted(*args):
        panels.append(None)
        return panel(*args)

    monkeypatch.setattr(quadrature, "gauss_legendre_panel", counted)
    with pytest.raises(AccuracyError) as err:
        integrate_adaptive(lambda x: (math.nan,) * 6, 0.0, 1.0)
    assert quadrature.MAX_PANELS - 1 <= len(panels) <= quadrature.MAX_PANELS
    assert err.value.estimate.shape == (6,) and err.value.error_bound is not None


def test_interval_validation():
    with pytest.raises(ValidationError):
        integrate_adaptive(math.sin, 1.0, 0.0)
    assert integrate_adaptive(math.sin, 1.0, 1.0) == 0.0


# --- the G10/K21 rule ----------------------------------------------------------

def test_rule_integrates_monomials_to_its_degree():
    # K21 is exact through x^31 and G10 through x^19, each to a few ulp;
    # one degree higher both miss by far more
    nodes = np.array(quadrature._NODES)
    for weights, x, degree in ((quadrature._KRONROD_WEIGHTS, nodes, 31),
                               (quadrature._GAUSS_WEIGHTS, nodes[1::2], 19)):
        for k in range(degree + 2):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            ulps = abs(weights @ x ** k - exact) / np.spacing(2.0 / (k + 1))
            if k <= degree:
                assert ulps <= 8, (degree, k, ulps)
            else:
                assert ulps > 1e4, (degree, k, ulps)


def test_rule_constants_equal_scipy():
    quad_vec = pytest.importorskip("scipy.integrate._quad_vec")
    gk21 = getattr(quad_vec, "_quadrature_gk21", None)
    if gk21 is None:
        pytest.skip("scipy no longer has _quadrature_gk21")
    abscissae, norm_args = [], []

    def one_hot(x):
        e = np.zeros(21)
        e[len(abscissae)] = 1.0
        abscissae.append(x)
        return e

    def norm(v):
        # scipy converts each norm to a float, so record the vector instead
        norm_args.append(v)
        return 0.0

    kronrod = gk21(-1.0, 1.0, one_hot, norm)[0]
    gauss = kronrod - norm_args[0]  # the first norm taken is of K21 - G10
    assert abscissae == list(quadrature._NODES)
    assert kronrod.tolist() == quadrature._KRONROD_WEIGHTS.tolist()
    assert gauss[1::2].tolist() == quadrature._GAUSS_WEIGHTS.tolist()
    assert not gauss[::2].any()


def test_capacity_1000_moments_converge_in_few_panels(monkeypatch):
    # near the activity crossing at d = 1000 the error estimate must stop at
    # the kernels' real error, not chase round-off; W_MIN is lifted so that
    # the piece takes the quadrature, as a piece narrower than it does
    mpmath = pytest.importorskip("mpmath")
    panels = []
    panel = quadrature.gauss_legendre_panel

    def counted(*args):
        panels.append(args)
        return panel(*args)

    monkeypatch.setattr(quadrature, "gauss_legendre_panel", counted)
    monkeypatch.setattr(ensemble, "W_MIN", math.inf)
    alpha, beta, d = -2.856, 1.323, 1000
    m = moment_integrals(Uniform(0.5, 2.5), d, GibbsParams(alpha, beta))
    assert len(panels) <= 100

    # f = d log Z / d lambda, so with lambda = alpha + beta eps over a width
    # of 2: n = [log Z] / (2 beta) and A = integral of f' = [f] / (2 beta)
    with mpmath.workdps(40):
        lam_lo, lam_hi = (mpmath.mpf(alpha) + mpmath.mpf(beta) * mpmath.mpf(eps)
                          for eps in (0.5, 2.5))
        log_z = lambda lam: mpmath.log(mpmath.expm1(lam * (d + 1)) / mpmath.expm1(lam))
        mean = lambda lam: 1 / mpmath.expm1(-lam) - (d + 1) / mpmath.expm1(-lam * (d + 1))
        n = (log_z(lam_hi) - log_z(lam_lo)) / (2 * mpmath.mpf(beta))
        a = (mean(lam_hi) - mean(lam_lo)) / (2 * mpmath.mpf(beta))
        assert abs(m["n"] - n) <= 1e-14 * n
        assert abs(m["A"] - a) <= 1e-12 * a
