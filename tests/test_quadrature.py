"""The graded 12-point Gauss-Legendre rule in the activity."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import mp_kernels, spy

import hierstat.ensemble as ensemble
from hierstat import GibbsParams, Uniform
from hierstat.ensemble import _activity, _piece_by_quadrature, moment_integrals
from hierstat.quadrature import _GL12, breakpoints, graded_nodes


def _average(nodes, g):
    """The rule's average of g(lambda, t) over its piece."""
    return sum(weight * g(lam, t) for lam, t, weight in nodes)


def test_polynomial_is_exact():
    # each panel is exact through degree 23, so the graded rule averages a
    # polynomial exactly in lambda, and in eps through the node fractions
    lo, hi, d = -1.3, 2.7, 9
    nodes = graded_nodes(lo, 0.0, hi, 0.0, d)
    assert len(nodes) == 12 * (len(breakpoints(lo, hi, d)) + 1) == 108
    for k in range(24):
        exact = (hi ** (k + 1) - lo ** (k + 1)) / ((k + 1) * (hi - lo))
        got = _average(nodes, lambda lam, t: lam ** k)
        assert abs(got - exact) <= 64 * math.ulp(hi ** k), (k, got, exact)
        # eps on [2, 5], counted from the lower end as the ensemble does
        eps = _average(nodes, lambda lam, t: (2.0 + 3.0 * t) ** k)
        exact = (5.0 ** (k + 1) - 2.0 ** (k + 1)) / ((k + 1) * 3.0)
        assert abs(eps - exact) <= 16 * math.ulp(exact), (k, eps, exact)


def test_rule_integrates_monomials_to_its_degree():
    # the 12-point rule is exact through x^23 to a few ulp; x^24 misses by far more
    x = np.array([node for node, _ in _GL12])
    w = np.array([weight for _, weight in _GL12])
    for k in range(26):
        got = 2.0 * float(w @ x ** k) if k % 2 == 0 else 0.0
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        ulps = abs(got - exact) / np.spacing(2.0 / (k + 1))
        assert ulps <= 4 if k <= 23 or k % 2 else ulps > 1e4, (k, ulps)


def test_rule_constants_match_leggauss():
    # the literals are the correctly rounded 40-digit nodes and weights; the
    # nodes are within 1 ulp of numpy's leggauss, whose own weights are off
    # by up to 60 ulp (their sums of w x^k miss 2 / (k + 1) by up to 4.6e-16)
    mpmath = pytest.importorskip("mpmath")
    xs, ws = np.polynomial.legendre.leggauss(12)
    assert [node for node, _ in _GL12] == sorted(x for x, _ in _GL12)[::-1]
    with mpmath.workdps(40):
        for (x, w), x_np, w_np in zip(_GL12, xs[::-1], ws[::-1]):
            root = mpmath.findroot(lambda t: mpmath.legendre(12, t), mpmath.mpf(x))
            # P_12'(x) = 12 P_11(x) / (1 - x^2) at a root of P_12
            slope = 12 * mpmath.legendre(11, root) / (1 - root ** 2)
            assert x == float(root) and w == float(2 / ((1 - root ** 2) * slope ** 2))
            assert abs(x - x_np) <= math.ulp(x) and abs(w - w_np) <= 64 * math.ulp(w)


def test_breakpoints_isolate_kink():
    # |lambda| has its kink at the breakpoint lambda = 0, so the rule is exact
    nodes = graded_nodes(-0.3, 0.0, 0.7, 0.0, 4)
    assert _average(nodes, lambda lam, t: abs(lam)) == pytest.approx(0.29, rel=1e-15)


def test_breakpoints_only_inside_the_piece():
    # 0 and +-(2/D) 2^k, strictly inside the piece and ascending; the
    # ratio-2 grading leaves no gap on either side of 0
    rng = np.random.default_rng(26)
    for _ in range(500):
        d = int(10 ** rng.uniform(0, 12))
        lo, hi = sorted(float(x) for x in rng.uniform(-1, 1, 2) * 10 ** rng.uniform(-14, 3, 2))
        points = breakpoints(lo, hi, d)
        assert all(lo < x < hi for x in points), (lo, hi, d, points)
        assert points == sorted(points) and (0.0 in points) == (lo < 0.0 < hi)
        base = 2.0 / (d + 1)
        for x in points:
            if x:
                assert math.frexp(abs(x) / base)[0] == 0.5 and abs(x) >= base, (x, base)
        expected = sum(lo < s * base * 2.0 ** k < hi for s in (-1, 1) for k in range(80))
        assert len(points) == expected + (lo < 0.0 < hi)


def test_zero_width_piece():
    # both ends of the activity round to one double: the nodes keep the
    # rule's own fractions with lambda held there, and nothing divides by w
    nodes = graded_nodes(1e300, 0.0, 1e300, 0.0, 9)
    assert len(nodes) == 12 and all(lam == 1e300 for lam, *_ in nodes)
    fractions = sorted(0.5 * (1 + s * x) for x, _ in _GL12 for s in (-1, 1))
    assert sorted(t for _, t, _ in nodes) == fractions
    assert sum(weight for *_, weight in nodes) == 1.0
    # saturated level at lambda = 1e300 over eps in [0, 1]
    ends = _activity(1e300, 1.0, 0.0), _activity(1e300, 1.0, 1.0)
    n, m1, om, big_a, big_b, big_c = _piece_by_quadrature(0.0, 1.0, ends, 9)
    assert (n, big_a, big_b, big_c) == (9.0, 0.0, 0.0, 0.0)
    assert m1 == pytest.approx(4.5, rel=1e-15) and om == pytest.approx(9e300, rel=1e-15)


@pytest.mark.parametrize("d", [1, 9, 10**12])
def test_huge_span_has_a_bounded_panel_count(d):
    # a piece across nearly every double, the widest activity span a moment
    # pass can form: one panel per doubling on each side of 0
    nodes = graded_nodes(-8e307, 0.0, 8e307, 0.0, d)
    panels = len(breakpoints(-8e307, 8e307, d)) + 1
    assert len(nodes) == 12 * panels and panels <= 2 * (1024 + math.log2(d + 1))
    assert sum(weight for *_, weight in nodes) == pytest.approx(1.0, rel=1e-13)


def test_capacity_1000_moments_converge_in_few_panels(monkeypatch):
    # near the activity crossing at d = 1000 the grading puts panels where f'
    # peaks; W_MIN is lifted so that the piece takes the graded rule, as a
    # piece narrower than it does: 21 panels between lambda = -2.19 and 0.45
    mpmath = pytest.importorskip("mpmath")
    calls = spy(monkeypatch, "_kernels", ensemble)
    monkeypatch.setattr(ensemble, "W_MIN", math.inf)
    alpha, beta, d = -2.856, 1.323, 1000
    m = moment_integrals(Uniform(0.5, 2.5), d, GibbsParams(alpha, beta))
    assert len(calls) == 12 * 21

    # f = d log Z / d lambda, so with lambda = alpha + beta eps over a width
    # of 2: n = [log Z] / (2 beta) and A = integral of f' = [f] / (2 beta)
    with mpmath.workdps(40):
        lam_lo, lam_hi = (mpmath.mpf(alpha) + mpmath.mpf(beta) * mpmath.mpf(eps)
                          for eps in (0.5, 2.5))
        (z_lo, f_lo, _), (z_hi, f_hi, _) = (mp_kernels(mpmath, lam, d) for lam in (lam_lo, lam_hi))
        n = (z_hi - z_lo) / (2 * mpmath.mpf(beta))
        a = (f_hi - f_lo) / (2 * mpmath.mpf(beta))
        assert abs(m["n"] - n) <= 2e-15 * n
        assert abs(m["A"] - a) <= 2e-15 * a


def test_import_loads_no_numpy():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, hierstat.quadrature, hierstat.ensemble; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
