"""Closed-form and graded-rule moments of uniform pieces against a 60-digit
mpmath oracle.

Run as a script to print, per band of activity width, the worst error of
each path side by side, the table that sets ``ensemble.W_MIN``:

    PYTHONPATH=src python tests/test_closed_form.py
"""

import math

import numpy as np
import pytest

from conftest import mp_kernels

import hierstat.ensemble as ensemble
from hierstat import GibbsParams, Uniform
from hierstat.ensemble import _activity, _closed_piece, moment_integrals
from hierstat.gentile import _LI2_SWITCH, _log_partition_integral

NAMES = ("n", "m1", "omega", "A", "B", "C")


def _oracle_g(mpmath, lam, d):
    """G(lambda) = integral of log Z from -inf, from mpmath's polylog."""
    lam = mpmath.mpf(lam)
    if lam > 0:
        return d * lam ** 2 / 2 - _oracle_g(mpmath, -lam, d) + 2 * mpmath.zeta(2) * d / (d + 1)
    return (mpmath.polylog(2, mpmath.exp(lam))
            - mpmath.polylog(2, mpmath.exp(lam * (d + 1))) / (d + 1))


def _oracle_moments(mpmath, lo, hi, alpha, beta, d):
    """The six averages over Uniform(lo, hi), exactly, from the closed forms
    n = [log Z] / w, A = [f] / w, omega = [G] / w and integration by parts."""
    with mpmath.workdps(60):
        lo, hi, alpha, beta = map(mpmath.mpf, (lo, hi, alpha, beta))
        lam0, lam1 = alpha + beta * lo, alpha + beta * hi
        (z0, f0, _), (z1, f1, _) = mp_kernels(mpmath, lam0, d), mp_kernels(mpmath, lam1, d)
        w = lam1 - lam0
        g = _oracle_g(mpmath, lam1, d) - _oracle_g(mpmath, lam0, d)
        n = (z1 - z0) / w
        m1 = (hi * z1 - lo * z0 - g / beta) / w
        big_a = (f1 - f0) / w
        big_b = (hi * f1 - lo * f0 - n * (hi - lo)) / w
        big_c = (hi ** 2 * f1 - lo ** 2 * f0 - 2 * m1 * (hi - lo)) / w
        return [n, m1, g / w, big_a, big_b, big_c]


def _draws(seed, count, w_lo, w_hi):
    """Fixed draws (lo, hi, alpha, beta, d): activity width w log-uniform in
    [w_lo, w_hi], beta log-uniform in [1e-6, 5], d log-uniform in [1, 1e12],
    lambda(lo) uniform in [-30, 20]; every other piece starts at eps = 0,
    the others at up to three widths from it."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        d = int(round(10 ** rng.uniform(0, 12)))
        w = 10 ** rng.uniform(math.log10(w_lo), math.log10(w_hi))
        beta = 10 ** rng.uniform(-6, math.log10(5))
        lo = 0.0 if k % 2 == 0 else float(rng.uniform(0, 3)) * (w / beta)
        hi = lo + w / beta
        alpha = float(rng.uniform(-30, 20)) - beta * lo
        out.append((lo, hi, alpha, beta, d))
    return out


def _cancelling_draws(seed, count):
    """Fixed draws (lo, hi, alpha, beta, d) at least W_MIN wide in activity
    whose closed forms cancel by more than _MAX_CANCEL, so that they take the
    graded rule: the f' peak of a d in [1e2, 1e12] within three 1/D of the
    lower end; about two in five candidates qualify."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(50 * count):
        d = int(round(10 ** rng.uniform(2, 12)))
        w = 10 ** rng.uniform(math.log10(ensemble.W_MIN), 1)
        beta = 10 ** rng.uniform(-6, math.log10(5))
        lo = 0.0 if k % 2 == 0 else float(rng.uniform(0, 3)) * (w / beta)
        alpha = float(rng.uniform(-3, 3)) / (d + 1) - beta * lo
        ends = _activity(alpha, beta, lo), _activity(alpha, beta, lo + w / beta)
        if _closed_piece(lo, lo + w / beta, ends, d) is None:
            out.append((lo, lo + w / beta, alpha, beta, d))
            if len(out) == count:
                break
    return out


def _worst_errors(mpmath, draws, w_mins=(None,)):
    """Worst relative error of each component of moment_integrals over the
    draws, one list per ``ensemble.W_MIN`` in ``w_mins`` (None keeps it)."""
    kept = ensemble.W_MIN
    worst = [[0.0] * 6 for _ in w_mins]
    try:
        for lo, hi, alpha, beta, d in draws:
            exact = _oracle_moments(mpmath, lo, hi, alpha, beta, d)
            for row, w_min in zip(worst, w_mins):
                ensemble.W_MIN = kept if w_min is None else w_min
                got = moment_integrals(Uniform(lo, hi), d, GibbsParams(alpha, beta))
                for i, (name, x) in enumerate(zip(NAMES, exact)):
                    row[i] = max(row[i], float(abs((got[name] - x) / x)))
    finally:
        ensemble.W_MIN = kept
    return worst


def test_closed_form_accuracy_sweep():
    # the gate on W_MIN: over fixed draws with w from W_MIN to 10, every
    # component of the closed form is within 1e-13 of the oracle, and of the
    # graded rule, which the pieces would take with W_MIN lifted, within
    # 1e-14 (measured: B 4.2e-15 and C 3.4e-14 closed, 2.0e-15 and 6.4e-15 graded)
    mpmath = pytest.importorskip("mpmath")
    draws = _draws(2022, 120, ensemble.W_MIN, 10.0)
    closed, graded = _worst_errors(mpmath, draws, (None, math.inf))
    assert max(closed) <= 1e-13, dict(zip(NAMES, closed))
    assert max(graded) <= 1e-14, dict(zip(NAMES, graded))


@pytest.mark.parametrize("w_lo, w_hi", [(1e-4, 1e-2), (1e-2, 0.1), (0.1, ensemble.W_MIN)])
def test_graded_rule_on_narrow_pieces(w_lo, w_hi):
    # pieces narrower than W_MIN take the graded rule: d to 1e12 and beta
    # down to 1e-6, every component within 4e-15 of the oracle (measured
    # worst 1.2e-15)
    mpmath = pytest.importorskip("mpmath")
    [worst] = _worst_errors(mpmath, _draws(26, 200, w_lo, w_hi))
    assert max(worst) <= 4e-15, dict(zip(NAMES, worst))


def test_graded_rule_where_the_closed_forms_cancel():
    # wide pieces whose B or C would cancel by more than _MAX_CANCEL take the
    # graded rule too: every component within 1e-14 of the oracle (measured
    # worst 3.2e-15, on A)
    mpmath = pytest.importorskip("mpmath")
    draws = _cancelling_draws(26, 100)
    assert len(draws) == 100
    [worst] = _worst_errors(mpmath, draws)
    assert max(worst) <= 1e-14, dict(zip(NAMES, worst))


@pytest.mark.parametrize("d, bound", [(9, 2e-15), (10**4, 2e-15), (10**6, 2e-15),
                                      (10**8, 2e-15), (10**12, 2e-15)])
def test_occupancy_and_its_derivative_at_large_capacity(d, bound):
    # ROADMAP item 9's box, Uniform(0.5, 2.5) with alpha in [-8, 2], at beta
    # >= 0.15 so that every piece takes the closed form; the quadrature it
    # replaced was off by 8e-11 in A at d = 10**6 and failed at 10**8
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(d % 1000 + 9)
    for _ in range(12):
        alpha, beta = float(rng.uniform(-8, 2)), float(rng.uniform(0.15, 5))
        got = moment_integrals(Uniform(0.5, 2.5), d, GibbsParams(alpha, beta))
        exact = _oracle_moments(mpmath, 0.5, 2.5, alpha, beta, d)
        for name, x in (("n", exact[0]), ("A", exact[3])):
            assert abs((got[name] - x) / x) <= bound, (name, alpha, beta)


@pytest.mark.parametrize("d", [1, 2, 9, 50, 10**4, 10**6, 10**12])
def test_log_partition_integral_against_polylog(d):
    # on both sides of each switch: |lambda| = 1 and |lambda| (d+1) = 1,
    # where the two dilogarithms change branch, and lambda = 0
    mpmath = pytest.importorskip("mpmath")
    points = [0.0, 1e-300, 1e-20, 0.3, 5.0, 30.0, 700.0, 1e4]
    for edge in (_LI2_SWITCH, _LI2_SWITCH / (d + 1)):
        points += [edge * (1 + 0.01 * i) for i in range(-10, 11)]
    with mpmath.workdps(50):
        for x in points:
            for lam in (x, -x):
                exact = _oracle_g(mpmath, lam, d)
                got = _log_partition_integral(lam, d)
                ulps = float(abs(got - exact)) / math.ulp(float(exact))
                assert ulps <= 6, (lam, ulps)


if __name__ == "__main__":
    import mpmath

    print("| w | " + " | ".join(f"closed {n}" for n in NAMES) + " | "
          + " | ".join(f"graded {n}" for n in NAMES) + " |")
    print("|---" * 13 + "|")
    for w_lo, w_hi in ((1e-4, 1e-2), (1e-2, 0.03), (0.03, 0.1), (0.1, 0.2), (0.2, 0.25),
                       (0.25, 0.3), (0.3, 0.4), (0.4, 0.6), (0.6, 1.0), (1.0, 3.0),
                       (3.0, 10.0)):
        rows = _worst_errors(mpmath, _draws(7, 300, w_lo, w_hi), (0.0, math.inf))
        print(f"| {w_lo}-{w_hi} | " + " | ".join(f"{e:.1e}" for row in rows for e in row) + " |")
