"""Ensemble moments of the level statistics over a salary distribution.

Everything here uses the salary sign convention, lambda(eps) =
alpha + beta * eps; :func:`fermi_market_share` reaches it by mirroring its
cost distribution.  Every integral over phi is formed here, in one moment
pass, the phi terms of a family's derivatives included.  The moments and
their derivative integrals are six averages, over each piece of phi, of
a kernel times a polynomial in eps.  Over a uniform piece at least
``W_MIN`` wide in activity each has a closed form in f, log Z and G, the
antiderivative of log Z, at the two ends of the piece
(:func:`_closed_piece`), so a moment pass costs two kernel evaluations
and two of G per piece.  Point masses are summed exactly, and narrower
pieces go through the adaptive quadrature with one six-component
integrand, split where the activity changes sign; for a point mass u is
-epsilon0 exactly.  numpy and the quadrature are imported only for those
narrower pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import Delta, ParametricFamily, _pieces, resolve, support
from .errors import ValidationError
from .gentile import (GibbsParams, _check_capacity, _check_lambda, _kernels,
                      _log_partition_integral)

__all__ = [
    "EnsembleMoments",
    "ensemble_moments",
    "omega",
    "fermi_market_share",
    "moment_integrals",
    "PHI_STEP",
]

#: central-difference step for the phi(alpha, beta) dependence terms
PHI_STEP = 1e-6
#: narrowest activity width beta (hi - lo) of an interval piece whose
#: moments come from closed forms.  Their error grows as the width shrinks
#: (C by about 1/width^3), so narrower pieces go to quadrature; the sweep
#: in tests/test_closed_form.py holds every component within 1e-13 above it
W_MIN = 0.3
#: largest ratio of the summed magnitudes of the terms of B or C to their
#: value that the closed forms accept, so that they stay within about 2e-13
#: where f' peaks near eps = 0; over the accuracy sweep the ratio stays
#: below 1.5e3, while a peak at eps = 0 itself gives about d
_MAX_CANCEL = 1e4
#: Veltkamp's splitting factor 2^27 + 1 for doubles
_SPLIT = 134217729.0


@dataclass(frozen=True)
class EnsembleMoments:
    """Per-level ensemble moments: elements per company n, money per
    element u (salary convention, so u <= 0) and the pressure generator
    omega >= 0."""

    n: float
    u: float
    omega: float


def _piece_by_quadrature(f, lo, hi, mass, breakpoints):
    """mass times the average of ``f`` over the interval [lo, hi], by
    adaptive quadrature.  numpy and the quadrature are loaded here, so a
    moment pass with no piece to integrate numerically loads neither."""
    import numpy as np
    from .quadrature import integrate_adaptive
    try:
        with np.errstate(over="raise"):
            est = integrate_adaptive(f, lo, hi, breakpoints=breakpoints)
            return mass * (est / (hi - lo))
    except FloatingPointError:
        raise ValidationError(f"the integral over [{lo!r}, {hi!r}] overflows") from None


def _activity(a, b, eps):
    """lambda = alpha + beta eps as a checked float and the error of its
    rounding, from Dekker's exact product and Knuth's exact sum (zero where
    splitting would overflow).  Near lambda = 0 the rounding of alpha
    dominates a kernel's error at large d."""
    lam = _check_lambda(a + b * eps)
    if max(abs(b), abs(eps)) > 1e290:
        return lam, 0.0
    p = b * eps
    bh = _SPLIT * b
    bh -= bh - b
    eh = _SPLIT * eps
    eh -= eh - eps
    p_err = ((bh * eh - p) + bh * (eps - eh) + (b - bh) * eh) + (b - bh) * (eps - eh)
    v = lam - a
    s_err = (a - (lam - v)) + (p - v)
    return lam, s_err + p_err


def _end_values(lam, err, d):
    """(f, log Z, G) at lambda + err for a small rounding error err, each
    moved by err times its derivative (f', f, log Z)."""
    f, fp, logz = _kernels(lam, d)
    g = _log_partition_integral(lam, d)
    return f + fp * err, logz + f * err, g + logz * err


def _closed_piece(lo, hi, a, b, d):
    """(n, m1, omega, A, B, C) averaged over the interval piece [lo, hi] at
    lambda = alpha + beta eps, from the kernels and G at its two ends; None
    when its activity width w = lambda(hi) - lambda(lo) is below ``W_MIN``
    or when B or C cancels by more than ``_MAX_CANCEL``.

    With t = lambda - lambda_mid in [-w/2, w/2] and [h] = h(end) - h(start),
    the centred integrals are

        a0 = int f'  = [f]          b0 = int f    = [log Z]
        a1 = int t f' = (w/2) (f(end) + f(start)) - b0
        b1 = int t f  = (w/2) (log Z(end) + log Z(start)) - [G]
        a2 = int t^2 f' = (w/2)^2 a0 - 2 b1,   omega = int log Z = [G],

    and eps = eps_mid + s t with s = (hi - lo) / w turns them into the six
    averages.  A piece with lambda(lo) > 0 is integrated in its mirror image
    [-lambda(hi), -lambda(lo)], where f = d - f(-lambda) and log Z = d lambda
    + log Z(-lambda) leave only the small complements to difference.  B and
    C cancel where f' peaks near eps = 0 (a large d with the activity
    crossing zero there), which the sums of the magnitudes of their terms
    detect.
    """
    lam_lo, err_lo = _activity(a, b, lo)
    lam_hi, err_hi = _activity(a, b, hi)
    w = lam_hi - lam_lo
    if not w >= W_MIN:
        return None
    mirror = lam_lo > 0.0
    if mirror:
        ends = ((-lam_hi, -err_hi), (-lam_lo, -err_lo))
    else:
        ends = ((lam_lo, err_lo), (lam_hi, err_hi))
    (f0, l0, g0), (f1, l1, g1) = (_end_values(lam, err, d) for lam, err in ends)
    w += err_hi - err_lo
    h = 0.5 * w
    a0 = f1 - f0
    b0 = l1 - l0
    om = g1 - g0
    a1 = h * (f1 + f0) - b0
    b1 = h * (l1 + l0) - om
    a2 = h * (h * a0) - 2.0 * b1
    abs_a1 = h * (f1 + f0) + abs(b0)
    abs_a2 = h * (h * abs(a0)) + 2.0 * (h * (l1 + l0) + abs(om))
    if mirror:
        mid_lam = (0.5 * lam_lo + 0.5 * lam_hi) + 0.5 * (err_lo + err_hi)
        a1, b0, om = -a1, w * d - b0, w * d * mid_lam + om
    s = (hi - lo) / w
    mid = 0.5 * lo + 0.5 * hi
    n, big_a = b0 / w, a0 / w
    big_b = mid * big_a + s * (a1 / w)
    big_c = mid * big_b + s * ((mid * a1 + s * a2) / w)
    abs_b = mid * big_a + s * (abs_a1 / w)
    abs_c = mid * abs_b + s * ((mid * abs_a1 + s * abs_a2) / w)
    if abs_b > _MAX_CANCEL * abs(big_b) or abs_c > _MAX_CANCEL * abs(big_c):
        return None
    avg = (n, mid * n + s * (b1 / w), om / w, big_a, big_b, big_c)
    if not all(map(math.isfinite, avg)):
        raise ValidationError(f"the closed-form moments over [{lo!r}, {hi!r}] "
                              f"are not finite")
    return avg


def _moment_pass(pieces, a, b, d):
    """(n, m1, omega, A, B, C) of the ``pieces`` (lo, hi, mass) at (alpha,
    beta), as a list of floats: the six-component integrand at atoms, closed
    forms for interval pieces at least ``W_MIN`` wide in activity, quadrature for
    narrower ones.  ValidationErrors (an overflowing lambda too) name alpha and beta."""
    def f(eps):  # (f, eps f, log Z, f', eps f', eps (eps f')) at lambda = alpha + beta eps
        fv, fp, logz = _kernels(_check_lambda(a + b * eps), d)
        return fv, eps * fv, logz, fp, eps * fp, eps * (eps * fp)

    total = None
    try:
        for lo, hi, mass in pieces:
            avg = f(lo) if lo == hi else _closed_piece(lo, hi, a, b, d)
            piece = (_piece_by_quadrature(f, lo, hi, mass, (-a / b,)).tolist()
                     if avg is None else [mass * v for v in avg])
            total = piece if total is None else [t + p for t, p in zip(total, piece)]
    except ValidationError as exc:
        raise ValidationError(f"at alpha={a!r}, beta={b!r}: {exc}") from None
    return total


def moment_integrals(dist, d: int, params: GibbsParams) -> dict:
    """Raw moment integrals at one parameter point, in one pass.

    Returns n, m1 = integral of eps phi f, omega, and the derivative
    integrals A = integral of phi f', B = eps-weighted, C = eps^2-weighted.
    Families are resolved first; the phi terms of the derivatives come
    from :func:`_phi_terms`.
    """
    base = resolve(dist, params)
    vals = _moment_pass(_pieces(base), params.alpha, params.beta, _check_capacity(d))
    return dict(zip(("n", "m1", "omega", "A", "B", "C"), vals))


def _phi_terms(dist, d, params):
    """Finite-difference phi-dependence parts of the moment derivatives.

    For each parameter the perturbed distribution is integrated against
    the frozen base integrand (f, eps f, log Z at the base parameters),
    the first three components of a moment pass.  Returns two lists of
    three floats, zeros for a fixed phi.
    """
    if not isinstance(dist, ParametricFamily):
        return [0.0] * 3, [0.0] * 3
    a, b = params.alpha, params.beta

    def difference(plus, minus):
        ahead, behind = (_moment_pass(_pieces(p), a, b, d)[:3] for p in (plus, minus))
        return [(x - y) / (2 * h) for x, y in zip(ahead, behind)]

    h = PHI_STEP
    return (difference(dist.build(a + h, b), dist.build(a - h, b)),
            difference(dist.build(a, b + h), dist.build(a, b - h)))


def omega(dist, d: int, params: GibbsParams) -> float:
    """Pressure generator: integral of phi(eps) log Z(lambda(eps)) d eps >= 0."""
    return moment_integrals(dist, d, params)["omega"]


def _phi_mean(dist) -> float:
    """The phi-mean salary of a concrete distribution, exactly: the sum of
    mass (lo + hi) / 2 over its pieces."""
    return sum(mass * (0.5 * lo + 0.5 * hi) for lo, hi, mass in _pieces(dist))


def ensemble_moments(dist, d: int, params: GibbsParams) -> EnsembleMoments:
    """All three moments in one integration pass, with range checks."""
    return _checked_moments(dist, d, params)[0]


def _n_and_u(m, d, params):
    """(n, u = -m1 / n) of the :func:`moment_integrals` record ``m``; an n
    outside (0, d), as on underflow, is a ValidationError naming alpha and beta."""
    if not 0.0 < m["n"] < d:
        raise ValidationError(f"occupancy density {m['n']} outside (0, {d}) at "
                              f"alpha={params.alpha!r}, beta={params.beta!r}")
    return m["n"], -m["m1"] / m["n"]


def _checked_moments(dist, d, params):
    """:func:`ensemble_moments` and the :func:`moment_integrals` record it
    came from.  A point mass keeps u = -epsilon0 exactly."""
    base = resolve(dist, params)
    m = moment_integrals(base, d, params)
    n, u = _n_and_u(m, d, params)
    mom = EnsembleMoments(n, -base.point if isinstance(base, Delta) else u, m["omega"])

    lo, hi = support(base)
    problems = []
    if mom.omega < 0.0:
        problems.append(f"omega {mom.omega} negative")
    slack = 1e-9 * max(1.0, hi)
    if not (-hi - slack <= mom.u <= -lo + slack):
        problems.append(f"energy per element {mom.u} outside [{-hi}, {-lo}]")
    if problems:  # pragma: no cover - guards numerical breakage only
        raise ValidationError(problems)
    return mom, m


def fermi_market_share(dist, params: GibbsParams) -> float:
    """Mean occupied share of capacity-1 states across a cost distribution.

    Cost convention: the share at cost eps is 1 / (e^{beta eps - alpha} + 1),
    the Gentile mean at d = 1 and activity alpha - beta eps: the n of a
    d = 1 moment pass over phi mirrored to eps' = -eps, piece by piece, so
    that an overflow names the piece of phi as given.
    """
    a, b = params.alpha, params.beta
    share = None
    for lo, hi, mass in _pieces(resolve(dist, params)):
        try:
            n = _moment_pass([(-hi, -lo, mass)], a, b, 1)[0]
        except ValidationError:
            raise ValidationError(f"at alpha={a!r}, beta={b!r}: the d = 1 moments "
                                  f"over the cost piece [{lo!r}, {hi!r}] overflow") from None
        share = n if share is None else share + n
    return share
