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
pieces, or pieces whose closed forms would cancel, take the fixed
Gauss-Legendre rule of :mod:`hierstat.quadrature`, graded about
lambda = 0 (12 kernel evaluations per panel, about 13 per narrow piece);
for a point mass u is -epsilon0 exactly.  No path loads numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import Delta, ParametricFamily, TwoPoint, _pieces, _resolve_at, resolve, support
from .errors import ValidationError
from .gentile import (GibbsParams, _check_capacity, _check_lambda, _kernels,
                      _log_partition_integral)
from .quadrature import graded_nodes

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
#: narrowest activity width beta (hi - lo) of a piece whose moments come from
#: closed forms (2 kernel and 2 G evaluations) and not the graded rule (13-48
#: kernel calls), a speed choice: the closed forms lose digits as the width
#: shrinks (C by about 1/width^3).  In the 0.3-0.4 band of the table that
#: tests/test_closed_form.py prints, C is within 5.4e-14 for the closed forms
#: and 1.1e-15 for the graded rule; every closed component is within 1e-13 above it
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


def _piece_by_quadrature(lo, hi, ends, d):
    """(n, m1, omega, A, B, C) averaged over the interval piece [lo, hi], whose
    ``ends`` are the (lambda, error) pairs of :func:`_activity`, by the graded
    rule of :func:`~hierstat.quadrature.graded_nodes`, with each node's eps
    taken from its fraction of the piece, counted from the lower end."""
    span = hi - lo
    n = m1 = om = big_a = big_b = big_c = 0.0
    for lam, t, weight in graded_nodes(*ends[0], *ends[1], d):
        eps = lo + t * span
        fv, fp, logz = _kernels(lam, d)
        n += weight * fv
        m1 += weight * (eps * fv)
        om += weight * logz
        big_a += weight * fp
        big_b += weight * (eps * fp)
        big_c += weight * (eps * (eps * fp))
    return n, m1, om, big_a, big_b, big_c


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


def _closed_piece(lo, hi, ends, d):
    """(n, m1, omega, A, B, C) averaged over the interval piece [lo, hi] at
    lambda = alpha + beta eps, whose ``ends`` are the (lambda, error) pairs
    of :func:`_activity`, from the kernels and G at its two ends; None
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
    (lam_lo, err_lo), (lam_hi, err_hi) = ends
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
    return n, mid * n + s * (b1 / w), om / w, big_a, big_b, big_c


def _moment_pass(pieces, a, b, d, k=6):
    """The first ``k`` of (n, m1, omega, A, B, C) of the ``pieces`` (lo, hi,
    mass) at (alpha, beta), as a list of floats: the six-component integrand
    at atoms, closed forms for interval pieces at least ``W_MIN`` wide in
    activity, the graded rule for the others.  An interval piece whose first
    ``k`` averages are not finite, or any piece whose lambda overflows, is a
    ValidationError naming alpha and beta."""
    total = None
    try:
        for lo, hi, mass in pieces:
            if lo == hi:
                fv, fp, logz = _kernels(_check_lambda(a + b * lo), d)
                avg = fv, lo * fv, logz, fp, lo * fp, lo * (lo * fp)
            else:
                ends = _activity(a, b, lo), _activity(a, b, hi)
                avg = _closed_piece(lo, hi, ends, d) or _piece_by_quadrature(lo, hi, ends, d)
                if not all(map(math.isfinite, avg[:k])):
                    raise ValidationError(f"the moments over [{lo!r}, {hi!r}] are not finite")
            piece = [mass * v for v in avg[:k]]
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


def _moments(dist, d, a, b):
    """:func:`moment_integrals` at the floats (alpha, beta) = (a, b) and a
    checked capacity d, as the list [n, m1, omega, A, B, C]: the entry of
    the inverse problem, which builds no parameter record."""
    return _moment_pass(_pieces(_resolve_at(dist, a, b)), a, b, d)


def _phi_terms(dist, d, a, b):
    """Finite-difference phi-dependence parts of the moment derivatives at
    (alpha, beta) = (a, b).

    For each parameter the perturbed distribution is integrated against
    the frozen base integrand (f, eps f, log Z at the base parameters),
    the first three components of a moment pass.  Returns two sequences of
    three floats, zeros for a fixed phi.
    """
    if not isinstance(dist, ParametricFamily):
        return (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)

    def difference(plus, minus):
        ahead, behind = (_moment_pass(_pieces(p), a, b, d, 3) for p in (plus, minus))
        return [(x - y) / (2 * h) for x, y in zip(ahead, behind)]

    h = PHI_STEP
    return (difference(dist.build(a + h, b), dist.build(a - h, b)),
            difference(dist.build(a, b + h), dist.build(a, b - h)))


def omega(dist, d: int, params: GibbsParams) -> float:
    """Pressure generator: integral of phi(eps) log Z(lambda(eps)) d eps >= 0."""
    return moment_integrals(dist, d, params)["omega"]


def _two_point_law(dist) -> tuple:
    """Atoms (e1, e2) and the weight w of e1 matching a concrete phi: a TwoPoint's
    own, otherwise phi's mean -/+ its standard deviation with w = 1/2."""
    if isinstance(dist, TwoPoint):
        return dist.epsilon1, dist.epsilon2, dist.weight
    mids = [(mass, 0.5 * lo + 0.5 * hi, hi - lo) for lo, hi, mass in _pieces(dist)]
    mean = sum(mass * mid for mass, mid, _ in mids)
    sd = math.sqrt(sum(mass * ((mid - mean) ** 2 + width * width / 12.0)
                       for mass, mid, width in mids))
    return mean - sd, mean + sd, 0.5


def ensemble_moments(dist, d: int, params: GibbsParams) -> EnsembleMoments:
    """All three moments in one integration pass, with range checks."""
    return _checked_moments(dist, d, params)[0]


def _n_and_u(m, d, a, b):
    """(n, u = -m1 / n) of the :func:`_moments` list ``m`` at (alpha, beta) =
    (a, b); an n outside (0, d) is a ValidationError naming alpha, beta and
    why: the level saturated to double precision (n >= d) or underflowed."""
    n = m[0]
    if not 0.0 < n < d:
        why = "saturated to double precision" if n >= d else "underflowed"
        raise ValidationError(f"occupancy density {n} outside (0, {d}) at "
                              f"alpha={a!r}, beta={b!r}: {why}")
    return n, -m[1] / n


def _checked_moments(dist, d, params):
    """:func:`ensemble_moments` and the :func:`_moments` list it came from.
    A point mass keeps u = -epsilon0 exactly."""
    base = resolve(dist, params)
    lo, hi = support(base)
    d = _check_capacity(d)
    a, b = params.alpha, params.beta
    m = _moments(base, d, a, b)
    n, u = _n_and_u(m, d, a, b)
    mom = EnsembleMoments(n, -base.point if isinstance(base, Delta) else u, m[2])

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
    share = None
    for lo, hi, mass in _pieces(resolve(dist, params)):
        try:
            n, = _moment_pass([(-hi, -lo, mass)], params.alpha, params.beta, 1, 1)
        except ValidationError:
            raise ValidationError(f"at alpha={params.alpha!r}, beta={params.beta!r}: the d = 1 "
                                  f"moments over the cost piece [{lo!r}, {hi!r}] overflow") from None
        share = n if share is None else share + n
    return share
