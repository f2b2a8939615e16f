"""Ensemble moments of the level statistics over a salary distribution.

Everything here uses the salary sign convention, lambda(eps) =
alpha + beta * eps, except :func:`fermi_market_share`, which integrates
the cost-convention Fermi-Dirac share.  The moments and their
derivative integrals share one six-component integrand, hence one set of
panels.  Every integral over phi is formed here, the phi terms of a
family's derivatives included, and goes through :func:`integrate_against`,
which sums point masses exactly and splits each interval piece where the
activity changes sign; for a point mass u is -epsilon0 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import Delta, ParametricFamily, _pieces, resolve, support
from .errors import ValidationError
from .gentile import GibbsParams, _check_capacity, _check_lambda, _kernels, fermi_dirac
from .quadrature import integrate_adaptive

__all__ = [
    "EnsembleMoments",
    "ensemble_moments",
    "omega",
    "fermi_market_share",
    "moment_integrals",
    "integrate_against",
    "PHI_STEP",
]

#: central-difference step for the phi(alpha, beta) dependence terms
PHI_STEP = 1e-6


@dataclass(frozen=True)
class EnsembleMoments:
    """Per-level ensemble moments: elements per company n, money per
    element u (salary convention, so u <= 0) and the pressure generator
    omega >= 0."""

    n: float
    u: float
    omega: float


def integrate_against(dist, f, *, breakpoints=()):
    """integral of phi(eps) * f(eps) d eps; atoms are summed exactly.

    ``f`` may return a scalar or a fixed-length sequence.  Each interval
    piece is integrated adaptively, split at the ``breakpoints`` inside it;
    an overflow there is a ValidationError naming the piece.
    """
    total = None
    for lo, hi, mass in _pieces(dist):
        if lo == hi:
            piece = mass * np.asarray(f(lo), dtype=float)
        else:
            try:
                with np.errstate(over="raise"):
                    est = integrate_adaptive(f, lo, hi, breakpoints=breakpoints)
                    piece = mass * (np.asarray(est) / (hi - lo))
            except FloatingPointError:
                raise ValidationError(f"the integral over [{lo!r}, {hi!r}] overflows") from None
        total = piece if total is None else total + piece
    total = np.asarray(total)
    return total if total.ndim else float(total)


def _integrate_at(a, b, dist, f, breakpoints=()):
    """:func:`integrate_against`, its ValidationErrors naming alpha and beta."""
    try:
        return integrate_against(dist, f, breakpoints=breakpoints)
    except ValidationError as exc:
        raise ValidationError(f"at alpha={a!r}, beta={b!r}: {exc}") from None


def moment_integrals(dist, d: int, params: GibbsParams) -> dict:
    """Raw moment integrals at one parameter point, in one pass.

    Returns n, m1 = integral of eps phi f, omega, and the derivative
    integrals A = integral of phi f', B = eps-weighted, C = eps^2-weighted.
    Families are resolved first; the phi terms of the derivatives come
    from :func:`_phi_terms`.
    """
    base = resolve(dist, params)
    a, b = params.alpha, params.beta
    d = _check_capacity(d)

    def f(eps):  # (f, eps f, log Z, f', eps f', eps^2 f') at lambda = alpha + beta eps
        fv, fp, logz = _kernels(_check_lambda(a + b * eps), d)
        return fv, eps * fv, logz, fp, eps * fp, eps * eps * fp
    vals = _integrate_at(a, b, base, f, (-a / b,))
    return dict(zip(("n", "m1", "omega", "A", "B", "C"), map(float, vals)))


def _phi_terms(dist, d, params):
    """Finite-difference phi-dependence parts of the moment derivatives.

    For each parameter the perturbed distribution is integrated against
    the frozen base integrand (f, eps f, log Z at the base parameters).
    Returns two lists of three floats, zeros for a fixed phi.
    """
    if not isinstance(dist, ParametricFamily):
        return [0.0] * 3, [0.0] * 3
    a, b = params.alpha, params.beta

    def frozen(eps):
        fv, _, logz = _kernels(_check_lambda(a + b * eps), d)
        return fv, eps * fv, logz

    def against(concrete):
        return np.asarray(_integrate_at(a, b, concrete, frozen))

    h = PHI_STEP
    d_alpha = (against(dist.build(a + h, b)) - against(dist.build(a - h, b))) / (2 * h)
    d_beta = (against(dist.build(a, b + h)) - against(dist.build(a, b - h))) / (2 * h)
    return d_alpha.tolist(), d_beta.tolist()


def omega(dist, d: int, params: GibbsParams) -> float:
    """Pressure generator: integral of phi(eps) log Z(lambda(eps)) d eps >= 0."""
    a, b = params.alpha, params.beta
    d = _check_capacity(d)
    return float(_integrate_at(a, b, resolve(dist, params),
                               lambda eps: _kernels(_check_lambda(a + b * eps), d)[2],
                               (-a / b,)))


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

    Cost convention: the share at cost eps is 1 / (e^{beta eps - alpha} + 1).
    """
    a, b = params.alpha, params.beta
    # the cost activity a - b eps vanishes at eps = a / b
    return float(_integrate_at(a, b, resolve(dist, params),
                               lambda eps: fermi_dirac(a - b * eps), (a / b,)))
