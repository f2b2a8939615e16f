"""Ensemble moments of the level statistics over a salary distribution.

Everything here uses the salary sign convention, lambda(eps) =
alpha + beta * eps, except :func:`fermi_market_share`, which integrates
the cost-convention Fermi-Dirac share.  The moments and their
derivative integrals share one six-component integrand, hence one set of
panels.  Every integral goes through
:func:`~hierstat.distributions.integrate_against`, which sums point masses
exactly and splits each interval piece where the activity changes sign;
for a point mass u is -epsilon0 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .distributions import Delta, integrate_against, resolve, support
from .errors import ValidationError
from .gentile import GibbsParams, _check_capacity, _check_lambda, _kernels, fermi_dirac

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


@dataclass(frozen=True)
class EnsembleMoments:
    """Per-level ensemble moments: elements per company n, money per
    element u (salary convention, so u <= 0) and the pressure generator
    omega >= 0."""

    n: float
    u: float
    omega: float


def moment_integrals(dist, d: int, params: GibbsParams) -> dict:
    """Raw moment integrals at one parameter point, in one pass.

    Returns n, m1 = integral of eps phi f, omega, and the derivative
    integrals A = integral of phi f', B = eps-weighted, C = eps^2-weighted.
    Families are resolved first; the phi terms of the derivatives are
    handled one level up (thermostatics).
    """
    base = resolve(dist, params)
    a, b = params.alpha, params.beta
    d = _check_capacity(d)

    def f(eps):  # (f, eps f, log Z, f', eps f', eps^2 f') at lambda = alpha + beta eps
        fv, fp, logz = _kernels(_check_lambda(a + b * eps), d)
        return fv, eps * fv, logz, fp, eps * fp, eps * eps * fp
    vals = integrate_against(base, f, breakpoints=(-a / b,))
    return dict(zip(("n", "m1", "omega", "A", "B", "C"), map(float, vals)))


def omega(dist, d: int, params: GibbsParams) -> float:
    """Pressure generator: integral of phi(eps) log Z(lambda(eps)) d eps >= 0."""
    a, b = params.alpha, params.beta
    d = _check_capacity(d)
    return float(integrate_against(resolve(dist, params),
                                   lambda eps: _kernels(_check_lambda(a + b * eps), d)[2],
                                   breakpoints=(-a / b,)))


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
    return float(integrate_against(resolve(dist, params),
                                   lambda eps: fermi_dirac(a - b * eps),
                                   breakpoints=(a / b,)))
