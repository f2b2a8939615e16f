"""Ensemble moments of the level statistics over a salary distribution.

Everything here uses the salary sign convention, lambda(eps) =
alpha + beta * eps, except :func:`fermi_market_share`, which integrates
the cost-convention Fermi-Dirac share.  Point-mass distributions bypass
quadrature entirely: their moments are the closed single-level forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import Delta, integrate_against, resolve, support
from .errors import ValidationError
from .gentile import (
    GibbsParams,
    fermi_dirac,
    gentile_mean,
    gentile_mean_dlambda,
    log_partition,
)

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


def _crossing(dist, params) -> tuple:
    """Points where lambda(eps) = 0 inside the support, as quadrature breakpoints."""
    lo, hi = support(dist)
    eps_star = -params.alpha / params.beta
    if lo < eps_star < hi:
        return (eps_star,)
    return ()


def _moment_integrand(params: GibbsParams, d: int, derivatives: bool = False):
    """eps -> [f, eps f, log Z] at lambda = alpha + beta eps, followed by
    [f', eps f', eps^2 f'] when ``derivatives`` is set."""
    a, b = params.alpha, params.beta

    def f(eps):
        lam = a + b * eps
        fv = gentile_mean(lam, d)
        if not derivatives:
            return np.array([fv, eps * fv, log_partition(lam, d)])
        fp = gentile_mean_dlambda(lam, d)
        return np.array([fv, eps * fv, log_partition(lam, d), fp, eps * fp, eps * eps * fp])
    return f


def moment_integrals(dist, d: int, params: GibbsParams, *,
                     derivatives: bool = False, rel_tol: float = 1e-10) -> dict:
    """Raw moment integrals at one parameter point.

    Always returns n, m1 = integral of eps phi f, and omega; with
    ``derivatives`` also A = integral of phi f', B = eps-weighted,
    C = eps^2-weighted.  Families are resolved first; the phi terms of
    the derivatives are handled one level up (thermostatics).
    """
    base = resolve(dist, params)
    vals = integrate_against(base, _moment_integrand(params, d, derivatives),
                             rel_tol=rel_tol, breakpoints=_crossing(base, params))
    out = {"n": float(vals[0]), "m1": float(vals[1]), "omega": float(vals[2])}
    if derivatives:
        out.update(A=float(vals[3]), B=float(vals[4]), C=float(vals[5]))
    return out


def omega(dist, d: int, params: GibbsParams, *, rel_tol: float = 1e-10) -> float:
    """Pressure generator: integral of phi(eps) log Z(lambda(eps)) d eps >= 0."""
    base = resolve(dist, params)
    return float(integrate_against(
        base, lambda eps: log_partition(params.alpha + params.beta * eps, d),
        rel_tol=rel_tol, breakpoints=_crossing(base, params)))


def ensemble_moments(dist, d: int, params: GibbsParams, *,
                     rel_tol: float = 1e-10) -> EnsembleMoments:
    """All three moments in one integration pass, with range checks."""
    base = resolve(dist, params)
    if isinstance(base, Delta):
        lam = params.alpha + params.beta * base.point
        mom = EnsembleMoments(gentile_mean(lam, d), -base.point,
                              log_partition(lam, d))
    else:
        m = moment_integrals(base, d, params, rel_tol=rel_tol)
        mom = EnsembleMoments(m["n"], -m["m1"] / m["n"], m["omega"])

    lo, hi = support(base)
    problems = []
    if not 0.0 < mom.n < d:
        problems.append(f"occupancy density {mom.n} outside (0, {d})")
    if mom.omega < 0.0:
        problems.append(f"omega {mom.omega} negative")
    slack = 1e-9 * max(1.0, hi)
    if not (-hi - slack <= mom.u <= -lo + slack):
        problems.append(f"energy per element {mom.u} outside [{-hi}, {-lo}]")
    if problems:  # pragma: no cover - guards numerical breakage only
        raise ValidationError(problems)
    return mom


def fermi_market_share(dist, params: GibbsParams, *,
                       rel_tol: float = 1e-10) -> float:
    """Mean occupied share of capacity-1 states across a cost distribution.

    Cost convention: the share at cost eps is 1 / (e^{beta eps - alpha} + 1).
    """
    base = resolve(dist, params)
    a, b = params.alpha, params.beta
    lo, hi = support(base)
    eps_star = a / b
    bp = (eps_star,) if lo < eps_star < hi else ()
    return float(integrate_against(base, lambda eps: fermi_dirac(a - b * eps),
                                   rel_tol=rel_tol, breakpoints=bp))
