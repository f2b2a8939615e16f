"""Thermostatic state of the company ensemble.

The forward maps (alpha, beta) -> (n, u, omega) come from
:mod:`hierstat.ensemble`.  This module adds:

* the inverse problem (n, u) -> (alpha, beta), by damped Newton from a
  computed starting point (support width and the point-mass activity
  at the phi-mean salary), with one extra step after convergence;
* analytic parameter derivatives of the moments, including the
  finite-difference phi terms when the distribution depends on the
  parameters;
* the map to temperature, financial potential, pressure and the Gibbs
  free energy, via the entropy per element psi = omega/n + beta u - alpha.
  For a parameter-independent phi the closed forms T = 1/beta,
  mu = alpha T, p = T omega apply and the general chain-rule path reduces
  to them exactly;
* second-derivative (Maxwell) residual reports, the equation-of-state
  sweep for a common salary level, and the condensation temperature.

Point-mass distributions make (n, u) -> (alpha, beta) rank deficient
(u is constant), so inversion refuses them with
:class:`~hierstat.errors.SingularInversion`; their states are computed
directly from (alpha, beta) through the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Delta, integrate_against, is_parametric, resolve, support
from .ensemble import PHI_STEP, _moment_integrand, ensemble_moments, moment_integrals
from .errors import (AccuracyError, NoConvergence, SingularInversion, ValidationError,
                     check_int, check_real)
from .gentile import (
    GibbsParams,
    activity_for_mean,
    gentile_mean,
    log_partition,
    _check_capacity,
)

__all__ = [
    "ThermoDerivatives",
    "ThermoState",
    "MaxwellReport",
    "EosTable",
    "EOS_COLUMNS",
    "thermo_derivatives",
    "invert_to_params",
    "thermo_state",
    "entropy_per_element",
    "maxwell_check",
    "eos_sweep",
    "critical_temperature",
    "condensation_abscissa",
    "BETA_WINDOW",
]

#: admissible beta range for the inverse problem
BETA_WINDOW = (1e-6, 1e3)


@dataclass(frozen=True)
class ThermoDerivatives:
    """Parameter derivatives of the ensemble moments at one point.

    ``jacobian`` is dn_dalpha * du_dbeta - dn_dbeta * du_dalpha by
    construction; ``phi_omega_dalpha``/``phi_omega_dbeta`` are the pure
    phi-dependence parts of the omega derivatives (zero for a fixed phi).
    """

    dn_dalpha: float
    dn_dbeta: float
    du_dalpha: float
    du_dbeta: float
    domega_dalpha: float
    domega_dbeta: float
    jacobian: float
    phi_omega_dalpha: float = 0.0
    phi_omega_dbeta: float = 0.0


@dataclass(frozen=True)
class ThermoState:
    """Complete thermostatic bundle for one level of the ensemble.

    n: elements per company; u: money per element; psi: entropy per
    element; T and mu carry currency units, p currency per company.
    """

    n: float
    u: float
    psi: float
    entropy_total: float
    temperature: float
    financial_potential: float
    pressure: float
    gibbs_free_energy: float
    volume: int
    elements: float
    energy_total: float
    omega: float
    alpha: float
    beta: float

    def residuals(self) -> dict:
        """Relative residuals of the defining identities, for auditing."""
        s_decomp = (self.beta * self.energy_total - self.alpha * self.elements
                    + self.volume * self.omega)
        scale_s = max(abs(self.entropy_total), abs(s_decomp), 1e-300)
        gibbs = self.elements * self.financial_potential
        scale_g = max(abs(self.gibbs_free_energy), abs(gibbs), 1e-300)
        euler_lhs = (self.energy_total
                     - self.temperature * self.entropy_total
                     - self.financial_potential * self.elements)
        euler_rhs = -self.pressure * self.volume
        scale_e = max(abs(self.energy_total),
                      abs(self.temperature * self.entropy_total),
                      abs(self.financial_potential * self.elements),
                      abs(euler_rhs), 1e-300)
        return {
            "entropy_decomposition": abs(self.entropy_total - s_decomp) / scale_s,
            "gibbs_identity": abs(self.gibbs_free_energy - gibbs) / scale_g,
            "euler_identity": abs(euler_lhs - euler_rhs) / scale_e,
        }


@dataclass(frozen=True)
class MaxwellReport:
    """Finite-difference residuals of the three cross-derivative relations
    of the entropy potential, at the probe step and at half step."""

    residuals: tuple
    residuals_half: tuple
    orders: tuple
    step: float


def _phi_terms(dist, d, params, rel_tol):
    """Finite-difference phi-dependence parts of the moment derivatives.

    For each parameter the perturbed distribution is integrated against
    the frozen base integrand (f, eps f, log Z at the base parameters).
    Returns zeros for a fixed phi.
    """
    zero = np.zeros(3)
    if not is_parametric(dist):
        return zero, zero
    a, b = params.alpha, params.beta
    frozen = _moment_integrand(params, d)

    def against(concrete):
        return np.asarray(integrate_against(concrete, frozen, rel_tol=rel_tol))

    h = PHI_STEP
    d_alpha = (against(dist.build(a + h, b)) - against(dist.build(a - h, b))) / (2 * h)
    d_beta = (against(dist.build(a, b + h)) - against(dist.build(a, b - h))) / (2 * h)
    return d_alpha, d_beta


def thermo_derivatives(dist, d: int, params: GibbsParams, *,
                       rel_tol: float = 1e-10) -> ThermoDerivatives:
    """Total derivatives of n, u and omega with respect to alpha and beta.

    The integrand parts are differentiated under the integral with the
    analytic occupation derivative; a parametric phi adds central
    finite-difference terms with step ``PHI_STEP``.  A zero Jacobian is
    a value here, not an error.
    """
    d = _check_capacity(d)
    base = resolve(dist, params)
    m = moment_integrals(base, d, params, derivatives=True, rel_tol=rel_tol)
    phi_a, phi_b = _phi_terms(dist, d, params, rel_tol)

    n = m["n"]
    u = -m["m1"] / n
    dn_da = m["A"] + phi_a[0]
    dn_db = m["B"] + phi_b[0]
    dm1_da = m["B"] + phi_a[1]
    dm1_db = m["C"] + phi_b[1]
    du_da = -(dm1_da + u * dn_da) / n
    du_db = -(dm1_db + u * dn_db) / n
    dom_da = n + phi_a[2]
    dom_db = -u * n + phi_b[2]
    jac = dn_da * du_db - dn_db * du_da
    return ThermoDerivatives(dn_da, dn_db, du_da, du_db, dom_da, dom_db, jac,
                             float(phi_a[2]), float(phi_b[2]))


def _scaled_residual(dist, d, alpha, beta, n_target, u_target, scale_u, rel_tol):
    params = GibbsParams(alpha, beta)
    base = resolve(dist, params)
    m = moment_integrals(base, d, params, rel_tol=rel_tol)
    n = m["n"]
    u = -m["m1"] / n
    return np.array([(n - n_target) / n_target, (u - u_target) / scale_u])


def invert_to_params(dist, d: int, n_target: float, u_target: float, *,
                     rel_tol: float = 1e-12) -> GibbsParams:
    """Solve (n, u) = targets for (alpha, beta).

    Damped Newton (up to 80 steps, each halved up to 60 times) with the analytic
    Jacobian; beta is kept inside ``BETA_WINDOW``.  The start is computed:
    beta0 = 1/(hi - lo) over the support of phi (of ``dist.build(0, 1)``
    for a family), and alpha0 makes a point mass at the phi-mean salary
    hold ``n_target`` elements.  Near a saturated atom a 1e-12 residual
    still allows ~1e-8 of error in (alpha, beta), so once both residuals
    pass ``rel_tol`` one more step goes through the same line search; if
    it is rejected or its Jacobian fails, the converged iterate is kept.
    Point masses are refused outright: their u is constant, so the system
    is rank one.

    Raises only :class:`ValidationError` (capacity or targets out of
    range), :class:`SingularInversion` (a point mass, or a singular
    Jacobian at an unconverged iterate) and :class:`NoConvergence`.  The
    last covers an exhausted budget, a stalled line search and moments or
    a Jacobian whose quadrature fails at an iterate; it carries the
    residuals and (alpha, beta) of the last accepted iterate.
    """
    d = _check_capacity(d)
    probe = dist.build(0.0, 1.0) if is_parametric(dist) else dist
    if isinstance(probe, Delta):
        raise SingularInversion(
            "point-mass distribution: u is constant, the map (alpha, beta) -> (n, u) "
            "is rank one; parameterize the state by (alpha, beta) or (lambda, beta)")

    problems = []
    n_target = check_real(n_target, "n_target", problems, 0, d,
                          open_low=True, open_high=True)
    lo, hi = support(probe)
    u_lo, u_hi = (-math.inf, math.inf) if is_parametric(dist) else (-hi, -lo)
    u_target = check_real(u_target, "u_target", problems, u_lo, u_hi,
                          open_low=True, open_high=True)
    if problems:
        raise ValidationError(problems)

    scale_u = max(abs(u_target), 1e-12)
    beta = 1.0 / (hi - lo)
    alpha = (activity_for_mean(d, n_target)
             - beta * integrate_against(probe, lambda eps: eps))
    try:
        res = _scaled_residual(dist, d, alpha, beta, n_target, u_target,
                               scale_u, rel_tol)
    except (AccuracyError, OverflowError) as exc:
        raise NoConvergence(f"inverse problem did not converge: the moments at "
                            f"the starting point failed ({exc})",
                            alpha=alpha, beta=beta) from None
    norm = float(np.hypot(*res))
    lo_b, hi_b = BETA_WINDOW
    message = "inverse problem did not converge"
    for _ in range(80):
        # a converged iterate gets one more step, then is returned as it stands
        converged = abs(res[0]) <= rel_tol and abs(res[1]) <= rel_tol
        try:
            der = thermo_derivatives(dist, d, GibbsParams(alpha, beta),
                                     rel_tol=rel_tol)
        except (AccuracyError, OverflowError) as exc:
            if converged:
                return GibbsParams(alpha, beta)
            message += f" (the Jacobian failed at the last iterate: {exc})"
            break
        jac = np.array([[der.dn_dalpha / n_target, der.dn_dbeta / n_target],
                        [der.du_dalpha / scale_u, der.du_dbeta / scale_u]])
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            if converged:
                return GibbsParams(alpha, beta)
            raise SingularInversion(
                "Jacobian of (n, u) with respect to (alpha, beta) is singular "
                f"at alpha={float(alpha)!r}, beta={float(beta)!r}") from None
        t = 1.0
        accepted = False
        for _ in range(60):
            a_new = alpha + t * step[0]
            b_new = beta + t * step[1]
            if lo_b < b_new < hi_b and math.isfinite(a_new):
                try:
                    res_new = _scaled_residual(dist, d, a_new, b_new, n_target,
                                               u_target, scale_u, rel_tol)
                except (ValidationError, AccuracyError, OverflowError):
                    t *= 0.5
                    continue
                norm_new = float(np.hypot(*res_new))
                if norm_new < norm * (1.0 - 1e-4 * t) or norm_new < rel_tol:
                    alpha, beta, res, norm = a_new, b_new, res_new, norm_new
                    accepted = True
                    break
            t *= 0.5
        if converged:
            return GibbsParams(alpha, beta)
        if not accepted:
            break
    if abs(res[0]) <= rel_tol and abs(res[1]) <= rel_tol:
        return GibbsParams(alpha, beta)
    if beta < 10 * lo_b or beta > 0.1 * hi_b:
        # a pinned beta usually means the (n, u) pair lies outside the
        # attainable set of this distribution (u cannot exceed minus the
        # plain phi-average of the money scale)
        message += " (beta pinned at the search boundary; the target pair " \
                   "may be unattainable for this distribution)"
    raise NoConvergence(message,
                        residual_n=float(res[0]), residual_u=float(res[1]),
                        alpha=float(alpha), beta=float(beta))


def thermo_state(dist, d: int, params: GibbsParams, volume: int, *,
                 rel_tol: float = 1e-10) -> ThermoState:
    """Full thermostatic state at (alpha, beta) for ``volume`` companies.

    Fixed phi (including every point mass) takes the closed-form route
    T = 1/beta, mu = alpha T, p = T omega; a parametric phi goes through
    the chain rule with the moment Jacobian, which needs the Jacobian to
    be nonzero.
    """
    d = _check_capacity(d)
    problems = []
    volume = check_int(volume, "volume", problems, 1)
    if problems:
        raise ValidationError(problems)

    mom = ensemble_moments(dist, d, params, rel_tol=rel_tol)
    n, u, om = mom.n, mom.u, mom.omega
    alpha, beta = params.alpha, params.beta
    psi = om / n + beta * u - alpha

    if is_parametric(dist):
        der = thermo_derivatives(dist, d, params, rel_tol=rel_tol)
        if der.jacobian == 0.0 or not math.isfinite(der.jacobian):
            raise SingularInversion(
                "zero moment Jacobian: the chain rule for the entropy "
                "derivatives is undefined at this point")
        bracket_a = der.phi_omega_dalpha / n
        bracket_b = der.phi_omega_dbeta / n
        dpsi_du = beta - (bracket_a * der.dn_dbeta - bracket_b * der.dn_dalpha) / der.jacobian
        dpsi_dn = (-om / (n * n)
                   + (bracket_a * der.du_dbeta - bracket_b * der.du_dalpha) / der.jacobian)
    else:
        dpsi_du = beta
        dpsi_dn = -om / (n * n)

    if dpsi_du <= 0.0:
        raise ValidationError(
            f"computed inverse temperature {dpsi_du} is not positive")
    temperature = 1.0 / dpsi_du
    mu = temperature * (u * dpsi_du - psi - n * dpsi_dn)
    pressure = -n * n * temperature * dpsi_dn

    elements = n * volume
    energy_total = u * elements
    entropy_total = elements * psi
    gibbs = energy_total - temperature * entropy_total + pressure * volume
    return ThermoState(n=n, u=u, psi=psi, entropy_total=entropy_total,
                       temperature=temperature, financial_potential=mu,
                       pressure=pressure, gibbs_free_energy=gibbs,
                       volume=volume, elements=elements,
                       energy_total=energy_total, omega=om,
                       alpha=alpha, beta=beta)


def entropy_per_element(dist, d: int, n: float, u: float, *,
                        rel_tol: float = 1e-12) -> float:
    """psi(n, u) through the inverse problem (fixed or parametric phi)."""
    params = invert_to_params(dist, d, n, u, rel_tol=rel_tol)
    mom = ensemble_moments(dist, d, params)
    return mom.omega / mom.n + params.beta * mom.u - params.alpha


def _intensive_at(dist, d, energy, elements, volume, rel_tol):
    """(1/T, mu/T, p/T) as functions of the extensive variables.

    Fixed phi only: the triple is (beta, alpha, omega) at the parameters
    solving n = elements/volume, u = energy/elements.  ``volume`` may be
    fractional here; it only enters through the density.
    """
    n = elements / volume
    u = energy / elements
    params = invert_to_params(dist, d, n, u, rel_tol=rel_tol)
    om = ensemble_moments(dist, d, params).omega
    return params.beta, params.alpha, om


def maxwell_check(dist, d: int, params: GibbsParams, volume: int, *,
                  step: float = 1e-3, rel_tol: float = 1e-12) -> MaxwellReport:
    """Cross-derivative consistency of the entropy potential.

    Checks d(1/T)/dN = -d(mu/T)/dE, d(1/T)/dV = d(p/T)/dE and
    d(p/T)/dN = -d(mu/T)/dV by central differences around the state,
    at relative step ``step`` and again at half step so the caller can
    verify second-order convergence.  Requires a fixed, non-point-mass
    phi, otherwise S is not a free function of (E, N) at fixed V.
    """
    if is_parametric(dist):
        raise ValidationError("maxwell_check requires a parameter-independent phi")
    if isinstance(resolve(dist, GibbsParams(0.0, 1.0)), Delta):
        raise ValidationError(
            "point-mass distribution: u is pinned to -epsilon0, so entropy is "
            "not a free function of (energy, elements) and the cross "
            "derivatives are undefined")

    state = thermo_state(dist, d, params, volume)
    e0, n0, v0 = state.energy_total, state.elements, float(volume)

    def residuals(h: float):
        h_e, h_n, h_v = h * abs(e0), h * n0, h * v0

        def grad(var: int, h_var: float, component: int):
            args_p = [e0, n0, v0]
            args_m = [e0, n0, v0]
            args_p[var] += h_var
            args_m[var] -= h_var
            fp = _intensive_at(dist, d, *args_p, rel_tol)[component]
            fm = _intensive_at(dist, d, *args_m, rel_tol)[component]
            return (fp - fm) / (2.0 * h_var)

        # components: 0 -> 1/T, 1 -> mu/T, 2 -> p/T; vars: 0 -> E, 1 -> N, 2 -> V
        pairs = (
            (grad(1, h_n, 0), -grad(0, h_e, 1)),
            (grad(2, h_v, 0), grad(0, h_e, 2)),
            (grad(1, h_n, 2), -grad(2, h_v, 1)),
        )
        return tuple(abs(a - b) / max(abs(a), abs(b), 1e-300) for a, b in pairs)

    full = residuals(step)
    half = residuals(0.5 * step)
    orders = tuple(
        math.log2(f / h) if h > 0 and f > 0 else math.inf
        for f, h in zip(full, half))
    return MaxwellReport(residuals=full, residuals_half=half,
                         orders=orders, step=step)


#: fixed header of the equation-of-state table
EOS_COLUMNS = ("lambda", "n_over_d", "p_over_T", "mu_shifted_over_T", "x")


@dataclass(frozen=True)
class EosTable:
    """Equation-of-state sweep for a common-salary level, row per activity.

    p_over_T is omega; mu_shifted_over_T is the activity itself (the
    salary-shifted financial potential over temperature); x is
    ln(d+1)/omega, the temperature in units of the condensation
    temperature.
    """

    lam: np.ndarray
    n_over_d: np.ndarray
    p_over_T: np.ndarray
    mu_shifted_over_T: np.ndarray
    x: np.ndarray

    def rows(self):
        for i in range(self.lam.size):
            yield (float(self.lam[i]), float(self.n_over_d[i]),
                   float(self.p_over_T[i]), float(self.mu_shifted_over_T[i]),
                   float(self.x[i]))


def eos_sweep(d: int, lambda_grid) -> EosTable:
    """Evaluate the parametric equation of state on an activity grid.

    At lambda = 0 the occupancy is exactly half filling and x is exactly
    one, by the series branch.
    """
    d = _check_capacity(d)
    grid = np.asarray(lambda_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid)):
        raise ValidationError("lambda grid must be a non-empty finite 1-d vector")
    log_dp1 = math.log1p(d)
    n_over_d = np.empty(grid.size)
    p_over_t = np.empty(grid.size)
    for i, lam in enumerate(grid):
        n_over_d[i] = gentile_mean(lam, d) / d
        p_over_t[i] = log_partition(lam, d)
    return EosTable(lam=grid.copy(), n_over_d=n_over_d, p_over_T=p_over_t,
                    mu_shifted_over_T=grid.copy(), x=log_dp1 / p_over_t)


def critical_temperature(d: int, pressure: float) -> float:
    """Temperature at which a common-salary level reaches half filling:
    pressure / ln(d+1)."""
    problems = []
    d = check_int(d, "capacity", problems, 1)
    pressure = check_real(pressure, "pressure", problems, 0, open_low=True)
    if problems:
        raise ValidationError(problems)
    return pressure / math.log1p(d)


def condensation_abscissa(d: int, fill: float) -> float:
    """x = ln(d+1)/omega at the activity where n/d equals ``fill``."""
    problems = []
    d = check_int(d, "capacity", problems, 1)
    fill = check_real(fill, "fill", problems, 0, 1, open_low=True, open_high=True)
    if problems:
        raise ValidationError(problems)
    lam = activity_for_mean(d, fill * d)
    return math.log1p(d) / log_partition(lam, d)
