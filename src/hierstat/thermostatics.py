"""Thermostatic state of the company ensemble.

The forward maps (alpha, beta) -> (n, u, omega), and every other
integral over phi, come from :mod:`hierstat.ensemble`; this module only
does algebra on its results.  It adds:

* the inverse problem (n, u) -> (alpha, beta), by damped Newton from a
  start computed from the targets (the line through the activities of two
  atoms matched to phi), with one extra step after convergence.  Each
  accepted iterate is integrated once: its Jacobian reuses the moment
  pass that scored it in the line search.  It runs on Python floats (the
  Newton step is a 2x2 LU solve), so this module loads no numpy.  The
  solver, its line search, the state and the Maxwell check carry (alpha,
  beta) as two floats, the moments as the list of ``ensemble._moments``
  and the derivatives as a tuple: :class:`GibbsParams`,
  :class:`~hierstat.ensemble.EnsembleMoments`, :class:`ThermoDerivatives`
  and the :func:`~hierstat.ensemble.moment_integrals` dict are built here
  and in the ensemble only as the return values of public entry points;
* analytic parameter derivatives of the moments, including the
  finite-difference phi terms (from the ensemble) when the distribution
  depends on the parameters;
* the map to temperature, financial potential, pressure and the Gibbs
  free energy, via the entropy per element psi = omega/n + beta u - alpha.
  For a parameter-independent phi the closed forms T = 1/beta,
  mu = alpha T, p = T omega apply and the general chain-rule path reduces
  to them exactly.  A state integrates its point once: the chain rule
  takes its Jacobian from the moment pass that gave n, u and omega;
* second-derivative (Maxwell) residual reports from central differences
  of the forward map in alpha and beta (no inversion), which test that n,
  m1 and omega derive from one potential, and the condensation temperature.
  The equation-of-state sweep for a common salary level lives next to
  the kernels in :mod:`hierstat.gentile` and is re-exported here.

Point-mass distributions make (n, u) -> (alpha, beta) rank deficient
(u is constant), so inversion refuses them with
:class:`~hierstat.errors.SingularInversion`; their states are computed
directly from (alpha, beta) through the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import Delta, ParametricFamily, TwoPoint, _resolve_at, resolve, support
from .ensemble import _checked_moments, _moments, _n_and_u, _phi_terms, _two_point_law
from .errors import (_DOUBLE_MAX, NoConvergence, SingularInversion, ValidationError,
                     check_int, check_real, checked)
from .gentile import (  # the EOS block is re-exported here unchanged
    EOS_COLUMNS,
    EosTable,
    GibbsParams,
    activity_for_mean,
    eos_sweep,
    log_partition,
    _activity_estimate,
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
    "MAXWELL_STEP",
]

#: admissible beta range for the inverse problem
BETA_WINDOW = (1e-6, 1e3)
#: both scaled residuals below this count as solved
_NEWTON_TOL = 1e-12
#: step h of the central differences in :func:`maxwell_check`: alpha +- h, beta (1 +- h)
MAXWELL_STEP = 1e-3
#: the phi terms of :func:`~hierstat.ensemble._phi_terms` for a fixed phi
_NO_PHI_TERMS = (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)


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
        euler_lhs = (self.energy_total
                     - self.temperature * self.entropy_total
                     - self.financial_potential * self.elements)
        euler_rhs = -self.pressure * self.volume
        scale_e = max(abs(self.energy_total),
                      abs(self.temperature * self.entropy_total),
                      abs(self.financial_potential * self.elements),
                      abs(euler_rhs), 1e-300)
        # G - N mu is the Euler residual reordered, so over its terms too: at
        # alpha = 0, mu = 0 and G cancels to a rounding residue
        scale_g = max(scale_e, abs(self.gibbs_free_energy))
        return {
            "entropy_decomposition": abs(self.entropy_total - s_decomp) / scale_s,
            "gibbs_identity": abs(self.gibbs_free_energy - gibbs) / scale_g,
            "euler_identity": abs(euler_lhs - euler_rhs) / scale_e,
        }


@dataclass(frozen=True)
class MaxwellReport:
    """Finite-difference residuals of the three cross-derivative relations
    of the entropy potential, at ``MAXWELL_STEP`` and at half step."""

    residuals: tuple
    residuals_half: tuple
    orders: tuple
    step: float


def thermo_derivatives(dist, d: int, params: GibbsParams) -> ThermoDerivatives:
    """Total derivatives of n, u and omega with respect to alpha and beta.

    The integrand parts are differentiated under the integral with the
    analytic occupation derivative; a parametric phi adds central
    finite-difference terms with step ``ensemble.PHI_STEP``.  A zero Jacobian is
    a value; an underflowed n or a non-finite derivative is a ValidationError.
    """
    d = _check_capacity(d)
    base = resolve(dist, params)
    alpha, beta = params.alpha, params.beta
    m = _moments(base, d, alpha, beta)
    if not m[0] > 0.0:
        _n_and_u(m, d, alpha, beta)  # raises; n = d still has derivatives
    return ThermoDerivatives(*_derivatives(dist, d, alpha, beta, m))


def _derivatives(dist, d, alpha, beta, m):
    """The nine fields of :func:`thermo_derivatives`, in order, as a tuple of
    floats, from the :func:`~hierstat.ensemble._moments` list ``m`` at
    (alpha, beta)."""
    phi_a, phi_b = (_phi_terms(dist, d, alpha, beta) if isinstance(dist, ParametricFamily)
                    else _NO_PHI_TERMS)
    n, m1, _, big_a, big_b, big_c = m
    u = -m1 / n
    dn_da = big_a + phi_a[0]
    dn_db = big_b + phi_b[0]
    dm1_da = big_b + phi_a[1]
    dm1_db = big_c + phi_b[1]
    du_da = -(dm1_da + u * dn_da) / n
    du_db = -(dm1_db + u * dn_db) / n
    dom_da = n + phi_a[2]
    dom_db = -u * n + phi_b[2]
    values = (dn_da, dn_db, du_da, du_db, dom_da, dom_db, dn_da * du_db - dn_db * du_da)
    if not all(map(math.isfinite, values)):
        raise ValidationError(f"derivative not finite at alpha={alpha!r}, beta={beta!r}")
    return values + (phi_a[2], phi_b[2])


def _scaled_residual(dist, d, alpha, beta, n_target, u_target, scale_u):
    """The residuals of (n, u) at (alpha, beta), scaled by ``n_target`` and
    ``scale_u``, and the :func:`~hierstat.ensemble._moments` list they came from."""
    m = _moments(dist, d, alpha, beta)
    n, u = _n_and_u(m, d, alpha, beta)
    return ((n - n_target) / n_target, (u - u_target) / scale_u), m


def _lu_solve_2x2(j11, j12, j21, j22, b1, b2):
    """(x1, x2) with [[j11, j12], [j21, j22]] (x1, x2) = (b1, b2), by LU
    with partial pivoting in plain floats; an exactly zero pivot raises
    ZeroDivisionError."""
    if abs(j21) > abs(j11):
        j11, j12, b1, j21, j22, b2 = j21, j22, b2, j11, j12, b1
    low = j21 / j11
    x2 = (b2 - low * b1) / (j22 - low * j12)
    return (b1 - j12 * x2) / j11, x2


def invert_to_params(dist, d: int, n_target: float, u_target: float) -> GibbsParams:
    """Solve (n, u) = targets for (alpha, beta).

    Damped Newton (up to 80 steps, each halved up to 60 times) with the analytic
    Jacobian; beta is kept inside ``BETA_WINDOW``.  The start is the line
    lambda = alpha + beta eps through the estimated activities of two atoms
    matched to phi (of ``dist.build(0, 1)`` for a family), which share
    ``n_target`` so that their mean salary is -``u_target``.  Near a
    saturated atom a 1e-12 residual still allows ~1e-8 of error in (alpha,
    beta), so once both residuals are within 1e-12 one more step goes
    through the same line search; if it is rejected or its Jacobian
    fails, the converged iterate is kept.  Point masses are refused
    outright: their u is constant, so the system is rank one.  Each
    accepted iterate (and the start) is integrated once: the moment pass
    that scored it in the line search also gives its Jacobian, so a solve
    costs one moment pass per residual.

    Raises only :class:`ValidationError` (capacity or targets out of
    range), :class:`SingularInversion` (a point mass, or a singular
    Jacobian at an unconverged iterate) and :class:`NoConvergence`.  The last covers an exhausted budget, a stalled
    line search and moments or a Jacobian that fail at an iterate; it
    carries the residuals and (alpha, beta) of the last accepted iterate.
    """
    alpha, beta, _ = _solve(dist, d, n_target, u_target)
    return GibbsParams(alpha, beta)


def _cold_start(probe, d, n_target, salary, width):
    """(alpha0, beta0) of :func:`invert_to_params`.  A density's atoms (its mean -/+ its sd)
    can both fall where the mean climbs from 0 to d within |lambda| ~ 1/d, so its line must
    rise by 1/width; else beta0 = 1/width and alpha0 puts the phi-mean at n_target's activity."""
    e1, e2, w = _two_point_law(probe)
    beta = 1.0 / width
    if e1 != e2:
        q = (salary - e1) / (e2 - e1)
        n1, n2 = (1.0 - q) * n_target / w, q * n_target / (1.0 - w)
        if 0.0 < n1 < d and 0.0 < n2 < d:
            lam1 = _activity_estimate(d, n1)
            slope = (_activity_estimate(d, n2) - lam1) / (e2 - e1)
            if (BETA_WINDOW[0] if isinstance(probe, TwoPoint) else beta) < slope < BETA_WINDOW[1]:
                return lam1 - slope * e1, slope
    return _activity_estimate(d, n_target) - beta * (w * e1 + (1.0 - w) * e2), beta


def _solve(dist, d, n_target, u_target):
    """:func:`invert_to_params` as the floats (alpha, beta) and the
    :func:`~hierstat.ensemble._moments` list at the solution."""
    d = _check_capacity(d)
    probe = _resolve_at(dist, 0.0, 1.0)
    if isinstance(probe, Delta):
        raise SingularInversion(
            "point-mass distribution: u is constant, the map (alpha, beta) -> (n, u) "
            "is rank one; parameterize the state by (alpha, beta) or (lambda, beta)")

    problems = []
    n_target = check_real(n_target, "n_target", problems, 0, d,
                          open_low=True, open_high=True)
    lo, hi = support(probe)
    u_lo, u_hi = (-math.inf, math.inf) if isinstance(dist, ParametricFamily) else (-hi, -lo)
    u_target = check_real(u_target, "u_target", problems, u_lo, u_hi,
                          open_low=True, open_high=True)
    if problems:
        raise ValidationError(problems)

    scale_u = max(abs(u_target), 1e-12)
    alpha, beta = _cold_start(probe, d, n_target, -u_target, hi - lo)
    try:
        if not (math.isfinite(alpha) and 0.0 < beta < math.inf):
            # a start off the parameter domain, refused with GibbsParams' own message;
            # problems is empty here, the targets having passed
            check_real(alpha, "alpha", problems)
            check_real(beta, "beta", problems, 0, open_low=True)
            raise ValidationError(problems)
        res, m = _scaled_residual(dist, d, alpha, beta, n_target, u_target, scale_u)
    except (ValidationError, OverflowError) as exc:
        raise NoConvergence(f"inverse problem did not converge: the moments at "
                            f"the starting point failed ({exc})",
                            alpha=alpha, beta=beta) from None
    norm = math.hypot(*res)
    lo_b, hi_b = BETA_WINDOW
    message = "inverse problem did not converge"
    for _ in range(80):
        # a converged iterate gets one more step, then is returned as it stands
        converged = abs(res[0]) <= _NEWTON_TOL and abs(res[1]) <= _NEWTON_TOL
        try:
            der = _derivatives(dist, d, alpha, beta, m)
        except (ValidationError, OverflowError) as exc:
            if not converged:
                message += f" (the Jacobian failed at the last iterate: {exc})"
            break
        try:
            step = _lu_solve_2x2(der[0] / n_target, der[1] / n_target,
                                 der[2] / scale_u, der[3] / scale_u, -res[0], -res[1])
        except ZeroDivisionError:
            if converged:
                break
            raise SingularInversion(
                "Jacobian of (n, u) with respect to (alpha, beta) is singular "
                f"at alpha={alpha!r}, beta={beta!r}") from None
        t = 1.0
        accepted = False
        for _ in range(60):
            a_new = alpha + t * step[0]
            b_new = beta + t * step[1]
            if lo_b < b_new < hi_b and math.isfinite(a_new):
                try:
                    res_new, m_new = _scaled_residual(dist, d, a_new, b_new, n_target,
                                                      u_target, scale_u)
                except (ValidationError, OverflowError):
                    t *= 0.5
                    continue
                norm_new = math.hypot(*res_new)
                if norm_new < norm * (1.0 - 1e-4 * t) or norm_new < _NEWTON_TOL:
                    alpha, beta, res, norm, m = a_new, b_new, res_new, norm_new, m_new
                    accepted = True
                    break
            t *= 0.5
        if converged:
            return alpha, beta, m
        if not accepted:
            break
    if abs(res[0]) <= _NEWTON_TOL and abs(res[1]) <= _NEWTON_TOL:
        return alpha, beta, m
    if beta < 10 * lo_b or beta > 0.1 * hi_b:
        # a pinned beta usually means the (n, u) pair lies outside the
        # attainable set of this distribution (u cannot exceed minus the
        # plain phi-average of the money scale)
        message += " (beta pinned at the search boundary; the target pair " \
                   "may be unattainable for this distribution)"
    raise NoConvergence(message, residual_n=res[0], residual_u=res[1],
                        alpha=alpha, beta=beta)


def thermo_state(dist, d: int, params: GibbsParams, volume: int) -> ThermoState:
    """Full thermostatic state at (alpha, beta) for ``volume`` companies.

    Fixed phi (including every point mass) takes the closed-form route
    T = 1/beta, mu = alpha T, p = T omega; a parametric phi goes through
    the chain rule with the moment Jacobian, which needs the Jacobian to
    be nonzero; the Jacobian reuses the moment integrals of n, u and omega.
    """
    return _state(dist, d, params, volume)[0]


def _state(dist, d, params, volume):
    """:func:`thermo_state` and the :func:`~hierstat.ensemble._moments` list it came from."""
    d = _check_capacity(d)
    volume = checked(check_int, volume, "volume", 1, _DOUBLE_MAX)

    (n, u, om), m = _checked_moments(dist, d, params)
    alpha, beta = params.alpha, params.beta
    if n * n == 0.0:  # dpsi/dn and the pressure divide and multiply by n^2
        raise ValidationError(f"occupancy density {n} at alpha={alpha!r}, beta={beta!r}: "
                              "its square underflowed")
    psi = om / n + beta * u - alpha

    if isinstance(dist, ParametricFamily):
        dn_da, dn_db, du_da, du_db, _, _, jac, phi_om_da, phi_om_db = \
            _derivatives(dist, d, alpha, beta, m)
        if jac == 0.0:
            raise SingularInversion(
                "zero moment Jacobian: the chain rule for the entropy "
                "derivatives is undefined at this point")
        bracket_a = phi_om_da / n
        bracket_b = phi_om_db / n
        dpsi_du = beta - (bracket_a * dn_db - bracket_b * dn_da) / jac
        dpsi_dn = -om / (n * n) + (bracket_a * du_db - bracket_b * du_da) / jac
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
    state = ThermoState(n=n, u=u, psi=psi, entropy_total=entropy_total,
                        temperature=temperature, financial_potential=mu,
                        pressure=pressure, gibbs_free_energy=gibbs,
                        volume=volume, elements=elements,
                        energy_total=energy_total, omega=om,
                        alpha=alpha, beta=beta)
    if not max(state.residuals().values()) <= 1e-8:
        raise ValidationError(f"the state breaks its identities at alpha={alpha!r}, "
                              f"beta={beta!r}: {state.residuals()}")
    return state, m


def entropy_per_element(dist, d: int, n: float, u: float) -> float:
    """psi(n, u) through the inverse problem (fixed or parametric phi)."""
    alpha, beta, m = _solve(dist, d, n, u)
    return m[2] / m[0] + beta * (-m[1] / m[0]) - alpha


def maxwell_check(dist, d: int, params: GibbsParams, volume: int) -> MaxwellReport:
    """Cross-derivative consistency of the entropy potential.

    Checks d(1/T)/dN = -d(mu/T)/dE, d(1/T)/dV = d(p/T)/dE and
    d(p/T)/dN = -d(mu/T)/dV, with (1/T, mu/T, p/T) = (beta, alpha, omega),
    on the forward map: central differences at alpha +- h and beta (1 +- h)
    give K = d(n u, n)/d(alpha, beta), and one 2x2 solve with K per variable
    of (E, N, V) = V (n u, n, 1) gives d(alpha, beta)/d(E, N, V): a test that
    n, m1 and omega derive from one potential, not of the inverse problem.
    h is ``MAXWELL_STEP`` and half of it, so the caller can verify second-order
    convergence.  Requires a fixed, non-point-mass phi, otherwise S is not a
    free function of (E, N) at fixed V.
    """
    if isinstance(dist, ParametricFamily):
        raise ValidationError("maxwell_check requires a parameter-independent phi")
    if isinstance(dist, Delta):
        raise ValidationError("point-mass distribution: u is pinned to -epsilon0, so entropy "
                              "is not a free function of (energy, elements) and the cross "
                              "derivatives are undefined")

    state, m = _state(dist, d, params, volume)
    alpha, beta, v = state.alpha, state.beta, float(volume)

    def residuals(h: float):
        # the alpha and beta columns of (n u, n, omega) = (-m1, n, omega)
        cols = []
        for da, db in ((h, 0.0), (0.0, h * beta)):
            plus = _moments(dist, d, alpha + da, beta + db)
            minus = _moments(dist, d, alpha - da, beta - db)
            width = 2.0 * (da + db)
            cols.append(((minus[1] - plus[1]) / width, (plus[0] - minus[0]) / width,
                         (plus[2] - minus[2]) / width))
        (nu_a, n_a, om_a), (nu_b, n_b, om_b) = cols
        # grad[var] = d(beta, alpha, omega)/d(var) for var = E, N, V, from
        # V K d(alpha, beta) = (dE, dN) - (n u, n) dV
        grad = []
        for rhs in ((1.0 / v, 0.0), (0.0, 1.0 / v), (m[1] / v, -m[0] / v)):
            try:
                da, db = _lu_solve_2x2(nu_a, nu_b, n_a, n_b, *rhs)
            except ZeroDivisionError:
                raise SingularInversion("Jacobian of (n u, n) with respect to (alpha, beta) "
                                        f"is singular at alpha={alpha!r}, beta={beta!r}") from None
            grad.append((db, da, om_a * da + om_b * db))
        (de_b, de_a, de_o), (dn_b, _, dn_o), (dv_b, dv_a, _) = grad
        pairs = ((dn_b, -de_a), (dv_b, de_o), (dn_o, -dv_a))
        return tuple(abs(a - b) / max(abs(a), abs(b), 1e-300) for a, b in pairs)

    full, half = residuals(MAXWELL_STEP), residuals(0.5 * MAXWELL_STEP)
    orders = tuple(math.log2(f / h) if h > 0 and f > 0 else math.inf
                   for f, h in zip(full, half))
    return MaxwellReport(residuals=full, residuals_half=half,
                         orders=orders, step=MAXWELL_STEP)


def critical_temperature(d: int, pressure: float) -> float:
    """Temperature at which a common-salary level reaches half filling:
    pressure / ln(d+1)."""
    problems = []
    d = check_int(d, "capacity", problems, 1, _DOUBLE_MAX)
    pressure = check_real(pressure, "pressure", problems, 0, open_low=True)
    if problems:
        raise ValidationError(problems)
    return pressure / math.log1p(d)


def condensation_abscissa(d: int, fill: float) -> float:
    """x = ln(d+1)/omega at the activity where n/d equals ``fill``."""
    problems = []
    d = check_int(d, "capacity", problems, 1, _DOUBLE_MAX)
    fill = check_real(fill, "fill", problems, 0, 1, open_low=True, open_high=True)
    if problems:
        raise ValidationError(problems)
    lam = activity_for_mean(d, fill * d)
    return math.log1p(d) / log_partition(lam, d)
