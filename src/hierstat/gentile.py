"""Single-level occupancy statistics for capacity-bounded systems.

A level holds at most ``d`` elements; a state with ``r`` occupants
carries the Gibbs weight exp(lambda * r), where the activity exponent
lambda folds together the per-element multiplier alpha, the inverse
money scale beta and the sign convention (cost vs salary).  The mean
occupation is the intermediate (Gentile) statistics: Fermi-Dirac at
d = 1, Bose-Einstein in the d -> infinity limit.

All evaluators are pure functions.  The closed forms have a removable
singularity at lambda = 0 and lose digits to cancellation near it, so
while x = |lambda| * (d + 1) is below ``SERIES_CUTOFF`` = 2 all three
kernels (log Z, the mean and its lambda-derivative) are summed from one
Bernoulli series instead.  The mean is a shifted Brillouin function,
f = J + J B_J(J lambda) with J = d/2, and the Bernoulli expansion of coth
(Abramowitz & Stegun 4.5.67) gives

    f(lambda, d) = d/2 + sum_k B_2k ((d+1)^2k - 1) lambda^(2k-1) / (2k)!,

which converges for |x| < 2 pi; its term-by-term derivative is the
variance and its integral is log Z.  At the switch the closed forms
cancel by less than one digit, so all three kernels stay within about
ten ulp on both sides.  Outside the series region positive activities are
mapped through the complement identity f(lambda) = d - f(-lambda) so
nothing ever overflows.

The three kernels share one body, ``_kernels``, and one branch test: the
series branch runs one Horner loop over rows of three coefficients in the
same y; the closed form takes e^{-t} and 1 - e^{-t} once for each of
t = |lambda| and t = |x| and forms f from their ratio, the variance from
the ratio over the square and log(1 - e^{-t}) from whichever is exact
(Maechler's ln 1/2 switch).  Above d + 1 = 2^500, near where (d + 1)^2
overflows and where (1 - e^-|lambda|)^2 can underflow, both branches factor
d + 1 out: the series forms f and f' as multiples of d + 1 and (d + 1)^2,
and the closed form takes f' = (g(a) - g(t)) / a^2 with g(z) = z^2 e^-z /
(1 - e^-z)^2, which falls from g(0) = 1 to g(t) <= g(2) ~ 0.72 there.  So
the kernels stay within a few ulp up to the largest double capacity, with
f' = +inf where it is above the largest double.  The public kernels check
and index; the ensemble calls it at the ends of a piece, or per node of its
graded Gauss-Legendre rule.

Integrals of the kernels over an activity interval need one more
function, the antiderivative G of log Z (``_log_partition_integral``).
It is a difference of dilogarithms, G(lambda) = Li2(e^lambda) -
Li2(e^(lambda D)) / D with D = d + 1 for lambda <= 0, mapped through the
same complement identity for lambda > 0.  Li2(e^-t) is summed from its
Bernoulli series, which shares the kernels' coefficients, below t = 1 and
from e^-kt / k^2 above, within a few ulp of mpmath on both sides.

The equation-of-state sweep of a common-salary level and the grid helper
behind the CLI and the figures live here too, so those paths need no
numpy; only the probability vector and the direct-sum oracle import it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .errors import (_DOUBLE_MAX, NoConvergence, ValidationError, _check_type, _freeze,
                     _shown, check_int, check_real, checked)

__all__ = [
    "SERIES_CUTOFF",
    "EnergySign",
    "OccupancyLevel",
    "GibbsParams",
    "activity",
    "partition",
    "log_partition",
    "occupancy_probabilities",
    "gentile_mean",
    "gentile_mean_direct",
    "gentile_mean_dlambda",
    "fermi_dirac",
    "bose_einstein",
    "activity_for_mean",
    "EOS_COLUMNS",
    "EosTable",
    "eos_sweep",
]

#: below this value of |lambda| * (d + 1) the closed forms lose digits to
#: cancellation and the Bernoulli-series branch serves every kernel; at 2
#: the closed-form variance cancels by a factor ~4 (under 10 ulp), at 1 it
#: would still cancel by ~13 (up to 40 ulp)
SERIES_CUTOFF = 2.0

# Successive series terms shrink by about (x / 2 pi)^2 ~ 1/10 at |x| = 2,
# so with 18 terms the first omitted one is below 1e-18 of every kernel.
_SERIES_TERMS = 18


class EnergySign(Enum):
    """How the money scale of a level enters the activity exponent.

    COST: occupying costs money, lambda = alpha - beta * epsilon.
    SALARY: occupying pays (a potential well), lambda = alpha + beta * epsilon.
    """

    COST = "cost"
    SALARY = "salary"


def _check_capacity(d) -> int:
    if type(d) is int and 1 <= d <= _DOUBLE_MAX:  # the common case, checked cheaply
        return d
    return checked(check_int, d, "capacity", 1, _DOUBLE_MAX)


def _check_lambda(lam) -> float:
    try:
        lam = float(lam)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"activity exponent must be a number, got {_shown(lam)}") from None
    if not math.isfinite(lam):
        raise ValidationError(f"activity exponent must be finite, got {lam}")
    return lam


@dataclass(frozen=True)
class OccupancyLevel:
    """One hierarchical level: capacity, money scale and sign convention."""

    capacity: int
    money_scale: float
    sign: EnergySign = EnergySign.SALARY

    def __post_init__(self):
        problems = []
        capacity = check_int(self.capacity, "capacity", problems, 1, _DOUBLE_MAX)
        scale = check_real(self.money_scale, "money_scale", problems, 0)
        if not isinstance(self.sign, EnergySign):
            problems.append(f"sign must be an EnergySign, got {self.sign!r}")
        _freeze(self, problems, capacity=capacity, money_scale=scale)


@dataclass(frozen=True)
class GibbsParams:
    """Lagrange pair: element multiplier alpha and inverse money scale beta > 0."""

    alpha: float
    beta: float

    def __post_init__(self):
        problems = []
        alpha = check_real(self.alpha, "alpha", problems)
        beta = check_real(self.beta, "beta", problems, 0, open_low=True)
        _freeze(self, problems, alpha=alpha, beta=beta)


def activity(level: OccupancyLevel, params: GibbsParams) -> float:
    """Activity exponent of a level under the given Gibbs parameters; a
    ValidationError naming alpha, beta and money_scale if it is not finite."""
    _check_type(level, OccupancyLevel, "level")
    _check_type(params, GibbsParams, "params")
    scale = -level.money_scale if level.sign is EnergySign.COST else level.money_scale
    lam = params.alpha + params.beta * scale
    if not math.isfinite(lam):
        raise ValidationError(
            f"activity is not finite for alpha={params.alpha!r}, "
            f"beta={params.beta!r}, money_scale={level.money_scale!r}")
    return lam


#: B_2k / (2k)! for k = 1 .. _SERIES_TERMS as exact (numerator, denominator)
#: pairs in lowest terms; each float formed from them is one int / int
#: division, which Python rounds correctly
_BERNOULLI_RATIOS = (
    (1, 12),
    (-1, 720),
    (1, 30240),
    (-1, 1209600),
    (1, 47900160),
    (-691, 1307674368000),
    (1, 74724249600),
    (-3617, 10670622842880000),
    (43867, 5109094217170944000),
    (-174611, 802857662698291200000),
    (77683, 14101100039391805440000),
    (-236364091, 1693824136731743669452800000),
    (657931, 186134520519971831808000000),
    (-3392780147, 37893265687455865519472640000000),
    (1723168255201, 759790291646040068357842010112000000),
    (-7709321041217, 134196726836183700385281186201600000000),
    (151628697551, 104199811425742637946218332815360000000),
    (-26315271553053477373, 713925872841910517552409860896601407488000000000),
)


@lru_cache(maxsize=256)
def _series_coefficients(d: int) -> tuple:
    """Series-branch Horner rows (f, f', log Z), highest power first.

    With x = lambda (d+1), y = x^2 and t_k = B_2k (1 - (d+1)^-2k) / (2k)!,

        f      = d/2 + (d+1) x sum_{k>=1} t_k y^(k-1)
        f'     = d(d+2)/12 + (d+1)^2 y sum_{k>=2} (2k-1) t_k y^(k-2)
        log Z  = log(d+1) + d lambda/2 + y sum_{k>=1} t_k/(2k) y^(k-1).

    The f' polynomial is one degree lower, so its column starts with a 0.0
    that leaves its Horner sum unchanged.  Scaling by x keeps the
    coefficients bounded for every capacity, so nothing overflows; each
    is an exact ratio of integers, rounded once.
    """
    q = (d + 1) ** 2
    t = [(num * (q ** k - 1), den * q ** k)
         for k, (num, den) in enumerate(_BERNOULLI_RATIOS, 1)]
    mean = [num / den for num, den in reversed(t)]
    var = [0.0] + [(2 * k - 1) * t[k - 1][0] / t[k - 1][1] for k in range(len(t), 1, -1)]
    logz = [t[k - 1][0] / (2 * k * t[k - 1][1]) for k in range(len(t), 0, -1)]
    return tuple(zip(mean, var, logz))


def _inv_expm1(x: float) -> float:
    # 1 / (e^x - 1) for x > 0; exact at both ends, never overflows
    return math.exp(-x) / (-math.expm1(-x))


_LN_HALF = math.log(0.5)

#: above this d + 1 the kernels factor it out, as (d + 1)^2 overflows and
#: (1 - e^-|lambda|)^2 can underflow; below it, the plain forms keep their bits
_HUGE = 2.0 ** 500


def _kernels(lam: float, d: int) -> tuple:
    """(f, f', log Z) at a checked finite lambda and capacity d, from the
    fused body the module docstring describes."""
    dd = d + 1.0
    x = lam * dd
    if abs(x) < SERIES_CUTOFF:
        y = x * x
        mean = var = logz = 0.0
        for cm, cv, cl in _series_coefficients(d):
            mean, var, logz = mean * y + cm, var * y + cv, logz * y + cl
        logz = math.log1p(d) + 0.5 * lam * d + y * logz
        if dd > _HUGE:  # d (d + 2) = dd^2 - 1, and 1 is below an ulp of dd^2
            return dd * (0.5 + x * mean), dd * (dd * (1.0 / 12.0 + y * var)), logz
        return 0.5 * d + dd * x * mean, d * (d + 2.0) / 12.0 + dd * dd * y * var, logz
    a, t = abs(lam), abs(x)
    ea, ma = math.exp(-a), -math.expm1(-a)
    et, mt = math.exp(-t), -math.expm1(-t)
    f = ea / ma - dd * (et / mt)
    if dd > _HUGE:
        # f' = (g(a) - g(t)) / a^2 with g(z) = z^2 e^-z / (1 - e^-z)^2, which
        # falls from g(0) = 1 to g(t) <= g(2) ~ 0.72; +inf where f' overflows.
        # Where lambda (d + 1) overflows, t = inf meets et = 0.0 as inf * 0.0;
        # the term is 0.0 there
        ga, gt = a / ma, t / mt
        fp = (ga * (ga * ea) - (gt * (gt * et) if et else 0.0)) / a / a
    else:
        fp = ea / (ma * ma) - dd * dd * (et / (mt * mt))
    log_t = math.log1p(-et) if -t < _LN_HALF else math.log(mt)
    log_a = math.log1p(-ea) if -a < _LN_HALF else math.log(ma)
    if lam > 0.0:
        return d - f, fp, lam * d + log_t - log_a
    return f, fp, log_t - log_a


#: Li2(e^-t) comes from its Bernoulli series below this t and from the
#: direct sum above it; both sides stay within a few ulp of mpmath
_LI2_SWITCH = 1.0

#: Li2(1) = zeta(2) = pi^2 / 6, correctly rounded
_ZETA2 = 1.6449340668482264


#: B_2k / ((2k) (2k+1)!) for k = _SERIES_TERMS .. 1, highest power first
_LI2_COEFFICIENTS = tuple(num / (den * (2 * k) * (2 * k + 1)) for k, (num, den)
                          in reversed(list(enumerate(_BERNOULLI_RATIOS, 1))))

#: 1/k^2 for k = 2 .. 39, the terms of the direct Li2 sum at t >= _LI2_SWITCH
_INV_SQUARES = tuple(1.0 / (k * k) for k in range(2, 40))


def _li2_exp(t: float) -> float:
    """The dilogarithm Li2(e^-t) at t >= 0.

    Below ``_LI2_SWITCH`` it is the Bernoulli series (L. Lewin,
    Polylogarithms and Associated Functions, 1981, ch. 1)

        Li2(e^-t) = zeta(2) + t (log t - 1) - t^2/4
                    + sum_k B_2k t^(2k+1) / ((2k) (2k+1)!),

    which shares its coefficients with the kernels' series; above it, the
    sum over k of e^(-kt) / k^2 in Horner form, cut where e^(-kt) < 1e-16.
    """
    if t >= _LI2_SWITCH:
        z = math.exp(-t)
        tail = 0.0
        for c in reversed(_INV_SQUARES[:int(37.0 / t) + 1]):
            tail = tail * z + c
        return z + z * (z * tail)
    if t == 0.0:
        return _ZETA2
    y = t * t
    tail = 0.0
    for c in _LI2_COEFFICIENTS:
        tail = tail * y + c
    return _ZETA2 + (t * (math.log(t) - 1.0) + y * (t * tail - 0.25))


def _log_partition_integral(lam: float, d: int) -> float:
    """G(lambda), the antiderivative of log Z with G(-inf) = 0.

    With D = d + 1, G(lambda) = Li2(e^lambda) - Li2(e^(lambda D)) / D for
    lambda <= 0, and the complement log Z(lambda) = d lambda + log Z(-lambda)
    gives G(lambda) = d lambda^2 / 2 - G(-lambda) + 2 G(0) for lambda > 0,
    with G(0) = zeta(2) d / D.  Every term is non-negative there, so
    nothing cancels.  Overflows to inf for huge positive lambda.
    """
    a = abs(lam)
    dd = d + 1.0
    g = _li2_exp(a) - _li2_exp(a * dd) / dd
    if lam > 0.0:
        return 0.5 * d * lam * lam + (2.0 * _ZETA2 * d / dd - g)
    return g


def log_partition(lam, d: int) -> float:
    """log Z where Z = sum_{r=0}^{d} exp(lambda * r).

    Safe for any |lambda| * d, including values whose Z would overflow a
    double; callers in that regime must stay in log space.
    """
    return _kernels(_check_lambda(lam), _check_capacity(d))[2]


def partition(lam, d: int) -> float:
    """Z = sum_{r=0}^{d} exp(lambda * r), exactly d + 1 at lambda = 0.

    Raises OverflowError when lambda * d exceeds the double exponent
    range; use :func:`log_partition` there.
    """
    lam = _check_lambda(lam)
    d = _check_capacity(d)
    if lam == 0.0:
        return d + 1.0
    return math.exp(log_partition(lam, d))


def _weights(lam, d):
    """r = 0..d and the weights exp(lambda r - lambda r_max) as arrays, r_max
    the r of the largest weight; once lambda r_max overflows the exponent is
    lambda (r - r_max), so a huge activity gives the one-hot answer."""
    import numpy as np
    lam = _check_lambda(lam)
    r = np.arange(_check_capacity(d) + 1, dtype=float)
    top = r.size - 1 if lam > 0.0 else 0
    with np.errstate(over="ignore"):
        logw = lam * r - lam * top if math.isfinite(lam * top) else lam * (r - top)
    return r, np.exp(logw)


def occupancy_probabilities(lam, d: int):
    """p(r) = exp(lambda r) / Z as an array, computed relative to the
    largest weight, so any finite lambda gives finite values summing to 1."""
    w = _weights(lam, d)[1]
    return w / w.sum()


def gentile_mean(lam, d: int) -> float:
    """Mean occupation of a capacity-d level at activity lambda.

    Closed form 1/(e^{-lam} - 1) - (d+1)/(e^{-lam(d+1)} - 1), with the
    Bernoulli-series branch around the removable lambda = 0 point (value
    exactly d/2 there) and the complement identity for lambda > 0.
    Strictly increasing in lambda with range (0, d).
    """
    return _kernels(_check_lambda(lam), _check_capacity(d))[0]


def gentile_mean_direct(lam, d: int) -> float:
    """Brute-force oracle for :func:`gentile_mean`.

    Evaluates sum_r r e^{lambda r} / sum_r e^{lambda r} term by term
    (O(d) work and memory); kept separate so the closed form can be
    cross-checked against it and never silently replaced by it.
    """
    r, w = _weights(lam, d)
    return float((r * w).sum() / w.sum())


def gentile_mean_dlambda(lam, d: int) -> float:
    """d(gentile_mean)/d(lambda): the occupation-number variance.

    Even in lambda; equals d(d+2)/12 at lambda = 0.  Uses the
    term-by-term derivative of the mean's series while |lambda| (d+1)
    is below ``SERIES_CUTOFF``.
    """
    return _kernels(_check_lambda(lam), _check_capacity(d))[1]


def fermi_dirac(lam) -> float:
    """Occupation 1 / (e^{-lambda} + 1) of a capacity-1 level."""
    lam = _check_lambda(lam)
    if lam >= 0.0:
        return 1.0 / (1.0 + math.exp(-lam))
    t = math.exp(lam)
    return t / (1.0 + t)


def bose_einstein(lam) -> float:
    """Occupation 1 / (e^{-lambda} - 1) of an unbounded level.

    Defined only for lambda < 0; at lambda >= 0 the unbounded form
    diverges and the caller must fall back to a finite capacity.
    """
    lam = _check_lambda(lam)
    if not lam < 0.0:
        raise ValidationError(
            f"bose_einstein requires lambda < 0 (diverges otherwise), got {lam}")
    return _inv_expm1(-lam)


def _increasing_root(func, target: float) -> float:
    """The lambda at which the strictly increasing ``func`` equals ``target``.

    Doubles the bracket [-1, 1] outwards until it straddles the target,
    then runs Brent's method (R. P. Brent, Algorithms for Minimization
    without Derivatives, 1973, ch. 4) as a line-for-line port of scipy's
    ``brentq.c``: the same variable roles, tolerances (xtol 1e-15, rtol
    8.882e-16, 200 iterations) and order of floating-point operations, so
    the root is bit-identical to ``scipy.optimize.brentq``'s.
    """
    lo, hi = -1.0, 1.0
    while func(lo) >= target:
        lo *= 2.0
        if lo < -1e9:
            raise ValidationError("failed to bracket the root from below")
    while func(hi) <= target:
        hi *= 2.0
        if hi > 1e9:
            raise ValidationError("failed to bracket the root from above")

    xtol, rtol = 1e-15, 8.882e-16
    xpre, xcur = lo, hi
    xblk = fblk = spre = scur = 0.0
    # the bracket makes fpre < 0 < fcur, so brentq.c's zero and sign
    # checks on the end points can never fire
    fpre = func(xpre) - target
    fcur = func(xcur) - target
    for _ in range(200):
        if fpre != 0.0 and fcur != 0.0 \
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # an underflowed den gives brentq.c an inf or nan step, which bisects
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = scur = sbis
        else:
            # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = func(xcur) - target
    raise NoConvergence(f"Brent iteration did not converge to target {target!r} "
                        f"within 200 iterations (last iterate {xcur!r})")


def activity_for_mean(d: int, target: float) -> float:
    """Invert :func:`gentile_mean` in lambda at fixed capacity.

    The mean is strictly increasing, so the root is unique; solved by
    bracket expansion plus the in-house port of scipy's Brent root finder
    (``_increasing_root``), to machine precision and bit-identical to
    ``scipy.optimize.brentq``.
    """
    d = _check_capacity(d)
    target = checked(check_real, target, "target", 0, d, open_low=True, open_high=True)
    # the bracket's lambdas are finite floats, so the kernel needs no checks
    return _increasing_root(lambda l: _kernels(l, d)[0], target)


def _activity_estimate(d: int, n: float) -> float:
    """:func:`activity_for_mean` within 6.3e-3 / d for d >= 2, for a start: log(n/(1+n))
    + log((d+1-n)/(d-n)), exact at n = d/2, then two Newton steps on f."""
    lam = math.log(n / (1.0 + n)) + math.log((d + 1.0 - n) / (d - n))
    for _ in range(2):
        f, fp, _ = _kernels(lam, d)
        lam -= (f - n) / fp
    return lam


def _grid(start: float, stop: float, num: int, zero: bool = False) -> list:
    """``num`` evenly spaced floats, bit for bit ``numpy.linspace``.

    Point i is i * step + start, or (i / (num - 1)) * (stop - start) +
    start when the step underflows to 0, and the last point is ``stop``.
    With ``zero``, lambda = 0 is added and the points are sorted with
    duplicates dropped, keeping the first of -0.0 and 0.0, as
    ``numpy.unique`` of the concatenation does.
    """
    div = num - 1
    step = (stop - start) / div if div else 0.0
    if step:
        points = [i * step + start for i in range(num)]
    else:
        points = [i / max(div, 1) * (stop - start) + start for i in range(num)]
    if div:
        points[-1] = stop
    return sorted(set(points + [0.0])) if zero else points


#: fixed header of the equation-of-state table
EOS_COLUMNS = ("lambda", "n_over_d", "p_over_T", "mu_shifted_over_T", "x")


@dataclass(frozen=True)
class EosTable:
    """Equation-of-state sweep for a common-salary level: one tuple of
    floats per column, one entry per activity.

    p_over_T is omega; mu_shifted_over_T is the activity itself (the
    salary-shifted financial potential over temperature); x is
    ln(d+1)/omega, the temperature in units of the condensation
    temperature.
    """

    lam: tuple
    n_over_d: tuple
    p_over_T: tuple
    mu_shifted_over_T: tuple
    x: tuple

    def rows(self):
        return zip(self.lam, self.n_over_d, self.p_over_T, self.mu_shifted_over_T, self.x)


def eos_sweep(d: int, lambda_grid) -> EosTable:
    """Evaluate the parametric equation of state on an activity grid.

    At lambda = 0 the occupancy is exactly half filling and x is exactly
    one, by the series branch.  Below lambda ~ -745 omega underflows to
    0, and x is then inf.
    """
    d = _check_capacity(d)
    try:
        grid = list(lambda_grid)
    except TypeError:
        grid = []
    if not grid:
        raise ValidationError("lambda grid must be a non-empty 1-d vector")
    problems = []
    lams = tuple([check_real(lam, f"lambda_grid[{i}]", problems)
                  for i, lam in enumerate(grid)])
    if problems:
        raise ValidationError(problems)
    mean, _, omega = zip(*[_kernels(lam, d) for lam in lams])
    log_dp1 = math.log1p(d)
    return EosTable(lam=lams, n_over_d=tuple(f / d for f in mean),
                    p_over_T=omega, mu_shifted_over_T=lams,
                    x=tuple(log_dp1 / om if om else math.inf for om in omega))
