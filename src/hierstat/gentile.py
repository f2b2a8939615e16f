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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import NoConvergence, ValidationError, check_int, check_real

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
    if type(d) is int and d >= 1:  # the common case, checked cheaply
        return d
    problems = []
    d = check_int(d, "capacity", problems, 1)
    if problems:
        raise ValidationError(problems)
    return d


def _check_lambda(lam) -> float:
    try:
        lam = float(lam)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"activity exponent must be a number, got {lam!r}") from None
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
        capacity = check_int(self.capacity, "capacity", problems, 1)
        scale = check_real(self.money_scale, "money_scale", problems, 0)
        if not isinstance(self.sign, EnergySign):
            problems.append(f"sign must be an EnergySign, got {self.sign!r}")
        if problems:
            raise ValidationError(problems)
        object.__setattr__(self, "capacity", capacity)
        object.__setattr__(self, "money_scale", scale)


@dataclass(frozen=True)
class GibbsParams:
    """Lagrange pair: element multiplier alpha and inverse money scale beta > 0."""

    alpha: float
    beta: float

    def __post_init__(self):
        problems = []
        alpha = check_real(self.alpha, "alpha", problems)
        beta = check_real(self.beta, "beta", problems, 0, open_low=True)
        if problems:
            raise ValidationError(problems)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)


def activity(level: OccupancyLevel, params: GibbsParams) -> float:
    """Activity exponent of a level under the given Gibbs parameters;
    a ValidationError if it is not finite."""
    if level.sign is EnergySign.COST:
        return _check_lambda(params.alpha - params.beta * level.money_scale)
    return _check_lambda(params.alpha + params.beta * level.money_scale)


@lru_cache(maxsize=None)
def _bernoulli_ratios() -> tuple:
    """B_2k / (2k)! for k = 1 .. _SERIES_TERMS, as exact fractions."""
    bern = [Fraction(1)]
    for m in range(1, 2 * _SERIES_TERMS + 1):
        bern.append(-sum(math.comb(m + 1, k) * bern[k] for k in range(m)) / (m + 1))
    return tuple(bern[2 * k] / math.factorial(2 * k) for k in range(1, _SERIES_TERMS + 1))


@lru_cache(maxsize=256)
def _series_coefficients(d: int) -> tuple:
    """Horner coefficients (highest power first) of the series branch.

    With x = lambda (d+1), y = x^2 and t_k = B_2k (1 - (d+1)^-2k) / (2k)!,

        f      = d/2 + (d+1) x sum_{k>=1} t_k y^(k-1)
        f'     = d(d+2)/12 + (d+1)^2 y sum_{k>=2} (2k-1) t_k y^(k-2)
        log Z  = log(d+1) + d lambda/2 + y sum_{k>=1} t_k/(2k) y^(k-1).

    Scaling by x keeps the coefficients bounded for every capacity, so
    nothing overflows; they are formed exactly and rounded once.
    """
    q = Fraction(1, (d + 1) ** 2)
    t = [b * (1 - q ** k) for k, b in enumerate(_bernoulli_ratios(), 1)]
    mean = tuple(float(c) for c in reversed(t))
    var = tuple(float((2 * k - 1) * t[k - 1]) for k in range(len(t), 1, -1))
    logz = tuple(float(t[k - 1] / (2 * k)) for k in range(len(t), 0, -1))
    return mean, var, logz


def _horner(coeffs: tuple, y: float) -> float:
    s = 0.0
    for c in coeffs:
        s = s * y + c
    return s


def _inv_expm1(x: float) -> float:
    # 1 / (e^x - 1) for x > 0; exact at both ends, never overflows
    return math.exp(-x) / (-math.expm1(-x))


_LN_HALF = math.log(0.5)


def _log1mexp(t: float) -> float:
    # log(1 - e^t) for t < 0 with full relative precision at both ends
    if t < _LN_HALF:
        return math.log1p(-math.exp(t))
    return math.log(-math.expm1(t))


def log_partition(lam, d: int) -> float:
    """log Z where Z = sum_{r=0}^{d} exp(lambda * r).

    Safe for any |lambda| * d, including values whose Z would overflow a
    double; callers in that regime must stay in log space.
    """
    lam = _check_lambda(lam)
    d = _check_capacity(d)
    x = lam * (d + 1.0)
    if abs(x) < SERIES_CUTOFF:
        y = x * x
        return math.log1p(d) + 0.5 * lam * d + y * _horner(_series_coefficients(d)[2], y)
    if lam > 0.0:
        return lam * d + _log1mexp(-x) - _log1mexp(-lam)
    return _log1mexp(x) - _log1mexp(lam)


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


def occupancy_probabilities(lam, d: int) -> np.ndarray:
    """p(r) = exp(lambda r) / Z, computed with the max exponent subtracted."""
    lam = _check_lambda(lam)
    d = _check_capacity(d)
    r = np.arange(d + 1, dtype=float)
    logw = lam * r
    w = np.exp(logw - logw.max())
    return w / w.sum()


def gentile_mean(lam, d: int) -> float:
    """Mean occupation of a capacity-d level at activity lambda.

    Closed form 1/(e^{-lam} - 1) - (d+1)/(e^{-lam(d+1)} - 1), with the
    Bernoulli-series branch around the removable lambda = 0 point (value
    exactly d/2 there) and the complement identity for lambda > 0.
    Strictly increasing in lambda with range (0, d).
    """
    lam = _check_lambda(lam)
    d = _check_capacity(d)
    x = lam * (d + 1.0)
    if abs(x) < SERIES_CUTOFF:
        return 0.5 * d + (d + 1.0) * x * _horner(_series_coefficients(d)[0], x * x)
    f = _inv_expm1(abs(lam)) - (d + 1.0) * _inv_expm1(abs(x))
    return d - f if lam > 0.0 else f


def gentile_mean_direct(lam, d: int) -> float:
    """Brute-force oracle for :func:`gentile_mean`.

    Evaluates sum_r r e^{lambda r} / sum_r e^{lambda r} term by term
    (O(d) work and memory); kept separate so the closed form can be
    cross-checked against it and never silently replaced by it.
    """
    lam = _check_lambda(lam)
    d = _check_capacity(d)
    r = np.arange(d + 1, dtype=float)
    logw = lam * r
    w = np.exp(logw - logw.max())
    return float((r * w).sum() / w.sum())


def gentile_mean_dlambda(lam, d: int) -> float:
    """d(gentile_mean)/d(lambda): the occupation-number variance.

    Even in lambda; equals d(d+2)/12 at lambda = 0.  Uses the
    term-by-term derivative of the mean's series while |lambda| (d+1)
    is below ``SERIES_CUTOFF``.
    """
    lam = _check_lambda(lam)
    d = _check_capacity(d)
    x = lam * (d + 1.0)
    dd = d + 1.0
    if abs(x) < SERIES_CUTOFF:
        y = x * x
        return d * (d + 2.0) / 12.0 + dd * dd * y * _horner(_series_coefficients(d)[1], y)
    a = _inv_sq_sinh_half(abs(lam))
    b = _inv_sq_sinh_half(abs(x))
    return a - dd * dd * b


def _inv_sq_sinh_half(x: float) -> float:
    # 1 / (4 sinh^2(x/2)) = e^{-x} / (1 - e^{-x})^2 for x > 0
    t = math.exp(-x)
    u = -math.expm1(-x)
    return t / (u * u)


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
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
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
    problems = []
    target = check_real(target, "target", problems, 0, d, open_low=True, open_high=True)
    if problems:
        raise ValidationError(problems)
    return _increasing_root(lambda l: gentile_mean(l, d), target)

