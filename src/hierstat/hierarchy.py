"""Multi-level hierarchies: exact occupancy references and census entropy.

The exact fixed-agent-count reference treats positions as distinct
slots, so a level of capacity d with r occupants carries a binomial
multiplicity C(d, r) on top of the Gibbs weight e^{beta epsilon r}.
That is the stationary law of the position-swap dynamics in
:mod:`hierstat.montecarlo`; at beta = 0 it reduces to drawing the
occupied positions uniformly (hypergeometric level counts).  The
computation runs level by level as a polynomial convolution over the
total agent count, entirely in log space, keeping only the
coefficients that can still add up to the requested agent count; the
cost is roughly sum_i d_i times the width of those windows.  Rows are
folded in blocks, one logaddexp reduction each, in term-by-term order;
the -inf padding is inert, so no bit depends on the block size.

The log binomials come from a table of log k! that returns the bits of
``scipy.special.gammaln(k + 1.0)``, a port of Cephes ``lgam`` (S. Moshier,
*Methods and Programs for Mathematical Functions*, 1989), and the
marginals are normalised by a port of scipy's real ``logsumexp``
(Blanchard, Higham and Higham, *IMA J. Numer. Anal.* 41(4), 2021); so
numpy is the only library this module loads, and scipy stays a test
oracle.  A spec holds at most 2**63 - 1 positions in all, since its
capacities enter int64 arrays.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _check_type, _freeze, _shown, check_int, check_real
from .gentile import GibbsParams, _check_capacity, occupancy_probabilities

__all__ = [
    "HierarchyLevel",
    "HierarchySpec",
    "CanonicalExpectations",
    "exact_canonical",
    "EnsembleCensus",
    "census_entropy",
    "gentile_census",
]

_FOLD_BLOCK = 1 << 16  # elements per logaddexp reduction in _log_convolve
_MAX_POSITIONS = int(np.iinfo(np.int64).max)  # a spec's capacities enter int64 arrays

# Cephes lgam's Stirling-series coefficients, and log sqrt(2 pi)
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4, 7.93650340457716943945E-4,
           -2.77777777730099687205E-3, 8.33333333333331927722E-2)
_LS2PI = 0.91893853320467274178


@dataclass(frozen=True)
class HierarchyLevel:
    """One rung: position count and per-position salary."""

    capacity: int
    salary: float

    def __post_init__(self):
        problems = []
        capacity = check_int(self.capacity, "capacity", problems, 1)
        salary = check_real(self.salary, "salary", problems, 0)
        _freeze(self, problems, capacity=capacity, salary=salary)


@dataclass(frozen=True)
class HierarchySpec:
    """Ordered levels with strictly growing capacity and strictly falling salary."""

    levels: tuple

    def __post_init__(self):
        if not self.levels:
            raise ValidationError("a hierarchy needs at least one level")
        try:
            levels = tuple(lv if isinstance(lv, HierarchyLevel) else HierarchyLevel(*lv)
                           for lv in self.levels)
        except TypeError:
            raise ValidationError("levels must be (capacity, salary) pairs") from None
        problems = []
        for i in range(len(levels) - 1):
            if not levels[i].capacity < levels[i + 1].capacity:
                problems.append(
                    f"capacity ordering d_{i + 1} < d_{i + 2} violated "
                    f"({levels[i].capacity} >= {levels[i + 1].capacity})")
            if not levels[i].salary > levels[i + 1].salary:
                problems.append(
                    f"salary ordering epsilon_{i + 1} > epsilon_{i + 2} violated "
                    f"({levels[i].salary} <= {levels[i + 1].salary})")
        total = sum(lv.capacity for lv in levels)
        if total > _MAX_POSITIONS:
            problems.append(f"total capacity must be <= {_MAX_POSITIONS} (the int64 maximum), "
                            f"got {_shown(total)}")
        _freeze(self, problems, levels=levels)

    @property
    def capacities(self) -> np.ndarray:
        return np.array([lv.capacity for lv in self.levels], dtype=int)

    @property
    def salaries(self) -> np.ndarray:
        return np.array([lv.salary for lv in self.levels], dtype=float)

    @property
    def total_positions(self) -> int:
        return int(self.capacities.sum())

    def __len__(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class CanonicalExpectations:
    """Exact per-level expectations at fixed total agent count."""

    mean_occupancy: np.ndarray
    marginals: tuple
    log_weight_total: float


def _log_convolve(a, b, lo: int, hi: int):
    """Coefficients lo..hi of the product of two log-coefficient vectors.

    A factor is ``(degree, start, coeffs)``: ``coeffs[j]`` is the log of the
    coefficient of x^(start + j) in a polynomial of degree ``degree``, and
    the product comes back in that form.  Each kept coefficient folds its
    terms with logaddexp in ascending order of the lower-degree factor's
    index k.  Row k, that factor's coefficient plus a window of the other
    padded with -inf, is a strided view, and one ``logaddexp.reduce`` over
    the running result stacked on a block of rows continues the same left
    fold; logaddexp(x, -inf) and logaddexp(-inf, x) are exactly x, so the
    padding and -inf coefficients leave the bits of a term-by-term fold.
    """
    if a[0] > b[0]:
        a, b = b, a
    (a_deg, a_lo, a_co), (b_deg, b_lo, b_co) = a, b
    width = hi - lo + 1
    pad = np.full(width - 1, -np.inf)
    # row k starts at window lo - k - b_lo + width - 1; rows k0..k1-1 meet [lo, hi]
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate((pad, b_co, pad)), width)
    k0, k1 = max(a_lo, lo - b_lo - b_co.size + 1), min(a_lo + a_co.size, hi - b_lo + 1)
    step = max(1, _FOLD_BLOCK // width)
    block = np.full((min(step, k1 - k0) + 1, width), -np.inf)  # row 0: the fold so far
    for k in range(k0, k1, step):
        n, s = min(step, k1 - k), lo - k - b_lo + width - 1
        np.add(windows[s - n + 1:s + 1][::-1], a_co[k - a_lo:k - a_lo + n, None],
               out=block[1:n + 1])
        block[0] = np.logaddexp.reduce(block[:n + 1], axis=0)
    return a_deg + b_deg, lo, block[0].copy()


def _lgam_stirling(x: np.ndarray) -> np.ndarray:
    """Cephes ``lgam`` at floats x >= 13, in its order of operations: the
    Stirling series, with its correction term up to x = 1e8.  The logarithm
    is ``math.log``'s, because numpy's SIMD ``log`` can differ by an ulp."""
    logx = np.fromiter(map(math.log, x.tolist()), float, x.size)
    q = (x - 0.5) * logx - x + _LS2PI
    p = 1.0 / (x * x)
    series = np.full_like(x, _LGAM_A[0])
    for c in _LGAM_A[1:]:  # Horner's rule, as Cephes' polevl
        series = series * p + c
    large = (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p \
        + 0.0833333333333333333333
    return np.where(x > 1.0e8, q, q + np.where(x < 1000.0, series, large) / x)


# log k! for k = 0..size - 1; read-only, grown by doubling.  Up to k = 11,
# lgam takes the log of the exact product k (k - 1) ... 2
_LOG_FACTORIALS = np.array([math.log(float(math.factorial(k))) for k in range(12)])
_LOG_FACTORIALS.flags.writeable = False


def _log_factorials(top: int) -> np.ndarray:
    """A read-only table of log k! for k = 0..top at least, bit for bit
    ``scipy.special.gammaln(k + 1.0)``."""
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if top >= table.size:
        x = np.arange(table.size, max(top + 1, 2 * table.size)) + 1.0
        table = np.concatenate((table, _lgam_stirling(x)))
        table.flags.writeable = False
        _LOG_FACTORIALS = table
    return table


def _logsumexp(a: np.ndarray) -> np.float64:
    """log(sum(exp(a))) of a 1-d array whose maximum is finite, as the real
    path of scipy's ``logsumexp`` computes it: the entries equal to the
    maximum are counted, not exponentiated."""
    top = np.max(a, keepdims=True)
    at_top = a == top
    m = np.sum(at_top, keepdims=True, dtype=float)
    s = np.sum(np.exp(np.where(at_top, -np.inf, a) - top), keepdims=True)
    s = np.where(s == 0, s, s / m)
    return (np.log1p(s) + np.log(m) + top)[0]


def _level_log_poly(capacity: int, salary: float, beta: float) -> np.ndarray:
    lf = _log_factorials(capacity)
    r = np.arange(capacity + 1, dtype=float)
    return lf[capacity] - lf[:capacity + 1] - lf[capacity::-1] + beta * salary * r


def _check_agents(spec, agents, problems):
    """``agents`` checked against the positions of ``spec``, which must be a
    :class:`HierarchySpec`; violations go to ``problems``."""
    total = spec.total_positions if isinstance(spec, HierarchySpec) else None
    if total is None:
        problems.append("spec must be a HierarchySpec")
    return check_int(agents, "agents", problems, 0, total)


def exact_canonical(spec: HierarchySpec, agents: int, beta: float) -> CanonicalExpectations:
    """Exact level expectations for ``agents`` agents at inverse temperature beta.

    Dynamic programming over the total agent count: each level
    contributes the log-polynomial of C(d, r) e^{beta salary r}; prefix
    and suffix products give every single-level marginal without
    enumerating configurations.  Each partial product is kept only on
    the agent counts that the remaining levels can complete to
    ``agents``, so the cost is about sum_i d_i x (window width) logaddexp
    terms, and no window is wider than ``agents`` + 1 coefficients.
    """
    problems = []
    agents = _check_agents(spec, agents, problems)
    beta = check_real(beta, "beta", problems)
    if problems:
        raise ValidationError(problems)
    try:  # a log weight beyond the double range would come back as NaN
        with np.errstate(over="raise", invalid="raise"):
            return _exact_log_space(spec, agents, beta)
    except FloatingPointError:
        raise ValidationError("beta must keep every log weight (beta x salary x agents, "
                              f"summed over levels) finite, got {beta!r}") from None


def _exact_log_space(spec, agents, beta):
    """:func:`exact_canonical` on checked arguments."""
    polys = [_level_log_poly(lv.capacity, lv.salary, beta) for lv in spec.levels]
    n_levels = len(polys)
    factors = [(p.size - 1, 0, p) for p in polys]
    # levels < i hold before[i] positions, levels >= i the other total - before[i];
    # only coefficients that can still be completed to exactly `agents` are kept
    before = np.cumsum([0, *spec.capacities]).tolist()
    total = before[-1]
    prefix = [(0, 0, np.zeros(1))]  # prefix[i] = product of polys[:i]
    for i, f in enumerate(factors, 1):
        prefix.append(_log_convolve(prefix[-1], f, max(0, agents - total + before[i]),
                                    min(agents, before[i])))
    suffix = [None] * n_levels + [(0, 0, np.zeros(1))]  # suffix[i] = product of polys[i:]
    for i in range(n_levels - 1, 0, -1):
        suffix[i] = _log_convolve(suffix[i + 1], factors[i], max(0, agents - before[i]),
                                  min(agents, total - before[i]))

    log_total = float(prefix[-1][2][0])
    means = np.empty(n_levels)
    marginals = []
    for i, p in enumerate(polys):
        _, lo, rest = _log_convolve(prefix[i], suffix[i + 1], max(0, agents - p.size + 1),
                                    min(agents, total - p.size + 1))
        r = np.arange(p.size)
        k = agents - r - lo
        valid = (k >= 0) & (k < rest.size)
        logw = np.full(p.size, -np.inf)
        logw[valid] = p[valid] + rest[k[valid]]
        logw -= _logsumexp(logw)  # finite: some level count is feasible
        marg = np.exp(logw)
        marg /= marg.sum()
        marginals.append(marg)
        means[i] = float(r @ marg)
    return CanonicalExpectations(mean_occupancy=means,
                                 marginals=tuple(marginals),
                                 log_weight_total=log_total)


def _census_array(values, name):
    """``values`` as a float array of finite numbers >= 0, else ValidationError naming
    ``name``; anything but a numeric array is checked entry by entry (no bool or str)."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
        values = np.asarray(values, dtype=object)
        if not all(issubclass(t, numbers.Real) and t is not bool for t in set(map(type, values.flat))):
            raise ValidationError(f"{name} must be a rectangular array of real numbers")
    try:
        values = values.astype(float, copy=False)
        valid = np.all(np.isfinite(values) & (values >= 0))
    except OverflowError:  # an int beyond the double range
        valid = False
    if not valid:
        raise ValidationError(f"{name} must be finite and >= 0")
    return values


@dataclass(frozen=True)
class EnsembleCensus:
    """Company counts by occupancy and salary class.

    ``counts[s, r]`` is the number of companies whose tracked level
    holds r elements at class salary ``salaries[s]``.  Counts may be
    fractional (expected censuses are as legitimate as integer ones).
    """

    counts: np.ndarray
    salaries: np.ndarray

    def __post_init__(self):
        counts = _census_array(self.counts, "counts")
        salaries = _census_array(self.salaries, "salaries")
        if counts.ndim != 2 or counts.shape[1] < 2:
            raise ValidationError("counts must be a 2-d matrix (classes x occupancies)")
        if salaries.ndim != 1 or salaries.size != counts.shape[0]:
            raise ValidationError("need one salary per class row")
        _freeze(self, counts=counts, salaries=salaries)

    @property
    def capacity(self) -> int:
        return self.counts.shape[1] - 1

    @property
    def class_totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def element_counts(self) -> np.ndarray:
        r = np.arange(self.counts.shape[1], dtype=float)
        return self.counts @ r

    @property
    def elements(self) -> float:
        return float(self.element_counts.sum())

    @property
    def volume(self) -> float:
        return float(self.class_totals.sum())

    @property
    def energy(self) -> float:
        return -float(self.salaries @ self.element_counts)


def _xlogx(v: np.ndarray) -> np.ndarray:
    out = np.zeros_like(v)
    mask = v > 0
    out[mask] = v[mask] * np.log(v[mask])
    return out


def census_entropy(census: EnsembleCensus) -> float:
    """Mixing entropy of the census: sum_s V_s ln V_s - sum_{s,r} v ln v.

    The log of the multinomial accommodation count under the Stirling
    approximation, with 0 ln 0 = 0.  Requires every class to hold at
    least one company.
    """
    totals = _check_type(census, EnsembleCensus, "census").class_totals
    if np.any(totals < 1.0):
        raise ValidationError(
            "census entropy requires every salary class to hold at least one company")
    return float(np.sum(totals * np.log(totals)) - np.sum(_xlogx(census.counts)))


def gentile_census(class_totals, salaries, capacity: int,
                   params: GibbsParams) -> EnsembleCensus:
    """Entropy-maximizing census: class s filled as V_s p(r | lambda_s)
    with lambda_s = alpha + beta * salary_s shared across classes."""
    capacity = _check_capacity(capacity)
    _check_type(params, GibbsParams, "params")
    totals = _census_array(class_totals, "class_totals")
    sal = _census_array(salaries, "salaries")
    if totals.ndim != 1 or sal.shape != totals.shape:
        raise ValidationError("class_totals and salaries must be matching vectors")
    if np.any(totals <= 0):
        raise ValidationError("every class total must be positive")
    counts = np.empty((totals.size, capacity + 1))
    for s in range(totals.size):
        lam = params.alpha + params.beta * sal[s]
        counts[s] = totals[s] * occupancy_probabilities(lam, capacity)
    return EnsembleCensus(counts=counts, salaries=sal)
