"""Multi-level hierarchies: exact occupancy references and census entropy.

The exact fixed-agent-count reference treats positions as distinct
slots, so a level of capacity d with r occupants carries a binomial
multiplicity C(d, r) on top of the Gibbs weight e^{beta epsilon r}.
That is the stationary law of the position-swap dynamics in
:mod:`hierstat.montecarlo`; at beta = 0 it reduces to drawing the
occupied positions uniformly (hypergeometric level counts).  The
computation runs level by level as a polynomial convolution over the
total agent count, entirely in log space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_int, check_real
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


@dataclass(frozen=True)
class HierarchyLevel:
    """One rung: position count and per-position salary."""

    capacity: int
    salary: float

    def __post_init__(self):
        problems = []
        capacity = check_int(self.capacity, "capacity", problems, 1)
        salary = check_real(self.salary, "salary", problems, 0)
        if problems:
            raise ValidationError(problems)
        object.__setattr__(self, "capacity", capacity)
        object.__setattr__(self, "salary", salary)


@dataclass(frozen=True)
class HierarchySpec:
    """Ordered levels with strictly growing capacity and strictly falling salary."""

    levels: tuple

    def __post_init__(self):
        if not self.levels:
            raise ValidationError("a hierarchy needs at least one level")
        levels = tuple(
            lv if isinstance(lv, HierarchyLevel) else HierarchyLevel(*lv)
            for lv in self.levels)
        object.__setattr__(self, "levels", levels)
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
        if problems:
            raise ValidationError(problems)

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


def _log_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Convolution of two log-coefficient vectors via logaddexp."""
    if a.size > b.size:
        a, b = b, a
    out = np.full(a.size + b.size - 1, -np.inf)
    for k in range(a.size):
        if a[k] == -np.inf:
            continue
        seg = out[k:k + b.size]
        np.logaddexp(seg, b + a[k], out=seg)
    return out


def _level_log_poly(capacity: int, salary: float, beta: float) -> np.ndarray:
    from scipy.special import gammaln  # imported here: scipy costs ~0.5 s to load

    r = np.arange(capacity + 1, dtype=float)
    return (gammaln(capacity + 1.0) - gammaln(r + 1.0)
            - gammaln(capacity - r + 1.0) + beta * salary * r)


def exact_canonical(spec: HierarchySpec, agents: int, beta: float) -> CanonicalExpectations:
    """Exact level expectations for ``agents`` agents at inverse temperature beta.

    Dynamic programming over the total agent count: each level
    contributes the log-polynomial of C(d, r) e^{beta salary r}; prefix
    and suffix products give every single-level marginal without
    enumerating configurations.  Feasible whenever the total position
    count is moderate (about 1e4).
    """
    from scipy.special import logsumexp  # imported here, as in _level_log_poly

    problems = []
    agents = check_int(agents, "agents", problems, 0, spec.total_positions)
    beta = check_real(beta, "beta", problems)
    if problems:
        raise ValidationError(problems)

    polys = [_level_log_poly(lv.capacity, lv.salary, beta) for lv in spec.levels]
    n_levels = len(polys)

    prefix = [np.zeros(1)]
    for p in polys:
        prefix.append(_log_convolve(prefix[-1], p))
    suffix = [np.zeros(1)]
    for p in reversed(polys):
        suffix.append(_log_convolve(suffix[-1], p))
    suffix.reverse()  # suffix[i] = product of polys[i:]

    log_total = float(prefix[-1][agents])
    means = np.empty(n_levels)
    marginals = []
    for i, p in enumerate(polys):
        rest = _log_convolve(prefix[i], suffix[i + 1])
        r = np.arange(p.size)
        k = agents - r
        valid = (k >= 0) & (k < rest.size)
        logw = np.full(p.size, -np.inf)
        logw[valid] = p[valid] + rest[k[valid]]
        logw -= logsumexp(logw)
        marg = np.exp(logw)
        marg /= marg.sum()
        marginals.append(marg)
        means[i] = float(r @ marg)
    return CanonicalExpectations(mean_occupancy=means,
                                 marginals=tuple(marginals),
                                 log_weight_total=log_total)


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
        counts = np.asarray(self.counts, dtype=float)
        salaries = np.asarray(self.salaries, dtype=float)
        problems = []
        if counts.ndim != 2 or counts.shape[1] < 2:
            problems.append("counts must be a 2-d matrix (classes x occupancies)")
        elif salaries.ndim != 1 or salaries.size != counts.shape[0]:
            problems.append("need one salary per class row")
        if counts.size and (not np.all(np.isfinite(counts)) or np.any(counts < 0)):
            problems.append("counts must be finite and >= 0")
        if salaries.size and (not np.all(np.isfinite(salaries)) or np.any(salaries < 0)):
            problems.append("salaries must be finite and >= 0")
        if problems:
            raise ValidationError(problems)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "salaries", salaries)

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
    totals = census.class_totals
    if np.any(totals < 1.0):
        raise ValidationError(
            "census entropy requires every salary class to hold at least one company")
    return float(np.sum(totals * np.log(totals)) - np.sum(_xlogx(census.counts)))


def gentile_census(class_totals, salaries, capacity: int,
                   params: GibbsParams) -> EnsembleCensus:
    """Entropy-maximizing census: class s filled as V_s p(r | lambda_s)
    with lambda_s = alpha + beta * salary_s shared across classes."""
    capacity = _check_capacity(capacity)
    totals = np.asarray(class_totals, dtype=float)
    sal = np.asarray(salaries, dtype=float)
    if totals.ndim != 1 or sal.shape != totals.shape:
        raise ValidationError("class_totals and salaries must be matching vectors")
    if np.any(totals <= 0):
        raise ValidationError("every class total must be positive")
    counts = np.empty((totals.size, capacity + 1))
    for s in range(totals.size):
        lam = params.alpha + params.beta * sal[s]
        counts[s] = totals[s] * occupancy_probabilities(lam, capacity)
    return EnsembleCensus(counts=counts, salaries=sal)
