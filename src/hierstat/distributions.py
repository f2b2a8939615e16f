"""Salary/cost distributions phi(epsilon) for the ensemble integrals.

Support is restricted to bounded intervals of [0, inf) plus a point
mass, so every integral over phi is either an exact atom sum or a
convergent panel quadrature; :mod:`hierstat.ensemble` forms them all
from the weighted pieces declared here.  A distribution can also be
declared as a parametric family that resolves to a concrete variant at
each Gibbs parameter pair; the moment derivatives then pick up
finite-difference phi terms.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Union

from .errors import ValidationError, check_real, checked

__all__ = [
    "Delta",
    "TwoPoint",
    "Uniform",
    "Histogram",
    "SalaryDistribution",
    "ParametricFamily",
    "support",
    "resolve",
    "distribution_from_json",
    "distribution_to_json",
]


@dataclass(frozen=True)
class Delta:
    """All mass at one point: every company pays the same."""

    point: float

    def __post_init__(self):
        object.__setattr__(self, "point", checked(check_real, self.point, "point", 0))


@dataclass(frozen=True)
class TwoPoint:
    """Two atoms epsilon1, epsilon2 with weight on the first."""

    epsilon1: float
    epsilon2: float
    weight: float

    def __post_init__(self):
        problems = []
        e1 = check_real(self.epsilon1, "epsilon1", problems, 0)
        e2 = check_real(self.epsilon2, "epsilon2", problems, 0)
        if None not in (e1, e2) and e1 == e2:
            problems.append("epsilon1 and epsilon2 must differ (use Delta otherwise)")
        w = check_real(self.weight, "weight", problems, 0, 1, open_low=True, open_high=True)
        if problems:
            raise ValidationError(problems)
        object.__setattr__(self, "epsilon1", e1)
        object.__setattr__(self, "epsilon2", e2)
        object.__setattr__(self, "weight", w)


@dataclass(frozen=True)
class Uniform:
    """Constant density on [lower, upper], 0 <= lower < upper."""

    lower: float
    upper: float

    def __post_init__(self):
        problems = []
        lower = check_real(self.lower, "lower", problems, 0)
        upper = check_real(self.upper, "upper", problems, 0)
        if None not in (lower, upper) and not lower < upper:
            problems.append(f"need lower < upper, got [{self.lower}, {self.upper}]")
        if problems:
            raise ValidationError(problems)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)


@dataclass(frozen=True)
class Histogram:
    """Piecewise-constant density over ascending bin edges with unit total mass."""

    edges: tuple
    masses: tuple

    def __post_init__(self):
        problems = []
        try:
            edges = tuple(check_real(e, f"edges[{i}]", problems, 0)
                          for i, e in enumerate(self.edges))
            masses = tuple(check_real(m, f"masses[{i}]", problems, 0)
                           for i, m in enumerate(self.masses))
        except TypeError:
            raise ValidationError("edges and masses must be numeric sequences") from None
        if len(edges) < 2:
            problems.append("need at least two bin edges")
        if len(masses) != max(len(edges) - 1, 0):
            problems.append(f"need exactly {max(len(edges) - 1, 0)} masses for "
                            f"{len(edges)} edges, got {len(masses)}")
        if None not in edges and any(b <= a for a, b in zip(edges, edges[1:])):
            problems.append("edges must be strictly ascending")
        if masses and None not in masses and abs(sum(masses) - 1.0) > 1e-12:
            problems.append(f"masses must sum to 1 within 1e-12, got {sum(masses)!r}")
        if problems:
            raise ValidationError(problems)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "masses", masses)


SalaryDistribution = Union[Delta, TwoPoint, Uniform, Histogram]


@dataclass(frozen=True)
class ParametricFamily:
    """phi that depends on (alpha, beta): a builder returning the concrete
    distribution at each parameter pair."""

    build: Callable[[float, float], SalaryDistribution]

    def __post_init__(self):
        if not callable(self.build):
            raise ValidationError("build must be callable")


def resolve(dist, params) -> SalaryDistribution:
    """Concrete distribution at the given Gibbs parameters."""
    if isinstance(dist, ParametricFamily):
        concrete = dist.build(params.alpha, params.beta)
        if isinstance(concrete, ParametricFamily):
            raise ValidationError("a family must resolve to a concrete distribution")
        return concrete
    return dist


def _pieces(dist: SalaryDistribution) -> tuple:
    """Weighted pieces (lo, hi, mass): an atom when lo == hi, otherwise the
    mass spread evenly over [lo, hi].  Zero-mass bins are left out."""
    if isinstance(dist, Delta):
        return ((dist.point, dist.point, 1.0),)
    if isinstance(dist, TwoPoint):
        return ((dist.epsilon1, dist.epsilon1, dist.weight),
                (dist.epsilon2, dist.epsilon2, 1.0 - dist.weight))
    if isinstance(dist, Uniform):
        return ((dist.lower, dist.upper, 1.0),)
    if isinstance(dist, Histogram):
        return tuple((lo, hi, mass) for lo, hi, mass
                     in zip(dist.edges, dist.edges[1:], dist.masses) if mass > 0.0)
    raise ValidationError(f"not a salary distribution: {dist!r}")


def support(dist: SalaryDistribution) -> tuple:
    """(lowest, highest) money value carrying mass."""
    pieces = _pieces(dist)
    return min(p[0] for p in pieces), max(p[1] for p in pieces)


#: JSON type name -> (class, JSON field names in the order of the class's fields)
_JSON_SCHEMA = {
    "delta": (Delta, ("epsilon0",)),
    "two_point": (TwoPoint, ("epsilon1", "epsilon2", "weight")),
    "uniform": (Uniform, ("lower", "upper")),
    "histogram": (Histogram, ("edges", "masses")),
}


def distribution_from_json(obj: dict) -> SalaryDistribution:
    """Build a distribution from its JSON form.

    Schema: {"type": "delta", "epsilon0": x}
            {"type": "two_point", "epsilon1": x, "epsilon2": y, "weight": w}
            {"type": "uniform", "lower": a, "upper": b}
            {"type": "histogram", "edges": [...], "masses": [...]}
    """
    if not isinstance(obj, dict):
        raise ValidationError(f"distribution must be a JSON object, got {type(obj).__name__}")
    kind, kinds = obj.get("type"), tuple(_JSON_SCHEMA)  # a tuple: kind may be unhashable
    if kind not in kinds:
        raise ValidationError(f"distribution type must be one of {kinds}, got {kind!r}")
    cls, names = _JSON_SCHEMA[kind]
    missing = [k for k in names if k not in obj]
    if missing:
        raise ValidationError([f"distribution field {k!r} is required for "
                               f"type {kind!r}" for k in missing])
    return cls(*(obj[k] for k in names))


def distribution_to_json(dist: SalaryDistribution) -> dict:
    for kind, (cls, names) in _JSON_SCHEMA.items():
        if isinstance(dist, cls):
            values = (getattr(dist, f.name) for f in fields(dist))
            return {"type": kind, **{k: list(v) if isinstance(v, tuple) else v
                                     for k, v in zip(names, values)}}
    raise ValidationError(f"not a salary distribution: {dist!r}")
