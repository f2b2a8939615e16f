"""Salary/cost distributions phi(epsilon) for the ensemble integrals.

Support is restricted to bounded intervals of [0, inf) plus a point
mass, so every integral here is either an exact atom sum or a
convergent panel quadrature.  A distribution can also be declared as a
parametric family that resolves to a concrete variant at each Gibbs
parameter pair; the moment derivatives then pick up finite-difference
phi terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import ValidationError, check_real
from .quadrature import integrate_adaptive

__all__ = [
    "Delta",
    "TwoPoint",
    "Uniform",
    "Histogram",
    "SalaryDistribution",
    "ParametricFamily",
    "support",
    "atoms",
    "integrate_against",
    "resolve",
    "is_parametric",
    "distribution_from_json",
    "distribution_to_json",
]


@dataclass(frozen=True)
class Delta:
    """All mass at one point: every company pays the same."""

    point: float

    def __post_init__(self):
        problems = []
        point = check_real(self.point, "point", problems, 0)
        if problems:
            raise ValidationError(problems)
        object.__setattr__(self, "point", point)


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
            edges = tuple(float(e) for e in self.edges)
            masses = tuple(float(m) for m in self.masses)
        except (TypeError, ValueError):
            raise ValidationError("edges and masses must be numeric sequences") from None
        if len(edges) < 2:
            problems.append("need at least two bin edges")
        if len(masses) != max(len(edges) - 1, 0):
            problems.append(f"need exactly {max(len(edges) - 1, 0)} masses for "
                            f"{len(edges)} edges, got {len(masses)}")
        if edges and (not all(math.isfinite(e) for e in edges) or edges[0] < 0):
            problems.append("edges must be finite and >= 0")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            problems.append("edges must be strictly ascending")
        if any(not math.isfinite(m) or m < 0 for m in masses):
            problems.append("masses must be finite and >= 0")
        elif masses and abs(sum(masses) - 1.0) > 1e-12:
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


def is_parametric(dist) -> bool:
    return isinstance(dist, ParametricFamily)


def resolve(dist, params) -> SalaryDistribution:
    """Concrete distribution at the given Gibbs parameters."""
    if isinstance(dist, ParametricFamily):
        concrete = dist.build(params.alpha, params.beta)
        if isinstance(concrete, ParametricFamily):
            raise ValidationError("a family must resolve to a concrete distribution")
        return concrete
    return dist


def support(dist: SalaryDistribution) -> tuple:
    """(lowest, highest) money value carrying mass."""
    if isinstance(dist, Delta):
        return dist.point, dist.point
    if isinstance(dist, TwoPoint):
        lo = min(dist.epsilon1, dist.epsilon2)
        return lo, max(dist.epsilon1, dist.epsilon2)
    if isinstance(dist, Uniform):
        return dist.lower, dist.upper
    if isinstance(dist, Histogram):
        live = [i for i, m in enumerate(dist.masses) if m > 0]
        if not live:
            return dist.edges[0], dist.edges[-1]
        return dist.edges[live[0]], dist.edges[live[-1] + 1]
    raise ValidationError(f"not a salary distribution: {dist!r}")


def atoms(dist: SalaryDistribution):
    """List of (epsilon, mass) for purely discrete variants, else None."""
    if isinstance(dist, Delta):
        return [(dist.point, 1.0)]
    if isinstance(dist, TwoPoint):
        return [(dist.epsilon1, dist.weight), (dist.epsilon2, 1.0 - dist.weight)]
    return None


def integrate_against(dist: SalaryDistribution, f, *, rel_tol: float = 1e-10,
                      breakpoints=()):
    """integral of phi(eps) * f(eps) d eps; exact for discrete variants.

    ``f`` may return a scalar or a fixed-shape vector.
    """
    pts = atoms(dist)
    if pts is not None:
        total = None
        for eps, mass in pts:
            v = mass * np.asarray(f(eps), dtype=float)
            total = v if total is None else total + v
        total = np.asarray(total)
        return total if total.ndim else float(total)
    if isinstance(dist, Uniform):
        width = dist.upper - dist.lower
        est = integrate_adaptive(f, dist.lower, dist.upper, rel_tol=rel_tol,
                                 breakpoints=breakpoints)
        return np.asarray(est) / width if np.ndim(est) else est / width
    if isinstance(dist, Histogram):
        total = None
        for i, mass in enumerate(dist.masses):
            if mass == 0.0:
                continue
            lo, hi = dist.edges[i], dist.edges[i + 1]
            est = np.asarray(integrate_adaptive(f, lo, hi, rel_tol=rel_tol,
                                                breakpoints=breakpoints))
            piece = est * (mass / (hi - lo))
            total = piece if total is None else total + piece
        total = np.asarray(total)
        return total if total.ndim else float(total)
    raise ValidationError(f"not a salary distribution: {dist!r}")


_JSON_TYPES = ("delta", "two_point", "uniform", "histogram")


def distribution_from_json(obj: dict) -> SalaryDistribution:
    """Build a distribution from its JSON form.

    Schema: {"type": "delta", "epsilon0": x}
            {"type": "two_point", "epsilon1": x, "epsilon2": y, "weight": w}
            {"type": "uniform", "lower": a, "upper": b}
            {"type": "histogram", "edges": [...], "masses": [...]}
    """
    if not isinstance(obj, dict):
        raise ValidationError(f"distribution must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("type")
    if kind not in _JSON_TYPES:
        raise ValidationError(
            f"distribution type must be one of {_JSON_TYPES}, got {kind!r}")
    required = {
        "delta": ("epsilon0",),
        "two_point": ("epsilon1", "epsilon2", "weight"),
        "uniform": ("lower", "upper"),
        "histogram": ("edges", "masses"),
    }[kind]
    missing = [k for k in required if k not in obj]
    if missing:
        raise ValidationError([f"distribution field {k!r} is required for "
                               f"type {kind!r}" for k in missing])
    if kind == "delta":
        return Delta(obj["epsilon0"])
    if kind == "two_point":
        return TwoPoint(obj["epsilon1"], obj["epsilon2"], obj["weight"])
    if kind == "uniform":
        return Uniform(obj["lower"], obj["upper"])
    return Histogram(tuple(obj["edges"]), tuple(obj["masses"]))


def distribution_to_json(dist: SalaryDistribution) -> dict:
    if isinstance(dist, Delta):
        return {"type": "delta", "epsilon0": dist.point}
    if isinstance(dist, TwoPoint):
        return {"type": "two_point", "epsilon1": dist.epsilon1,
                "epsilon2": dist.epsilon2, "weight": dist.weight}
    if isinstance(dist, Uniform):
        return {"type": "uniform", "lower": dist.lower, "upper": dist.upper}
    if isinstance(dist, Histogram):
        return {"type": "histogram", "edges": list(dist.edges),
                "masses": list(dist.masses)}
    raise ValidationError(f"not a salary distribution: {dist!r}")
