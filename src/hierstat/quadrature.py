"""Adaptive composite Gauss-Legendre quadrature.

Panels are bisected until the whole-vs-halves estimate settles; known
awkward points (for example where an integrand switches across a
removable singularity) can be passed as breakpoints so that no panel
straddles them.  Integrands may return scalars or fixed-shape vectors,
which lets callers evaluate several moments of the same distribution in
one pass.
"""

from __future__ import annotations

import numpy as np

from .errors import AccuracyError, ValidationError, check_real, checked

__all__ = ["integrate_adaptive", "gauss_legendre_panel"]

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(10)


def gauss_legendre_panel(f, lo: float, hi: float) -> np.ndarray:
    """10-node Gauss-Legendre estimate of the integral of f over [lo, hi]."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    total = None
    for xi, w in zip(_NODES, _WEIGHTS):
        v = np.asarray(f(mid + half * xi), dtype=float)
        total = w * v if total is None else total + w * v
    return half * total


def integrate_adaptive(f, a: float, b: float, *, rel_tol: float = 1e-10,
                       max_depth: int = 20, breakpoints=()):
    """Integrate ``f`` over [a, b] to the requested tolerance.

    Returns a float for scalar integrands, an ndarray for vector ones.
    Raises :class:`AccuracyError` carrying the best estimate and its
    error bound if some panel still disagrees after ``max_depth``
    bisections.
    """
    rel_tol = checked(check_real, rel_tol, "rel_tol", 0, open_low=True)
    a, b = float(a), float(b)
    if not np.isfinite(a) or not np.isfinite(b) or b < a:
        raise ValidationError(f"invalid integration interval [{a}, {b}]")
    if a == b:
        return 0.0

    span = b - a
    edges = [a]
    for p in sorted(set(float(p) for p in breakpoints)):
        if a < p < b and p - edges[-1] > 1e-14 * span:
            edges.append(p)
    edges.append(b)

    panels = [(edges[i], edges[i + 1], gauss_legendre_panel(f, edges[i], edges[i + 1]), 0)
              for i in range(len(edges) - 1)]
    scale = max(float(np.max(np.abs(p[2]))) for p in panels)
    target = max(rel_tol * scale, 1e-300)

    result = None
    err_total = 0.0
    failed = False
    stack = list(panels)
    while stack:
        lo, hi, whole, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = gauss_legendre_panel(f, lo, mid)
        right = gauss_legendre_panel(f, mid, hi)
        better = left + right
        err = float(np.max(np.abs(better - whole)))
        allow = target * (hi - lo) / span
        if err <= allow or depth >= max_depth:
            result = better if result is None else result + better
            err_total += err
            if err > allow:
                failed = True
        else:
            stack.append((lo, mid, left, depth + 1))
            stack.append((mid, hi, right, depth + 1))

    result = np.asarray(result)
    if failed:
        raise AccuracyError("quadrature did not converge to tolerance",
                            estimate=result if result.ndim else float(result),
                            error_bound=err_total)
    return result if result.ndim else float(result)
