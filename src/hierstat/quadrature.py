"""Adaptive composite Gauss-Kronrod quadrature (QUADPACK's G10/K21 pair).

A panel is bisected until each component's error estimate is within
``PANEL_TOL`` of that component's integral of |f| over the panel.  Known
awkward points (for example where an integrand switches across a
removable singularity) can be passed as breakpoints so that no panel
straddles them.  An integrand returns a fixed-length sequence, so that
one pass evaluates several moments.
"""

from __future__ import annotations

import numpy as np

from .errors import AccuracyError, ValidationError

__all__ = ["integrate_adaptive", "gauss_legendre_panel", "PANEL_TOL", "MAX_DEPTH",
           "MAX_PANELS"]

PANEL_TOL = 1e-12
MAX_DEPTH = 20
#: panels per call, as QUADPACK's ``limit``; converging integrals use <= ~530
MAX_PANELS = 4096

# scipy's _quadrature_gk21 constants for the nodes x >= 0, descending; the rule
# is symmetric, and the odd positions of the full node list are the Gauss nodes
_HALF_NODES = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0)
_HALF_KRONROD = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821)
_HALF_GAUSS = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338)
_NODES = _HALF_NODES + tuple(-x for x in _HALF_NODES[-2::-1])
_KRONROD_WEIGHTS = np.array(_HALF_KRONROD + _HALF_KRONROD[-2::-1])
_GAUSS_WEIGHTS = np.array(_HALF_GAUSS + _HALF_GAUSS[::-1])


def gauss_legendre_panel(f, lo: float, hi: float) -> tuple:
    """(K21 estimate, error, integral of |f|) over [lo, hi], per component.

    The error is QUADPACK's qk21 scaling of |K21 - G10|: resasc *
    min(1, (200 |K21 - G10| / resasc) ** 1.5), where resasc is the K21
    integral of |f - mean of f| over the panel.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    values = np.array([f(mid + half * x) for x in _NODES], dtype=float)
    kronrod = _KRONROD_WEIGHTS @ values
    gauss = _GAUSS_WEIGHTS @ values[1::2]
    abs_int = half * (_KRONROD_WEIGHTS @ np.abs(values))
    resasc = half * (_KRONROD_WEIGHTS @ np.abs(values - 0.5 * kronrod))
    ratio = 200.0 * half * np.abs(kronrod - gauss) / np.where(resasc > 0.0, resasc, 1.0)
    return half * kronrod, resasc * np.minimum(1.0, ratio) ** 1.5, abs_int


def integrate_adaptive(f, a: float, b: float, *, breakpoints=()):
    """Integrate ``f`` over [a, b]: an ndarray, one entry per component of ``f``.

    Raises :class:`AccuracyError` carrying the estimate and the summed
    error bound if a panel still misses ``PANEL_TOL`` after ``MAX_DEPTH``
    bisections, or when bisecting it would take the call past
    ``MAX_PANELS`` panels.
    """
    a, b = float(a), float(b)
    if not np.isfinite(a) or not np.isfinite(b) or b < a:
        raise ValidationError(f"invalid integration interval [{a}, {b}]")

    edges = [a]
    for p in sorted(set(float(p) for p in breakpoints)):
        if a < p < b and p - edges[-1] > 1e-14 * (b - a):
            edges.append(p)
    edges.append(b)

    result = None
    err_total = 0.0
    failed = False
    stack = [(edges[i], edges[i + 1], 0) for i in range(len(edges) - 1)]
    budget = MAX_PANELS - len(stack)  # panels not yet owed to a stacked interval
    while stack:
        lo, hi, depth = stack.pop()
        est, err, abs_int = gauss_legendre_panel(f, lo, hi)
        converged = bool((err <= PANEL_TOL * abs_int).all())
        if converged or depth >= MAX_DEPTH or budget < 2:
            result = est if result is None else result + est
            err_total += float(err.max())
            failed = failed or not converged
        else:
            budget -= 2
            mid = 0.5 * (lo + hi)
            stack.append((lo, mid, depth + 1))
            stack.append((mid, hi, depth + 1))

    if failed:
        raise AccuracyError("quadrature did not converge to tolerance",
                            estimate=result, error_bound=err_total)
    return result
