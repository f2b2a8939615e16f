"""One fixed Gauss-Legendre rule in the activity, graded about lambda = 0.

The kernels f, f' and log Z of a capacity-d level are analytic in lambda
away from the imaginary points 2 pi i k / D, D = d + 1, and 2 pi i k, so
they vary on the scale 1/D near lambda = 0 and on the scale |lambda| away
from it.  The rule splits a piece of activity at lambda = 0 and at
+-(2/D) 2^k, k >= 0, which puts every panel inside a Bernstein ellipse of
rho >= 3 + sqrt(8) ~ 5.8 (L. N. Trefethen, Approximation Theory and
Approximation Practice, SIAM 2013, ch. 19; the geometric grading of hp
quadrature, C. Schwab, p- and hp-Finite Element Methods, 1998), and
takes 12 Gauss-Legendre nodes per panel.  Every node is counted from the
lower end of its panel, in lambda, and of its piece, in the fraction that
gives its eps.  A piece that spans every double has at most about
2 (1024 + log2 D) panels.
"""

from __future__ import annotations

import math

__all__ = ["breakpoints", "graded_nodes"]

# Gauss-Legendre nodes x > 0 and weights of the 12-point rule on [-1, 1],
# correctly rounded from a 50-digit Newton iteration on P_12; outermost
# first, so that a sum of the weights, smallest first, is 2 exactly
_GL12 = ((0.98156063424671925069, 0.04717533638651182719),
         (0.90411725637047485668, 0.10693932599531843096),
         (0.76990267419430468704, 0.16007832854334622633),
         (0.58731795428661744730, 0.20316742672306592175),
         (0.36783149899818019375, 0.23349253653835480876),
         (0.12523340851146891547, 0.24914704581340278500))
#: (1 + x, weight) per node x = -+x_k of each pair: the node's offset from the
#: lower panel end, in half-widths
_RULE = tuple((1.0 + s * x, w) for x, w in _GL12 for s in (-1.0, 1.0))


def _powers(a, b, base):
    """base 2^k, k >= 0, strictly between a >= 0 and b, ascending."""
    k = max(0, math.frexp(a / base)[1] - 1)
    out, x = [], math.ldexp(base, k)
    while x < b:
        if x > a:
            out.append(x)
        x *= 2.0
    return out


def breakpoints(lam_lo, lam_hi, d):
    """The grading points 0 and +-(2/D) 2^k strictly inside (lam_lo, lam_hi)."""
    base = 2.0 / (d + 1.0)
    neg = [-x for x in reversed(_powers(max(-lam_hi, 0.0), -lam_lo, base))]
    zero = [0.0] if lam_lo < 0.0 < lam_hi else []
    return neg + zero + _powers(max(lam_lo, 0.0), lam_hi, base)


def graded_nodes(lam_lo, err_lo, lam_hi, err_hi, d):
    """Nodes (lambda, t, weight) of the graded rule over the activities
    [lam_lo + err_lo, lam_hi + err_hi] of a piece, err_lo and err_hi being
    rounding errors of lam_lo and lam_hi.

    t is the node's offset from the lower end of the piece as a fraction of
    its width w; lambda is anchored to the lower end of the node's panel,
    and each panel's weights are its half-width over w times the
    Gauss-Legendre weights, so they sum to 1.  A piece with no breakpoint
    inside is one panel whose fractions are the rule's own, so a width of 0
    needs no division.
    """
    ends = [(lam_lo, err_lo)] + [(x, 0.0) for x in breakpoints(lam_lo, lam_hi, d)]
    ends.append((lam_hi, err_hi))
    w = (lam_hi - lam_lo) + (err_hi - err_lo)
    nodes = []
    for (p0, e0), (p1, e1) in zip(ends, ends[1:]):
        h = 0.5 * ((p1 - p0) + (e1 - e0))
        if len(ends) == 2:
            r, r0 = 0.5, 0.0
        else:
            r = h / w
            r0 = ((p0 - lam_lo) + (e0 - err_lo)) / w
        nodes.extend((p0 + (e0 + h * s), r0 + r * s, r * weight) for s, weight in _RULE)
    return nodes
