"""Machine-speed calibration of the benchmark's timings.

On a shared VM the speed the CPU gives a process drifts by tens of
percent within seconds, which would swamp the differences the benchmark
is meant to show.  Each timed operation is therefore bracketed by a short
fixed loop of scalar float math (the kind of work hierstat's kernels do),
and its latency is reported as

    measured seconds * REFERENCE_S / mean(loop seconds before, after)

that is, in seconds of a machine on which the loop takes REFERENCE_S.  On
a machine of steady speed the factor is a constant and the figures are
plain seconds up to that constant.  The loop is the benchmark's own code,
so a change to hierstat moves the operation's time and not the factor.
"""

from __future__ import annotations

import math
from time import perf_counter

#: loop duration that defines one reference second (about its median
#: duration on the 2-core x86_64 VM the benchmark was written on)
REFERENCE_S = 0.0039
_ITERATIONS = 12_000


def loop_seconds() -> float:
    """Duration of the calibration loop right now."""
    t0 = perf_counter()
    acc = 0.0
    for k in range(1, _ITERATIONS + 1):
        x = k * 2.5e-4
        acc += math.exp(-x) / -math.expm1(-x) - math.log1p(x)
    elapsed = perf_counter() - t0
    if not math.isfinite(acc):  # keeps the loop's result live
        raise ArithmeticError("calibration loop diverged")
    return elapsed


def timed(fn):
    """Call ``fn()``; return its result and its duration in reference seconds."""
    before = loop_seconds()
    t0 = perf_counter()
    out = fn()
    elapsed = perf_counter() - t0
    after = loop_seconds()
    return out, elapsed * REFERENCE_S / (0.5 * (before + after))
