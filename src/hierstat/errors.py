"""Exception types shared across the package."""

from __future__ import annotations

import math
import numbers

__all__ = ["HierstatError", "ValidationError", "AccuracyError",
           "SingularInversion", "NoConvergence", "ImbalancedEntry",
           "check_int", "check_real"]


class HierstatError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(HierstatError, ValueError):
    """An input violates a documented precondition or type invariant.

    Carries every violation found, not just the first one.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def _range(low, high, open_low=False, open_high=False) -> str:
    """The admissible range in words: '', ' >= 0', ' < 1' or ' in (0, 1]'."""
    low = None if low == -math.inf else low
    high = None if high == math.inf else high
    if high is None:
        return "" if low is None else f" {'>' if open_low else '>='} {low}"
    if low is None:
        return f" {'<' if open_high else '<='} {high}"
    return f" in {'(' if open_low else '['}{low}, {high}{')' if open_high else ']'}"


def check_int(value, name, problems, low=None, high=None):
    """``value`` as an ``int`` in [low, high] (None: unbounded), or None
    after appending one violation to ``problems``.  A bool is not an
    integer; numpy integers are."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        value = int(value)
        if (low is None or value >= low) and (high is None or value <= high):
            return value
    problems.append(f"{name} must be an integer{_range(low, high)}, got {value!r}")
    return None


def check_real(value, name, problems, low=-math.inf, high=math.inf, *,
               open_low=False, open_high=False):
    """``value`` as a finite ``float`` between ``low`` and ``high`` (closed
    ends unless ``open_low``/``open_high``), or None after appending one
    violation to ``problems``.  A bool is not a number; any other
    ``numbers.Real`` is."""
    if isinstance(value, float):  # np.float64 too
        x = float(value)
        if low < x < high:  # the common case; it also rules out nan and +-inf
            return x
    elif isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int beyond the double range
            x = math.inf
    else:
        x = math.nan
    if math.isfinite(x) and (low < x if open_low else low <= x) \
            and (x < high if open_high else x <= high):
        return x
    problems.append(f"{name} must be a finite number"
                    f"{_range(low, high, open_low, open_high)}, got {value!r}")
    return None


class AccuracyError(HierstatError):
    """A numerical routine could not reach the requested tolerance.

    ``estimate`` is the best value achieved, ``error_bound`` the
    estimated error attached to it.
    """

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(
            f"{message} (estimate={estimate!r}, error_bound={error_bound!r})"
        )
        self.estimate = estimate
        self.error_bound = error_bound


class SingularInversion(HierstatError):
    """The (density, energy) pair does not determine the Gibbs parameters.

    Raised whenever the map (alpha, beta) -> (n, u) is rank deficient on
    the requested path, in particular for every point-mass salary
    distribution, where u is constant.
    """


class NoConvergence(HierstatError):
    """Iterative solver exhausted its budget; residuals are attached."""

    def __init__(self, message, residual_n=None, residual_u=None,
                 alpha=None, beta=None):
        super().__init__(
            f"{message} (residual_n={residual_n!r}, residual_u={residual_u!r},"
            f" alpha={alpha!r}, beta={beta!r})"
        )
        self.residual_n = residual_n
        self.residual_u = residual_u
        self.alpha = alpha
        self.beta = beta


class ImbalancedEntry(HierstatError):
    """A ledger entry breaks exact money conservation; ``index`` locates it."""

    def __init__(self, index, message):
        super().__init__(f"entry {index}: {message}")
        self.index = index
