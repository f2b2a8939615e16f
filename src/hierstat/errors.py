"""Exception types shared across the package."""

from __future__ import annotations

import math
import numbers
import sys

__all__ = ["HierstatError", "ValidationError", "SingularInversion", "NoConvergence",
           "check_int", "check_real", "checked"]

#: upper bound of the integer sizes (capacity, volume) that enter float formulas
_DOUBLE_MAX = sys.float_info.max
#: ints longer than this are named by their size in messages: Python refuses
#: to print an int beyond its digit limit, which is never below 640 digits
_SHOWN_BITS = 2000


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


def _shown(value) -> str:
    """``repr(value)`` for a message, but an int too long to print (see
    ``_SHOWN_BITS``) as its approximate digit count, found from its bit length."""
    if isinstance(value, int) and value.bit_length() > _SHOWN_BITS:
        return f"an integer of about {int(value.bit_length() * math.log10(2)) + 1} digits"
    return repr(value)


def check_int(value, name, problems, low=None, high=None):
    """``value`` as an ``int`` in [low, high] (None: unbounded), or None
    after appending one violation to ``problems``.  A bool is not an
    integer; numpy integers are."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        value = int(value)
        if (low is None or value >= low) and (high is None or value <= high):
            return value
    problems.append(f"{name} must be an integer{_range(low, high)}, got {_shown(value)}")
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
                    f"{_range(low, high, open_low, open_high)}, got {_shown(value)}")
    return None


def _check_type(value, cls, name):
    """``value`` if it is a ``cls``, else ValidationError naming ``name``."""
    if not isinstance(value, cls):
        raise ValidationError(f"{name} must be of type {cls.__name__}, got {_shown(value)}")
    return value


def checked(check, value, name, *bounds, **options):
    """``check(value, name, problems, *bounds, **options)`` for a lone
    argument: its value, or ValidationError with the one violation."""
    problems = []
    value = check(value, name, problems, *bounds, **options)
    if problems:
        raise ValidationError(problems)
    return value


def _freeze(record, problems=(), **values):
    """Store the checked ``values`` on the frozen dataclass ``record``, or
    raise every violation in ``problems`` as one ValidationError."""
    if problems:
        raise ValidationError(problems)
    for name, value in values.items():
        object.__setattr__(record, name, value)


class SingularInversion(HierstatError):
    """The (density, energy) pair does not determine the Gibbs parameters.

    Raised whenever the map (alpha, beta) -> (n, u) is rank deficient on
    the requested path, in particular for every point-mass salary
    distribution, where u is constant.
    """


class NoConvergence(HierstatError):
    """Iterative solver exhausted its budget; the residuals and (alpha, beta)
    it has are attached, and named in the message (a failed start has none)."""

    def __init__(self, message, residual_n=None, residual_u=None,
                 alpha=None, beta=None):
        fields = ", ".join(f"{name}={value!r}" for name, value in (
            ("residual_n", residual_n), ("residual_u", residual_u),
            ("alpha", alpha), ("beta", beta)) if value is not None)
        super().__init__(f"{message} ({fields})" if fields else message)
        self.residual_n = residual_n
        self.residual_u = residual_u
        self.alpha = alpha
        self.beta = beta
