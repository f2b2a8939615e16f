"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["HierstatError", "ValidationError", "AccuracyError",
           "SingularInversion", "NoConvergence", "ImbalancedEntry"]


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
