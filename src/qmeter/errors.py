"""Exception types shared across the package, and the reader of a check table."""

from __future__ import annotations

import numpy as np


class ValidationError(ValueError):
    """An input value or matrix violates a precondition."""


class ConfigurationError(ValueError):
    """A run/grid/CLI configuration is unusable."""


class InvariantViolation(RuntimeError):
    """A physical invariant failed beyond tolerance.

    Carries the per-check residuals and their maximum, NaN if any is NaN, so
    callers can report diagnostics instead of a bare failure.
    """

    def __init__(self, message: str, residuals: dict[str, float]):
        super().__init__(message)
        self.residuals = dict(residuals)
        self.max_residual = float(np.max([*residuals.values()])) if residuals else float("nan")


def failed_checks(checks: dict) -> dict[str, float]:
    """The worst residual of each ``name: (residual, bound)`` of ``checks``
    that is not ``<= bound``, so NaN fails, in table order; a 0-d one is its own worst."""
    worst = {name: float(residual if getattr(residual, "ndim", 0) == 0 else np.max(residual))
             for name, (residual, _) in checks.items()}
    return {name: value for name, value in worst.items() if not value <= checks[name][1]}


def require_within(checks: dict, subject: str, error: type = ValidationError) -> None:
    """Raise ``error`` on the first entry of ``checks`` that ``failed_checks`` returns."""
    for name, worst in failed_checks(checks).items():
        message = f"{subject}: {name} residual {worst:.3e} > {checks[name][1]:.1e}"
        raise error(message, {name: worst}) if error is InvariantViolation else error(message)
