"""Exception types shared across the package, and the helper raising on a failed check."""

from __future__ import annotations

import numpy as np


class ValidationError(ValueError):
    """An input value or matrix violates a precondition."""


class ConfigurationError(ValueError):
    """A run/grid/CLI configuration is unusable."""


class InvariantViolation(RuntimeError):
    """A physical invariant failed beyond tolerance.

    Carries the per-check residuals so callers can report diagnostics
    instead of a bare failure.
    """

    def __init__(self, message: str, residuals: dict[str, float]):
        super().__init__(message)
        self.residuals = dict(residuals)
        self.max_residual = max(residuals.values()) if residuals else float("nan")


def require_within(checks: dict, subject: str, error: type = ValidationError) -> None:
    """Raise ``error`` on the first ``name: (residual, bound)`` of ``checks``
    whose largest residual is not ``<= bound``, so NaN fails."""
    for name, (residual, bound) in checks.items():
        worst = float(np.max(residual))
        if not worst <= bound:
            message = f"{subject}: {name} residual {worst:.3e} > {bound:.1e}"
            raise error(message, {name: worst}) if error is InvariantViolation else error(message)
