"""Driven Hamiltonians and time-ordered propagators for the two unitary strokes.

The drive rotates the qubit Hamiltonian axis from z to x (segment I) and back
(segment II) at a constant gap.  Times are dimensionless phases x = omega*t:
segment I covers [0, tau], segment II covers [tau, 2*tau] with tau = omega*tau.

The propagator is a midpoint-sampled product of exact step exponentials
(second order overall, exactly unitary per step).  Factors are combined by
pairwise tree reduction, which keeps the evaluation fast at large step counts
and bit-for-bit deterministic for a given step count.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, ValidationError
from .qubit_algebra import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Z,
    hermitian_expm,
    unitarity_residual,
)

REFERENCE_STEPS = 65536
ERROR_FLOOR = 1e-12
# Step factors per chunk of a batched build: 32 durations x 2 segments x 256
# steps, 1 MiB of 2x2 complex factors.  A longer build runs one duration at
# a time.
FACTOR_BLOCK = 16384


class Segment(enum.Enum):
    I = 1
    II = 2


@dataclass(frozen=True)
class DriveSpec:
    """One driven stroke: duration as dimensionless omega*tau, gap hbar_omega."""

    tau: float
    segment: Segment
    hbar_omega: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValidationError("tau must be finite and > 0")
        if not (math.isfinite(self.hbar_omega) and self.hbar_omega > 0.0):
            raise ValidationError("hbar_omega must be finite and > 0")

    def time_window(self) -> tuple[float, float]:
        if self.segment is Segment.I:
            return 0.0, self.tau
        return self.tau, 2.0 * self.tau


@dataclass(frozen=True)
class PropagatorResult:
    u: np.ndarray
    steps: int
    unitarity_residual: float


def drive_axis_angle(spec: DriveSpec, t: float) -> float:
    """Polar angle of the drive axis in the x-z plane at phase t."""
    lo, hi = spec.time_window()
    if not (lo <= t <= hi):
        raise ValidationError(
            f"t={t!r} outside segment {spec.segment.name} range [{lo}, {hi}]"
        )
    return _axis_angle(spec.segment, spec.tau, t)


def _axis_angle(segment: Segment, tau, t):
    """The drive angle: 0 -> pi/2 over segment I, pi/2 -> 0 over segment II.

    ``tau`` and ``t`` may be arrays that broadcast against each other.
    """
    if segment is Segment.I:
        return np.pi * t / (2.0 * tau)
    return np.pi * (2.0 * tau - t) / (2.0 * tau)


def driving_hamiltonian(spec: DriveSpec, t: float) -> np.ndarray:
    """H(t) = (hbar_omega/2)(cos(theta) sigma_z + sin(theta) sigma_x).

    The axis rotates; the gap never changes, so the eigenvalues are exactly
    +-hbar_omega/2 for every t in the segment.
    """
    theta = drive_axis_angle(spec, t)
    return 0.5 * spec.hbar_omega * (math.cos(theta) * SIGMA_Z + math.sin(theta) * SIGMA_X)


def _drive_step_factors(taus: np.ndarray, segments: Sequence[Segment],
                        steps: int) -> np.ndarray:
    """Exact midpoint exponentials exp(-i H(t_mid) dt / hbar_omega), vectorized.

    One stack of ``steps`` factors per drive duration in ``taus`` and per
    segment: the shape is (len(taus), len(segments), steps, 2, 2).
    """
    tau = taus[:, None]
    dt = tau / steps
    # rotation by angle dt about the unit axis (sin theta, 0, cos theta);
    # math.cos/math.sin, as in a build of one, because np.cos/np.sin round
    # differently on some inputs
    c = np.array([[math.cos(0.5 * x)] for x in dt[:, 0].tolist()])
    s = np.array([[math.sin(0.5 * x)] for x in dt[:, 0].tolist()])
    f = np.empty((len(taus), len(segments), steps, 2, 2), dtype=complex)
    for k, segment in enumerate(segments):
        lo = 0.0 if segment is Segment.I else tau
        theta = _axis_angle(segment, tau, lo + (np.arange(steps) + 0.5) * dt)
        f[:, k, :, 0, 0] = c - 1j * s * np.cos(theta)
        f[:, k, :, 0, 1] = -1j * s * np.sin(theta)
        f[:, k, :, 1, 0] = -1j * s * np.sin(theta)
        f[:, k, :, 1, 1] = c + 1j * s * np.cos(theta)
    return f


def _ordered_product(factors: np.ndarray) -> np.ndarray:
    """Product factors[-1] @ ... @ factors[0] along the step axis (third
    from last) by pairwise tree reduction; any leading axes are a batch.

    Each reduction level is re-projected onto the unitary manifold with one
    Newton-Schulz polar step; plain accumulation drifts off unitarity
    linearly in the factor count (about N*eps), the projected product stays
    at the eps*log(N) level without affecting the integration error.
    """
    n = factors.shape[-3]
    size = 1 << (n - 1).bit_length()
    if size != n:
        pad = np.broadcast_to(IDENTITY, factors.shape[:-3] + (size - n, 2, 2))
        factors = np.concatenate([factors, pad], axis=-3)
    while factors.shape[-3] > 1:
        factors = factors[..., 1::2, :, :] @ factors[..., 0::2, :, :]
        gram = factors.conj().swapaxes(-1, -2) @ factors
        factors = 0.5 * (3.0 * factors - factors @ gram)
    return factors[..., 0, :, :]


def drive_propagators(taus: np.ndarray, steps: int,
                      segments: Sequence[Segment] = (Segment.I, Segment.II)) -> np.ndarray:
    """Midpoint-product propagators for each drive duration in ``taus`` and
    each segment, shape (len(taus), len(segments), 2, 2).

    ``taus`` is a 1-D array of finite durations > 0, checked by the caller.
    The factors are built and reduced ``FACTOR_BLOCK`` at a time, so scratch
    memory does not grow with the number of durations.
    """
    out = np.empty((len(taus), len(segments), 2, 2), dtype=complex)
    chunk = max(1, FACTOR_BLOCK // (len(segments) * steps))
    for start in range(0, len(taus), chunk):
        block = slice(start, start + chunk)
        out[block] = _ordered_product(_drive_step_factors(taus[block], segments, steps))
    return out


def time_ordered_propagator(
    spec: DriveSpec,
    steps: int,
    hamiltonian: Callable[[float], np.ndarray] | None = None,
) -> PropagatorResult:
    """Midpoint-product propagator over one segment, latest factor leftmost.

    ``hamiltonian`` is a test hook: when given, it replaces the drive with an
    arbitrary H(t) (in units of hbar_omega) evaluated at the step midpoints.
    """
    if not isinstance(steps, numbers.Integral) or steps < 2:
        raise ConfigurationError("steps must be an integer >= 2")
    if hamiltonian is None:
        u = drive_propagators(np.array([spec.tau]), steps, (spec.segment,))[0, 0]
    else:
        lo, _ = spec.time_window()
        dt = spec.tau / steps
        factors = np.empty((steps, 2, 2), dtype=complex)
        for j in range(steps):
            factors[j] = hermitian_expm(hamiltonian(lo + (j + 0.5) * dt), dt)
        u = _ordered_product(factors)
    return PropagatorResult(u=u, steps=steps, unitarity_residual=unitarity_residual(u))


@dataclass(frozen=True)
class ConvergenceEstimate:
    order: float
    steps: tuple[int, ...]
    errors: tuple[float, ...]
    indeterminate: bool


def convergence_order(
    spec: DriveSpec,
    n_list: Sequence[int],
    reference_steps: int = REFERENCE_STEPS,
    hamiltonian: Callable[[float], np.ndarray] | None = None,
) -> ConvergenceEstimate:
    """Empirical order: least-squares slope of log(error) against log(N).

    Errors are entrywise deviations from the high-N reference propagator.
    When every error sits at the roundoff floor the slope is meaningless and
    the estimate is flagged indeterminate.
    """
    ns = list(n_list)
    if len(ns) < 3 or sorted(set(ns)) != ns:
        raise ConfigurationError("n_list must be >= 3 strictly ascending step counts")
    ref = time_ordered_propagator(spec, reference_steps, hamiltonian).u
    errors = []
    for n in ns:
        u = time_ordered_propagator(spec, n, hamiltonian).u
        errors.append(float(np.abs(u - ref).max()))
    usable = [(n, e) for n, e in zip(ns, errors) if e > ERROR_FLOOR]
    if len(usable) < 2:
        return ConvergenceEstimate(
            order=float("nan"), steps=tuple(ns), errors=tuple(errors), indeterminate=True
        )
    logn = np.log([n for n, _ in usable])
    loge = np.log([e for _, e in usable])
    slope = np.polyfit(logn, loge, 1)[0]
    return ConvergenceEstimate(
        order=float(-slope), steps=tuple(ns), errors=tuple(errors), indeterminate=False
    )
