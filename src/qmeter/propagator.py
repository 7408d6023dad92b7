"""Driven Hamiltonians and time-ordered propagators for the two unitary strokes.

The drive rotates the qubit Hamiltonian axis from z to x (segment I) and back
(segment II) at a constant gap.  Times are dimensionless phases x = omega*t:
segment I covers [0, tau], segment II covers [tau, 2*tau] with tau = omega*tau.

The propagator is a midpoint-sampled product of exact step exponentials
(second order overall, exactly unitary per step).  Factors are combined by
pairwise tree reduction, which keeps the evaluation fast at large step counts
and bit-for-bit deterministic for a given step count.  In the frame turning
with the drive axis each stroke has an exact closed form, the reference for
the integration error.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, ValidationError
from .qubit_algebra import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    unitarity_residual,
)

REFERENCE_STEPS = 65536
ERROR_FLOOR = 1e-12


class Segment(enum.Enum):
    I = 1
    II = 2


@dataclass(frozen=True)
class DriveSpec:
    """One driven stroke: duration as dimensionless omega*tau."""

    tau: float
    segment: Segment

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValidationError("tau must be finite and > 0")

    def time_window(self) -> tuple[float, float]:
        if self.segment is Segment.I:
            return 0.0, self.tau
        return self.tau, 2.0 * self.tau


@dataclass(frozen=True)
class PropagatorResult:
    u: np.ndarray
    steps: int
    unitarity_residual: float


def _axis_angle(segment: Segment, tau, t):
    """The drive angle: 0 -> pi/2 over segment I, pi/2 -> 0 over segment II.

    ``tau`` and ``t`` may be arrays that broadcast against each other.
    """
    if segment is Segment.I:
        return np.pi * t / (2.0 * tau)
    return np.pi * (2.0 * tau - t) / (2.0 * tau)


def driving_hamiltonian(spec: DriveSpec, t: float) -> np.ndarray:
    """H(t) = (cos(theta) sigma_z + sin(theta) sigma_x)/2 in units of hbar_omega.

    The axis rotates; the gap never changes, so the eigenvalues are exactly
    +-1/2 for every t in the segment.
    """
    lo, hi = spec.time_window()
    if not (lo <= t <= hi):
        raise ValidationError(f"t={t!r} outside segment {spec.segment.name} range [{lo}, {hi}]")
    theta = _axis_angle(spec.segment, spec.tau, t)
    return 0.5 * (math.cos(theta) * SIGMA_Z + math.sin(theta) * SIGMA_X)


def _drive_step_factors(tau: float, segments: Sequence[Segment],
                        steps: int) -> np.ndarray:
    """Exact midpoint exponentials exp(-i H(t_mid) dt), vectorized.

    One stack of ``steps`` factors per segment: the shape is
    (len(segments), steps, 2, 2).
    """
    dt = tau / steps
    # rotation by angle dt about the unit axis (sin theta, 0, cos theta)
    c, s = math.cos(0.5 * dt), math.sin(0.5 * dt)
    f = np.empty((len(segments), steps, 2, 2), dtype=complex)
    for k, segment in enumerate(segments):
        lo = 0.0 if segment is Segment.I else tau
        theta = _axis_angle(segment, tau, lo + (np.arange(steps) + 0.5) * dt)
        f[k, :, 0, 0] = c - 1j * s * np.cos(theta)
        f[k, :, 0, 1] = -1j * s * np.sin(theta)
        f[k, :, 1, 0] = -1j * s * np.sin(theta)
        f[k, :, 1, 1] = c + 1j * s * np.cos(theta)
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


def drive_propagators(tau: float, steps: int,
                      segments: Sequence[Segment] = (Segment.I, Segment.II)) -> np.ndarray:
    """Midpoint-product propagators of the drive duration ``tau`` (finite and
    > 0, checked by the caller) for each segment, shape (len(segments), 2, 2)."""
    return _ordered_product(_drive_step_factors(tau, segments, steps))


def exact_drive_propagators(taus) -> np.ndarray:
    """The exact (U, V) pair of each drive duration in ``taus``, shape
    (len(taus), 2, 2, 2).

    In the frame that turns with the drive axis the generator is constant:
    U = R exp(-i (tau sigma_z - (pi/2) sigma_y)/2) and
    V = exp(-i (tau sigma_z + (pi/2) sigma_y)/2) R^dag, where
    R = exp(-i (pi/4) sigma_y) turns the axis from z to x.
    """
    taus = np.asarray(taus, dtype=float)
    # math.hypot rounds correctly; np.hypot is an ulp off on about 0.1% of
    # durations, which moves the phase by up to 4e-15
    theta = np.array([math.hypot(t, 0.5 * math.pi) for t in taus.tolist()])
    c, s = (f(0.5 * theta)[:, None, None] for f in (np.cos, np.sin))
    # theta n = (0, -+pi/2, tau) and exp(-i (theta/2) n.sigma) = c I - i s n.sigma
    z = s * (taus / theta)[:, None, None] * SIGMA_Z
    y = s * (0.5 * math.pi / theta)[:, None, None] * SIGMA_Y
    r = (IDENTITY - 1j * SIGMA_Y) / math.sqrt(2.0)
    u = r @ (c * IDENTITY - 1j * (z - y))
    v = (c * IDENTITY - 1j * (z + y)) @ r.conj().T
    return np.stack([u, v], axis=1)


def time_ordered_propagator(spec: DriveSpec, steps: int) -> PropagatorResult:
    """Midpoint-product propagator over one segment, latest factor leftmost."""
    if not isinstance(steps, numbers.Integral) or steps < 2:
        raise ConfigurationError("steps must be an integer >= 2")
    u = drive_propagators(spec.tau, steps, (spec.segment,))[0]
    return PropagatorResult(u=u, steps=steps, unitarity_residual=unitarity_residual(u))


@dataclass(frozen=True)
class ConvergenceEstimate:
    order: float
    indeterminate: bool


def convergence_order(spec: DriveSpec, n_list: Sequence[int]) -> ConvergenceEstimate:
    """Empirical order: least-squares slope of log(error) against log(N).

    Errors are entrywise deviations from the exact propagator.  When every
    error sits at the roundoff floor the slope is meaningless and the
    estimate is flagged indeterminate.
    """
    ns = list(n_list)
    if len(ns) < 3 or sorted(set(ns)) != ns:
        raise ConfigurationError("n_list must be >= 3 strictly ascending step counts")
    ref = exact_drive_propagators([spec.tau])[0, (Segment.I, Segment.II).index(spec.segment)]
    errors = [float(np.abs(time_ordered_propagator(spec, n).u - ref).max()) for n in ns]
    usable = [(n, e) for n, e in zip(ns, errors) if e > ERROR_FLOOR]
    if len(usable) < 2:
        return ConvergenceEstimate(order=float("nan"), indeterminate=True)
    logn = np.log([n for n, _ in usable])
    loge = np.log([e for _, e in usable])
    slope = np.polyfit(logn, loge, 1)[0]
    return ConvergenceEstimate(order=float(-slope), indeterminate=False)
