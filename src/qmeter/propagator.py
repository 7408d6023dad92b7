"""Driven Hamiltonians and time-ordered propagators for the two unitary strokes.

The drive rotates the qubit Hamiltonian axis from z to x (segment I) and back
(segment II) at a constant gap.  Times are dimensionless phases x = omega*t:
segment I covers [0, tau], segment II covers [tau, 2*tau] with tau = omega*tau.
The strokes come in pairs of one duration, so a build is always the pair
(U, V): U over segment I, before the measurement, and V over segment II,
after it.

The propagator is a midpoint-sampled product of exact step exponentials
(second order overall, exactly unitary per step).  Factors are combined by
pairwise tree reduction, which keeps the evaluation fast at large step counts
and bit-for-bit deterministic for a given step count.  Each aligned chunk of
``STEP_CHUNK`` steps of the pair is made and reduced on its own, padded with
identities to exactly ``STEP_CHUNK`` leaves, and the chunk products are
reduced last: that is the one tree over all steps, so the bytes do not depend
on the chunking, and a build's memory stays near 1 MiB at any step count.  In
the frame turning with the drive axis each stroke has an exact closed form,
the reference for the integration error.
"""

from __future__ import annotations

import enum
import math
import numbers
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, ValidationError
from .qubit_algebra import IDENTITY, SIGMA_Y, SIGMA_Z

REFERENCE_STEPS = 65536
ERROR_FLOOR = 1e-12
STEP_CHUNK = 1 << 11  # steps of the pair: 4096 factors
# the largest step count a build accepts: about a minute of building
MAX_STEPS = 1 << 27


class Segment(enum.Enum):
    I = 1
    II = 2


def _axis_angle(segment: Segment, tau, t):
    """The drive angle: 0 -> pi/2 over segment I, pi/2 -> 0 over segment II.

    ``tau`` and ``t`` may be arrays that broadcast against each other.
    """
    if segment is Segment.I:
        return np.pi * t / (2.0 * tau)
    return np.pi * (2.0 * tau - t) / (2.0 * tau)


def _drive_step_factors(tau: float, steps: int, start: int, stop: int) -> np.ndarray:
    """Exact midpoint exponentials exp(-i H(t_mid) dt) of the steps in the
    window [start, stop) of ``steps``, vectorized: one stack per segment, the
    shape is (2, stop - start, 2, 2).
    """
    dt = tau / steps
    # rotation by angle dt about the unit axis (sin theta, 0, cos theta)
    c, s = math.cos(0.5 * dt), math.sin(0.5 * dt)
    mid = (np.arange(start, stop) + 0.5) * dt
    f = np.empty((2, stop - start, 2, 2), dtype=complex)
    for k, segment in enumerate(Segment):
        lo = 0.0 if segment is Segment.I else tau
        theta = _axis_angle(segment, tau, lo + mid)
        cos = np.cos(theta)
        f[k, :, 0, 0] = c - 1j * s * cos
        f[k, :, 0, 1] = f[k, :, 1, 0] = -1j * s * np.sin(theta)
        f[k, :, 1, 1] = c + 1j * s * cos
    return f


def _ordered_product(factors: np.ndarray, leaves: int | None = None) -> np.ndarray:
    """Product factors[-1] @ ... @ factors[0] along the step axis (third
    from last) by pairwise tree reduction; any leading axes are a batch.

    The factors are padded with identities to ``leaves``, by default the
    next power of two.  Each reduction level is re-projected onto the
    unitary manifold with one Newton-Schulz polar step; plain accumulation
    drifts off unitarity linearly in the factor count (about N*eps), the
    projected product stays at the eps*log(N) level without affecting the
    integration error.
    """
    n = factors.shape[-3]
    size = leaves or 1 << (n - 1).bit_length()
    if size != n:
        pad = np.broadcast_to(IDENTITY, factors.shape[:-3] + (size - n, 2, 2))
        factors = np.concatenate([factors, pad], axis=-3)
    while factors.shape[-3] > 1:
        factors = factors[..., 1::2, :, :] @ factors[..., 0::2, :, :]
        gram = factors.conj().swapaxes(-1, -2) @ factors
        factors = 0.5 * (3.0 * factors - factors @ gram)
    return factors[..., 0, :, :]


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


def time_ordered_propagator(tau: float, steps: int) -> np.ndarray:
    """Midpoint-product (U, V) pair of the drive duration ``tau``, shape
    (2, 2, 2), latest factor leftmost.

    A build of at most ``STEP_CHUNK`` steps is one chunk of its own power of
    two leaves, so small builds reduce exactly as an unchunked tree.
    """
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValidationError("tau must be finite and > 0")
    if not isinstance(steps, numbers.Integral) or not 2 <= steps <= MAX_STEPS:
        raise ConfigurationError(f"steps must be an integer in [2, {MAX_STEPS}]")
    steps = int(steps)
    leaves = min(STEP_CHUNK, 1 << (steps - 1).bit_length())
    starts = range(0, steps, leaves)
    products = np.empty((2, len(starts), 2, 2), dtype=complex)
    for i, start in enumerate(starts):
        # passed on unnamed, so the reduction can free the factors after level one
        products[:, i] = _ordered_product(
            _drive_step_factors(tau, steps, start, min(start + leaves, steps)), leaves)
    return _ordered_product(products)


def convergence_order(tau: float, n_list: Sequence[int]) -> np.ndarray:
    """Empirical order of each stroke, (U, V): least-squares slope of
    log(error) against log(N).

    Errors are entrywise deviations from the exact pair.  A stroke with
    fewer than two errors above the roundoff floor has no meaningful slope;
    its order is NaN.
    """
    ns = list(n_list)
    if len(ns) < 3 or sorted(set(ns)) != ns:
        raise ConfigurationError("n_list must be >= 3 strictly ascending step counts")
    ref = exact_drive_propagators([tau])[0]
    errors = np.array([np.abs(time_ordered_propagator(tau, n) - ref).max(axis=(1, 2))
                       for n in ns])
    orders = np.full(2, np.nan)
    for k, e in enumerate(errors.T):
        usable = e > ERROR_FLOOR
        if usable.sum() >= 2:
            orders[k] = -np.polyfit(np.log(np.array(ns)[usable]), np.log(e[usable]), 1)[0]
    return orders
