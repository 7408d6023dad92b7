"""Projective measurement basis on the Bloch sphere and the dephasing channel.

Both functions broadcast over a leading node axis: angle arrays of shape
(M,) give kets of shape (M, 2), and ``measure`` then returns one
post-measurement state and one pair of outcome probabilities per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, require_within
from .qubit_algebra import (IDENTITY, _dagger, entry_max, matmul_2x2, require_density_matrix,
                            trace_2x2)
from .tolerances import DEFAULT_TOLERANCES as TOL

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class MeasurementBasis:
    """Orthonormal pair of kets at colatitude alpha, longitude phi.

    chi1 = e^{-i phi} sin(alpha/2) |up> - cos(alpha/2) |down>
    chi2 = cos(alpha/2) |up> + e^{i phi} sin(alpha/2) |down>

    The global phases follow these formulas exactly; probabilities are
    phase-free but intermediate overlap checks are not.  ``kets`` stacks
    (chi1, chi2) on its first axis and ``projectors`` (pi1, pi2); with
    array angles a node axis follows.
    """

    alpha: float | np.ndarray
    phi: float | np.ndarray
    kets: np.ndarray = field(repr=False)  # shape (2, ..., 2)
    projectors: np.ndarray = field(repr=False)  # shape (2, ..., 2, 2)

    @property
    def chi1(self) -> np.ndarray:
        return self.kets[0]

    @property
    def chi2(self) -> np.ndarray:
        return self.kets[1]


def _outer(ket: np.ndarray) -> np.ndarray:
    return ket[..., :, None] * ket.conj()[..., None, :]


def _overlap(bra: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """<bra|ket> over the last axis."""
    terms = bra.conj() * ket
    return terms[..., 0] + terms[..., 1]


def _reduce_angles(alpha, phi):
    # [()] turns a single angle into a numpy scalar, whose arithmetic is
    # several times cheaper than that of a 0-d array
    alpha = np.asarray(alpha, dtype=float)[()]
    phi = np.asarray(phi, dtype=float)[()]
    if not (np.isfinite(alpha).all() and np.isfinite(phi).all()):
        raise ValidationError("alpha and phi must be finite")
    alpha = alpha % TWO_PI
    phi = phi % TWO_PI
    # roundoff can leave a reduced pi just past pi; more than that is out of range
    if (alpha - math.pi > TOL.alpha_range * alpha).any():
        raise ValidationError(f"alpha reduces to {float(alpha.max())!r}, outside [0, pi]")
    return np.minimum(alpha, math.pi), phi


def _basis(alpha, phi) -> tuple[MeasurementBasis, dict]:
    """``basis_kets``, returning its self-check per node, not raised; the
    angles are still checked, as inputs."""
    alpha, phi = _reduce_angles(alpha, phi)
    c = np.cos(alpha / 2.0)
    s = np.sin(alpha / 2.0)
    kets = np.empty((2,) + np.shape(alpha) + (2,), dtype=complex)
    kets[1, ..., 1] = np.exp(1j * phi) * s
    kets[0, ..., 0] = kets[1, ..., 1].conj()
    kets[0, ..., 1] = -c
    kets[1, ..., 0] = c
    proj = _outer(kets)
    residual = np.maximum(np.abs(_overlap(kets[0], kets[1])),
                          entry_max(proj[0] + proj[1] - IDENTITY))
    return (MeasurementBasis(alpha=alpha, phi=phi, kets=kets, projectors=proj),
            {"basis": (residual, TOL.basis)})


def basis_kets(alpha, phi) -> MeasurementBasis:
    basis, checks = _basis(alpha, phi)
    require_within(checks, "measurement basis")
    return basis


def _measure(rho: np.ndarray, basis: MeasurementBasis, rehermitize: bool = True):
    """``measure`` of a checked rho, returning its self-checks per node, not raised."""
    proj = basis.projectors
    proj_rho = matmul_2x2(proj, rho)
    post = matmul_2x2(proj_rho, proj)
    post = post[0] + post[1]
    if rehermitize:
        post = 0.5 * (post + _dagger(post))
    p1, p2 = trace_2x2(proj_rho).real
    leak = np.abs(_overlap(basis.chi1, (post @ basis.chi2[..., None])[..., 0]))
    return post, (p1, p2), {"probability_sum": (np.abs(p1 + p2 - 1.0), TOL.probability),
                            "channel_leak": (leak, TOL.channel)}


def measure(
    rho: np.ndarray,
    basis: MeasurementBasis,
    rehermitize: bool = True,
) -> tuple[np.ndarray, tuple[float, float]]:
    """Non-selective projective measurement: rho -> p1*pi1 + p2*pi2 dephasing.

    Returns the post-measurement state and the outcome probabilities, per
    node when the basis has a node axis.  The symmetrized update
    (M + M^dag)/2 makes the returned state Hermitian to the last bit;
    ``rehermitize=False`` is a fault-injection hook for the verification
    suite and must not be used otherwise.
    """
    post, probs, checks = _measure(require_density_matrix(rho), basis, rehermitize)
    require_within(checks, "measurement")
    return post, probs
