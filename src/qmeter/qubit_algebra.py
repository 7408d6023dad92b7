"""Exact 2x2 complex linear algebra for a single qubit.

Pauli matrices, closed-form Hermitian exponentials, Gibbs states, the
checks of a density matrix and von Neumann entropy.  Everything here works in
internal units: energies in multiples of hbar*omega, times as the
dimensionless phase omega*t, so hbar never appears in the formulas.

All functions are pure; returned arrays are fresh copies.  Each takes one
2x2 matrix or a stack of shape (..., 2, 2) and gives one result per matrix;
the times of ``hermitian_expm`` and the inverse temperatures of
``gibbs_state`` broadcast against the stack's leading axes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError, require_within
from .tolerances import DEFAULT_TOLERANCES as TOL

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# |down> (the ground state of sigma_z) and the x eigenbasis, used by the cycle
KET_DOWN = np.array([0, 1], dtype=complex)
KET_PLUS_X = np.array([1, 1], dtype=complex) / math.sqrt(2)
KET_MINUS_X = np.array([1, -1], dtype=complex) / math.sqrt(2)


def _as_stack(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (2, 2):
        raise ValidationError(f"{name} must be a 2x2 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return m


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def trace_2x2(m: np.ndarray):
    """Tr(m) of a 2x2 matrix, or of each matrix of a stack."""
    return m[..., 0, 0] + m[..., 1, 1]


def matmul_right(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x @ m for a stack x of 2x2 matrices.

    A single matrix m, shared by the whole stack, runs as one
    (N, 2) @ (2, 2) GEMM at a fraction of the cost: the shared factor stays
    on the right, so each entry is the same FMA sequence as in the stacked
    product and the bits are the same.  A stack m keeps the stacked product.
    """
    if m.ndim != 2:
        return x @ m
    return (x.reshape(-1, 2) @ m).reshape(x.shape)


def entry_max(m: np.ndarray):
    """The largest |entry| of each 2x2 matrix, without a slow small-axis reduction."""
    a = np.abs(m)
    return np.maximum(np.maximum(a[..., 0, 0], a[..., 0, 1]),
                      np.maximum(a[..., 1, 0], a[..., 1, 1]))


def hermiticity_residual(m: np.ndarray) -> float | np.ndarray:
    return entry_max(m - _dagger(m))


def require_hermitian(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = _as_stack(m, name)
    require_within({"hermiticity": (hermiticity_residual(m), TOL.hermiticity)}, name)
    return m


def _two_level(h: np.ndarray):
    """(a, b) of Hermitian H = a*I + b*(n.sigma), with b >= 0."""
    a = 0.5 * trace_2x2(h).real
    b = np.hypot(np.abs(h[..., 0, 1]), 0.5 * (h[..., 0, 0] - h[..., 1, 1]).real)
    return a, b


def _over_b(x, b):
    """x/b, taken as 0 where b = 0: the traceless part K vanishes there."""
    return np.divide(x, b, out=np.zeros(np.broadcast(x, b).shape), where=b > 0.0)


def _eigvals(h: np.ndarray):
    """Closed-form (ascending) eigenvalues of a Hermitian 2x2 matrix or stack."""
    a, b = _two_level(h)
    return a - b, a + b


def hermitian_expm(h: np.ndarray, t) -> np.ndarray:
    """Unitary exp(-i*H*t) for Hermitian H, in closed form.

    H is in energy units of hbar*omega and t is the dimensionless phase, so
    the exponent is dimensionless.  With H = a*I + K and K = b*(n.sigma),
    this is exp(-i*a*t) (cos(b*t) I - i (sin(b*t)/b) K).
    """
    h = require_hermitian(h, "H")
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise ValidationError("t must be finite")
    a, b = _two_level(h)
    phase = np.exp(-1j * (a * t))[..., None, None]
    cos = np.cos(b * t)[..., None, None]
    sin = _over_b(np.sin(b * t), b)[..., None, None]
    return phase * (cos * IDENTITY - 1j * sin * (h - np.multiply.outer(a, IDENTITY)))


def unitarity_residual(u: np.ndarray) -> float:
    """Entrywise deviation of u^dag u from the identity; the largest over a stack."""
    u = np.asarray(u, dtype=complex)
    return float(np.abs(_dagger(u) @ u - IDENTITY).max())


def require_unitary(u: np.ndarray, name: str = "U") -> np.ndarray:
    """Raise unless u, or every matrix of a stack, is unitary within
    ``unitary_input``."""
    u = _as_stack(u, name)
    require_within({"unitarity": (unitarity_residual(u), TOL.unitary_input)}, name)
    return u


def tanh(x):
    """``math.tanh`` elementwise over a float or an array of floats.

    np.tanh rounds differently on about a quarter of inputs; this keeps the
    thermal states and occupations of an engine the same to the last bit
    whether it is built alone or as one sample of a batch.
    """
    if np.ndim(x) == 0:
        return math.tanh(x)
    return np.array([math.tanh(v) for v in x.ravel().tolist()]).reshape(x.shape)


def gibbs_state(h: np.ndarray, beta) -> np.ndarray:
    """Thermal state exp(-beta*H)/Z for Hermitian H and beta >= 0.

    Uses rho = (I - (tanh(beta*b)/b) K)/2 on the traceless part K = b*(n.sigma),
    which is exact and immune to overflow at large beta.
    """
    h = require_hermitian(h, "H")
    beta = np.asarray(beta, dtype=float)
    if not (np.isfinite(beta).all() and (beta >= 0.0).all()):
        raise ValidationError("beta must be finite and >= 0")
    a, b = _two_level(h)
    f = _over_b(tanh(beta * b), b)[..., None, None]
    return 0.5 * (IDENTITY - f * (h - np.multiply.outer(a, IDENTITY)))


def _density_checks(rho: np.ndarray) -> tuple[dict, tuple]:
    """The checks of a density matrix, per matrix of rho, and its eigenvalues (lo, hi)."""
    lo, hi = _eigvals(rho)
    return {"hermiticity": (hermiticity_residual(rho), TOL.hermiticity),
            "trace": (np.abs(trace_2x2(rho) - 1.0), TOL.trace),
            "eigenvalue_floor": (-lo, TOL.eig_floor)}, (lo, hi)


def require_density_matrix(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    """Raise unless rho, or each matrix of a stack, is a density matrix."""
    rho = _as_stack(rho, name)
    require_within(_density_checks(rho)[0], name)
    return rho


def _entropy(lo, hi):
    """Shannon entropy (nats) of {lo, hi}, elementwise; negatives count as 0."""
    lam = np.array([lo, hi], dtype=float).clip(0.0, 1.0)
    terms = lam * np.log(lam + (lam == 0.0))  # 0 log 0 = 0
    return (0.0 - terms[0]) - terms[1]


def von_neumann_entropy(rho: np.ndarray, name: str = "rho"):
    """S(rho) = -sum(lambda ln lambda) in nats, via the closed-form eigenvalues.

    Raises unless rho is a density matrix; a stack gives one entropy per matrix.
    """
    checks, eigvals = _density_checks(_as_stack(rho, name))
    require_within(checks, name)
    return _entropy(*eigvals)
