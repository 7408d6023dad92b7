"""Exact 2x2 complex linear algebra for a single qubit.

Pauli operators, closed-form Hermitian exponentials, Gibbs states,
expectation values and von Neumann entropy.  Everything here works in
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

from .errors import ValidationError
from .tolerances import DEFAULT_TOLERANCES as TOL

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

# |down> (the ground state of sigma_z) and the x eigenbasis, used by the cycle
KET_DOWN = np.array([0, 1], dtype=complex)
KET_PLUS_X = np.array([1, 1], dtype=complex) / math.sqrt(2)
KET_MINUS_X = np.array([1, -1], dtype=complex) / math.sqrt(2)


def pauli(axis: str) -> np.ndarray:
    """Return a copy of the Pauli matrix for axis 'x', 'y' or 'z'."""
    try:
        return _PAULI[axis].copy()
    except KeyError:
        raise ValidationError(f"unknown Pauli axis {axis!r}; expected 'x', 'y' or 'z'") from None


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


def hermiticity_residual(m: np.ndarray) -> float | np.ndarray:
    return np.abs(m - _dagger(m)).max(axis=(-2, -1))


def require_hermitian(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = _as_stack(m, name)
    res = np.abs(m - _dagger(m)).max()
    if res > TOL.hermiticity:
        raise ValidationError(
            f"{name} is not Hermitian (residual {res:.3e} > {TOL.hermiticity:.1e})")
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
    res = unitarity_residual(u)
    if res > TOL.unitary_input:
        raise ValidationError(
            f"{name} is not unitary (residual {res:.3e} > {TOL.unitary_input:.1e})")
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


def require_density_matrix(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    """Raise unless rho, or every matrix of a stack, is Hermitian with unit
    trace and no negative eigenvalue."""
    rho = _as_stack(rho, name)
    rho_dag = _dagger(rho)
    herm = np.abs(rho - rho_dag).max()
    if herm > TOL.hermiticity:
        raise ValidationError(f"{name}: Hermiticity residual {herm:.3e}")
    trace = np.abs(trace_2x2(rho) - 1.0).max()
    if trace > TOL.trace:
        raise ValidationError(f"{name}: trace deviates from 1 by {trace:.3e}")
    lo = _eigvals(0.5 * (rho + rho_dag))[0].min()
    if lo < -TOL.eig_floor:
        raise ValidationError(f"{name}: negative eigenvalue {lo:.3e}")
    return rho


def entropy_from_eigenvalues(lo, hi):
    """Shannon entropy (nats) of {lo, hi}, elementwise; clamps roundoff-negative values.

    Eigenvalues in [-eig_floor, 0] are treated as exact zeros; anything more
    negative is a genuine invariant violation, not roundoff.
    """
    lam = np.array([lo, hi], dtype=float)
    if lam.min() < -TOL.eig_floor:
        raise ValidationError(f"eigenvalue {lam.min():.3e} below clamp window")
    lam = lam.clip(0.0, 1.0)
    terms = lam * np.log(lam + (lam == 0.0))  # 0 log 0 = 0
    s = (0.0 - terms[0]) - terms[1]
    if s.min() < 0.0 or s.max() > math.log(2.0) + TOL.eig_floor:
        raise ValidationError(f"entropy {float(s.max())!r} outside [0, ln 2]")
    return s


def von_neumann_entropy(rho: np.ndarray, name: str = "rho"):
    """S(rho) = -sum(lambda ln lambda) in nats, via the closed-form eigenvalues.

    Checks rho with ``require_density_matrix`` first; a stack gives one
    entropy per matrix.
    """
    return entropy_from_eigenvalues(*_eigvals(require_density_matrix(rho, name)))


def expectation(rho: np.ndarray, a: np.ndarray):
    """Re Tr(rho A) for Hermitian A; the imaginary leak must stay below tolerance."""
    rho = require_density_matrix(rho)
    a = require_hermitian(a, "A")
    value = trace_2x2(rho @ a)
    leak = np.abs(value.imag).max()
    if leak > TOL.imag_leak:
        raise ValidationError(f"Tr(rho A) has imaginary part {leak:.3e}")
    return value.real[()]
