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

# pairs per block-diagonal GEMM of matmul_2x2, with 4 kB of scratch per group;
# 8 ran about 10% faster than 4 at 1024 pairs
_GROUP = 8
# the strides of the diagonal blocks of a (groups, 2g, 2g) complex array:
# group, pair, row, column
_DIAGONAL = (16 * 4 * _GROUP**2, 16 * (4 * _GROUP + 2), 16 * 2 * _GROUP, 16)


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


def matmul_2x2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for complex 2x2 matrices, either factor a stack (..., 2, 2), with
    the bits of numpy's stacked product at a fraction of its cost.

    numpy runs a stacked product as one GEMM call per pair, and the call's
    overhead is most of its cost.  A single right factor b, shared by the
    stack a, runs as one (N, 2) @ (2, 2) GEMM.  Stacks run in groups of
    ``_GROUP`` pairs, one GEMM per group: the group's left factors on the
    diagonal of a zeroed (2g, 2g) matrix times its right factors stacked as
    (2g, 2).  Either way each entry is the sum of the stacked product's terms
    in its order, plus exact zeros in the groups, which leave a nonzero sum
    as it is; a pair with an entry that comes out exactly 0 is taken again
    from the stacked product, as the sign of that zero may differ.  The
    mirrored form, a block-diagonal right factor, does not keep the bits.
    A stack of fewer than four groups runs as the stacked product, which
    is as fast there.

    The right factor must be finite: the zero blocks of a group multiply
    every right factor of the group, so an inf or NaN in one turns its whole
    group into NaN (0 * inf).  A non-finite left factor stays in its pair.
    """
    if b.ndim == 2:
        return (a.reshape(-1, 2) @ b).reshape(a.shape)
    if max(a.size, b.size) < 16 * _GROUP:  # under four groups, where @ is as fast
        return a @ b
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    shape = a.shape
    a, b = a.reshape(-1, 2, 2), b.reshape(-1, 2, 2)
    groups = len(a) // _GROUP
    full = groups * _GROUP
    blocks = np.zeros((groups, 2 * _GROUP, 2 * _GROUP), dtype=complex)
    np.ndarray((groups, _GROUP, 2, 2), complex, blocks, 0, _DIAGONAL)[...] = \
        a[:full].reshape(groups, _GROUP, 2, 2)
    out = np.empty(a.shape, dtype=complex)
    np.matmul(blocks, b[:full].reshape(groups, 2 * _GROUP, 2),
              out=out[:full].reshape(groups, 2 * _GROUP, 2))
    np.matmul(a[full:], b[full:], out=out[full:])
    parts = out[:full].view(float).reshape(full, 8)
    if np.count_nonzero(parts) < parts.size:
        redo = np.flatnonzero((parts == 0.0).any(axis=1))
        out[redo] = a[redo] @ b[redo]
    return out.reshape(shape)


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
    return float(np.abs(matmul_2x2(_dagger(u), u) - IDENTITY).max())


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
