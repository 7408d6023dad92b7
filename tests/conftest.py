"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's evaluation paths:
``closed_form_u``/``closed_form_v`` solve the driven stroke exactly in a
rotating frame, and ``bloch_cycle`` computes the cycle energetics in the
Bloch-vector representation.  Tests compare the package against these.
``driving_hamiltonian`` is the definition of H(t) on the package's drive
angle, which the tests pin at the segment ends and across the segments.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from qmeter import EngineParams, GridSpec, Segment, ValidationError, grid_sweep
from qmeter.cycle import CycleEngine
from qmeter.propagator import _axis_angle

HBAR_EV_S = 6.582119569e-16
DEFAULT_OMEGA_TAU = 1e-12 / HBAR_EV_S * 1e-5  # 1 peV gap, 10 us stroke
DEFAULT_SEED = 20201

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def su2(nx: float, ny: float, nz: float, angle: float) -> np.ndarray:
    """exp(-i*angle*(n.sigma)/2) for a unit axis n."""
    return (math.cos(angle / 2) * I2
            - 1j * math.sin(angle / 2) * (nx * SX + ny * SY + nz * SZ))


def driving_hamiltonian(tau: float, segment: Segment, t: float) -> np.ndarray:
    """H(t) = (cos(theta) sigma_z + sin(theta) sigma_x)/2 in units of hbar_omega.

    The axis rotates; the gap never changes, so the eigenvalues are exactly
    +-1/2 for every t in the segment.
    """
    lo, hi = (0.0, tau) if segment is Segment.I else (tau, 2.0 * tau)
    if not (lo <= t <= hi):
        raise ValidationError(f"t={t!r} outside segment {segment.name} range [{lo}, {hi}]")
    theta = _axis_angle(segment, tau, t)
    return 0.5 * (math.cos(theta) * SZ + math.sin(theta) * SX)


def closed_form_u(omega_tau: float) -> np.ndarray:
    """Exact segment-I propagator via the constant rotating-frame generator."""
    theta = math.hypot(omega_tau, math.pi / 2)
    n = np.array([0.0, -math.pi / 2, omega_tau]) / theta
    return su2(0, 1, 0, math.pi / 2) @ su2(n[0], n[1], n[2], theta)


def closed_form_v(omega_tau: float) -> np.ndarray:
    """Exact segment-II propagator; equals closed_form_u(omega_tau).T."""
    theta = math.hypot(omega_tau, math.pi / 2)
    n = np.array([0.0, math.pi / 2, omega_tau]) / theta
    return su2(n[0], n[1], n[2], theta) @ su2(0, 1, 0, -math.pi / 2)


def bloch_rotation(u: np.ndarray) -> np.ndarray:
    """SO(3) matrix of conjugation by u."""
    r = np.empty((3, 3))
    for i, si in enumerate((SX, SY, SZ)):
        for j, sj in enumerate((SX, SY, SZ)):
            r[i, j] = 0.5 * np.trace(si @ u @ sj @ u.conj().T).real
    return r


def binary_entropy(p: float) -> float:
    s = 0.0
    for q in (p, 1.0 - p):
        if q > 0.0:
            s -= q * math.log(q)
    return s


def bloch_cycle(u: np.ndarray, v: np.ndarray, alpha: float, phi: float,
                beta_hbar_omega: float) -> dict[str, float]:
    """Cycle energetics computed purely from Bloch vectors (oracle path)."""
    t0 = math.tanh(0.5 * beta_hbar_omega)
    r1 = np.array([0.0, 0.0, -t0])
    r2 = bloch_rotation(u) @ r1
    n = np.array([math.sin(alpha) * math.cos(phi),
                  math.sin(alpha) * math.sin(phi),
                  math.cos(alpha)])
    r3 = (r2 @ n) * n
    r4 = bloch_rotation(v) @ r3
    w1 = 0.5 * (r2[0] - r1[2])
    q_m = 0.5 * (r3[0] - r2[0])
    w2 = 0.5 * (r4[2] - r3[0])
    q_t = 0.5 * (r1[2] - r4[2])
    d_s = (binary_entropy(0.5 * (1.0 + abs(r2 @ n)))
           - binary_entropy(0.5 * (1.0 + float(np.linalg.norm(r2)))))
    return {"w1": w1, "w2": w2, "q_m": q_m, "q_t": q_t, "w": w1 + w2, "d_s": d_s}


def pytest_configure(config):
    """Property tests draw the same examples on every run and keep no
    example database, so a test run is reproducible and leaves no files.

    hypothesis is imported here rather than at module level because the
    benchmark (perfbench/checks.py) loads this module for its oracles, and
    the import would add its memory to the benchmark's processes.
    """
    from hypothesis import settings

    settings.register_profile("qmeter", derandomize=True, database=None, deadline=None,
                              max_examples=60)
    settings.load_profile("qmeter")


def default_params(alpha: float = 0.0, phi: float = 0.0, steps: int = 1024) -> EngineParams:
    return EngineParams(omega_tau=DEFAULT_OMEGA_TAU, beta_hbar_omega=1.0,
                        alpha=alpha, phi=phi, steps=steps)


@pytest.fixture(scope="session")
def default_engine() -> CycleEngine:
    return CycleEngine(default_params())


@pytest.fixture(scope="session")
def default_table(default_engine):
    """Full default-resolution sweep at the default parameters (shared)."""
    grid = GridSpec(base=default_params())
    return grid_sweep(grid, default_engine)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(DEFAULT_SEED)
