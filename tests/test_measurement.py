import math

import numpy as np
import pytest

from qmeter import ValidationError, basis_kets, measure, von_neumann_entropy
from qmeter.qubit_algebra import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    gibbs_state,
    hermitian_expm,
    hermiticity_residual,
)

UP = np.array([1, 0], dtype=complex)
DOWN = np.array([0, 1], dtype=complex)


def random_state(rng):
    # gibbs state of a random Hamiltonian, rotated by a random unitary
    h = rng.normal() * SIGMA_X + rng.normal() * SIGMA_Y + rng.normal() * SIGMA_Z
    rho = gibbs_state(h, rng.uniform(0, 3))
    u = hermitian_expm(rng.normal() * SIGMA_X + rng.normal() * SIGMA_Y, rng.uniform(0, 3))
    return u @ rho @ u.conj().T


def test_north_pole_basis():
    b = basis_kets(0.0, 0.0)
    assert np.abs(b.chi1 - (-DOWN)).max() == 0.0
    assert np.abs(b.chi2 - UP).max() == 0.0


def test_equator_basis_is_x_eigenbasis():
    b = basis_kets(math.pi / 2, 0.0)
    assert np.abs(b.chi2 - np.array([1, 1]) / math.sqrt(2)).max() < 1e-15


def test_south_pole_basis():
    phi = 1.234
    b = basis_kets(math.pi, phi)
    assert np.abs(b.chi1 - np.exp(-1j * phi) * UP).max() < 1e-15
    assert np.abs(b.chi2 - np.exp(1j * phi) * DOWN).max() < 1e-15


def test_basis_orthonormal_and_complete(rng):
    for _ in range(1000):
        b = basis_kets(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        assert abs(np.vdot(b.chi1, b.chi2)) <= 1e-14
        assert abs(np.linalg.norm(b.chi1) - 1) <= 1e-14
        assert abs(np.linalg.norm(b.chi2) - 1) <= 1e-14
        p1, p2 = b.projectors
        assert np.abs(p1 + p2 - IDENTITY).max() <= 1e-14


def test_angle_reduction():
    b = basis_kets(2 * math.pi + 1.0, -0.5)
    assert b.alpha == pytest.approx(1.0)
    assert b.phi == pytest.approx(2 * math.pi - 0.5)


def test_angle_validation():
    with pytest.raises(ValidationError):
        basis_kets(-0.1, 0.0)  # reduces to 2*pi - 0.1, outside [0, pi]
    with pytest.raises(ValidationError):
        basis_kets(float("nan"), 0.0)


def test_measure_fixed_point_when_diagonal(rng):
    b = basis_kets(1.1, 2.2)
    rho = 0.3 * np.outer(b.chi1, b.chi1.conj()) + 0.7 * np.outer(b.chi2, b.chi2.conj())
    post, _ = measure(rho, b)
    assert np.abs(post - rho).max() <= 1e-13


def test_measure_eigenstate_probabilities():
    b = basis_kets(0.7, 0.3)
    rho = np.outer(b.chi1, b.chi1.conj())
    post, (p1, p2) = measure(rho, b)
    assert np.abs(post - rho).max() <= 1e-13
    assert p1 == pytest.approx(1.0, abs=1e-14)
    assert p2 == pytest.approx(0.0, abs=1e-14)


def test_measure_maximally_mixed_invariant(rng):
    for _ in range(20):
        b = basis_kets(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        post, (p1, p2) = measure(IDENTITY / 2, b)
        assert np.abs(post - IDENTITY / 2).max() <= 1e-14
        assert p1 == pytest.approx(0.5, abs=1e-14)
        assert p2 == pytest.approx(0.5, abs=1e-14)


def test_channel_idempotent(rng):
    for _ in range(300):
        b = basis_kets(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        post, _ = measure(random_state(rng), b)
        post2, _ = measure(post, b)
        assert np.abs(post2 - post).max() <= 1e-12


def test_entropy_never_decreases(rng):
    for _ in range(300):
        rho = random_state(rng)
        b = basis_kets(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        post, _ = measure(rho, b)
        assert von_neumann_entropy(post) >= von_neumann_entropy(rho) - 1e-12


def test_trace_and_hermiticity_preserved(rng):
    for _ in range(300):
        post, _ = measure(random_state(rng), basis_kets(rng.uniform(0, math.pi),
                                                        rng.uniform(0, 2 * math.pi)))
        assert abs(np.trace(post).real - 1.0) <= 1e-12
        # the symmetrized update is Hermitian to the last bit
        assert hermiticity_residual(post) == 0.0


def test_skip_rehermitize_hook_leaves_raw_product(rng):
    leaked = 0.0
    for _ in range(50):
        post, _ = measure(random_state(rng),
                          basis_kets(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)),
                          rehermitize=False)
        leaked = max(leaked, hermiticity_residual(post))
    assert 0.0 < leaked < 1e-14


def test_energy_preserved_for_commuting_basis(rng):
    # basis (pi/2, 0) shares its axis with sigma_x: dephasing moves no energy
    b = basis_kets(math.pi / 2, 0.0)
    h2 = 0.5 * SIGMA_X
    for _ in range(100):
        rho = random_state(rng)
        post, _ = measure(rho, b)
        before = np.trace(h2 @ rho).real
        after = np.trace(h2 @ post).real
        assert abs(after - before) <= 1e-12


def test_measure_rejects_invalid_state():
    with pytest.raises(ValidationError):
        measure(np.array([[0.6, 0.0], [0.0, 0.6]], dtype=complex), basis_kets(1.0, 1.0))
