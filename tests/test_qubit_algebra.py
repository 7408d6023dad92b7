import math

import numpy as np
import pytest

from qmeter import ValidationError, expectation, gibbs_state, hermitian_expm, pauli, von_neumann_entropy
from qmeter.cycle import NODE_BLOCK
from qmeter.qubit_algebra import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Z,
    eigvals_hermitian,
    entropy_from_eigenvalues,
    matmul_right,
    require_density_matrix,
    unitarity_residual,
)

from conftest import su2


def random_hermitian(rng):
    a, x, y, z = rng.normal(size=4)
    return a * IDENTITY + x * pauli("x") + y * pauli("y") + z * pauli("z")


def test_pauli_matrices():
    assert np.array_equal(pauli("z"), np.array([[1, 0], [0, -1]]))
    assert np.array_equal(pauli("x"), np.array([[0, 1], [1, 0]]))
    assert np.array_equal(pauli("y"), np.array([[0, -1j], [1j, 0]]))
    for axis in "xyz":
        s = pauli(axis)
        assert abs(np.trace(s)) == 0
        assert np.allclose(s @ s, IDENTITY)
        assert np.array_equal(s, s.conj().T)


def test_pauli_unknown_axis():
    with pytest.raises(ValidationError):
        pauli("w")


def test_expm_diagonal():
    u = hermitian_expm(0.5 * SIGMA_Z, 2.0)
    expected = np.diag([np.exp(-1j), np.exp(1j)])
    assert np.abs(u - expected).max() < 1e-15


def test_expm_zero_time():
    rng = np.random.default_rng(3)
    assert np.abs(hermitian_expm(random_hermitian(rng), 0.0) - IDENTITY).max() == 0.0


def test_expm_half_gap_x_at_pi():
    # exp(-i (pi/2) sigma_x) = -i sigma_x
    u = hermitian_expm(0.5 * SIGMA_X, math.pi)
    assert np.abs(u - (-1j * SIGMA_X)).max() < 1e-15


def test_expm_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        hermitian_expm(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)


def test_expm_unitary_over_random_samples(rng):
    worst = 0.0
    for _ in range(10_000):
        u = hermitian_expm(random_hermitian(rng), rng.uniform(-10, 10))
        worst = max(worst, unitarity_residual(u))
    assert worst <= 1e-13


def test_gibbs_infinite_temperature():
    rho = gibbs_state(0.5 * SIGMA_Z, 0.0)
    assert np.abs(rho - IDENTITY / 2).max() == 0.0


def test_gibbs_unit_beta_weights():
    # two-level Boltzmann factors at beta*gap = 1
    rho = gibbs_state(0.5 * SIGMA_Z, 1.0)
    e = math.e
    assert abs(rho[0, 0] - 1.0 / (1.0 + e)) < 1e-15
    assert abs(rho[1, 1] - e / (1.0 + e)) < 1e-15
    assert abs(rho[0, 0] - 0.26894) < 1e-5
    assert abs(rho[1, 1] - 0.73106) < 1e-5


def test_gibbs_zero_temperature_limit():
    rho = gibbs_state(0.5 * SIGMA_Z, 1e6)
    assert np.abs(rho - np.diag([0.0, 1.0])).max() < 1e-12


def test_gibbs_commutes_and_is_valid(rng):
    for _ in range(200):
        h = random_hermitian(rng)
        rho = gibbs_state(h, rng.uniform(0, 5))
        require_density_matrix(rho)
        assert np.abs(rho @ h - h @ rho).max() <= 1e-12


def test_gibbs_rejects_negative_beta():
    with pytest.raises(ValidationError):
        gibbs_state(SIGMA_Z, -0.5)


def test_entropy_maximally_mixed():
    assert abs(von_neumann_entropy(IDENTITY / 2) - math.log(2)) < 1e-15


def test_entropy_pure_state():
    assert von_neumann_entropy(np.diag([1.0, 0.0]).astype(complex)) == 0.0


def test_entropy_gibbs_unit_beta():
    s = von_neumann_entropy(gibbs_state(0.5 * SIGMA_Z, 1.0))
    # closed form: ln Z + beta <E> for the two-level spectrum
    expected = math.log(2.0 * math.cosh(0.5)) - 0.5 * math.tanh(0.5)
    assert abs(s - expected) < 1e-14
    assert abs(s - 0.58220) < 1e-5


def test_entropy_clamps_roundoff_negative_eigenvalue():
    rho = np.diag([1.0 + 5e-13, -5e-13]).astype(complex)
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-11)


def test_entropy_rejects_genuinely_negative_eigenvalue():
    with pytest.raises(ValidationError):
        entropy_from_eigenvalues(-5e-12, 1.0 + 5e-12)


def test_entropy_unitary_invariance(rng):
    for _ in range(300):
        rho = gibbs_state(random_hermitian(rng), rng.uniform(0, 4))
        u = hermitian_expm(random_hermitian(rng), rng.uniform(0, 4))
        rotated = u @ rho @ u.conj().T
        assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) <= 1e-10


def test_expectation_examples():
    assert expectation(IDENTITY / 2, SIGMA_Z) == 0.0
    assert expectation(np.diag([1.0, 0.0]).astype(complex), SIGMA_Z) == 1.0
    value = expectation(gibbs_state(0.5 * SIGMA_Z, 1.0), SIGMA_Z)
    assert abs(value - (-math.tanh(0.5))) < 1e-15
    assert abs(value - (-0.462117)) < 1e-6


def test_expectation_rejects_non_hermitian_observable():
    with pytest.raises(ValidationError):
        expectation(IDENTITY / 2, np.array([[0, 1], [0, 0]], dtype=complex))


def test_eigvals_match_characteristic_polynomial(rng):
    for _ in range(500):
        h = random_hermitian(rng)
        lo, hi = eigvals_hermitian(h)
        tr = (h[0, 0] + h[1, 1]).real
        det = (h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]).real
        roots = sorted(np.roots([1.0, -tr, det]).real)
        assert abs(lo - roots[0]) <= 1e-12
        assert abs(hi - roots[1]) <= 1e-12


def test_closed_form_rotation_agrees_with_expm(rng):
    # su2 helper used by the propagator oracle is the same exponential
    for _ in range(100):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        angle = rng.uniform(-6, 6)
        h = 0.5 * (n[0] * pauli("x") + n[1] * pauli("y") + n[2] * pauli("z"))
        assert np.abs(hermitian_expm(h, angle) - su2(*n, angle)).max() < 1e-13


def assert_each_matrix_equals(stacked, singles):
    assert stacked.shape == (len(singles), 2, 2)
    for got, want in zip(stacked, singles):
        assert got.tobytes() == want.tobytes()


def test_stacked_expm_equals_one_matrix_calls(rng):
    hs = np.array([random_hermitian(rng) for _ in range(500)])
    ts = rng.uniform(-10, 10, size=500)
    assert_each_matrix_equals(hermitian_expm(hs, ts),
                              [hermitian_expm(h, t) for h, t in zip(hs, ts)])
    # one Hamiltonian against an array of times
    assert_each_matrix_equals(hermitian_expm(hs[0], ts),
                              [hermitian_expm(hs[0], t) for t in ts])
    # b = 0: a multiple of the identity is a pure phase
    assert_each_matrix_equals(hermitian_expm(np.array([2.0 * IDENTITY]), ts[:1]),
                              [np.exp(-2j * ts[0]) * IDENTITY])


def test_stacked_gibbs_equals_one_matrix_calls(rng):
    hs = np.array([random_hermitian(rng) for _ in range(500)])
    betas = rng.uniform(0, 5, size=500)
    assert_each_matrix_equals(gibbs_state(hs, betas),
                              [gibbs_state(h, beta) for h, beta in zip(hs, betas)])
    # the engine's thermal state over an array of inverse temperatures
    assert_each_matrix_equals(gibbs_state(0.5 * SIGMA_Z, betas),
                              [gibbs_state(0.5 * SIGMA_Z, beta) for beta in betas])
    assert np.array_equal(gibbs_state(np.array([3.0 * IDENTITY]), [1.0]), [IDENTITY / 2])


def test_stacked_expectation_equals_one_matrix_calls(rng):
    rhos = np.array([gibbs_state(random_hermitian(rng), rng.uniform(0, 5)) for _ in range(200)])
    observables = np.array([random_hermitian(rng) for _ in range(200)])
    values = expectation(rhos, observables)
    assert values.shape == (200,)
    assert values.tolist() == [expectation(r, a) for r, a in zip(rhos, observables)]
    # one observable against the stack of states
    assert expectation(rhos, SIGMA_Z).tolist() == [expectation(r, SIGMA_Z) for r in rhos]


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("lead", [(), (2,)])
@pytest.mark.parametrize("size", [1, 2, 3, NODE_BLOCK - 1, NODE_BLOCK, NODE_BLOCK + 1])
def test_matmul_right_gemm_has_the_bits_of_the_stacked_product(rng, size, lead):
    x = random_complex(rng, (*lead, size, 2, 2))
    m = random_complex(rng, (2, 2))
    assert matmul_right(x, m).tobytes() == (x @ m).tobytes()


@pytest.mark.parametrize("size", [2, 3, NODE_BLOCK + 1])
def test_matmul_right_keeps_a_stack_of_right_operands_stacked(rng, size):
    # a sample axis on m pairs x[k] with m[k]; one GEMM against all of m
    # would give a different shape
    x = random_complex(rng, (2, size, 2, 2))
    m = random_complex(rng, (size, 2, 2))
    assert matmul_right(x, m).tobytes() == (x @ m).tobytes()
