import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qmeter.propagator
from qmeter import ConfigurationError, DriveSpec, Segment, ValidationError
from qmeter import convergence_order, hermitian_expm, time_ordered_propagator
from qmeter.propagator import (
    MAX_STEPS,
    STEP_CHUNK,
    PropagatorResult,
    _drive_step_factors,
    _ordered_product,
    drive_propagators,
    exact_drive_propagators,
)
from qmeter.qubit_algebra import SIGMA_X, SIGMA_Z, eigvals_hermitian, unitarity_residual

from conftest import DEFAULT_OMEGA_TAU, closed_form_u, closed_form_v, driving_hamiltonian


def spec(segment=Segment.I, tau=DEFAULT_OMEGA_TAU):
    return DriveSpec(tau=tau, segment=segment)


def constant_drive_product(h0, tau, steps):
    """The midpoint product of a constant Hamiltonian h0 over a duration
    tau: ``steps`` equal factors exp(-i h0 tau/steps), reduced like a drive."""
    factor = hermitian_expm(h0, tau / steps)
    return _ordered_product(np.broadcast_to(factor, (steps, 2, 2)))


def test_drive_spec_requires_positive_tau():
    with pytest.raises(ValidationError):
        DriveSpec(tau=0.0, segment=Segment.I)


def test_drive_endpoints():
    s = spec()
    assert np.abs(driving_hamiltonian(s, 0.0) - 0.5 * SIGMA_Z).max() == 0.0
    assert np.abs(driving_hamiltonian(s, s.tau) - 0.5 * SIGMA_X).max() < 1e-16
    s2 = spec(Segment.II)
    assert np.abs(driving_hamiltonian(s2, 2 * s2.tau) - 0.5 * SIGMA_Z).max() < 1e-16


def test_drive_gap_is_constant():
    s = spec()
    for t in np.linspace(0.0, s.tau, 37):
        lo, hi = eigvals_hermitian(driving_hamiltonian(s, t))
        assert abs(lo + 0.5) < 1e-15 and abs(hi - 0.5) < 1e-15


def test_drive_rejects_time_outside_segment():
    with pytest.raises(ValidationError):
        driving_hamiltonian(spec(), 2 * DEFAULT_OMEGA_TAU)
    with pytest.raises(ValidationError):
        driving_hamiltonian(spec(Segment.II), 0.0)


def test_segment_consistency():
    # H_II(t) = H_I(2*tau - t) entrywise exactly
    s1, s2 = spec(), spec(Segment.II)
    for t in np.linspace(s2.tau, 2 * s2.tau, 23):
        a = driving_hamiltonian(s2, t)
        b = driving_hamiltonian(s1, 2 * s1.tau - t)
        assert np.abs(a - b).max() == 0.0


def test_constant_hamiltonian_product_matches_expm():
    h0 = 0.3 * SIGMA_Z + 0.7 * SIGMA_X
    s = spec(tau=1.7)
    target = hermitian_expm(h0, s.tau)
    for steps in (2, 17, 256):
        u = constant_drive_product(h0, s.tau, steps)
        assert np.abs(u - target).max() <= 1e-12


def test_vanishing_action_gives_identity():
    res = time_ordered_propagator(spec(tau=1e-6), 64)
    assert np.abs(res.u - np.eye(2)).max() < 1e-5


def test_unitarity_at_any_step_count():
    for steps in (2, 3, 17, 64, 1024, 65536):
        for segment in (Segment.I, Segment.II):
            res = time_ordered_propagator(spec(segment), steps)
            assert res.unitarity_residual <= 1e-13
            assert abs(abs(np.linalg.det(res.u)) - 1.0) <= 1e-12


def test_error_quarters_per_doubling():
    ref = time_ordered_propagator(spec(), 65536).u
    errors = [np.abs(time_ordered_propagator(spec(), n).u - ref).max()
              for n in (16, 32, 64, 128, 256)]
    for e1, e2 in zip(errors, errors[1:]):
        assert e1 / e2 == pytest.approx(4.0, rel=0.25)


@pytest.mark.parametrize("segment", [Segment.I, Segment.II])
def test_convergence_order_is_two(segment):
    est = convergence_order(spec(segment), [8, 16, 32, 64, 128, 256, 512])
    assert not est.indeterminate
    assert est.order == pytest.approx(2.0, abs=0.2)


def test_convergence_indeterminate_for_commuting_drive(monkeypatch):
    h0 = 0.4 * SIGMA_Z

    def commuting_drive(spec, steps):
        u = constant_drive_product(h0, spec.tau, steps)
        return PropagatorResult(u=u, steps=steps, unitarity_residual=unitarity_residual(u))

    monkeypatch.setattr(qmeter.propagator, "time_ordered_propagator", commuting_drive)
    monkeypatch.setattr(qmeter.propagator, "exact_drive_propagators",
                        lambda taus: np.array([[hermitian_expm(h0, tau)] * 2 for tau in taus]))
    est = convergence_order(spec(tau=1.0), [8, 16, 32, 64])
    assert est.indeterminate
    assert math.isnan(est.order)


def test_convergence_rejects_bad_ladders():
    with pytest.raises(ConfigurationError):
        convergence_order(spec(), [8, 16])
    with pytest.raises(ConfigurationError):
        convergence_order(spec(), [8, 8, 16])
    with pytest.raises(ConfigurationError):
        convergence_order(spec(), [16, 8, 32])


def test_steps_validation():
    with pytest.raises(ConfigurationError):
        time_ordered_propagator(spec(), 1)
    with pytest.raises(ConfigurationError):
        time_ordered_propagator(spec(), MAX_STEPS + 1)


@pytest.mark.parametrize("tau", [0.0152, 152.0])
@pytest.mark.parametrize("steps", [STEP_CHUNK - 1, STEP_CHUNK, STEP_CHUNK + 1,
                                   2 * STEP_CHUNK + 3])
def test_chunked_build_is_the_whole_tree(steps, tau):
    # chunks padded to STEP_CHUNK leaves are the subtrees of the one tree
    # over all steps, so the chunked build matches it bit for bit
    segments = (Segment.I, Segment.II)
    whole = _ordered_product(_drive_step_factors(tau, segments, steps, 0, steps))
    chunked = drive_propagators(tau, steps, segments)
    assert np.array_equal(chunked.view(np.int64), whole.view(np.int64))


def test_build_memory_does_not_grow_with_steps():
    def peak_bytes(steps):
        tracemalloc.start()
        try:
            drive_propagators(0.0152, steps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes(1 << 16) <= 2 * peak_bytes(STEP_CHUNK)


def test_reference_stability():
    for segment in (Segment.I, Segment.II):
        a = time_ordered_propagator(spec(segment), 8192).u
        b = time_ordered_propagator(spec(segment), 16384).u
        assert np.abs(a - b).max() <= 1e-9


@pytest.mark.parametrize("omega_tau", [0.015193, 0.5, 3.0, 9.75])
def test_matches_rotating_frame_closed_form(omega_tau):
    # independent oracle: the drive is exactly solvable in a rotating frame
    u = time_ordered_propagator(DriveSpec(tau=omega_tau, segment=Segment.I), 16384).u
    v = time_ordered_propagator(DriveSpec(tau=omega_tau, segment=Segment.II), 16384).u
    assert np.abs(u - closed_form_u(omega_tau)).max() <= 1e-8
    assert np.abs(v - closed_form_v(omega_tau)).max() <= 1e-8


@pytest.mark.parametrize("omega_tau", [0.015193, 1.0, 9.75])
def test_second_stroke_is_transpose_of_first(omega_tau):
    # both strokes are generated by real symmetric Hamiltonians swept in
    # opposite order, which ties the propagators by transposition
    u = time_ordered_propagator(DriveSpec(tau=omega_tau, segment=Segment.I), 4096).u
    v = time_ordered_propagator(DriveSpec(tau=omega_tau, segment=Segment.II), 4096).u
    assert np.abs(v - u.T).max() <= 1e-12


@given(st.one_of(st.floats(1e-6, 1e6), st.sampled_from([1e-300, 1e300])))
def test_exact_propagators_match_the_rotating_frame_oracle(omega_tau):
    pair = exact_drive_propagators([omega_tau])
    assert pair.shape == (1, 2, 2, 2)
    assert np.abs(pair[0, 0] - closed_form_u(omega_tau)).max() <= 1e-15
    assert np.abs(pair[0, 1] - closed_form_v(omega_tau)).max() <= 1e-15
    assert unitarity_residual(pair) <= 1e-15
