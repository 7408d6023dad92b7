import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qmeter.propagator
from qmeter import DEFAULT_TOLERANCES as TOL
from qmeter import ConfigurationError, Segment, ValidationError
from qmeter import convergence_order, hermitian_expm, time_ordered_propagator
from qmeter.propagator import (
    ERROR_FLOOR,
    MAX_STEPS,
    STEP_CHUNK,
    _drive_step_factors,
    _ordered_product,
    exact_drive_propagators,
)
from qmeter.qubit_algebra import SIGMA_X, SIGMA_Z, unitarity_residual
from qmeter.verification import suite_convergence

from conftest import (
    DEFAULT_OMEGA_TAU,
    DEFAULT_SEED,
    closed_form_u,
    closed_form_v,
    driving_hamiltonian,
)


def constant_drive_product(h0, tau, steps):
    """The midpoint product of a constant Hamiltonian h0 over a duration
    tau: ``steps`` equal factors exp(-i h0 tau/steps), reduced like a drive."""
    factor = hermitian_expm(h0, tau / steps)
    return _ordered_product(np.broadcast_to(factor, (steps, 2, 2)))


@pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf])
def test_build_requires_finite_positive_tau(tau):
    with pytest.raises(ValidationError):
        time_ordered_propagator(tau, 64)


def test_drive_endpoints():
    tau = DEFAULT_OMEGA_TAU
    assert np.abs(driving_hamiltonian(tau, Segment.I, 0.0) - 0.5 * SIGMA_Z).max() == 0.0
    assert np.abs(driving_hamiltonian(tau, Segment.I, tau) - 0.5 * SIGMA_X).max() < 1e-16
    assert np.abs(driving_hamiltonian(tau, Segment.II, 2 * tau) - 0.5 * SIGMA_Z).max() < 1e-16


def test_drive_gap_is_constant():
    for t in np.linspace(0.0, DEFAULT_OMEGA_TAU, 37):
        lo, hi = np.linalg.eigvalsh(driving_hamiltonian(DEFAULT_OMEGA_TAU, Segment.I, t))
        assert abs(lo + 0.5) < 1e-15 and abs(hi - 0.5) < 1e-15


def test_drive_rejects_time_outside_segment():
    with pytest.raises(ValidationError):
        driving_hamiltonian(DEFAULT_OMEGA_TAU, Segment.I, 2 * DEFAULT_OMEGA_TAU)
    with pytest.raises(ValidationError):
        driving_hamiltonian(DEFAULT_OMEGA_TAU, Segment.II, 0.0)


def test_segment_consistency():
    # H_II(t) = H_I(2*tau - t) entrywise exactly
    tau = DEFAULT_OMEGA_TAU
    for t in np.linspace(tau, 2 * tau, 23):
        a = driving_hamiltonian(tau, Segment.II, t)
        b = driving_hamiltonian(tau, Segment.I, 2 * tau - t)
        assert np.abs(a - b).max() == 0.0


def test_constant_hamiltonian_product_matches_expm():
    h0 = 0.3 * SIGMA_Z + 0.7 * SIGMA_X
    tau = 1.7
    target = hermitian_expm(h0, tau)
    for steps in (2, 17, 256):
        u = constant_drive_product(h0, tau, steps)
        assert np.abs(u - target).max() <= 1e-12


def test_vanishing_action_gives_identity():
    u = time_ordered_propagator(1e-6, 64)[0]
    assert np.abs(u - np.eye(2)).max() < 1e-5


def test_unitarity_at_any_step_count():
    for steps in (2, 3, 17, 64, 1024, 65536):
        for u in time_ordered_propagator(DEFAULT_OMEGA_TAU, steps):
            assert unitarity_residual(u) <= 1e-13
            assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-12


def test_error_quarters_per_doubling():
    ref = time_ordered_propagator(DEFAULT_OMEGA_TAU, 65536)[0]
    errors = [np.abs(time_ordered_propagator(DEFAULT_OMEGA_TAU, n)[0] - ref).max()
              for n in (16, 32, 64, 128, 256)]
    for e1, e2 in zip(errors, errors[1:]):
        assert e1 / e2 == pytest.approx(4.0, rel=0.25)


@pytest.mark.parametrize("segment", [Segment.I, Segment.II])
def test_convergence_order_is_two(segment):
    orders = convergence_order(DEFAULT_OMEGA_TAU, [8, 16, 32, 64, 128, 256, 512])
    order = orders[list(Segment).index(segment)]
    assert not math.isnan(order)
    assert order == pytest.approx(2.0, abs=0.2)


def test_convergence_indeterminate_for_commuting_drive(monkeypatch):
    h0 = 0.4 * SIGMA_Z

    def commuting_drive(tau, steps):
        return np.stack([constant_drive_product(h0, tau, steps)] * 2)

    monkeypatch.setattr(qmeter.propagator, "time_ordered_propagator", commuting_drive)
    monkeypatch.setattr(qmeter.propagator, "exact_drive_propagators",
                        lambda taus: np.array([[hermitian_expm(h0, tau)] * 2 for tau in taus]))
    orders = convergence_order(1.0, [8, 16, 32, 64])
    assert np.isnan(orders).all()


def test_one_indeterminate_stroke_fails_the_convergence_suite(monkeypatch):
    # V taken from the exact pair leaves its errors at the floor while U
    # still converges: the order of V alone is NaN, and the suite fails
    build = qmeter.propagator.time_ordered_propagator

    def exact_second_stroke(tau, steps):
        return np.stack([build(tau, steps)[0], exact_drive_propagators([tau])[0, 1]])

    monkeypatch.setattr(qmeter.propagator, "time_ordered_propagator", exact_second_stroke)
    orders = convergence_order(DEFAULT_OMEGA_TAU, [8, 16, 32, 64, 128, 256, 512])
    assert orders[0] == pytest.approx(2.0, abs=0.2)
    assert math.isnan(orders[1])
    result = suite_convergence(DEFAULT_OMEGA_TAU)
    assert not result.passed
    assert result.detail == "order indeterminate (errors at floor)"


def test_convergence_order_reads_only_the_rungs_over_the_floor():
    # at omega_tau = 1e-6 the errors fall from 5e-10 to 1e-13 along the
    # ladder, so five rungs clear ERROR_FLOOR; at 1e-9 none does
    ladder = [8, 16, 32, 64, 128, 256, 512]
    ref = exact_drive_propagators([1e-6])[0]
    errors = np.array([np.abs(time_ordered_propagator(1e-6, n) - ref).max(axis=(1, 2))
                       for n in ladder])
    assert (errors > ERROR_FLOOR).sum(axis=0).tolist() == [5, 5]
    assert convergence_order(1e-6, ladder) == pytest.approx([2.0, 2.0], abs=0.2)
    assert np.isnan(convergence_order(1e-9, ladder)).all()


def test_convergence_rejects_bad_ladders():
    with pytest.raises(ConfigurationError):
        convergence_order(DEFAULT_OMEGA_TAU, [8, 16])
    with pytest.raises(ConfigurationError):
        convergence_order(DEFAULT_OMEGA_TAU, [8, 8, 16])
    with pytest.raises(ConfigurationError):
        convergence_order(DEFAULT_OMEGA_TAU, [16, 8, 32])


def test_steps_validation():
    with pytest.raises(ConfigurationError):
        time_ordered_propagator(DEFAULT_OMEGA_TAU, 1)
    with pytest.raises(ConfigurationError):
        time_ordered_propagator(DEFAULT_OMEGA_TAU, MAX_STEPS + 1)


@pytest.mark.parametrize("tau", [0.0152, 152.0])
@pytest.mark.parametrize("steps", [2 * STEP_CHUNK - 1, 2 * STEP_CHUNK, 2 * STEP_CHUNK + 1,
                                   4 * STEP_CHUNK + 3])
def test_chunked_build_is_the_whole_tree(steps, tau):
    # chunks padded to STEP_CHUNK leaves are the subtrees of the one tree
    # over all steps, so the chunked build matches it bit for bit
    whole = _ordered_product(_drive_step_factors(tau, steps, 0, steps))
    chunked = time_ordered_propagator(tau, steps)
    assert np.array_equal(chunked.view(np.int64), whole.view(np.int64))


def test_build_memory_does_not_grow_with_steps(fresh_builds):
    def peak_bytes(steps):
        tracemalloc.start()
        try:
            time_ordered_propagator(0.0152, steps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes(1 << 16) <= 2 * peak_bytes(STEP_CHUNK)


def test_a_repeated_build_returns_the_cached_read_only_pair(fresh_builds):
    pair = time_ordered_propagator(0.3, 256)
    assert time_ordered_propagator(0.3, 256) is pair
    with pytest.raises(ValueError):
        pair[0, 0, 0] = 1.0


def test_a_cache_hit_makes_no_step_factors(fresh_builds, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return _drive_step_factors(*args)

    monkeypatch.setattr(qmeter.propagator, "_drive_step_factors", counting)
    time_ordered_propagator(0.3, 3 * STEP_CHUNK)
    assert len(calls) == 3
    time_ordered_propagator(0.3, 3 * STEP_CHUNK)
    assert len(calls) == 3


@pytest.mark.parametrize("tau, steps, error", [
    (0.0, 64, ValidationError), (math.nan, 64, ValidationError),
    (0.3, 1, ConfigurationError), (0.3, 64.0, ConfigurationError),
])
def test_bad_arguments_raise_on_every_call(fresh_builds, tau, steps, error):
    # the pair (0.3, 64) is cached, and a float 64.0 must not reach it
    time_ordered_propagator(0.3, 64)
    for _ in range(3):
        with pytest.raises(error):
            time_ordered_propagator(tau, steps)
    assert fresh_builds.cache_info().currsize == 1


def test_numpy_scalars_share_the_entry_of_python_numbers(fresh_builds):
    pair = time_ordered_propagator(0.3, 256)
    assert time_ordered_propagator(np.float64(0.3), np.int64(256)) is pair
    assert time_ordered_propagator(np.array(0.3), 256) is pair
    assert fresh_builds.cache_info().misses == 1


def test_reference_stability():
    for a, b in zip(time_ordered_propagator(DEFAULT_OMEGA_TAU, 8192),
                    time_ordered_propagator(DEFAULT_OMEGA_TAU, 16384)):
        assert np.abs(a - b).max() <= 1e-9


@pytest.mark.parametrize("omega_tau", [0.015193, 0.5, 3.0, 9.75])
def test_matches_rotating_frame_closed_form(omega_tau):
    # independent oracle: the drive is exactly solvable in a rotating frame
    u, v = time_ordered_propagator(omega_tau, 16384)
    assert np.abs(u - closed_form_u(omega_tau)).max() <= 1e-8
    assert np.abs(v - closed_form_v(omega_tau)).max() <= 1e-8


@pytest.mark.parametrize("omega_tau", [0.015193, 1.0, 9.75])
def test_second_stroke_is_transpose_of_first(omega_tau):
    # both strokes are generated by real symmetric Hamiltonians swept in
    # opposite order, which ties the propagators by transposition
    u, v = time_ordered_propagator(omega_tau, 4096)
    assert np.abs(v - u.T).max() <= 1e-12


@given(st.one_of(st.sampled_from([1e-3, 1.52e4]), st.floats(-3.0, math.log10(1.52e4)).map(
    lambda e: 10.0 ** e)), st.one_of(st.sampled_from([2, 65536]), st.integers(2, 65536)))
def test_midpoint_second_stroke_is_the_transpose_over_the_domain(omega_tau, steps):
    # the midpoint V is built on its own, so the tie holds up to its rounding
    u, v = time_ordered_propagator(omega_tau, steps)
    assert np.abs(v - u.T).max() <= TOL.unitarity


@given(st.one_of(st.floats(1e-6, 1e6), st.sampled_from([5e-324, 1e-300, 1e300])))
def test_exact_second_stroke_is_the_transpose_bit_for_bit(omega_tau):
    u, v = exact_drive_propagators([omega_tau])[0]
    assert v.tobytes() == np.ascontiguousarray(u.T).tobytes()
    assert closed_form_v(omega_tau).tobytes() == np.ascontiguousarray(
        closed_form_u(omega_tau).T).tobytes()


@given(st.one_of(st.floats(1e-6, 1e6), st.sampled_from([1e-300, 1e300])))
def test_exact_propagators_match_the_rotating_frame_oracle(omega_tau):
    pair = exact_drive_propagators([omega_tau])
    assert pair.shape == (1, 2, 2, 2)
    assert np.abs(pair[0, 0] - closed_form_u(omega_tau)).max() <= 1e-15
    assert np.abs(pair[0, 1] - closed_form_v(omega_tau)).max() <= 1e-15
    assert unitarity_residual(pair) <= 1e-15


def test_exact_propagators_match_the_oracle_where_np_hypot_is_off_by_an_ulp():
    # the drive angle hypot(tau, pi/2) is rounded correctly; np.hypot is an
    # ulp off on about 0.2% of durations, which moves the phase by up to 3e-15;
    # the first draws keep the test whole where np.hypot rounds correctly
    taus = np.random.default_rng(DEFAULT_SEED).uniform(0.0, 50.0, 40000)
    off = np.hypot(taus, 0.5 * math.pi) != [math.hypot(t, 0.5 * math.pi) for t in taus.tolist()]
    taus = np.concatenate([taus[:20], taus[off], [1.4872050697646944]])
    pairs = exact_drive_propagators(taus)
    deviation = max(max(np.abs(u - closed_form_u(t)).max(), np.abs(v - closed_form_v(t)).max())
                    for (u, v), t in zip(pairs, taus.tolist()))
    assert deviation <= 1e-15
