import dataclasses
import math

import numpy as np
import pytest

import qmeter.cycle
from qmeter import (
    DEFAULT_TOLERANCES,
    CycleEngine,
    EngineParams,
    TransitionProbs,
    ValidationError,
    analytic_energetics,
    basis_kets,
    occupation_deltas,
    run_cycle,
    time_ordered_propagator,
    transition_probabilities,
)
from qmeter.errors import InvariantViolation
from qmeter.propagator import MAX_STEPS
from qmeter.qubit_algebra import IDENTITY, SIGMA_X, SIGMA_Z

from conftest import DEFAULT_OMEGA_TAU, bloch_cycle, default_params

T0 = math.tanh(0.5)


def identity_engine(beta=1.0):
    return CycleEngine(default_params(), propagators=(IDENTITY.copy(), IDENTITY.copy()))


def test_commuting_basis_gives_no_fuel(default_engine):
    record = default_engine.evaluate(math.pi / 2, 0.0)
    assert abs(record.q_m) <= 1e-12
    assert not record.eta_defined


@pytest.mark.xfail(
    strict=True,
    reason="the driven strokes still exchange work when the fuel vanishes: "
    "w_ext(pi/2, 0) = -2*tanh(beta/2)*xi*(1-xi), about -0.231 at defaults, "
    "so a null-extracted-work assertion cannot hold",
)
def test_commuting_basis_extracted_work_vanishes(default_engine):
    record = default_engine.evaluate(math.pi / 2, 0.0)
    assert abs(record.w_ext) <= 1e-12


def test_commuting_basis_extracted_work_closed_form(default_engine):
    # what the null case actually produces: w_ext = q_t = -2*t0*xi*(1-xi)
    record = default_engine.evaluate(math.pi / 2, 0.0)
    xi = record.probs.xi
    expected = -2.0 * T0 * xi * (1.0 - xi)
    assert record.w_ext == pytest.approx(expected, abs=1e-12)
    assert record.w_ext == pytest.approx(record.q_t, abs=1e-12)


def test_infinite_temperature_cycle_is_null():
    record = run_cycle(EngineParams(omega_tau=DEFAULT_OMEGA_TAU, beta_hbar_omega=0.0,
                                    alpha=1.0, phi=2.0, steps=256))
    for value in (record.w1, record.w2, record.q_m, record.q_t, record.w, record.d_s):
        assert abs(value) <= 1e-12
    assert not record.eta_defined


def test_extracted_work_at_reference_point_against_fine_oracle():
    # frozen from the closed-form rotating-frame propagators pushed through
    # the Bloch-vector oracle; the 65536-step run must land on it
    record = run_cycle(EngineParams(omega_tau=DEFAULT_OMEGA_TAU, beta_hbar_omega=1.0,
                                    alpha=1.39, phi=2.05, steps=65536))
    assert record.w_ext == pytest.approx(-0.20564360094174, abs=1e-9)


@pytest.mark.xfail(
    strict=True,
    reason="at the default drive duration (omega*tau ~ 0.0152) the point "
    "(1.39, 2.05) sits in the w_ext < 0 region; the extracted-work maximum "
    "lies near (0.393, pi) instead",
)
def test_reference_point_extracts_positive_work(default_engine):
    record = default_engine.evaluate(1.39, 2.05)
    assert record.w_ext > 0.0


def test_transition_probs_identity_propagators(rng):
    u = IDENTITY.copy()
    for _ in range(200):
        alpha = rng.uniform(0, math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        probs = transition_probabilities(u, u, basis_kets(alpha, phi))
        assert probs.zeta == pytest.approx(math.sin(alpha / 2) ** 2, abs=1e-14)
        assert probs.gamma == pytest.approx(math.sin(alpha / 2) ** 2, abs=1e-14)
        assert probs.xi == pytest.approx(0.5, abs=1e-14)
        assert probs.delta == pytest.approx(
            (1.0 - math.sin(alpha) * math.cos(phi)) / 2.0, abs=1e-14)


def test_transition_probs_rejects_non_unitary():
    with pytest.raises(ValidationError):
        transition_probabilities(2.0 * IDENTITY, IDENTITY, basis_kets(1.0, 1.0))


def test_xi_near_half_for_sudden_drive(default_engine):
    probs = transition_probabilities(default_engine.u, default_engine.v,
                                     basis_kets(1.0, 1.0))
    assert probs.xi == pytest.approx(0.5, abs=0.01)


def test_microreversibility_of_overlaps(rng, default_engine):
    # |<a|U|b>|^2 = |<b|U^dag|a>|^2 holds exactly for any pair of kets
    u = default_engine.u
    for _ in range(100):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        fwd = abs(np.vdot(a, u @ b)) ** 2
        bwd = abs(np.vdot(b, u.conj().T @ a)) ** 2
        assert fwd == pytest.approx(bwd, abs=1e-15)


def test_transition_amplitudes_complete_over_input_basis(rng, default_engine):
    # row norm: |<chi2|U|down>|^2 + |<chi2|U|up>|^2 = 1 for every basis
    u = default_engine.u
    up = np.array([1, 0], dtype=complex)
    down = np.array([0, 1], dtype=complex)
    for _ in range(100):
        b = basis_kets(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        total = abs(np.vdot(b.chi2, u @ down)) ** 2 + abs(np.vdot(b.chi2, u @ up)) ** 2
        assert total == pytest.approx(1.0, abs=1e-12)


def test_occupation_deltas_no_transitions():
    dps = occupation_deltas(TransitionProbs(0.0, 0.0, 0.0, 0.0), 1.0)
    for dp in dps:
        assert dp == pytest.approx(T0, abs=1e-15)
        assert dp == pytest.approx(0.462117, abs=1e-6)


def test_occupation_deltas_half_transitions():
    dp1, dp2, dp3, dp4 = occupation_deltas(TransitionProbs(0.5, 0.5, 0.3, 0.2), 1.0)
    assert dp1 == pytest.approx(T0)
    assert dp2 == 0.0
    assert dp3 == 0.0
    assert dp4 == 0.0


def test_occupation_deltas_match_traces(rng):
    # dp2 = -Tr(rho2 sigma_x), dp4 = -Tr(rho4 sigma_z), from the real cycle
    for _ in range(50):
        params = EngineParams(
            omega_tau=rng.uniform(0.001, 10.0), beta_hbar_omega=rng.uniform(0.1, 10.0),
            alpha=rng.uniform(0, math.pi), phi=rng.uniform(0, 2 * math.pi), steps=256)
        record = run_cycle(params)
        dp2_trace = -np.trace(record.rho2 @ SIGMA_X).real
        dp4_trace = -np.trace(record.rho4 @ SIGMA_Z).real
        assert abs(record.analytic.dp[1] - dp2_trace) <= 1e-10
        assert abs(record.analytic.dp[3] - dp4_trace) <= 1e-10


def test_analytic_energetics_no_transitions():
    out = analytic_energetics(TransitionProbs(0.0, 0.0, 0.0, 0.0), 1.0)
    assert out.q_m == 0.0
    assert out.q_t == 0.0
    assert math.isnan(out.eta)


def test_analytic_energetics_half_zeta():
    xi, delta, gamma = 0.37, 0.21, 0.64
    out = analytic_energetics(TransitionProbs(xi, 0.5, delta, gamma), 1.0)
    assert out.q_m == pytest.approx(0.5 * (1 - 2 * xi) * T0, abs=1e-15)
    assert out.q_t == pytest.approx(-0.5 * T0, abs=1e-15)


def test_analytic_matches_trace_over_random_parameters(rng):
    worst = 0.0
    for _ in range(1000):
        params = EngineParams(
            omega_tau=rng.uniform(0.001, 10.0), beta_hbar_omega=rng.uniform(0.1, 10.0),
            alpha=rng.uniform(0, math.pi), phi=rng.uniform(0, 2 * math.pi), steps=256)
        record = run_cycle(params)
        worst = max(worst, record.residuals["w"], record.residuals["q_m"],
                    record.residuals["q_t"])
    assert worst <= 1e-8


def test_crosscheck_on_coarse_grid(default_engine):
    worst = 0.0
    for alpha in np.linspace(0, math.pi, 17):
        for phi in np.linspace(0, 2 * math.pi, 17):
            residuals = default_engine.evaluate(alpha, phi).residuals
            worst = max(worst, max(residuals.values()))
    assert worst <= 1e-8


def test_crosscheck_at_infinite_temperature():
    engine = CycleEngine(EngineParams(omega_tau=DEFAULT_OMEGA_TAU,
                                      beta_hbar_omega=0.0, steps=256))
    for alpha in np.linspace(0, math.pi, 5):
        for phi in np.linspace(0, 2 * math.pi, 5):
            assert max(engine.evaluate(alpha, phi).residuals.values()) <= 1e-12


def test_cycle_against_bloch_oracle(rng):
    # fully independent evaluation path in the Bloch-vector representation
    for _ in range(100):
        omega_tau = rng.uniform(0.01, 10.0)
        beta = rng.uniform(0.1, 5.0)
        alpha = rng.uniform(0, math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        engine = CycleEngine(EngineParams(omega_tau=omega_tau, beta_hbar_omega=beta,
                                          steps=512))
        record = engine.evaluate(alpha, phi)
        oracle = bloch_cycle(engine.u, engine.v, alpha, phi, beta)
        for key in ("w1", "w2", "q_m", "q_t", "w", "d_s"):
            assert getattr(record, {"w1": "w1", "w2": "w2", "q_m": "q_m",
                                    "q_t": "q_t", "w": "w", "d_s": "d_s"}[key]) == \
                pytest.approx(oracle[key], abs=1e-12)


def test_identity_propagators_reproduce_projection_formulas(rng):
    # with both strokes frozen, the cycle reduces to pure dephasing geometry
    engine = identity_engine()
    for _ in range(50):
        alpha = rng.uniform(0, math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        record = engine.evaluate(alpha, phi)
        sa, ca, cp = math.sin(alpha), math.cos(alpha), math.cos(phi)
        assert record.w == pytest.approx(0.5 * T0 * (sa * sa + sa * ca * cp), abs=1e-12)
        assert record.q_m == pytest.approx(-0.5 * T0 * sa * ca * cp, abs=1e-12)
        assert record.q_t == pytest.approx(-0.5 * T0 * sa * sa, abs=1e-12)


def test_first_law_and_entropy_invariants(rng):
    for _ in range(300):
        params = EngineParams(
            omega_tau=rng.uniform(0.001, 10.0), beta_hbar_omega=rng.uniform(0.1, 10.0),
            alpha=rng.uniform(0, math.pi), phi=rng.uniform(0, 2 * math.pi), steps=256)
        record = run_cycle(params)
        assert abs(record.w1 + record.w2 + record.q_m + record.q_t) <= 1e-10
        assert record.q_t <= 1e-12
        assert record.d_s >= -1e-12
        assert abs(record.s1 - record.s2) <= 1e-10
        assert abs(record.s3 - record.s4) <= 1e-10
        assert abs((record.s1 - record.s4) + record.d_s) <= 1e-10


def test_efficiency_reference_relation(rng):
    # eta = 1 + q_t/q_m wherever defined
    for _ in range(200):
        params = EngineParams(
            omega_tau=rng.uniform(0.01, 10.0), beta_hbar_omega=rng.uniform(0.1, 10.0),
            alpha=rng.uniform(0, math.pi), phi=rng.uniform(0, 2 * math.pi), steps=256)
        record = run_cycle(params)
        if record.eta_defined and record.q_m > 1e-6:
            assert record.eta == pytest.approx(1.0 + record.q_t / record.q_m, rel=1e-9)


def test_engine_params_validation():
    with pytest.raises(ValidationError):
        EngineParams(omega_tau=0.0, beta_hbar_omega=1.0)
    with pytest.raises(ValidationError):
        EngineParams(omega_tau=1.0, beta_hbar_omega=-0.5)
    with pytest.raises(ValidationError):
        EngineParams(omega_tau=1.0, beta_hbar_omega=1.0, steps=1)
    with pytest.raises(ValidationError):
        EngineParams(omega_tau=1.0, beta_hbar_omega=1.0, steps=MAX_STEPS + 1)
    assert EngineParams(omega_tau=1.0, beta_hbar_omega=1.0, steps=MAX_STEPS).steps == MAX_STEPS


def test_numpy_integer_step_counts_are_accepted():
    steps = np.int64(256)
    record = run_cycle(EngineParams(omega_tau=0.3, beta_hbar_omega=1.0, alpha=1.0,
                                    phi=2.0, steps=steps))
    assert record.w_ext == run_cycle(EngineParams(omega_tau=0.3, beta_hbar_omega=1.0,
                                                  alpha=1.0, phi=2.0, steps=256)).w_ext
    assert (time_ordered_propagator(0.3, steps).tobytes()
            == time_ordered_propagator(0.3, 256).tobytes())


def test_eta_residual_at_small_fuel_node():
    # the worst node of the efficiency_forms suite at seed 407: a fuel of
    # 1.8e-5 leaves the trace-path eta = -w/q_m with an absolute roundoff of
    # about eps*hbar_omega/q_m, which the residual scale has to include
    engine = CycleEngine(EngineParams(omega_tau=0.015533815211530987,
                                      beta_hbar_omega=2.1745346674786243, steps=256))
    record, violations = engine.evaluate_flagged(1.5611804642839489, 1.4378889294306938)
    assert not violations
    assert 0.0 < record.q_m < 1e-4 and record.eta < -2e4
    assert record.residuals["eta"] <= DEFAULT_TOLERANCES.eta_forms


def test_eta_residual_catches_a_perturbed_efficiency(monkeypatch, default_engine):
    # an error of 1e-9 in the closed-form eta at the extracted-work peak
    # must still fail the efficiency check
    real_analytic = qmeter.cycle.analytic_energetics

    def perturbed(*args, **kwargs):
        out = real_analytic(*args, **kwargs)
        return dataclasses.replace(out, eta=out.eta + 1e-9)

    monkeypatch.setattr(qmeter.cycle, "analytic_energetics", perturbed)
    record, _ = default_engine.evaluate_flagged(0.39269908169872414, 3.1456116832540535)
    assert record.residuals["eta"] > DEFAULT_TOLERANCES.eta_forms


def test_invariant_violation_carries_residuals(monkeypatch):
    # a dephasing channel can never lower the entropy, so a corrupted channel
    # that purifies the state must trip the entropy-gain invariant
    from qmeter import measurement

    real_measure = measurement.measure
    ground = np.outer([0, 1], [0, 1]).astype(complex)

    def bad_measure(rho, basis, rehermitize=True):
        post, probs = real_measure(rho, basis)
        return 0.05 * post + 0.95 * ground, probs

    monkeypatch.setattr(qmeter.cycle, "measure", bad_measure)
    engine = CycleEngine(default_params())
    with pytest.raises(InvariantViolation) as err:
        engine.evaluate(1.0, 1.0)
    assert "entropy_decrease" in err.value.residuals
    assert err.value.max_residual > 0.0


def test_run_cycle_is_deterministic():
    params = EngineParams(omega_tau=0.7, beta_hbar_omega=1.3, alpha=0.9, phi=4.2,
                          steps=512)
    a = run_cycle(params)
    b = run_cycle(params)
    assert a.w == b.w and a.q_m == b.q_m and a.d_s == b.d_s
    assert a.rho4.tobytes() == b.rho4.tobytes()
