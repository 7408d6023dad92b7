import dataclasses
import math

import numpy as np
import pytest

import qmeter.cycle
from qmeter import (
    DEFAULT_TOLERANCES,
    CycleEngine,
    EngineParams,
    GridSpec,
    TransitionProbs,
    ValidationError,
    analytic_energetics,
    basis_kets,
    grid_sweep,
    occupation_deltas,
    time_ordered_propagator,
    transition_probabilities,
)
from qmeter.cycle import evaluate_samples
from qmeter.errors import InvariantViolation
from qmeter.propagator import MAX_STEPS
from qmeter.qubit_algebra import IDENTITY, SIGMA_X, SIGMA_Z

from conftest import (
    DEFAULT_OMEGA_TAU,
    bloch_cycle,
    closed_form_u,
    closed_form_v,
    default_params,
    evaluate_ok,
)

T0 = math.tanh(0.5)


def identity_engine(beta=1.0):
    return CycleEngine(default_params(), propagators=(IDENTITY.copy(), IDENTITY.copy()))


def test_commuting_basis_gives_no_fuel(default_engine):
    record = evaluate_ok(default_engine, math.pi / 2, 0.0)
    assert abs(record.q_m) <= 1e-12
    assert not record.eta_defined


@pytest.mark.xfail(
    strict=True,
    reason="the driven strokes still exchange work when the fuel vanishes: "
    "w_ext(pi/2, 0) = -2*tanh(beta/2)*xi*(1-xi), about -0.231 at defaults, "
    "so a null-extracted-work assertion cannot hold",
)
def test_commuting_basis_extracted_work_vanishes(default_engine):
    record = evaluate_ok(default_engine, math.pi / 2, 0.0)
    assert abs(record.w_ext) <= 1e-12


def test_commuting_basis_extracted_work_closed_form(default_engine):
    # what the null case actually produces: w_ext = q_t = -2*t0*xi*(1-xi)
    record = evaluate_ok(default_engine, math.pi / 2, 0.0)
    xi = record.probs.xi
    expected = -2.0 * T0 * xi * (1.0 - xi)
    assert record.w_ext == pytest.approx(expected, abs=1e-12)
    assert record.w_ext == pytest.approx(record.q_t, abs=1e-12)


def test_infinite_temperature_cycle_is_null():
    engine = CycleEngine(EngineParams(omega_tau=DEFAULT_OMEGA_TAU, beta_hbar_omega=0.0,
                                      steps=256))
    record = evaluate_ok(engine, 1.0, 2.0)
    for value in (record.w1, record.w2, record.q_m, record.q_t, record.w, record.d_s):
        assert abs(value) <= 1e-12
    assert not record.eta_defined


def test_extracted_work_at_reference_point_against_fine_oracle():
    # frozen from the closed-form rotating-frame propagators pushed through
    # the Bloch-vector oracle; the 65536-step run must land on it
    engine = CycleEngine(EngineParams(omega_tau=DEFAULT_OMEGA_TAU, beta_hbar_omega=1.0,
                                      steps=65536))
    record = evaluate_ok(engine, 1.39, 2.05)
    assert record.w_ext == pytest.approx(-0.20564360094174, abs=1e-9)


@pytest.mark.xfail(
    strict=True,
    reason="at the default drive duration (omega*tau ~ 0.0152) the point "
    "(1.39, 2.05) sits in the w_ext < 0 region; the extracted-work maximum "
    "lies near (0.393, pi) instead",
)
def test_reference_point_extracts_positive_work(default_engine):
    record = evaluate_ok(default_engine, 1.39, 2.05)
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


def test_evaluate_samples_needs_a_sample():
    with pytest.raises(ValidationError, match="^evaluate_samples needs at least one sample$"):
        evaluate_samples([], [], [], [])


@pytest.mark.parametrize("bad", ["u", "v"])
def test_the_engine_checks_a_propagator_pair_handed_to_it(bad):
    pair = (2 * IDENTITY, IDENTITY) if bad == "u" else (IDENTITY, 2 * IDENTITY)
    with pytest.raises(ValidationError, match=f"^{bad}: unitarity residual"):
        CycleEngine(default_params(), propagators=pair)


def test_the_engine_does_not_recheck_the_packages_own_propagators(monkeypatch):
    names = []
    real = qmeter.cycle.require_unitary
    monkeypatch.setattr(qmeter.cycle, "require_unitary",
                        lambda u, name: names.append(name) or real(u, name))
    evaluate_ok(CycleEngine(default_params()), 1.39, 2.05)
    grid_sweep(CycleEngine(default_params(steps=256)), GridSpec(alpha_points=5, phi_points=5))
    evaluate_samples([0.5, 2.0], [1.0, 0.3], [1.0, 2.0], [0.5, 4.0])
    assert names == []
    CycleEngine(default_params(), propagators=(IDENTITY, IDENTITY))
    assert names == ["u", "v"]


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
            steps=256)
        record = evaluate_ok(CycleEngine(params), rng.uniform(0, math.pi),
                             rng.uniform(0, 2 * math.pi))
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
            steps=256)
        record = evaluate_ok(CycleEngine(params), rng.uniform(0, math.pi),
                             rng.uniform(0, 2 * math.pi))
        worst = max(worst, record.residuals["w"], record.residuals["q_m"],
                    record.residuals["q_t"])
    assert worst <= 1e-8


def test_crosscheck_on_coarse_grid(default_engine):
    worst = 0.0
    for alpha in np.linspace(0, math.pi, 17):
        for phi in np.linspace(0, 2 * math.pi, 17):
            residuals = evaluate_ok(default_engine, alpha, phi).residuals
            worst = max(worst, max(residuals.values()))
    assert worst <= 1e-8


def test_crosscheck_at_infinite_temperature():
    engine = CycleEngine(EngineParams(omega_tau=DEFAULT_OMEGA_TAU,
                                      beta_hbar_omega=0.0, steps=256))
    for alpha in np.linspace(0, math.pi, 5):
        for phi in np.linspace(0, 2 * math.pi, 5):
            assert max(evaluate_ok(engine, alpha, phi).residuals.values()) <= 1e-12


def test_cycle_against_bloch_oracle(rng):
    # fully independent evaluation path in the Bloch-vector representation
    for _ in range(100):
        omega_tau = rng.uniform(0.01, 10.0)
        beta = rng.uniform(0.1, 5.0)
        alpha = rng.uniform(0, math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        engine = CycleEngine(EngineParams(omega_tau=omega_tau, beta_hbar_omega=beta,
                                          steps=512))
        record = evaluate_ok(engine, alpha, phi)
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
        record = evaluate_ok(engine, alpha, phi)
        sa, ca, cp = math.sin(alpha), math.cos(alpha), math.cos(phi)
        assert record.w == pytest.approx(0.5 * T0 * (sa * sa + sa * ca * cp), abs=1e-12)
        assert record.q_m == pytest.approx(-0.5 * T0 * sa * ca * cp, abs=1e-12)
        assert record.q_t == pytest.approx(-0.5 * T0 * sa * sa, abs=1e-12)


def test_first_law_and_entropy_invariants(rng):
    for _ in range(300):
        params = EngineParams(
            omega_tau=rng.uniform(0.001, 10.0), beta_hbar_omega=rng.uniform(0.1, 10.0),
            steps=256)
        record = evaluate_ok(CycleEngine(params), rng.uniform(0, math.pi),
                             rng.uniform(0, 2 * math.pi))
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
            steps=256)
        record = evaluate_ok(CycleEngine(params), rng.uniform(0, math.pi),
                             rng.uniform(0, 2 * math.pi))
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


@pytest.mark.parametrize("field", ["omega_tau", "beta_hbar_omega"])
def test_engine_params_reject_arrays(field):
    inputs = {"omega_tau": 0.3, "beta_hbar_omega": 1.0, field: np.array([0.3, 0.4])}
    with pytest.raises(ValidationError, match=f"{field} must be a scalar"):
        EngineParams(**inputs)


@pytest.mark.parametrize("field", ["omega_tau", "beta_hbar_omega"])
def test_zero_dimensional_engine_inputs_run(field):
    inputs = {"omega_tau": 0.3, "beta_hbar_omega": 1.0}
    record = evaluate_ok(CycleEngine(EngineParams(**inputs)), 1.0, 2.0)
    inputs[field] = np.array(inputs[field])
    assert (evaluate_ok(CycleEngine(EngineParams(**inputs)), 1.0, 2.0).row.tobytes()
            == record.row.tobytes())


def test_numpy_integer_step_counts_are_accepted():
    steps = np.int64(256)
    engines = (CycleEngine(EngineParams(omega_tau=0.3, beta_hbar_omega=1.0, steps=n))
               for n in (steps, 256))
    a, b = (evaluate_ok(engine, 1.0, 2.0) for engine in engines)
    assert a.w_ext == b.w_ext
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
    real_analytic = qmeter.cycle._analytic_energetics

    def perturbed(*args, **kwargs):
        out, checks = real_analytic(*args, **kwargs)
        return dataclasses.replace(out, eta=out.eta + 1e-9), checks

    monkeypatch.setattr(qmeter.cycle, "_analytic_energetics", perturbed)
    record, _ = default_engine.evaluate_flagged(0.39269908169872414, 3.1456116832540535)
    assert record.residuals["eta"] > DEFAULT_TOLERANCES.eta_forms


def test_invariant_violation_carries_residuals(monkeypatch):
    # a dephasing channel can never lower the entropy, so a corrupted channel
    # that purifies the state must trip the entropy-gain invariant
    from qmeter import measurement

    real_measure = measurement._measure
    ground = np.outer([0, 1], [0, 1]).astype(complex)

    def bad_measure(rho, basis, rehermitize=True):
        post, probs, checks = real_measure(rho, basis)
        return 0.05 * post + 0.95 * ground, probs, checks

    monkeypatch.setattr(qmeter.cycle, "_measure", bad_measure)
    engine = CycleEngine(default_params())
    _, violations = engine.evaluate_flagged(1.0, 1.0)
    assert violations["entropy_decrease"] > 0.0


def test_max_residual_is_nan_whenever_a_residual_is_nan():
    for residuals in ({"a": 1.0, "b": math.nan}, {"b": math.nan, "a": 1.0}):
        assert math.isnan(InvariantViolation("m", residuals).max_residual)
    assert InvariantViolation("m", {"a": 1.0, "b": 2.0}).max_residual == 2.0
    assert math.isnan(InvariantViolation("m", {}).max_residual)


def test_eta_is_defined_exactly_where_the_fuel_exceeds_its_threshold():
    # nodes on the q_m = 0 curve and at set distances on either side of it,
    # placed by bisecting the Bloch oracle's q_m along phi at fixed alpha;
    # the nearest sit 5e-13 and 2e-12 on either side of TOL.fuel = 1e-12
    u, v = closed_form_u(DEFAULT_OMEGA_TAU), closed_form_v(DEFAULT_OMEGA_TAU)

    def q_m(alpha, phi):
        return bloch_cycle(u, v, alpha, phi, 1.0)["q_m"]

    nodes = []
    for alpha in (0.7, 2.5):
        phis = np.linspace(0.0, 2.0 * math.pi, 17)
        q = [q_m(alpha, phi) for phi in phis]
        for k in np.flatnonzero(np.diff(np.sign(q))):  # one crossing in [phis[k], phis[k+1]]
            rising = q[k + 1] > q[k]
            for target in (-1e-12, 0.0, 5e-13, 2e-12, 5e-12, 9e-12, 1e-10):
                lo, hi = phis[k], phis[k + 1]
                for _ in range(44):
                    mid = 0.5 * (lo + hi)
                    lo, hi = (mid, hi) if (q_m(alpha, mid) < target) == rising else (lo, mid)
                nodes.append((alpha, lo))
    oracle = np.array([q_m(alpha, phi) for alpha, phi in nodes])
    fuel = DEFAULT_TOLERANCES.fuel
    assert np.abs(oracle - fuel).min() > 1e-13  # no node is a tie at the threshold
    assert (np.abs(oracle) < 1e-13).sum() == 4  # on the curve
    assert ((oracle > 1e-13) & (oracle < fuel)).sum() == 4
    assert ((oracle > fuel) & (oracle < 10.0 * fuel)).sum() == 12

    engine = CycleEngine(default_params(), propagators=(u, v))
    rows = engine.evaluate_nodes(*np.array(nodes).T)
    assert np.abs(rows["q_m"] - oracle).max() <= 1e-15
    assert (~np.isnan(rows["eta"])).tolist() == (oracle > fuel).tolist()
    # eta = -w/q_m is ill-conditioned here, and the efficiency checks scale with it
    assert rows["ok"].all()


def test_a_node_is_deterministic():
    params = EngineParams(omega_tau=0.7, beta_hbar_omega=1.3, steps=512)
    a = evaluate_ok(CycleEngine(params), 0.9, 4.2)
    b = evaluate_ok(CycleEngine(params), 0.9, 4.2)
    assert a.w == b.w and a.q_m == b.q_m and a.d_s == b.d_s
    assert a.rho4.tobytes() == b.rho4.tobytes()
