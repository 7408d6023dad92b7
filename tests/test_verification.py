"""The batched suites against the per-sample loops they replace, and the
propagator-error suite against the exact oracle."""

import math

import numpy as np
import pytest

import qmeter.cycle
import qmeter.verification
from qmeter import DEFAULT_TOLERANCES as TOL
from qmeter import CycleEngine, EngineParams, measurement
from qmeter import basis_kets, gibbs_state, hermitian_expm, measure, time_ordered_propagator
from qmeter.propagator import exact_drive_propagators
from qmeter.qubit_algebra import (
    IDENTITY,
    hermiticity_residual,
    unitarity_residual,
    von_neumann_entropy,
)
from qmeter.verification import (
    _random_hermitians,
    cycle_identity_suites,
    suite_measurement_channel,
    suite_propagator_error,
    suite_unitarity,
)

from conftest import DEFAULT_OMEGA_TAU, closed_form_u, closed_form_v

SAMPLES = 200


def reference_suites(rng, samples):
    """Worst value per suite from one engine and one evaluate_flagged call
    per sample: a sample with violations only feeds its worst one to the
    first-law suite."""
    first_law = entropy = analytic = eta_forms = 0.0
    kelvin = bounds = inequality = -math.inf
    for _ in range(samples):
        alpha = rng.uniform(0.0, math.pi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        omega_tau = rng.uniform(0.001, 10.0)
        beta = rng.uniform(0.1, 10.0)
        engine = CycleEngine(EngineParams(omega_tau=omega_tau, beta_hbar_omega=beta),
                             propagators=exact_drive_propagators([omega_tau])[0])
        record, violations = engine.evaluate_flagged(alpha, phi)
        if violations:
            first_law = max(first_law, max(violations.values()))
            continue
        res = record.residuals
        first_law = max(first_law, res["first_law"])
        kelvin = max(kelvin, record.q_t)
        entropy = max(entropy, res["entropy_12"], res["entropy_34"],
                      res["entropy_thermalization"], -record.d_s)
        analytic = max(analytic, res["w"], res["q_m"], res["q_t"])
        eta_forms = max(eta_forms, res["eta"])
        if record.q_m > TOL.fuel and record.w < 0.0:
            bounds = max(bounds, -record.eta, record.eta - 1.0)
        if record.probs.zeta > 1e-6 and record.probs.gamma > 1e-6:
            inequality = max(inequality, 2.0 - (1.0 / record.probs.zeta + 1.0 / record.probs.gamma))
    return {"first_law": first_law, "kelvin": kelvin, "entropy_equalities": entropy,
            "analytic_vs_oracle": analytic, "efficiency_forms": eta_forms,
            "efficiency_bounds": bounds, "transition_inequality": inequality}


@pytest.mark.parametrize("faulty", [False, True])
def test_batched_suites_match_the_per_sample_loop(monkeypatch, faulty):
    if faulty:
        # purifying the post-measurement state for alpha < 1 lowers the
        # entropy there, so about a third of the samples are flagged
        real_measure = measurement.measure
        ground = np.outer([0, 1], [0, 1]).astype(complex)

        def purifying_measure(rho, basis, rehermitize=True):
            post, probs = real_measure(rho, basis, rehermitize)
            return np.where((basis.alpha < 1.0)[..., None, None], ground, post), probs

        monkeypatch.setattr(qmeter.cycle, "measure", purifying_measure)
    results = cycle_identity_suites(np.random.default_rng(3), samples=SAMPLES)
    expected = reference_suites(np.random.default_rng(3), SAMPLES)
    assert {r.name: r.max_residual for r in results} == expected
    first_law = next(r for r in results if r.name == "first_law")
    assert first_law.passed is not faulty


def test_suites_with_no_eligible_sample_fail(monkeypatch):
    # a pure post-measurement state lowers the entropy at every node, so
    # every sample is flagged and only the first-law suite sees any
    ground = np.outer([0, 1], [0, 1]).astype(complex)
    real_measure = measurement.measure

    def purifying_measure(rho, basis, rehermitize=True):
        post, probs = real_measure(rho, basis, rehermitize)
        return 0.0 * post + ground, probs

    monkeypatch.setattr(qmeter.cycle, "measure", purifying_measure)
    results = cycle_identity_suites(np.random.default_rng(3), samples=20)
    for r in results:
        assert not r.passed, r.name
        if r.name != "first_law":
            assert r.detail == "no eligible sample (0 of 20)", r.name


def test_stacked_unitarity_suite_matches_the_per_sample_loop(monkeypatch):
    # a perfect step ladder leaves the random exponentials as the worst case
    monkeypatch.setattr(qmeter.verification, "time_ordered_propagator",
                        lambda tau, steps: np.stack([IDENTITY, IDENTITY]))
    result = suite_unitarity(np.random.default_rng(3), DEFAULT_OMEGA_TAU, SAMPLES)
    rng = np.random.default_rng(3)
    hs, ts = _random_hermitians(rng, SAMPLES), rng.uniform(-10.0, 10.0, SAMPLES)
    expected = max(unitarity_residual(hermitian_expm(h, t)) for h, t in zip(hs, ts))
    assert 0.0 < expected
    assert result.max_residual == expected
    assert result.passed == (expected <= TOL.unitarity)


def reference_channel(rng, samples, rehermitize):
    """Worst residual and verdict of the channel suite from one state, one
    basis and two ``measure`` calls per sample."""
    gibbs_h, betas = _random_hermitians(rng, samples), rng.uniform(0.0, 3.0, samples)
    turn_h, turn_t = _random_hermitians(rng, samples), rng.uniform(0.0, 3.0, samples)
    alphas = rng.uniform(0.0, math.pi, samples)
    phis = rng.uniform(0.0, 2.0 * math.pi, samples)
    worst = exact_asym = 0.0
    for k in range(samples):
        u = hermitian_expm(turn_h[k], turn_t[k])
        rho = u @ gibbs_state(gibbs_h[k], betas[k]) @ u.conj().T
        basis = basis_kets(alphas[k], phis[k])
        post, probs = measure(rho, basis, rehermitize=rehermitize)
        post2, _ = measure(post, basis, rehermitize=rehermitize)
        worst = max(worst, np.abs(post2 - post).max(), abs(probs[0] + probs[1] - 1.0),
                    abs((post[0, 0] + post[1, 1]).real - 1.0),
                    max(0.0, von_neumann_entropy(rho) - von_neumann_entropy(post)))
        exact_asym = max(exact_asym, hermiticity_residual(post))
    return max(worst, exact_asym), worst <= TOL.kelvin and exact_asym == 0.0


@pytest.mark.parametrize("rehermitize", [True, False])
def test_stacked_channel_suite_matches_the_per_sample_loop(rehermitize):
    result = suite_measurement_channel(np.random.default_rng(3), SAMPLES, rehermitize)
    worst, passed = reference_channel(np.random.default_rng(3), SAMPLES, rehermitize)
    assert result.max_residual == worst
    assert result.passed == passed == rehermitize


@pytest.mark.parametrize("omega_tau", [DEFAULT_OMEGA_TAU, 1.0, 9.75, 152.0])
def test_propagator_error_is_the_true_integration_error(omega_tau):
    true_error = max(
        np.abs(u - oracle(omega_tau)).max()
        for u, oracle in zip(time_ordered_propagator(omega_tau, 1024),
                             (closed_form_u, closed_form_v)))
    result = suite_propagator_error(omega_tau, 1024)
    assert result.max_residual == pytest.approx(true_error, rel=1e-6)
