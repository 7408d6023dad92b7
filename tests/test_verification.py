"""The batched cycle-identity suites against the per-sample loop they replace."""

import math

import numpy as np
import pytest

import qmeter.cycle
from qmeter import DEFAULT_TOLERANCES as TOL
from qmeter import CycleEngine, EngineParams, measurement
from qmeter.verification import cycle_identity_suites

SAMPLES = 200
STEPS = 16


def reference_suites(rng, samples, steps):
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
        engine = CycleEngine(EngineParams(omega_tau=omega_tau, beta_hbar_omega=beta, steps=steps))
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

        def purifying_measure(rho, basis, tol=TOL, rehermitize=True):
            post, probs = real_measure(rho, basis, tol)
            return np.where((basis.alpha < 1.0)[..., None, None], ground, post), probs

        monkeypatch.setattr(qmeter.cycle, "measure", purifying_measure)
    results = cycle_identity_suites(np.random.default_rng(3), samples=SAMPLES, steps=STEPS)
    expected = reference_suites(np.random.default_rng(3), SAMPLES, STEPS)
    assert {r.name: r.max_residual for r in results} == expected
    first_law = next(r for r in results if r.name == "first_law")
    assert first_law.passed is not faulty
