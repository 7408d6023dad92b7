"""The batched suites against the per-sample loops they replace, and the
propagator-error suite against the exact oracle."""

import dataclasses
import math
import re

import numpy as np
import pytest

import qmeter.cycle
import qmeter.verification
from qmeter import DEFAULT_TOLERANCES as TOL
from qmeter import CycleEngine, EngineParams, measurement
from qmeter import basis_kets, gibbs_state, hermitian_expm, measure, time_ordered_propagator
from qmeter.cli import main
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
    run_all_suites,
    suite_measurement_channel,
    suite_propagator_error,
    suite_unitarity,
)

from conftest import DEFAULT_OMEGA_TAU, closed_form_u, closed_form_v, default_params

SAMPLES = 200


# the check-table entries each of these suites reports, and the suite's bound
TABLE_SUITES = {
    "kelvin": (("kelvin",), TOL.kelvin),
    "entropy_equalities": (("entropy_12", "entropy_34", "entropy_thermalization",
                            "entropy_decrease"), TOL.entropy_equality),
    "analytic_vs_oracle": (("w", "q_m", "q_t"), TOL.analytic),
    "efficiency_forms": (("eta",), TOL.eta_forms),
}


def purify_measurement(monkeypatch, below):
    """Replace the post-measurement state by |down><down| at the nodes with
    alpha < ``below``: that lowers the entropy there, so those are flagged."""
    real_measure = measurement._measure
    ground = np.outer([0, 1], [0, 1]).astype(complex)

    def purifying_measure(rho, basis, rehermitize=True):
        post, probs, checks = real_measure(rho, basis, rehermitize)
        return np.where((basis.alpha < below)[..., None, None], ground, post), probs, checks

    monkeypatch.setattr(qmeter.cycle, "_measure", purifying_measure)


def reference_suites(rng, samples):
    """Worst value per suite from one engine and one evaluate_flagged call
    per sample: every sample feeds the suites of kernel checks, and a sample
    with violations feeds its worst one to the first-law suite and nothing
    to the efficiency bounds and the inequality."""
    first_law = 0.0
    kelvin = entropy = analytic = eta_forms = bounds = inequality = -math.inf
    for _ in range(samples):
        alpha = rng.uniform(0.0, math.pi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        omega_tau = rng.uniform(0.001, 10.0)
        beta = rng.uniform(0.1, 10.0)
        engine = CycleEngine(EngineParams(omega_tau=omega_tau, beta_hbar_omega=beta),
                             propagators=exact_drive_propagators([omega_tau])[0])
        record, violations = engine.evaluate_flagged(alpha, phi)
        res = record.residuals
        kelvin = max(kelvin, record.q_t)
        entropy = max(entropy, res["entropy_12"], res["entropy_34"],
                      res["entropy_thermalization"], -record.d_s)
        analytic = max(analytic, res["w"], res["q_m"], res["q_t"])
        eta_forms = max(eta_forms, res["eta"])
        if violations:
            first_law = max(first_law, max(violations.values()))
            continue
        first_law = max(first_law, res["first_law"])
        if record.q_m > TOL.fuel and record.w < 0.0:
            bounds = max(bounds, -record.eta, record.eta - 1.0)
        if record.probs.zeta > 1e-6 and record.probs.gamma > 1e-6:
            inequality = max(inequality, 2.0 - (1.0 / record.probs.zeta + 1.0 / record.probs.gamma))
    return {"first_law": first_law, "kelvin": kelvin, "entropy_equalities": entropy,
            "analytic_vs_oracle": analytic, "efficiency_forms": eta_forms,
            "efficiency_bounds": bounds, "transition_inequality": inequality}


@pytest.mark.parametrize("faulty", [False, True])
def test_batched_suites_match_the_per_sample_loop(monkeypatch, faulty):
    if faulty:  # about a third of the samples are flagged
        purify_measurement(monkeypatch, below=1.0)
    results = cycle_identity_suites(np.random.default_rng(3), samples=SAMPLES)
    expected = reference_suites(np.random.default_rng(3), SAMPLES)
    assert {r.name: r.max_residual for r in results} == expected
    first_law = next(r for r in results if r.name == "first_law")
    assert first_law.passed is not faulty


@pytest.mark.parametrize("faulty", [False, True])
def test_table_suites_report_their_checks_over_every_sample(monkeypatch, faulty):
    if faulty:
        purify_measurement(monkeypatch, below=1.0)
    batches = []
    real = qmeter.verification.evaluate_samples
    monkeypatch.setattr(qmeter.verification, "evaluate_samples",
                        lambda *args: batches.append(real(*args)) or batches[-1])
    results = {r.name: r for r in cycle_identity_suites(np.random.default_rng(3), SAMPLES)}
    (batch,) = batches
    assert bool(batch.rows["ok"].all()) is not faulty
    assert qmeter.verification.TABLE_SUITES == tuple(TABLE_SUITES)  # verify's line order
    for suite, (names, bound) in TABLE_SUITES.items():
        reported = {name for name, (_, by, _) in qmeter.cycle.CHECKS.items() if by == suite}
        assert reported == set(names), suite
        worst = max(value for name in names for value in batch.checks[name][0].tolist()
                    if not math.isnan(value))
        assert results[suite].max_residual == worst, suite
        assert results[suite].tolerance == bound, suite
        assert results[suite].passed == (worst <= bound), suite


def test_suites_with_no_eligible_sample_fail(monkeypatch):
    # a pure post-measurement state lowers the entropy at every node, so
    # every sample is flagged: the suites of kernel checks still read every
    # sample, and the efficiency bounds and the inequality have none left
    purify_measurement(monkeypatch, below=math.inf)
    results = {r.name: r for r in cycle_identity_suites(np.random.default_rng(3), samples=20)}
    assert not results["first_law"].passed
    assert (results["first_law"].detail
            == "20 of 20 samples flagged: w, q_m, q_t, eta, entropy_decrease")
    assert [name for name, r in results.items() if r.passed] == ["kelvin"]
    assert -1e-2 < results["kelvin"].max_residual < 0.0
    for name in ("entropy_equalities", "analytic_vs_oracle", "efficiency_forms"):
        assert results[name].max_residual > 0.1, name
        assert results[name].detail == "", name
    for name in ("efficiency_bounds", "transition_inequality"):
        assert results[name].detail == "no eligible sample (0 of 20)", name


def test_a_flagged_sample_fails_verify_below_the_first_law_bound(monkeypatch):
    # the closed-form eta moved by 1e-11 trips the eta check (bound 1e-12)
    # with a violation that stays inside the first-law bound (1e-10)
    real = qmeter.cycle._analytic_energetics

    def energetics(probs, beta):
        out, checks = real(probs, beta)
        return dataclasses.replace(out, eta=out.eta + 1e-11), checks

    monkeypatch.setattr(qmeter.cycle, "_analytic_energetics", energetics)
    results = {r.name: r for r in cycle_identity_suites(np.random.default_rng(3), SAMPLES)}
    first_law = results["first_law"]
    assert TOL.eta_forms < first_law.max_residual <= TOL.first_law
    assert not first_law.passed
    assert first_law.detail.endswith(" samples flagged: eta"), first_law.detail


def test_an_efficiency_over_one_fails_the_efficiency_bounds(monkeypatch):
    # one eligible sample's eta read as 1 + 1e-9; nothing else moves
    real = qmeter.verification.evaluate_samples

    def over_one(*args):
        batch = real(*args)
        rows = batch.rows
        eligible = rows["ok"] & (rows["q_m"] > TOL.fuel) & (rows["w_ext"] > 0.0)
        rows["eta"][np.flatnonzero(eligible)[0]] = 1.0 + 1e-9
        return batch

    monkeypatch.setattr(qmeter.verification, "evaluate_samples", over_one)
    results = {r.name: r for r in cycle_identity_suites(np.random.default_rng(3), SAMPLES)}
    bounds = results.pop("efficiency_bounds")
    assert not bounds.passed
    assert bounds.max_residual == (1.0 + 1e-9) - 1.0
    assert all(r.passed for r in results.values())


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


def broken_channel(fault):
    """``_measure`` with a fault its own checks see: ``"trace"`` scales the
    output by 1 + 1e-9, ``"channel_leak"`` dephases along projectors tilted
    off the basis kets, which leaves a coherence between them."""
    real = measurement._measure

    def scaled(rho, basis, rehermitize=True):
        post, probs, checks = real(rho, basis, rehermitize)
        return post * (1.0 + 1e-9), probs, checks

    def tilted(rho, basis, rehermitize=True):
        projectors = measurement._basis(basis.alpha * (1.0 - 1e-6), basis.phi)[0].projectors
        return real(rho, dataclasses.replace(basis, projectors=projectors), rehermitize)

    return {"trace": scaled, "channel_leak": tilted}[fault]


@pytest.mark.parametrize("fault, failed", [("trace", "trace, probability_sum"),
                                           ("channel_leak", "channel_leak")])
def test_a_broken_channel_fails_its_suite_and_verify_exits_2(monkeypatch, capsys, fault, failed):
    # a violated channel invariant is a failed suite, not a configuration error
    monkeypatch.setattr(qmeter.verification, "_measure", broken_channel(fault))
    rc = main(["verify", "--samples", "50", "--grid-alpha-points", "9",
               "--grid-phi-points", "9"])
    out, err = capsys.readouterr()
    assert rc == 2 and err == ""
    (line,) = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert line.startswith("[FAIL] measurement_channel: ")
    assert line.endswith(f" - failed: {failed}")
    # the line reports the first failed check, so its residual is over its tolerance
    residual, tol = map(float, re.search(r"residual (\S+) \(tol (\S+)\)", line).groups())
    assert residual > tol, line


@pytest.mark.parametrize("omega_tau", [DEFAULT_OMEGA_TAU, 1.0, 9.75, 152.0])
def test_propagator_error_is_the_true_integration_error(omega_tau):
    true_error = max(
        np.abs(u - oracle(omega_tau)).max()
        for u, oracle in zip(time_ordered_propagator(omega_tau, 1024),
                             (closed_form_u, closed_form_v)))
    result = suite_propagator_error(omega_tau, 1024)
    assert result.max_residual == pytest.approx(true_error, rel=1e-6)


def test_a_fresh_verify_builds_each_distinct_pair_once(fresh_builds):
    # 14 calls for a midpoint pair: the unitarity ladder (2, 7, 64, 1024, 65536), the
    # propagator_error pair (1024), the convergence ladder (8 ... 512) and
    # the symmetry suite's engine (1024); 11 of them are distinct
    run_all_suites(default_params(), seed=401, samples=20, grid_points=(9, 9))
    info = fresh_builds.cache_info()
    assert (info.misses, info.hits) == (11, 3)


def test_a_repeated_verify_builds_nothing(fresh_builds, capsys):
    args = ["verify", "--seed", "401", "--samples", "20",
            "--grid-alpha-points", "9", "--grid-phi-points", "9"]
    assert main(args) == 0
    first = capsys.readouterr().out
    misses = fresh_builds.cache_info().misses
    assert main(args) == 0
    assert fresh_builds.cache_info().misses == misses
    assert capsys.readouterr().out == first
