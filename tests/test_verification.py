"""The batched suites against the per-sample loops they replace, and the
propagator-error suite against the exact oracle."""

import dataclasses
import math
import re

import numpy as np
import pytest

import qmeter.cycle
import qmeter.propagator
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
from qmeter.sweep import GridSpec
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


# the check-table entries each of these suites reports, in table order, and
# the suite's bound
TABLE_SUITES = {
    "kelvin": (("kelvin",), TOL.kelvin),
    "entropy_equalities": (("entropy_decrease", "entropy_12", "entropy_34",
                            "entropy_thermalization"), TOL.entropy_equality),
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
    """Each line's residual from one engine and one evaluate_flagged call
    per sample.  A line reports the first of its checks, in table order,
    whose worst over the samples is over its bound, else the worst of its
    checks.  Every sample feeds the kernel checks; a sample with violations
    makes the first-law line read every check, and feeds nothing to the
    efficiency bounds and the inequality."""
    checks = {}  # each check's worst over every sample, and its bound
    flagged = False
    bounds = inequality = -math.inf
    for _ in range(samples):
        alpha = rng.uniform(0.0, math.pi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        omega_tau = rng.uniform(0.001, 10.0)
        beta = rng.uniform(0.1, 10.0)
        engine = CycleEngine(EngineParams(omega_tau=omega_tau, beta_hbar_omega=beta),
                             propagators=exact_drive_propagators([omega_tau])[0])
        record, violations = engine.evaluate_flagged(alpha, phi)
        for name, (value, bound) in record.checks.items():
            checks[name] = (max(checks.get(name, (-math.inf,))[0], float(value)), bound)
        if violations:
            flagged = True
            continue
        if record.q_m > TOL.fuel and record.w < 0.0:
            bounds = max(bounds, -record.eta, record.eta - 1.0)
        if record.probs.zeta > 1e-6 and record.probs.gamma > 1e-6:
            inequality = max(inequality, 2.0 - (1.0 / record.probs.zeta + 1.0 / record.probs.gamma))

    def line(names):
        failed = [checks[name][0] for name in names if not checks[name][0] <= checks[name][1]]
        return failed[0] if failed else max(checks[name][0] for name in names)

    return {"first_law": line(checks) if flagged else checks["first_law"][0],
            **{suite: line(names) for suite, (names, _) in TABLE_SUITES.items()},
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
    failing = []
    for suite, (names, bound) in TABLE_SUITES.items():
        reported = [name for name, (_, by, _) in qmeter.cycle.CHECKS.items() if by == suite]
        assert reported == list(names), suite
        failed = [name for name in names
                  if not batch.checks[name][0].max() <= batch.checks[name][1]]
        if failed:  # the first failed check, at its own bound
            failing.append(suite)
            first = failed[0]
            assert results[suite].max_residual == batch.checks[first][0].max(), suite
            assert results[suite].tolerance == batch.checks[first][1], suite
            assert not results[suite].passed, suite
            assert results[suite].detail == (f"failed: {', '.join(failed)}"
                                             if len(names) > 1 else ""), suite
            continue
        worst = max(value for name in names for value in batch.checks[name][0].tolist()
                    if not math.isnan(value))
        assert results[suite].max_residual == worst, suite
        assert results[suite].tolerance == bound, suite
        assert results[suite].passed == (worst <= bound), suite
    assert bool(failing) is faulty, failing


def test_suites_with_no_eligible_sample_fail(monkeypatch):
    # a pure post-measurement state lowers the entropy at every node, so
    # every sample is flagged: the suites of kernel checks still read every
    # sample, and the efficiency bounds and the inequality have none left
    purify_measurement(monkeypatch, below=math.inf)
    results = {r.name: r for r in cycle_identity_suites(np.random.default_rng(3), samples=20)}
    assert not results["first_law"].passed
    assert (results["first_law"].detail
            == "20 of 20 samples flagged: w, q_m, q_t, eta, entropy_decrease")
    # the first failed check in table order, w, at its own bound
    assert results["first_law"].tolerance == TOL.analytic
    assert [name for name, r in results.items() if r.passed] == ["kelvin"]
    assert -1e-2 < results["kelvin"].max_residual < 0.0
    for name, failed, bound in (("entropy_equalities", "entropy_decrease", TOL.entropy_decrease),
                                ("analytic_vs_oracle", "w, q_m, q_t", TOL.analytic),
                                ("efficiency_forms", "", TOL.eta_forms)):
        assert results[name].max_residual > 0.1, name
        assert results[name].tolerance == bound, name
        assert results[name].detail == (f"failed: {failed}" if failed else ""), name
    for name in ("efficiency_bounds", "transition_inequality"):
        assert results[name].detail == "no eligible sample (0 of 20)", name


def shift_eta(monkeypatch):
    """Move the closed-form eta by 1e-11: that trips the eta check (bound
    1e-12) with a violation inside the first-law bound (1e-10)."""
    real = qmeter.cycle._analytic_energetics

    def energetics(probs, beta):
        out, checks = real(probs, beta)
        return dataclasses.replace(out, eta=out.eta + 1e-11), checks

    monkeypatch.setattr(qmeter.cycle, "_analytic_energetics", energetics)


def one_entropy_decrease(monkeypatch):
    """Read the first sample's entropy_decrease as 5e-11, over its own bound
    (1e-12) and inside its suite's loosest (1e-10), and flag the sample, as
    the kernel would."""
    real = qmeter.verification.evaluate_samples

    def evaluate(*args):
        batch = real(*args)
        batch.checks["entropy_decrease"][0][0] = 5e-11
        batch.rows["ok"][0] = False
        return batch

    monkeypatch.setattr(qmeter.verification, "evaluate_samples", evaluate)


def test_a_flagged_sample_fails_verify_below_the_first_law_bound(monkeypatch):
    shift_eta(monkeypatch)
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
    """Residual, tolerance and verdict of the channel suite from one state,
    one basis and two ``measure`` calls per sample: the first term over its
    bound at that bound, else the worst term at the ``kelvin`` bound."""
    gibbs_h, betas = _random_hermitians(rng, samples), rng.uniform(0.0, 3.0, samples)
    turn_h, turn_t = _random_hermitians(rng, samples), rng.uniform(0.0, 3.0, samples)
    alphas = rng.uniform(0.0, math.pi, samples)
    phis = rng.uniform(0.0, 2.0 * math.pi, samples)
    # idempotence, probability sum, trace, entropy decrease, exact asymmetry
    worst = np.zeros(5)
    for k in range(samples):
        u = hermitian_expm(turn_h[k], turn_t[k])
        rho = u @ gibbs_state(gibbs_h[k], betas[k]) @ u.conj().T
        basis = basis_kets(alphas[k], phis[k])
        post, probs = measure(rho, basis, rehermitize=rehermitize)
        post2, _ = measure(post, basis, rehermitize=rehermitize)
        worst = np.maximum(worst, [np.abs(post2 - post).max(), abs(probs[0] + probs[1] - 1.0),
                                   abs((post[0, 0] + post[1, 1]).real - 1.0),
                                   von_neumann_entropy(rho) - von_neumann_entropy(post),
                                   hermiticity_residual(post)])
    for value, bound in zip(worst, [TOL.kelvin] * 4 + [0.0]):
        if not value <= bound:
            return value, bound, False
    return worst.max(), TOL.kelvin, True


@pytest.mark.parametrize("rehermitize", [True, False])
def test_stacked_channel_suite_matches_the_per_sample_loop(rehermitize):
    result = suite_measurement_channel(np.random.default_rng(3), SAMPLES, rehermitize)
    worst, tolerance, passed = reference_channel(np.random.default_rng(3), SAMPLES, rehermitize)
    assert result.max_residual == worst
    assert result.tolerance == tolerance
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


PURIFIED = {"first_law": TOL.analytic, "kelvin": TOL.kelvin,
            "entropy_equalities": TOL.entropy_decrease, "analytic_vs_oracle": TOL.analytic,
            "efficiency_forms": TOL.eta_forms}

# a fault, the verify arguments it adds, and the bound of the check each failed line reports
FAULTS = {
    "purify_some": (lambda mp: purify_measurement(mp, below=1.0), [],
                    {**PURIFIED, "symmetry": TOL.symmetry}),
    "purify_all": (lambda mp: purify_measurement(mp, below=math.inf), [],
                   {**PURIFIED, "efficiency_bounds": TOL.probability,
                    "transition_inequality": TOL.transition_inequality}),
    "trace": (lambda mp: mp.setattr(qmeter.verification, "_measure", broken_channel("trace")),
              [], {"measurement_channel": TOL.trace}),
    "channel_leak": (lambda mp: mp.setattr(qmeter.verification, "_measure",
                                           broken_channel("channel_leak")),
                     [], {"measurement_channel": TOL.channel}),
    "skip_rehermitize": (lambda mp: None, ["--inject-fault", "skip-rehermitize"],
                         {"measurement_channel": 0.0}),
    "eta_shift": (shift_eta, [], {"first_law": TOL.eta_forms, "efficiency_forms": TOL.eta_forms}),
    "long_drive": (lambda mp: None, ["--tau-us", "1e5"],
                   {"propagator_error": TOL.propagator_error / 1024**2}),
    "entropy_decrease": (one_entropy_decrease, [], {"first_law": TOL.entropy_decrease,
                                                    "entropy_equalities": TOL.entropy_decrease}),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_every_fail_line_reports_a_residual_over_its_tolerance(monkeypatch, capsys, fault):
    setup, args, expected = FAULTS[fault]
    setup(monkeypatch)
    rc = main(["verify", "--samples", "200", "--grid-alpha-points", "9",
               "--grid-phi-points", "9", *args])
    lines = [re.fullmatch(r"\[FAIL\] (\w+): max residual (\S+) \(tol (\S+)\)(?: - (.*))?", line)
             for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
    assert rc == 2
    for line in lines:
        name, residual, tol, detail = line.groups()
        assert (float(residual) > float(tol) or residual == "nan"
                or (detail or "").startswith("no eligible sample")), line.group(0)
    # each failed line prints the bound of the check it reports
    assert {line[1]: float(line[3]) for line in lines} == {
        name: float(f"{bound:.1e}") for name, bound in expected.items()}


@pytest.mark.parametrize("omega_tau", [DEFAULT_OMEGA_TAU, 1.0, 9.75, 152.0])
def test_propagator_error_is_the_true_integration_error(omega_tau):
    true_error = max(
        np.abs(u - oracle(omega_tau)).max()
        for u, oracle in zip(time_ordered_propagator(omega_tau, 1024),
                             (closed_form_u, closed_form_v)))
    result = suite_propagator_error(omega_tau, 1024)
    assert result.max_residual == pytest.approx(true_error, rel=1e-6)


def unprojected_product(factors, leaves=None):
    """``propagator._ordered_product``'s tree without its Newton-Schulz step."""
    size = leaves or 1 << (factors.shape[-3] - 1).bit_length()
    pad = np.broadcast_to(IDENTITY, factors.shape[:-3] + (size - factors.shape[-3], 2, 2))
    factors = np.concatenate([factors, pad], axis=-3)
    while factors.shape[-3] > 1:
        factors = factors[..., 1::2, :, :] @ factors[..., 0::2, :, :]
    return factors[..., 0, :, :]


def test_the_unitarity_ladder_sees_an_unprojected_long_build(monkeypatch, fresh_builds):
    # an unprojected product drifts off unitarity about linearly in its step
    # count; at the default drive it stays under the bound up to 1024 steps,
    # so the reference build is the rung that has to fail
    monkeypatch.setattr(qmeter.propagator, "_ordered_product", unprojected_product)
    result = suite_unitarity(np.random.default_rng(3), DEFAULT_OMEGA_TAU, SAMPLES)
    assert not result.passed
    assert result.max_residual > TOL.unitarity


def test_a_fresh_verify_builds_each_distinct_pair_once(fresh_builds):
    # 14 calls for a midpoint pair: the unitarity ladder (2, 7, 64, 1024, 65536), the
    # propagator_error pair (1024), the convergence ladder (8 ... 512) and
    # the symmetry suite's engine (1024); 11 of them are distinct
    run_all_suites(default_params(), seed=401, samples=20, grid=GridSpec(9, 9))
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
