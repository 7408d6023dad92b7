"""Invariant suites behind the ``verify`` command.

Each suite draws its own seeded samples, reports the worst residual it saw
and whether that stayed inside tolerance.  The suites are the same physics
checks the test suite runs, packaged for the command line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cycle import CHECKS, CycleEngine, EngineParams, evaluate_samples
from .errors import ConfigurationError, failed_checks
from .measurement import TWO_PI, _basis, _measure
from .measurement import basis_kets, measure  # noqa: F401  tracer targets until ROADMAP item 4
from .propagator import (
    REFERENCE_STEPS,
    convergence_order,
    exact_drive_propagators,
    time_ordered_propagator,
)
from .qubit_algebra import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _density_checks,
    _entropy,
    hermitian_expm,
    hermiticity_residual,
    gibbs_state,
    trace_2x2,
    unitarity_residual,
)
from .sweep import GridSpec, _partner_indices, grid_sweep, symmetry_residual
from .tolerances import DEFAULT_TOLERANCES as TOL


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    max_residual: float
    tolerance: float
    detail: str = ""


def _random_hermitians(rng: np.random.Generator, n: int) -> np.ndarray:
    a, x, y, z = rng.normal(size=(4, n, 1, 1))
    return a * IDENTITY + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z


def _random_states(rng: np.random.Generator, n: int) -> np.ndarray:
    """Gibbs states of random Hamiltonians, turned by random unitaries."""
    rho = gibbs_state(_random_hermitians(rng, n), rng.uniform(0.0, 3.0, n))
    u = hermitian_expm(_random_hermitians(rng, n), rng.uniform(0.0, 3.0, n))
    return u @ rho @ u.conj().swapaxes(-1, -2)


def suite_unitarity(rng: np.random.Generator, omega_tau: float, samples: int) -> SuiteResult:
    worst = unitarity_residual(hermitian_expm(_random_hermitians(rng, samples),
                                              rng.uniform(-10.0, 10.0, samples)))
    for n in (2, 7, 64, 1024, REFERENCE_STEPS):
        worst = max(worst, unitarity_residual(time_ordered_propagator(omega_tau, n)))
    return SuiteResult("unitarity", worst <= TOL.unitarity, worst, TOL.unitarity)


def suite_propagator_error(omega_tau: float, steps: int) -> SuiteResult:
    # conservative a-priori bound for the midpoint product on this drive
    bound = TOL.propagator_error / steps**2
    error = time_ordered_propagator(omega_tau, steps) - exact_drive_propagators([omega_tau])[0]
    worst = float(np.abs(error).max())
    return SuiteResult("propagator_error", worst <= bound, worst, bound,
                       detail=f"steps={steps} vs the exact propagator")


def suite_convergence(omega_tau: float) -> SuiteResult:
    orders = convergence_order(omega_tau, [8, 16, 32, 64, 128, 256, 512])
    if np.isnan(orders).any():
        return SuiteResult("convergence_order", False, float("nan"), TOL.convergence_order,
                           detail="order indeterminate (errors at floor)")
    worst = float(np.abs(orders - 2.0).max())
    return SuiteResult("convergence_order", worst <= TOL.convergence_order, worst,
                       TOL.convergence_order, detail="|order - 2| on both segments")


def suite_measurement_channel(
    rng: np.random.Generator, samples: int = 400, rehermitize: bool = True
) -> SuiteResult:
    """Idempotence, trace preservation, entropy non-decrease and exact
    Hermiticity of the dephasing output.

    The symmetrized update makes the output Hermitian to the last bit, so
    the Hermiticity check runs at tolerance zero; it is what the
    fault-injection hook (skipping the re-Hermitization) trips.  A failed
    check of the basis, the density matrices or either channel pass fails
    it instead, reporting the first failed check's residual and bound.
    """
    rho = _random_states(rng, samples)
    basis, basis_checks = _basis(rng.uniform(0.0, math.pi, samples),
                                 rng.uniform(0.0, TWO_PI, samples))
    post, (p1, p2), first = _measure(rho, basis, rehermitize)
    post2, _, second = _measure(post, basis, rehermitize)
    density, eigvals = _density_checks(np.array([rho, post]))
    checks = {**basis_checks, **density, **{name: (np.maximum(value, second[name][0]), bound)
                                            for name, (value, bound) in first.items()}}
    if failed := failed_checks(checks):
        name = next(iter(failed))
        return SuiteResult("measurement_channel", False, failed[name], checks[name][1],
                           f"failed: {', '.join(failed)}")
    s_rho, s_post = _entropy(*eigvals)
    worst = float(max(
        np.abs(post2 - post).max(),
        np.abs(p1 + p2 - 1.0).max(),
        np.abs(trace_2x2(post).real - 1.0).max(),
        (s_rho - s_post).clip(0.0).max(),
    ))
    exact_asym = float(hermiticity_residual(post).max())
    return SuiteResult("measurement_channel", worst <= TOL.kelvin and exact_asym == 0.0,
                       max(worst, exact_asym), TOL.kelvin,
                       "symmetrized output must be exactly Hermitian")


def _worst(values: np.ndarray, start: float) -> float:
    """Largest of ``values``, skipping NaN; ``start`` when there is none."""
    return float(np.fmax.reduce(values, initial=start))


def _sample_suite(name: str, worst: float, bound: float, eligible: int,
                  samples: int) -> SuiteResult:
    """Passes when ``worst`` is within ``bound`` and at least one of the
    ``samples`` was eligible: a suite that checked nothing does not pass."""
    if eligible == 0:
        return SuiteResult(name, False, worst, bound,
                           detail=f"no eligible sample (0 of {samples})")
    return SuiteResult(name, worst <= bound, worst, bound)


# The order of the suites that report kernel checks; ``CHECKS`` names each one's checks.
TABLE_SUITES = ("kelvin", "entropy_equalities", "analytic_vs_oracle", "efficiency_forms")


def cycle_identity_suites(rng: np.random.Generator, samples: int = 2000) -> list[SuiteResult]:
    """First law, Kelvin, entropy equalities, analytic-vs-trace residuals,
    efficiency forms and bounds, and the 1/zeta + 1/gamma inequality, all on
    one shared random parameter sample, evaluated as one batch.

    The ``TABLE_SUITES`` report their checks' worst over every sample, at their loosest bound.
    A sample with violated cycle invariants fails the first-law suite, which
    names the failed checks and reports the worst violation, and is left out
    of the last two suites; either fails with no eligible sample left.  The
    identities are exact for any unitary pair, so the samples run on the
    exact propagators; residuals do not depend on the integration error.
    """
    alpha, phi, omega_tau, beta = rng.uniform(
        [0.0, 0.0, 0.001, 0.1], [math.pi, TWO_PI, 10.0, 10.0], size=(samples, 4)).T
    batch = evaluate_samples(omega_tau, beta, alpha, phi)
    ok = batch.rows["ok"]
    rows = batch.rows[ok]
    failed = failed_checks(batch.checks)  # a failed check's worst is one of its violations
    first_law = float(np.max(np.append(batch.checks["first_law"][0][ok], [*failed.values()]),
                             initial=0.0))
    n = len(ok)
    flagged = f"{n - len(rows)} of {n} samples flagged: {', '.join(failed)}" if failed else ""
    results = [SuiteResult("first_law", first_law <= TOL.first_law and not failed, first_law,
                           TOL.first_law, flagged)]
    for suite in TABLE_SUITES:
        names = [name for name, (_, reported_by, _) in CHECKS.items() if reported_by == suite]
        worst = _worst(np.concatenate([batch.checks[name][0] for name in names]), -math.inf)
        bound = max(batch.checks[name][1] for name in names)
        results.append(SuiteResult(suite, worst <= bound, worst, bound))
    eta = rows["eta"][(rows["q_m"] > TOL.fuel) & (rows["w_ext"] > 0.0)]
    bounds = _worst(np.fmax(-eta, eta - 1.0), -math.inf)
    pr = rows[(rows["zeta"] > 1e-6) & (rows["gamma"] > 1e-6)]
    inequality = _worst(2.0 - (1.0 / pr["zeta"] + 1.0 / pr["gamma"]), -math.inf)
    return results + [
        _sample_suite("efficiency_bounds", bounds, TOL.probability, len(eta), n),
        _sample_suite("transition_inequality", inequality, TOL.transition_inequality,
                      len(pr), n),
    ]


def suite_symmetry(params: EngineParams, alpha_points: int, phi_points: int) -> SuiteResult:
    table = grid_sweep(CycleEngine(params), GridSpec(alpha_points, phi_points))
    residual = symmetry_residual(table)
    return SuiteResult("symmetry", residual <= TOL.symmetry, residual, TOL.symmetry,
                       detail=f"{alpha_points}x{phi_points} grid")


def run_all_suites(
    params: EngineParams,
    seed: int,
    samples: int = 2000,
    grid_points: tuple[int, int] = (129, 129),
    rehermitize: bool = True,
) -> list[SuiteResult]:
    if samples < 1:
        raise ConfigurationError("samples must be >= 1")
    _partner_indices(GridSpec(*grid_points))  # an even phi count fails before any suite
    rng = np.random.default_rng(seed)
    results = [
        suite_unitarity(rng, params.omega_tau, samples=min(samples, 2000)),
        suite_propagator_error(params.omega_tau, params.steps),
        suite_convergence(params.omega_tau),
        suite_measurement_channel(rng, samples=min(samples, 400),
                                  rehermitize=rehermitize),
    ]
    results.extend(cycle_identity_suites(rng, samples=samples))
    results.append(suite_symmetry(params, *grid_points))
    return results
