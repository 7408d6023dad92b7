"""Invariant suites behind the ``verify`` command.

Each suite draws its own seeded samples and hands its checks, as a table of
``name: (residual, bound)``, to one reader that makes its line.  The suites
are the same physics checks the test suite runs, packaged for the command line.
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
    _dagger,
    _density_checks,
    _entropy,
    hermitian_expm,
    hermiticity_residual,
    gibbs_state,
    matmul_2x2,
    trace_2x2,
    unitarity_residual,
)
from .sweep import GridSpec, _partner_indices, grid_sweep, symmetry_residual
from .tolerances import DEFAULT_TOLERANCES as TOL

# verify's defaults: samples (also unitarity's cap), the channel's cap, the symmetry grid
SAMPLES = 2000
CHANNEL_SAMPLES = 400
SYMMETRY_GRID = GridSpec(129, 129)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    max_residual: float
    tolerance: float
    detail: str = ""


def _line(name: str, checks: dict, detail: str = "", failed_as: str = "failed") -> SuiteResult:
    """The ``verify`` line of the check table ``checks``, ``name: (residual, bound)``.

    A check that ``failed_checks`` returns fails the line, which reports the
    first failed check's worst residual at that check's own bound; a table
    of more than one check names its failed checks after ``failed_as``, in
    place of ``detail``.  Otherwise the line passes with the worst residual
    and the loosest bound.
    """
    if failed := failed_checks(checks):
        first = next(iter(failed))
        if len(checks) > 1:
            detail = f"{failed_as}: {', '.join(failed)}"
        return SuiteResult(name, False, failed[first], checks[first][1], detail)
    worst = max(float(np.max(residual)) for residual, _ in checks.values())
    return SuiteResult(name, True, worst, max(bound for _, bound in checks.values()), detail)


def _random_hermitians(rng: np.random.Generator, n: int) -> np.ndarray:
    a, x, y, z = rng.normal(size=(4, n, 1, 1))
    return a * IDENTITY + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z


def _random_states(rng: np.random.Generator, n: int) -> np.ndarray:
    """Gibbs states of random Hamiltonians, turned by random unitaries."""
    rho = gibbs_state(_random_hermitians(rng, n), rng.uniform(0.0, 3.0, n))
    u = hermitian_expm(_random_hermitians(rng, n), rng.uniform(0.0, 3.0, n))
    return matmul_2x2(matmul_2x2(u, rho), _dagger(u))


def suite_unitarity(rng: np.random.Generator, omega_tau: float, samples: int) -> SuiteResult:
    exps = hermitian_expm(_random_hermitians(rng, samples), rng.uniform(-10.0, 10.0, samples))
    pairs = [time_ordered_propagator(omega_tau, n) for n in (2, 7, 64, 1024, REFERENCE_STEPS)]
    residuals = np.array([unitarity_residual(u) for u in (exps, *pairs)])
    return _line("unitarity", {"unitarity": (residuals, TOL.unitarity)})


def suite_propagator_error(omega_tau: float, steps: int) -> SuiteResult:
    # conservative a-priori bound for the midpoint product on this drive
    bound = TOL.propagator_error / steps**2
    error = time_ordered_propagator(omega_tau, steps) - exact_drive_propagators([omega_tau])[0]
    return _line("propagator_error", {"propagator_error": (np.abs(error), bound)},
                 detail=f"steps={steps} vs the exact propagator")


def suite_convergence(omega_tau: float) -> SuiteResult:
    orders = convergence_order(omega_tau, [8, 16, 32, 64, 128, 256, 512])
    detail = ("order indeterminate (errors at floor)" if np.isnan(orders).any()
              else "|order - 2| on both segments")
    return _line("convergence_order",
                 {"convergence_order": (np.abs(orders - 2.0), TOL.convergence_order)}, detail)


def suite_measurement_channel(
    rng: np.random.Generator, samples: int = CHANNEL_SAMPLES, rehermitize: bool = True
) -> SuiteResult:
    """Idempotence, trace preservation, entropy non-decrease and exact
    Hermiticity of the dephasing output.

    The symmetrized update makes the output Hermitian to the last bit, so
    the Hermiticity check runs at tolerance zero; it is what the
    fault-injection hook (skipping the re-Hermitization) trips.  The checks
    of the basis, the density matrices and both channel passes come first:
    a failed one fails the suite before the output's terms are read.
    """
    rho = _random_states(rng, samples)
    basis, basis_checks = _basis(rng.uniform(0.0, math.pi, samples),
                                 rng.uniform(0.0, TWO_PI, samples))
    post, (p1, p2), first = _measure(rho, basis, rehermitize)
    post2, _, second = _measure(post, basis, rehermitize)
    density, eigvals = _density_checks(np.array([rho, post]))
    checks = {**basis_checks, **density, **{name: (np.maximum(value, second[name][0]), bound)
                                            for name, (value, bound) in first.items()}}
    if failed_checks(checks):
        return _line("measurement_channel", checks)
    s_rho, s_post = _entropy(*eigvals)
    return _line("measurement_channel", {
        "idempotence": (np.abs(post2 - post), TOL.kelvin),
        "probabilities": (np.abs(p1 + p2 - 1.0), TOL.kelvin),
        "output_trace": (np.abs(trace_2x2(post).real - 1.0), TOL.kelvin),
        "entropy_decrease": (s_rho - s_post, TOL.kelvin),
        "exact_hermiticity": (hermiticity_residual(post), 0.0),
    }, "symmetrized output must be exactly Hermitian")


def _sample_suite(name: str, residuals: np.ndarray, bound: float, samples: int) -> SuiteResult:
    """The line of ``residuals``, one per eligible sample of ``samples``: a
    suite with no eligible sample fails, since it checked nothing."""
    if len(residuals) == 0:
        return SuiteResult(name, False, -math.inf, bound,
                           detail=f"no eligible sample (0 of {samples})")
    return _line(name, {name: (residuals, bound)})


# The order of the suites that report kernel checks; ``CHECKS`` names each one's checks.
TABLE_SUITES = ("kelvin", "entropy_equalities", "analytic_vs_oracle", "efficiency_forms")


def cycle_identity_suites(rng: np.random.Generator, samples: int = SAMPLES) -> list[SuiteResult]:
    """First law, Kelvin, entropy equalities, analytic-vs-trace residuals,
    efficiency forms and bounds, and the 1/zeta + 1/gamma inequality, all on
    one shared random parameter sample, evaluated as one batch.

    The ``TABLE_SUITES`` read their checks over every sample.  A sample with
    violated cycle invariants fails the first-law suite, which then reads
    the whole check table and names the failed checks, and is left out of
    the last two suites; either fails with no eligible sample left.  The
    identities are exact for any unitary pair, so the samples run on the
    exact propagators; residuals do not depend on the integration error.
    """
    alpha, phi, omega_tau, beta = rng.uniform(
        [0.0, 0.0, 0.001, 0.1], [math.pi, TWO_PI, 10.0, 10.0], size=(samples, 4)).T
    batch = evaluate_samples(omega_tau, beta, alpha, phi)
    ok = batch.rows["ok"]
    rows = batch.rows[ok]
    n = len(ok)
    first_law = {"first_law": batch.checks["first_law"]} if ok.all() else batch.checks
    results = [_line("first_law", first_law, failed_as=f"{n - len(rows)} of {n} samples flagged")]
    for suite in TABLE_SUITES:
        results.append(_line(suite, {name: batch.checks[name]
                                     for name, (_, by, _) in CHECKS.items() if by == suite}))
    eta = rows["eta"][(rows["q_m"] > TOL.fuel) & (rows["w_ext"] > 0.0)]
    pr = rows[(rows["zeta"] > 1e-6) & (rows["gamma"] > 1e-6)]
    return results + [
        _sample_suite("efficiency_bounds", np.fmax(-eta, eta - 1.0), TOL.probability, n),
        _sample_suite("transition_inequality", 2.0 - (1.0 / pr["zeta"] + 1.0 / pr["gamma"]),
                      TOL.transition_inequality, n),
    ]


def suite_symmetry(params: EngineParams, grid: GridSpec) -> SuiteResult:
    table = grid_sweep(CycleEngine(params), grid)
    return _line("symmetry", {"symmetry": (symmetry_residual(table), TOL.symmetry)},
                 detail=f"{grid.alpha_points}x{grid.phi_points} grid")


def run_all_suites(params: EngineParams, seed: int, samples: int = SAMPLES,
                   grid: GridSpec = SYMMETRY_GRID, rehermitize: bool = True) -> list[SuiteResult]:
    if samples < 1:
        raise ConfigurationError("samples must be >= 1")
    _partner_indices(grid)  # an even phi count fails before any suite
    rng = np.random.default_rng(seed)
    results = [
        suite_unitarity(rng, params.omega_tau, samples=min(samples, SAMPLES)),
        suite_propagator_error(params.omega_tau, params.steps),
        suite_convergence(params.omega_tau),
        suite_measurement_channel(rng, samples=min(samples, CHANNEL_SAMPLES),
                                  rehermitize=rehermitize),
    ]
    results.extend(cycle_identity_suites(rng, samples=samples))
    results.append(suite_symmetry(params, grid))
    return results
