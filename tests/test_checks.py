"""Every invariant the node kernel tests is a flag: a fault at one node of a
sweep marks that node and no other, the sweep still writes every row, and
``run`` at the node exits 2 naming the check.  The kernel re-validates
nothing the engine has checked.

Each fault is injected through a name the kernel reaches, and is sized to
trip its own check.  A fault that cannot move its check without moving
another lists the other in ``ALSO_TRIPS``, with the reason; every other
fault trips its check only.  Every check of the registry ``CHECKS`` has a
fault, or is in ``UNTRIPPABLE`` with the reason no fault trips it at one node."""

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import qmeter.cycle
from qmeter import DEFAULT_TOLERANCES as TOL
from qmeter import GridSpec, ValidationError, grid_sweep, measurement
from qmeter.cli import main
from qmeter.cycle import CHECKS, evaluate_samples
from qmeter.errors import failed_checks, require_within

from conftest import default_params

PARAMS = default_params(steps=256)
GRID = GridSpec(alpha_points=5, phi_points=5)
NODE = 7  # alpha = pi/4, phi = pi: fuelled, eta defined, p1 - p2 = 0.33


def bump(x, node, delta):
    """x with ``delta`` added at ``node`` (an index, or ... for one node)."""
    x = np.array(x, dtype=float)
    x[node] += delta
    return x[()]


def longer_chi2(monkeypatch, node):
    # chi2 1e-13 too long: the completeness of the projectors misses by
    # 2e-13, twenty times the basis bound and far inside every other one
    real = measurement._outer

    def outer(kets):
        kets[1, node] *= 1.0 + 1e-13
        return real(kets)

    monkeypatch.setattr(measurement, "_outer", outer)


def off_probability(monkeypatch, node):
    # the outcome probabilities miss a sum of 1 by 1e-11; nothing else
    # reads them
    real = measurement.trace_2x2

    def trace(m):
        t = real(m)
        t[0, node] += 1e-11
        return t

    monkeypatch.setattr(measurement, "trace_2x2", trace)


def rotated_projectors(monkeypatch, node):
    # pi1 + E and pi2 - E with E = 1e-11 (|chi1><chi2| + h.c.): still
    # complete, Hermitian and trace-preserving to 1e-22, but the post state
    # keeps an off-diagonal element of about 1e-11 (p1 - p2)
    real = measurement._outer

    def outer(kets):
        proj = real(kets)
        chi1, chi2 = kets[0, node], kets[1, node]
        e = 1e-11 * (np.outer(chi1, chi2.conj()) + np.outer(chi2, chi1.conj()))
        proj[0, node] += e
        proj[1, node] -= e
        return proj

    monkeypatch.setattr(measurement, "_outer", outer)


def longer_chi1_overlaps(monkeypatch, node):
    # chi1 1e-11 too long in the transition probabilities only: its two
    # overlaps no longer complete those of chi2
    real = qmeter.cycle._overlap_probabilities

    def overlaps(targets, v, basis):
        kets = basis.kets.copy()
        kets[0, node] *= 1.0 + 1e-11
        return real(targets, v, dataclasses.replace(basis, kets=kets))

    monkeypatch.setattr(qmeter.cycle, "_overlap_probabilities", overlaps)


def shifted_dp4(monkeypatch, node):
    # the occupation form of eta sees dp4 off by 1e-9, the heat form does not
    real = qmeter.cycle.occupation_deltas

    def deltas(probs, beta):
        dp1, dp2, dp3, dp4 = real(probs, beta)
        return dp1, dp2, dp3, bump(dp4, node, 1e-9)

    monkeypatch.setattr(qmeter.cycle, "occupation_deltas", deltas)


def changed_rho4(change):
    """A fault replacing rho4 = (v rho3) v^dag at the node by ``change(rho4)``.

    Of the products in ``qmeter.cycle``, that last one alone has v^dag on the
    right; the others have a Hamiltonian, rho1, rho3 or u^dag there.  The CLI
    makes its duration from the pulse length and lands within an ulp of
    PARAMS', so v^dag is matched to 1e-12, far below |u - v| (2.7e-5)."""

    def fault(monkeypatch, node):
        real = qmeter.cycle.matmul_2x2
        v_dag = qmeter.cycle.time_ordered_propagator(PARAMS.omega_tau, PARAMS.steps)[1].conj().T

        def product(x, m):
            out = real(x, m)
            if m.shape == v_dag.shape and np.abs(m - v_dag).max() < 1e-12:
                out[node] = change(out[node])
            return out

        monkeypatch.setattr(qmeter.cycle, "matmul_2x2", product)

    return fault


def pure_to_the_entropies(*states):
    """A fault giving the eigenvalues 0 and 1 of a pure state, at the node, to
    the entropies of ``states`` (0 for rho3, 1 for rho4), the only readers of
    those eigenvalues; the density checks still see the states as they are."""

    def fault(monkeypatch, node):
        real = qmeter.cycle._density_checks

        def density_checks(rho):
            checks, (lo, hi) = real(rho)
            lo, hi = lo.copy(), hi.copy()
            lo[list(states), node], hi[list(states), node] = 0.0, 1.0
            return checks, (lo, hi)

        monkeypatch.setattr(qmeter.cycle, "_density_checks", density_checks)

    return fault


def off_closed_form(name, delta):
    """A fault adding ``delta`` to the closed-form ``name`` at the node, so
    that there the trace path disagrees with it and with nothing else."""

    def fault(monkeypatch, node):
        real = qmeter.cycle._analytic_energetics

        def energetics(probs, beta):
            out, checks = real(probs, beta)
            moved = bump(getattr(out, name), node, delta)
            return dataclasses.replace(out, **{name: moved}), checks

        monkeypatch.setattr(qmeter.cycle, "_analytic_energetics", energetics)

    return fault


def lower_later_entropies(monkeypatch, node):
    # s2 of the engine and s4 at the node, the entropies after the two
    # unitary strokes, 7e-11 low: each stroke's equality holds, but the
    # thermalization identity, their sum (s1 - s2) + (s3 - s4), misses by
    # 1.4e-10 at the node.  Moving s3 and s4 together would cancel in it
    real = qmeter.cycle._entropy

    def entropy(lo, hi):
        first, second = real(lo, hi)  # (s1, s2) of the engine or (s3, s4) of the nodes
        return first, bump(second, node if np.ndim(second) else ..., -7e-11)

    monkeypatch.setattr(qmeter.cycle, "_entropy", entropy)


FAULTS = {
    "basis": longer_chi2,
    "probability_sum": off_probability,
    "channel_leak": rotated_projectors,
    "completeness": longer_chi1_overlaps,
    "eta_forms": shifted_dp4,
    # a trace of 1 + 1e-11
    "density_34_trace": changed_rho4(lambda rho: rho * (1.0 + 1e-11)),
    # 1e-11 in the lower corner only, which neither the energies nor the
    # eigenvalues read
    "density_34_hermiticity": changed_rho4(lambda rho: rho + [[0.0, 0.0], [1e-11, 0.0]]),
    # plus sigma_x: still Hermitian with trace 1, and the energy against
    # sigma_z is the same, but the Bloch vector is longer than 1
    "density_34_eigenvalue_floor": changed_rho4(lambda rho: rho + [[0.0, 1.0], [1.0, 0.0]]),
    # the second stroke ends in the ground state |down><down|
    "kelvin": changed_rho4(lambda rho: np.diag([0.0, 1.0])),
    "w": off_closed_form("w", 1e-7),
    "q_m": off_closed_form("q_m", 1e-7),
    "q_t": off_closed_form("q_t", 1e-7),
    "eta": off_closed_form("eta", 1e-9),
    # s3 and s4 both read 0: ds = -s2 < 0, and in the thermalization
    # residual (s1 - s4) + (s3 - s2) the two cancel
    "entropy_decrease": pure_to_the_entropies(0, 1),
    "entropy_34": pure_to_the_entropies(1),
    "entropy_thermalization": lower_later_entropies,
}

ALSO_TRIPS = {
    # at NODE the leaked coherence moves the trace-path eta to 3.2 times the
    # bound of ``eta``, and the shifted dp4 the closed-form eta to 340 times
    "channel_leak": ["eta"],
    "eta_forms": ["eta"],
    # q_t <= 0 holds exactly on both paths, so only a rho4 purer than the
    # bath's state lifts the trace path's q_t over 0: that moves it 0.38
    # from the closed forms, and s4 off s3
    "kelvin": ["entropy_34", "entropy_thermalization", "eta", "q_t", "w"],
    # the thermalization residual is (s1 - s2) + (s3 - s4), up to roundoff
    "entropy_34": ["entropy_thermalization"],
    # a negative eigenvalue clips to 0, and its partner to 1, so s4 reads 0
    "density_34_eigenvalue_floor": ["entropy_34", "entropy_thermalization"],
}

# The checks that no fault trips at one node alone, and why.
UNTRIPPABLE = {
    "first_law": "w1 + w2 + q_m + q_t telescopes over the four energies, so a fault of "
                 "any one of them cancels in it",
    "entropy_12": "s1 and s2 are the engine's, so a fault of either reaches every node; "
                  "test_an_engine_wide_entropy_fault_flags_every_node trips it there",
}


def tripped(check):
    """The checks the fault of ``check`` trips, in sorted order."""
    return sorted([check, *ALSO_TRIPS.get(check, [])])


def run_cli(argv, capsys):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.mark.parametrize("check", FAULTS)
def test_a_fault_at_one_node_flags_it_and_the_sweep_completes(check, monkeypatch):
    FAULTS[check](monkeypatch, NODE)
    table = grid_sweep(qmeter.cycle.CycleEngine(PARAMS), GRID)
    assert table.rows.shape == (25,)
    assert np.flatnonzero(~table.rows["ok"]).tolist() == [NODE]
    engine = qmeter.cycle.CycleEngine(PARAMS)
    monkeypatch.undo()
    FAULTS[check](monkeypatch, ...)
    row = table.rows[NODE]
    _, violations = engine.evaluate_flagged(row["alpha"], row["phi"])
    assert sorted(violations) == tripped(check)


@pytest.mark.parametrize("check", FAULTS)
def test_a_fault_at_one_node_is_a_row_flag_in_sweep_and_exit_2_in_run(
        check, monkeypatch, tmp_path, capsys):
    FAULTS[check](monkeypatch, NODE)
    rc, _, err = run_cli(["sweep", "--grid-alpha-points", "5", "--grid-phi-points", "5",
                          "--steps", "256", "--output", str(tmp_path)], capsys)
    assert rc == 0, err
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 1 + 25
    assert json.loads((tmp_path / "summary.json").read_text())["flagged_rows"] == 1

    monkeypatch.undo()
    FAULTS[check](monkeypatch, ...)
    alpha, phi = GRID.alphas()[NODE // 5], GRID.phis()[NODE % 5]
    rc, out, err = run_cli(["run", "--alpha-rad", str(alpha), "--phi-rad", str(phi),
                            "--steps", "256"], capsys)
    assert rc == 2 and out == ""
    assert err.startswith(
        f"invariant violation: cycle invariants violated: {', '.join(tripped(check))}\n")
    for name in tripped(check):
        assert f"  {name}: " in err


def test_the_rho4_fault_changes_one_product_of_the_kernel(monkeypatch):
    # not rho2, made by the same two products at engine setup, nor v rho3
    changes = []
    changed_rho4(lambda rho: changes.append(rho) or rho)(monkeypatch, NODE)
    engine = qmeter.cycle.CycleEngine(PARAMS)
    assert changes == []
    grid_sweep(engine, GRID)
    assert len(changes) == 1
    monkeypatch.undo()
    changed_rho4(lambda rho: changes.append(rho) or rho)(monkeypatch, ...)
    record, _ = qmeter.cycle.CycleEngine(PARAMS).evaluate_flagged(1.39, 2.05)
    assert len(changes) == 2 and np.array_equal(changes[1], record.rho4)


def test_an_engine_wide_entropy_fault_flags_every_node():
    # s2 moved by 1e-9 on one engine: entropy_12 and, through ds = s3 - s2,
    # entropy_thermalization read ten times their bound at every node
    engine = qmeter.cycle.CycleEngine(PARAMS)
    engine.s2 = engine.s2 + 1e-9
    _, violations = engine.evaluate_flagged(1.39, 2.05)
    assert sorted(violations) == ["entropy_12", "entropy_thermalization"]
    assert not grid_sweep(engine, GRID).rows["ok"].any()


def test_every_check_has_a_fault_or_a_reason_it_has_none():
    assert set(FAULTS).isdisjoint(UNTRIPPABLE)
    assert sorted([*FAULTS, *UNTRIPPABLE]) == sorted(CHECKS)
    assert {name for names in ALSO_TRIPS.values() for name in names} <= set(CHECKS)


def test_the_kernel_fills_the_registry_in_its_order():
    record, violations = qmeter.cycle.CycleEngine(PARAMS).evaluate_flagged(1.39, 2.05)
    batch = evaluate_samples([0.3, 2.0, 7.0], [0.0, 1.0, 5.0], [0.0, 1.0, 2.5], [0.1, 3.0, 6.0])
    assert violations == {}
    tolerances = dataclasses.asdict(TOL)
    for table in (record, batch):
        assert tuple(table.checks) == tuple(CHECKS)
        for name, (field, _, _) in CHECKS.items():
            bound = table.checks[name][1]
            if field is None:  # a sub-table check: its core gives the bound
                assert bound in tolerances.values(), name
            else:
                assert bound == tolerances[field], name
    subtables = {name for name, (field, _, _) in CHECKS.items() if field is None}
    assert subtables == {"basis", "probability_sum", "channel_leak", "completeness", "eta_forms",
                         "density_34_hermiticity", "density_34_trace",
                         "density_34_eigenvalue_floor"}


def test_the_readme_names_every_check():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert [name for name in CHECKS if f"`{name}`" not in readme] == []


def test_residuals_are_a_view_of_the_check_table(capsys):
    names = {"first_law", "w", "q_m", "q_t", "eta", "entropy_12", "entropy_34",
             "entropy_thermalization"}
    record, violations = qmeter.cycle.CycleEngine(PARAMS).evaluate_flagged(1.39, 2.05)
    batch = evaluate_samples([0.3, 2.0, 7.0], [0.0, 1.0, 5.0], [0.0, 1.0, 2.5], [0.1, 3.0, 6.0])
    assert violations == {}
    tolerances = set(dataclasses.asdict(TOL).values())
    assert {name for name, (_, _, shown) in CHECKS.items() if shown} == names
    for table in (record, batch):
        assert set(table.residuals) == names and len(table.checks) == 18
        for name, value in table.residuals.items():
            assert np.asarray(value).tobytes() == np.asarray(table.checks[name][0]).tobytes()
        assert {bound for _, bound in table.checks.values()} <= tolerances
        bounds = {name: table.checks[name][1]
                  for name in ("w", "q_m", "q_t", "eta", "entropy_thermalization")}
        assert bounds == {"w": TOL.analytic, "q_m": TOL.analytic, "q_t": TOL.analytic,
                          "eta": TOL.eta_forms, "entropy_thermalization": TOL.entropy_equality}
    rc, out, _ = run_cli(["run", "--alpha-rad", "1.39", "--phi-rad", "2.05", "--steps", "256"],
                         capsys)
    printed = {line.split("=")[0] for line in out.splitlines() if line.startswith("residual_")}
    assert rc == 0 and printed == {f"residual_{name}" for name in names} | {"residual_max"}


def test_require_within_raises_on_the_first_failed_entry_and_on_nan():
    holds = {"a": (np.array([0.0, 1.0]), 1.0), "b": (np.float64(0.5), 1.0)}
    assert failed_checks(holds) == {}
    require_within(holds, "x")
    failed = failed_checks({"c": (2.0, 1.0), "a": (0.5, 1.0),
                            "b": (np.array([0.0, math.nan]), 1e-12),
                            "d": (np.array([3.0, 0.5, 4.0]), 1.0), "e": (np.array([1.0]), 1.0)})
    assert list(failed) == ["c", "b", "d"]  # table order, each with its worst residual
    assert failed["c"] == 2.0 and math.isnan(failed["b"]) and failed["d"] == 4.0
    assert all(type(value) is float for value in failed.values())
    with pytest.raises(ValidationError, match=r"^x: b residual nan > 1\.0e-12$"):
        require_within({"a": (0.5, 1.0), "b": (np.array([0.0, math.nan]), 1e-12),
                        "c": (2.0, 1.0)}, "x")
    with pytest.raises(ValidationError, match="^x: c residual 2.000e"):
        require_within({"c": (2.0, 1.0), "b": (math.nan, 1.0)}, "x")


def test_a_nan_residual_flags_its_node(monkeypatch):
    real = qmeter.cycle._overlap_probabilities

    def nan_chi1(targets, v, basis):
        kets = basis.kets.copy()
        kets[0, 2] = math.nan
        return real(targets, v, dataclasses.replace(basis, kets=kets))

    monkeypatch.setattr(qmeter.cycle, "_overlap_probabilities", nan_chi1)
    engine = qmeter.cycle.CycleEngine(PARAMS)
    rows = engine.evaluate_nodes([0.5, 1.0, 1.5, 2.0], 1.0)
    assert rows["ok"].tolist() == [True, True, False, True]
    record = engine._evaluate_block(np.array([0.5, 1.0, 1.5]), np.ones(3), rows[:3].copy())
    value, bound = record.checks["completeness"]
    assert math.isnan(value[2]) and value[:2].max() <= bound


def counting_density_checks(monkeypatch) -> list:
    """Count calls of require_density_matrix from every qmeter module."""
    from qmeter import qubit_algebra

    real = qubit_algebra.require_density_matrix
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("qmeter") and getattr(module, "require_density_matrix", None) is real:
            monkeypatch.setattr(module, "require_density_matrix", counted)
    return calls


def test_the_engine_checks_rho2_once_and_the_sweep_checks_nothing_again(monkeypatch):
    calls = counting_density_checks(monkeypatch)
    engine = qmeter.cycle.CycleEngine(default_params())
    assert len(calls) == 1
    grid_sweep(engine, GridSpec())
    assert len(calls) == 1
