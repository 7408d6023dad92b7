import argparse
import inspect
import json
import math
import os
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeter.blocks import NODE_BLOCK
from qmeter.cli import (
    BETA_TOKEN,
    beta_hbar_omega,
    build_config,
    build_parser,
    main,
    omega_tau,
    parse_config_file,
)
from qmeter.csvfmt import CSV_HEADER, csv_lines, fmt, write_rows_csv
from qmeter.errors import ConfigurationError
from qmeter.propagator import MAX_STEPS
from qmeter.sweep import SLICE_POINTS, GridSpec, Objective, slice_profile
from qmeter.verification import (
    CHANNEL_SAMPLES,
    SAMPLES,
    SYMMETRY_GRID,
    run_all_suites,
    suite_measurement_channel,
)

from conftest import DEFAULT_OMEGA_TAU


def run_cli(args, capsys):
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_record(out):
    pairs = dict(line.split("=", 1) for line in out.strip().splitlines())
    return pairs


def test_unit_conversion_matches_stated_constant():
    defaults = build_parser().parse_args(["run"])
    assert omega_tau(defaults) == pytest.approx(0.015193, abs=1e-6)
    assert omega_tau(defaults) == pytest.approx(DEFAULT_OMEGA_TAU, abs=1e-15)
    assert beta_hbar_omega(defaults) == 1.0


def test_beta_explicit_value_scales_with_gap():
    args = build_parser().parse_args(["run", "--hbar-omega-pev", "2", "--beta", "0.75"])
    assert beta_hbar_omega(args) == 1.5


def test_run_commuting_point(capsys):
    rc, out, _ = run_cli(["run", "--alpha-rad", str(math.pi / 2), "--phi-rad", "0.0"],
                         capsys)
    assert rc == 0
    record = parse_record(out)
    assert abs(float(record["q_m"])) <= 1e-12
    assert record["eta"] == "undefined"


def test_run_requires_angles(capsys):
    rc, _, err = run_cli(["run"], capsys)
    assert rc == 1
    assert "alpha_rad" in err


def test_run_rejects_negative_tau(capsys):
    rc, _, err = run_cli(["run", "--alpha-rad", "1.0", "--phi-rad", "0.0",
                          "--tau-us", "-1"], capsys)
    assert rc == 1
    assert "omega_tau must be finite and > 0" in err


BAD_INPUTS = {
    "tau-negative": ["--tau-us", "-1"],
    "tau-zero": ["--tau-us", "0"],
    "tau-nan": ["--tau-us", "nan"],
    "beta-negative": ["--beta", "-1"],
    "beta-nan": ["--beta", "nan"],
    "beta-token": ["--beta", "bogus"],
    "gap-zero": ["--hbar-omega-pev", "0"],
    # a negative gap times a negative duration is a positive omega_tau
    "gap-and-tau-negative": ["--hbar-omega-pev", "-1", "--tau-us", "-1"],
}
BAD_INPUT_COMMANDS = {
    "run": ["run", "--alpha-rad", "1.0", "--phi-rad", "2.0"],
    "sweep": ["sweep", "--output", "{tmp}/out"],
    "slice": ["slice", "--fixed-phi", "1", "--output", "{tmp}/slice.csv"],
    "verify": ["verify"],
}


@pytest.mark.parametrize("command", BAD_INPUT_COMMANDS)
@pytest.mark.parametrize("bad", BAD_INPUTS)
def test_bad_physical_inputs_fail_before_any_work(tmp_path, capsys, monkeypatch, command, bad):
    import qmeter.cli

    def no_work(*args, **kwargs):
        raise AssertionError("ran before the input checks")

    for name in ("CycleEngine", "grid_sweep", "slice_profile", "run_all_suites"):
        monkeypatch.setattr(qmeter.cli, name, no_work)
    args = [arg.format(tmp=tmp_path) for arg in BAD_INPUT_COMMANDS[command]]
    rc, out, err = run_cli(args + BAD_INPUTS[bad], capsys)
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_unknown_flag_is_config_error(capsys):
    rc, _, err = run_cli(["run", "--no-such-flag", "1"], capsys)
    assert rc == 1


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "engine.cfg"
    cfg.write_text(
        "# engine configuration\n"
        "hbar_omega_pev = 1.0\n"
        "tau_us = 10.0\n"
        f"beta = {BETA_TOKEN}\n"
        "alpha_rad = 1.0\n"
        "phi_rad = 2.0\n"
        "steps = 256\n"
    )
    rc, out, _ = run_cli(["run", "--config", str(cfg), "--phi-rad", "2.5"], capsys)
    assert rc == 0
    record = parse_record(out)
    assert float(record["alpha"]) == 1.0
    assert float(record["phi"]) == 2.5  # flag overrides file
    assert record["steps"] == "256"


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("omega = 3\n")
    with pytest.raises(ConfigurationError, match="unknown key 'omega'"):
        parse_config_file(cfg, "run")


def test_sweep_writes_csv_and_summary(tmp_path, capsys):
    rc, out, _ = run_cli([
        "sweep", "--grid-alpha-points", "9", "--grid-phi-points", "9",
        "--steps", "256", "--output", str(tmp_path)], capsys)
    assert rc == 0
    csv_path = tmp_path / "sweep.csv"
    summary_path = tmp_path / "summary.json"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 81
    summary = json.loads(summary_path.read_text())
    assert summary["symmetry_residual"] <= 1e-10
    assert summary["flagged_rows"] == 0
    assert {"max_w_ext", "max_eta", "min_ds", "params"} <= set(summary)
    assert summary["params"]["omega_tau"] == pytest.approx(0.015193, abs=1e-6)


def test_sweep_at_infinite_temperature_zeroes_work(tmp_path, capsys):
    rc, _, _ = run_cli([
        "sweep", "--beta", "0", "--grid-alpha-points", "3", "--grid-phi-points", "3",
        "--steps", "256", "--output", str(tmp_path)], capsys)
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    w_ext = [float(line.split(",")[2]) for line in lines[1:]]
    assert max(abs(w) for w in w_ext) <= 1e-12
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["max_eta"] is None  # undefined everywhere at beta = 0


def test_sweep_with_every_row_flagged_reports_null_extrema(tmp_path, capsys, monkeypatch):
    # a channel that purifies every state lowers the entropy at every node,
    # so no row is usable for any objective
    import qmeter.cycle
    from qmeter import measurement

    real_measure = measurement._measure
    ground = np.outer([0, 1], [0, 1]).astype(complex)

    def purifying_measure(rho, basis, rehermitize=True):
        post, probs, checks = real_measure(rho, basis)
        return 0.0 * post + ground, probs, checks

    monkeypatch.setattr(qmeter.cycle, "_measure", purifying_measure)
    rc, _, err = run_cli([
        "sweep", "--grid-alpha-points", "5", "--grid-phi-points", "5",
        "--steps", "256", "--output", str(tmp_path)], capsys)
    assert rc == 0, err
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["flagged_rows"] == 25
    assert all(summary[name] is None for name in ("max_w_ext", "max_eta", "min_ds"))


def test_csv_round_trips_byte_identically(tmp_path, capsys):
    rc, _, _ = run_cli([
        "sweep", "--grid-alpha-points", "5", "--grid-phi-points", "5",
        "--steps", "256", "--output", str(tmp_path)], capsys)
    assert rc == 0
    text = (tmp_path / "sweep.csv").read_text()
    lines = text.splitlines()
    rebuilt = [lines[0]]
    for line in lines[1:]:
        rebuilt.append(",".join(fmt(float(token)) for token in line.split(",")))
    assert "\n".join(rebuilt) + "\n" == text


def per_row_csv(rows, fields):
    lines = [",".join(fields)]
    lines += [",".join("%.17g" % v for v in row) for row in rows[fields].tolist()]
    return "\n".join(lines) + "\n"


def percent_17g_lines(values):
    """The reference for ``csv_lines``: one ``%.17g`` per value."""
    line = ",".join(["%.17g"] * values.shape[1]) + "\n"
    return "".join([line % tuple(row) for row in values.tolist()]).encode()


def half_even_ties():
    """Floats inside the integer window of ``csv_lines`` whose 18th significant
    digit is an exact 5, so their 17-digit rounding is a tie: a / 2**(17 - k)
    with a odd and 10**k <= value < 10**(k + 1), for k from -8 (the smallest
    with such a) to 14."""
    ties = []
    for k in range(-8, 15):
        first = math.ceil(Fraction(10) ** k * 2 ** (17 - k)) | 1
        ties += [a * 2.0 ** (k - 17) for a in (first, first + 2)]
    return ties


def edge_values():
    """Signed zeros, NaN of both signs, the infinities, the smallest and
    largest doubles; each power of ten from 1e-20 to 1e20 with its neighbours
    an ulp away; the powers whose 17-digit rounding carries into the next
    power of ten; integers in [1e15, 1e17] around 2**53 and the 16/17
    notation boundary; 18-digit ties just below 2**52; three-digit
    exponents; the ends of the integer window; and exact ties inside it."""
    tens = np.array([float(f"1e{j}") for j in range(-20, 21)])
    integers = [1e15, 1e15 + 1, 2.0**53 - 1, 2.0**53, 2.0**53 + 2, 1e16 - 2, 1e16, 1e16 + 2,
                99999999999999984.0, 1e17, 1e17 + 16]
    values = [0.0, math.nan, math.inf, 5e-324, sys.float_info.min, sys.float_info.max,
              *tens, *np.nextafter(tens, 0.0), *np.nextafter(tens, math.inf),
              1e-305, 1e-243, 1e-175, 1e-79, 1e-14, 1e98, 1e153, 1e220,  # carries
              *integers, 2.0**51 + 0.25, 2.0**51 + 0.75, 2.0**52 - 0.25,
              1.2345e-100, 6.02e123, 2.2250738585072014e-300, 9.9e307,
              2.0**-36, *np.nextafter(2.0**-36, [0.0, 1.0]),  # the ends of the window
              2.0**49, *np.nextafter(2.0**49, [0.0, 1e16]),
              *half_even_ties()]
    return np.array([*values, *(-np.array(values))])


def test_csv_lines_match_percent_17g_on_edge_values():
    values = edge_values()
    assert np.isnan(values).sum() == 2 and np.signbit(values[np.isnan(values)]).sum() == 1
    for columns in (1, 3):
        table = values[:values.size // columns * columns].reshape(-1, columns)
        assert csv_lines(table) == percent_17g_lines(table)


def test_the_ties_are_ties_and_some_round_down():
    """Half-even and half-up rounding differ on the ties below an even digit."""
    scaled = [Fraction(v) * 10 ** (16 - math.floor(math.log10(v))) for v in half_even_ties()]
    assert all(x.denominator == 2 and 10**16 < x < 10**17 for x in scaled)
    assert 0 < sum(math.floor(x) % 2 == 0 for x in scaled) < len(scaled)


@settings(max_examples=50)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=32), st.integers(0, 2**32 - 1))
def test_csv_lines_match_percent_17g_on_random_bit_patterns(drawn, seed):
    """Raw float64 bit patterns: those hypothesis draws, which favour the
    ends of the range, 1000 uniform ones and 20000 whose exponent field lies
    around the integer window; about 10**6 over all examples."""
    rng = np.random.default_rng(seed)
    near = (rng.integers(0, 2, 20000, dtype=np.uint64) << 63
            | rng.integers(975, 1085, 20000).astype(np.uint64) << 52
            | rng.integers(0, 2**52, 20000, dtype=np.uint64))
    bits = np.concatenate([np.array(drawn, dtype=np.uint64), near,
                           rng.integers(0, 2**64, 1000, dtype=np.uint64)])
    values = bits.view(float)[:bits.size // 4 * 4].reshape(-1, 4)
    assert csv_lines(values) == percent_17g_lines(values)


def awkward_table(size):
    """Columns of few distinct values, with 0.0 and -0.0 together, NaN of
    both signs and +-inf, next to one of all-distinct values, the edge
    values of ``csv_lines`` and random bit patterns."""
    edges = edge_values()
    rows = np.zeros(size, dtype=[("zeros", float), ("specials", float), ("constant", float),
                                 ("spread", float), ("edges", float), ("bits", float)])
    k = np.arange(size)
    rows["zeros"] = np.array([0.0, -0.0, 1.5])[k % 3]
    rows["specials"] = np.array([np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf])[k % 4]
    rows["constant"] = -2.25
    rows["spread"] = np.sin(k + 0.5) * 1e-3
    rows["spread"][::7] = -0.0
    rows["edges"] = edges[k % edges.size]
    rows["bits"] = np.random.default_rng(size).integers(0, 2**64, size, np.uint64).view(float)
    return rows


@pytest.mark.parametrize("size", [1, NODE_BLOCK - 1, NODE_BLOCK, NODE_BLOCK + 1])
def test_csv_writer_matches_per_row_formatting_byte_for_byte(tmp_path, size):
    rows = awkward_table(size)
    fields = ["spread", "edges", "zeros", "specials", "bits", "constant"]  # not in dtype order
    if size >= edge_values().size:  # every edge value, in the same block as other columns
        assert np.array_equal(np.unique(rows["edges"].view(np.uint64)),
                              np.unique(edge_values().view(np.uint64)))
    write_rows_csv(rows, fields, tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == per_row_csv(rows, fields).encode()


def test_eta_column_uses_nan_token(tmp_path, capsys):
    rc, _, _ = run_cli([
        "run", "--alpha-rad", str(math.pi / 2), "--phi-rad", "0.0",
        "--steps", "256", "--csv", str(tmp_path / "row.csv")], capsys)
    assert rc == 0
    lines = (tmp_path / "row.csv").read_text().splitlines()
    eta_token = lines[1].split(",")[CSV_HEADER.split(",").index("eta")]
    assert eta_token == "nan"


def test_sweep_determinism_across_runs(tmp_path, capsys):
    for sub in ("a", "b"):
        rc, _, _ = run_cli([
            "sweep", "--grid-alpha-points", "17", "--grid-phi-points", "17",
            "--steps", "256", "--output", str(tmp_path / sub)], capsys)
        assert rc == 0
    assert ((tmp_path / "a" / "sweep.csv").read_bytes()
            == (tmp_path / "b" / "sweep.csv").read_bytes())
    assert ((tmp_path / "a" / "summary.json").read_bytes()
            == (tmp_path / "b" / "summary.json").read_bytes())


def test_rerun_writes_new_files_and_leaves_a_hard_link_alone(tmp_path, capsys):
    def sweep(out_dir, *extra):
        rc, _, err = run_cli(["sweep", "--grid-alpha-points", "9", "--grid-phi-points", "9",
                              "--steps", "256", *extra, "--output", str(out_dir)], capsys)
        assert rc == 0, err
        return [(out_dir / name).read_bytes() for name in ("sweep.csv", "summary.json")]

    first = sweep(tmp_path / "out")
    os.link(tmp_path / "out" / "sweep.csv", tmp_path / "out" / "keep.csv")
    for fresh, extra in (("beta", ["--beta", "0.7"]), ("again", [])):
        assert sweep(tmp_path / "out", *extra) == sweep(tmp_path / fresh, *extra)
        assert (tmp_path / "out" / "keep.csv").read_bytes() == first[0]
    # the --beta 0.7 outputs differ in length from the first ones, so the two
    # reruns rewrote each output once to a new length and once back
    assert [len(b) for b in sweep(tmp_path / "beta", "--beta", "0.7")] != list(map(len, first))


def test_output_symlink_is_written_through(tmp_path, capsys):
    target = tmp_path / "target.csv"
    target.write_text("bytes of an earlier run\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    args = ["slice", "--fixed-phi", "2.53", "--points", "33", "--steps", "256", "--output"]
    assert run_cli([*args, str(link)], capsys)[0] == 0
    assert run_cli([*args, str(tmp_path / "plain.csv")], capsys)[0] == 0
    assert link.is_symlink() and link.resolve() == target
    assert target.read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_slice_command(tmp_path, capsys):
    out_path = tmp_path / "profile.csv"
    rc, _, _ = run_cli([
        "slice", "--fixed-phi", "2.53", "--points", "33", "--steps", "256",
        "--output", str(out_path)], capsys)
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "alpha,phi,w_ext,q_m,eta,ds,zeta,delta,gamma,dp3,dp4"
    assert len(lines) == 34


def test_slice_requires_exactly_one_fixed_angle(capsys):
    rc, _, err = run_cli(["slice"], capsys)
    assert rc == 1
    rc, _, err = run_cli(["slice", "--fixed-alpha", "1.0", "--fixed-phi", "1.0"], capsys)
    assert rc == 1


def test_verify_passes_with_trimmed_samples(capsys):
    rc, out, _ = run_cli([
        "verify", "--samples", "60", "--grid-alpha-points", "9",
        "--grid-phi-points", "9"], capsys)
    assert rc == 0
    assert "FAIL" not in out
    assert "seed=20201" in out
    # checks of quantities that are at most 0 report their signed worst value
    for suite in ("kelvin", "transition_inequality"):
        line = next(line for line in out.splitlines() if f"] {suite}:" in line)
        assert float(line.split("max residual ")[1].split()[0]) < 0.0


# the suites in the order, and the lines in the form, that the benchmark's
# checks (perfbench/checks.py) parse
VERIFY_SUITES = (
    "unitarity", "propagator_error", "convergence_order", "measurement_channel",
    "first_law", "kelvin", "entropy_equalities", "analytic_vs_oracle",
    "efficiency_forms", "efficiency_bounds", "transition_inequality", "symmetry",
)
SUITE_LINE = re.compile(
    r"^\[PASS\] (\w+): max residual -?\d\.\d{3}e[-+]\d{2} \(tol \d\.\de[-+]\d{2}\)( - .+)?$")


def test_verify_output_shape(capsys, monkeypatch):
    monkeypatch.delenv("QMETER_SEED", raising=False)
    rc, out, _ = run_cli([
        "verify", "--samples", "60", "--grid-alpha-points", "9",
        "--grid-phi-points", "9"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "seed=20201"
    matches = [SUITE_LINE.match(line) for line in lines[1:]]
    assert all(matches), lines
    assert tuple(m.group(1) for m in matches) == VERIFY_SUITES
    assert lines[2].endswith(" - steps=1024 vs the exact propagator")


def test_verify_fails_a_suite_with_no_eligible_sample(capsys):
    # the one sample at the default seed has no positive work output, so
    # the efficiency bounds had nothing to check
    rc, out, _ = run_cli([
        "verify", "--samples", "1", "--grid-alpha-points", "9",
        "--grid-phi-points", "9"], capsys)
    assert rc == 2
    assert ("[FAIL] efficiency_bounds: max residual -inf (tol 1.0e-12)"
            " - no eligible sample (0 of 1)") in out.splitlines()


def test_verify_passes_at_minimal_step_count(capsys):
    # the convergence suite runs its own step ladder, and the coarse-step
    # propagator error stays inside its a-priori bound
    rc, out, _ = run_cli([
        "verify", "--steps", "2", "--samples", "30", "--grid-alpha-points", "9",
        "--grid-phi-points", "9"], capsys)
    assert rc == 0
    assert "[PASS] propagator_error" in out
    assert "[PASS] convergence_order" in out


def test_verify_fails_the_propagator_error_of_a_long_drive(capsys):
    # at omega_tau ~ 152 the 1024-step midpoint error (1.10e-5) exceeds the
    # bound verify holds it to (9.5e-6); no other suite fails there
    rc, out, _ = run_cli(["verify", "--tau-us", "1e5", "--samples", "20",
                          "--grid-alpha-points", "5", "--grid-phi-points", "5"], capsys)
    assert rc == 2
    failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert len(failed) == 1 and failed[0].startswith("[FAIL] propagator_error: ")
    residual, tol = re.search(r"max residual (\S+) \(tol (\S+)\)", failed[0]).groups()
    assert float(residual) > float(tol)


def test_verify_detects_injected_fault(capsys):
    rc, out, _ = run_cli([
        "verify", "--samples", "30", "--grid-alpha-points", "9",
        "--grid-phi-points", "9", "--inject-fault", "skip-rehermitize"], capsys)
    assert rc != 0
    assert "[FAIL] measurement_channel" in out


def test_seed_env_var(capsys, monkeypatch):
    monkeypatch.setenv("QMETER_SEED", "777")
    rc, out, _ = run_cli([
        "verify", "--samples", "30", "--grid-alpha-points", "9",
        "--grid-phi-points", "9"], capsys)
    assert rc == 0
    assert "seed=777" in out
    # explicit flag wins over the environment
    rc, out, _ = run_cli([
        "verify", "--samples", "30", "--grid-alpha-points", "9",
        "--grid-phi-points", "9", "--seed", "42"], capsys)
    assert "seed=42" in out


def test_each_command_default_is_read_from_its_library_home():
    def default(function, name):
        return inspect.signature(function).parameters[name].default

    parser = build_parser()
    verify = parser.parse_args(["verify"])
    assert GridSpec(verify.grid_alpha_points, verify.grid_phi_points) == SYMMETRY_GRID
    assert default(run_all_suites, "grid") == SYMMETRY_GRID
    assert verify.samples == SAMPLES == default(run_all_suites, "samples")
    assert default(suite_measurement_channel, "samples") == CHANNEL_SAMPLES
    assert parser.parse_args(["slice"]).points == SLICE_POINTS
    assert default(slice_profile, "points") == SLICE_POINTS
    objectives = parser.parse_args(["sweep"]).objectives
    assert [Objective(name) for name in objectives.split(",")] == list(Objective)


def test_verify_without_grid_flags_checks_symmetry_on_129x129(capsys):
    rc, out, _ = run_cli(["verify", "--samples", "60"], capsys)
    assert rc == 0
    assert out.splitlines()[-1].endswith(" - 129x129 grid")


def _help(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    return capsys.readouterr().out


def test_help_gives_units_and_each_command_default(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one line per option
    for command, grid in (("sweep", 257), ("verify", 129)):
        out = _help(command, capsys)
        assert "stroke duration in microseconds (default: 10.0)" in out
        assert "energy gap hbar*omega in peV (default: 1.0)" in out
        assert f"alpha grid points (default: {grid})" in out
        assert f"phi grid points, odd (default: {grid})" in out
        assert "basis polar angle" not in out and "--alpha-rad" not in out
        assert "(default: None)" not in out
    out = _help("run", capsys)
    assert "basis polar angle in rad (required)" in out
    assert "basis azimuth in rad (required)" in out
    assert "(default: None)" not in out
    assert f"random samples per suite (default: {SAMPLES})" in _help("verify", capsys)
    assert f"points of the free angle (default: {SLICE_POINTS})" in _help("slice", capsys)
    objectives = ",".join(o.value for o in Objective)
    assert f"(default: {objectives})" in _help("sweep", capsys)


def _commands():
    parser = build_parser()
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


# small inputs for each command; each reads every option it registers
READ_ARGVS = {
    "run": ["run", "--alpha-rad", "1.0", "--phi-rad", "2.0", "--steps", "256"],
    "sweep": ["sweep", "--grid-alpha-points", "3", "--grid-phi-points", "3", "--steps", "256",
              "--output", "{tmp}/out"],
    "slice": ["slice", "--fixed-phi", "1.0", "--points", "5", "--steps", "256",
              "--output", "{tmp}/slice.csv"],
    "verify": ["verify", "--samples", "5", "--grid-alpha-points", "5", "--grid-phi-points", "5"],
}


@pytest.mark.parametrize("command", READ_ARGVS)
def test_each_command_registers_the_options_it_reads(tmp_path, capsys, command):
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    parser = _commands()[command]
    registered = {action.dest for action in parser._actions} - {"help", "config"}
    argv = [arg.format(tmp=tmp_path) for arg in READ_ARGVS[command]]
    args = Recording(**vars(build_parser().parse_args(argv)))
    build_config(args)
    assert args.func(args) == 0
    capsys.readouterr()
    assert {name for name in reads if not name.startswith("_")} - {"func"} == registered


def test_every_option_of_every_command_has_a_help_text():
    for command, parser in _commands().items():
        for action in parser._actions:
            assert action.help and action.help.strip(), (command, action.option_strings)


@pytest.mark.parametrize("args", [
    ["slice", "--fixed-phi", "1", "--output", "{tmp}/slice.csv", "--grid-alpha-points", "2",
     "--seed", "5"],
    ["sweep", "--output", "{tmp}/out", "--phi-rad", "2"],
    ["verify", "--alpha-rad", "1"],
    ["run", "--alpha-rad", "1.0", "--phi-rad", "2.0", "--seed", "-1"],
    ["run", "--alpha-rad", "1.0", "--phi-rad", "2.0", "--grid-phi-points", "4"],
], ids=["slice-grid-seed", "sweep-angle", "verify-angle", "run-seed", "run-grid"])
def test_an_option_the_command_does_not_read_is_a_config_error(tmp_path, capsys, args):
    rc, out, err = run_cli([arg.format(tmp=tmp_path) for arg in args], capsys)
    assert rc == 1 and out == ""
    assert err.startswith("error: unrecognized arguments: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_only_verify_reads_the_seed_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QMETER_SEED", "abc")
    rc, _, err = run_cli(["sweep", "--grid-alpha-points", "3", "--grid-phi-points", "3",
                          "--steps", "256", "--output", str(tmp_path)], capsys)
    assert rc == 0, err
    rc, _, err = run_cli(["verify", "--samples", "5"], capsys)
    assert rc == 1 and "QMETER_SEED must be an integer, got 'abc'" in err


# every shared key away from its default; each command skips the keys it does not read
EVERY_KEY = """hbar_omega_pev = 2.5
tau_us = 3
beta = 0.7
alpha_rad = 1.39
phi_rad = 2.05
steps = 512
grid.alpha_points = 9
grid.phi_points = 17
seed = 7
"""


def test_one_config_file_with_every_key_serves_every_command(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("QMETER_SEED", raising=False)
    cfg = tmp_path / "every.cfg"
    cfg.write_text(EVERY_KEY)
    config = ["--config", str(cfg)]
    rc, out, _ = run_cli(["run", *config], capsys)
    record = parse_record(out)
    assert rc == 0 and (record["alpha"], record["steps"]) == (fmt(1.39), "512")
    rc, out, _ = run_cli(["sweep", *config, "--output", str(tmp_path / "out")], capsys)
    params = json.loads((tmp_path / "out" / "summary.json").read_text())["params"]
    assert rc == 0 and (params["tau_us"], params["grid_phi_points"]) == (3.0, 17)
    rc, out, _ = run_cli(["slice", *config, "--fixed-phi", "1", "--points", "5",
                          "--output", str(tmp_path / "slice.csv")], capsys)
    assert rc == 0
    rc, out, _ = run_cli(["verify", *config, "--samples", "30"], capsys)
    lines = out.splitlines()
    assert rc == 0 and lines[0] == "seed=7" and lines[-1].endswith(" - 9x17 grid")
    cfg.write_text(EVERY_KEY + "omega = 3\n")  # an unknown key still fails every command
    for argv in READ_ARGVS.values():
        rc, out, err = run_cli([arg.format(tmp=tmp_path) for arg in argv] + config, capsys)
        assert (rc, out, err) == (1, "", f"error: {cfg}:10: unknown key 'omega'\n")


def test_parser_covers_all_subcommands():
    parser = build_parser()
    for command in ("run", "sweep", "slice", "verify"):
        args = parser.parse_args([command] + (
            ["--alpha-rad", "1", "--phi-rad", "1"] if command == "run" else
            ["--fixed-alpha", "1"] if command == "slice" else []))
        assert args.command == command


def test_repeated_main_calls_carry_no_options_over(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("QMETER_SEED", raising=False)
    row_csv = tmp_path / "row.csv"
    rc, _, _ = run_cli(["run", "--alpha-rad", "1.0", "--phi-rad", "2.0", "--steps", "256",
                        "--csv", str(row_csv)], capsys)
    assert rc == 0 and row_csv.exists()
    row_csv.unlink()
    rc, out, _ = run_cli(["run", "--alpha-rad", "1.0", "--phi-rad", "2.0"], capsys)
    assert rc == 0 and not row_csv.exists()
    assert parse_record(out)["steps"] == "1024"

    trimmed = ["--samples", "5", "--grid-alpha-points", "5", "--grid-phi-points", "5"]
    rc, out, _ = run_cli(["verify", "--seed", "42", *trimmed], capsys)
    assert rc == 0 and "seed=42" in out
    rc, out, _ = run_cli(["verify", *trimmed], capsys)
    assert rc == 0 and "seed=20201" in out

    rc, _, _ = run_cli(["slice", "--fixed-phi", "1.0", "--points", "9", "--steps", "256",
                        "--output", str(tmp_path / "a.csv")], capsys)
    assert rc == 0
    # a --fixed-phi left over from the call before would make this one ambiguous
    rc, _, err = run_cli(["slice", "--fixed-alpha", "1.0", "--steps", "256",
                          "--output", str(tmp_path / "b.csv")], capsys)
    assert rc == 0, err
    assert len((tmp_path / "b.csv").read_text().splitlines()) == 1 + 513


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_rejects_fewer_than_one_sample(capsys, samples):
    rc, out, err = run_cli(["verify", "--samples", samples], capsys)
    assert rc == 1
    assert "samples must be >= 1" in err
    assert "PASS" not in out


def test_slice_rejects_fewer_than_one_point(tmp_path, capsys):
    rc, _, err = run_cli(["slice", "--fixed-phi", "1.0", "--points", "-2",
                          "--output", str(tmp_path / "profile.csv")], capsys)
    assert rc == 1
    assert "points must be >= 1" in err


def _size_cases(n):
    return [
        ["run", "--alpha-rad", "1.0", "--phi-rad", "2.0", "--steps", str(n)],
        ["slice", "--fixed-phi", "1.0", "--points", str(n)],
        ["verify", "--samples", str(n), "--grid-alpha-points", "5", "--grid-phi-points", "5"],
        ["sweep", "--grid-alpha-points", str(n), "--grid-phi-points", "3"],
    ]


# about 10**15 elements: more than any address space can map, so the
# allocation fails at once without touching memory; 10**23 and 2**63 - 1 are
# past numpy's index range, which it reports as ValueError.  The run --steps
# cases stop earlier, at the MAX_STEPS check on entry, before any allocation
@pytest.mark.parametrize("args", [
    *_size_cases(10**15),
    *_size_cases(10**23),
    ["run", "--alpha-rad", "1.0", "--phi-rad", "2.0", "--steps", str(2**63 - 1)],
], ids=["run", "slice", "verify", "sweep",
        "run-1e23", "slice-1e23", "verify-1e23", "sweep-1e23", "run-2**63-1"])
def test_sizes_too_large_for_memory_are_config_errors(tmp_path, capsys, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    rc, _, err = run_cli(args, capsys)
    assert rc == 1
    assert err.startswith("error: ") and "Traceback" not in err


def test_steps_past_the_limit_are_config_errors(capsys):
    rc, out, err = run_cli(["run", "--alpha-rad", "1.0", "--phi-rad", "2.0",
                            "--steps", str(MAX_STEPS + 1)], capsys)
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("source", ["flag", "config", "env"])
def test_negative_seed_is_config_error(tmp_path, capsys, monkeypatch, source):
    args = ["verify", "--samples", "5", "--grid-alpha-points", "5", "--grid-phi-points", "5"]
    if source == "flag":
        args += ["--seed", "-1"]
    elif source == "config":
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed = -2\n")
        args += ["--config", str(cfg)]
    else:
        monkeypatch.setenv("QMETER_SEED", "-3")
    rc, out, err = run_cli(args, capsys)
    assert rc == 1
    assert "seed must be >= 0" in err
    assert "PASS" not in out


@pytest.mark.parametrize("args, env_seed, message", [
    (["run", "--alpha-rad", "1.0", "--phi-rad", "2.0", "--config", "{cfg}"], None,
     "engine.cfg:2: expected key=value, got 'tau_us 3'"),
    (["verify", "--samples", "5"], "abc", "QMETER_SEED must be an integer, got 'abc'"),
    (["sweep", "--objectives", ",", "--output", "{out}"], None, "no objectives given"),
    (["sweep", "--objectives", "bogus", "--output", "{out}"], None,
     "objectives must be among: max_w_ext"),
], ids=["config-line-without-equals", "seed-env-not-an-integer", "objectives-empty",
        "objectives-unknown"])
def test_input_errors_exit_1_with_their_message(tmp_path, capsys, monkeypatch, args, env_seed,
                                                message):
    cfg = tmp_path / "engine.cfg"
    cfg.write_text("steps = 256\ntau_us 3\n")
    if env_seed is None:
        monkeypatch.delenv("QMETER_SEED", raising=False)
    else:
        monkeypatch.setenv("QMETER_SEED", env_seed)
    rc, out, err = run_cli([arg.format(cfg=cfg, out=tmp_path / "out") for arg in args], capsys)
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_run_record_keys_and_csv_row(tmp_path, capsys):
    row_csv = tmp_path / "row.csv"
    rc, out, _ = run_cli(["run", "--alpha-rad", "1.39", "--phi-rad", "2.05",
                          "--csv", str(row_csv)], capsys)
    assert rc == 0
    pairs = [line.split("=", 1) for line in out.strip().splitlines()]
    keys = [key for key, _ in pairs]
    residual_keys = sorted(f"residual_{name}" for name in (
        "entropy_12", "entropy_34", "entropy_thermalization", "eta", "first_law",
        "q_m", "q_t", "w"))
    assert keys == ["alpha", "phi", "omega_tau", "beta_hbar_omega", "steps", "w_ext",
                    "q_m", "q_t", "eta", "ds", "xi", "zeta", "delta", "gamma",
                    *residual_keys, "residual_max"]
    record = dict(pairs)
    assert float(record["residual_max"]) == max(float(record[k]) for k in residual_keys)
    header, row = row_csv.read_text().splitlines()
    assert header == CSV_HEADER
    for name, token in zip(header.split(","), row.split(",")):
        assert token == record[name], name


def test_verify_reads_the_grid_from_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("grid.alpha_points = 5\ngrid.phi_points = 5\n")
    trimmed = ["--samples", "5", "--config", str(cfg)]
    rc, out, _ = run_cli(["verify", *trimmed], capsys)
    assert rc == 0
    assert out.splitlines()[-1].endswith(" - 5x5 grid")
    # a flag beats the file, which beats the command's default
    rc, out, _ = run_cli(["verify", *trimmed, "--grid-alpha-points", "9"], capsys)
    assert rc == 0
    assert out.splitlines()[-1].endswith(" - 9x5 grid")


def test_config_file_value_reads_like_the_flag(tmp_path, capsys):
    # '-0.001' after a space would read as an unknown flag, not as a value
    cfg = tmp_path / "phi.cfg"
    cfg.write_text("alpha_rad = 1.0\nphi_rad = -0.001\n")
    rc, from_file, _ = run_cli(["run", "--steps", "256", "--config", str(cfg)], capsys)
    assert rc == 0
    rc, from_flag, _ = run_cli(["run", "--steps", "256", "--alpha-rad", "1.0",
                                "--phi-rad=-0.001"], capsys)
    assert rc == 0
    assert from_file == from_flag
    assert parse_record(from_file)["phi"] == fmt(-0.001)


@pytest.mark.parametrize("value", ["-1e-3", "-1E-3", "-.1e-2", "-0.001"])
def test_negative_value_in_exponent_form_is_a_number(capsys, value):
    # argparse alone reads the first three as flags
    rc, out, _ = run_cli(["run", "--alpha-rad", "1", "--phi-rad", value], capsys)
    assert rc == 0
    assert "phi=-0.001" in out.splitlines()


def test_bad_config_file_value_names_the_file(tmp_path, capsys):
    cfg = tmp_path / "steps.cfg"
    cfg.write_text("steps = 2.5\n")
    rc, out, err = run_cli(["run", "--alpha-rad", "1.0", "--phi-rad", "2.0",
                            "--config", str(cfg)], capsys)
    assert rc == 1
    assert out == ""
    assert err == f"error: {cfg}: argument --steps: invalid int value: '2.5'\n"


def test_seed_precedence_flag_over_file_over_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QMETER_SEED", "777")
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = 55\n")
    trimmed = ["--samples", "5", "--grid-alpha-points", "5", "--grid-phi-points", "5"]
    rc, out, _ = run_cli(["verify", *trimmed, "--config", str(cfg)], capsys)
    assert rc == 0 and out.startswith("seed=55\n")
    rc, out, _ = run_cli(["verify", *trimmed, "--config", str(cfg), "--seed", "42"], capsys)
    assert rc == 0 and out.startswith("seed=42\n")


@pytest.mark.parametrize("command", ["sweep", "verify"])
def test_even_phi_grid_fails_before_any_work(tmp_path, capsys, monkeypatch, command):
    import qmeter.cli
    import qmeter.verification

    def no_work(*args, **kwargs):
        raise AssertionError("ran before the grid check")

    monkeypatch.setattr(qmeter.cli, "grid_sweep", no_work)
    monkeypatch.setattr(qmeter.verification, "suite_unitarity", no_work)
    out_dir = tmp_path / "new_dir"
    args = [command, "--grid-alpha-points", "5", "--grid-phi-points", "256"]
    rc, _, err = run_cli(args + (["--output", str(out_dir)] if command == "sweep" else []),
                         capsys)
    assert rc == 1
    assert err == "error: phi grid not symmetric under phi -> phi + pi\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("args, message", [
    (["--fixed-phi", "9"], "fixed phi outside [0, 2*pi]"),
    (["--fixed-alpha", "4"], "fixed alpha outside [0, pi]"),
    (["--fixed-phi", "1", "--points", "0"], "points must be >= 1"),
])
def test_a_bad_slice_fails_before_the_engine_build(tmp_path, capsys, monkeypatch, args, message):
    import qmeter.cycle

    def no_work(*args, **kwargs):
        raise AssertionError("built an engine before the slice check")

    monkeypatch.setattr(qmeter.cycle.CycleEngine, "__init__", no_work)
    rc, _, err = run_cli(["slice", *args, "--output", str(tmp_path / "slice.csv")], capsys)
    assert rc == 1 and err == f"error: {message}\n"


def test_a_repeated_objective_is_refined_once(tmp_path, capsys, monkeypatch):
    import qmeter.cli

    real_locate = qmeter.cli.locate_extrema
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real_locate(*args, **kwargs)

    monkeypatch.setattr(qmeter.cli, "locate_extrema", counting)
    grid = ["--grid-alpha-points", "9", "--grid-phi-points", "9", "--steps", "256"]
    outputs = []
    for objectives in ("max_w_ext,max_w_ext", "max_w_ext"):
        calls.clear()
        out_dir = tmp_path / objectives
        rc, out, _ = run_cli(["sweep", *grid, "--objectives", objectives,
                              "--output", str(out_dir)], capsys)
        assert rc == 0 and len(calls) == 1
        outputs.append([out.replace(str(out_dir), "<dir>"),
                        (out_dir / "sweep.csv").read_bytes(),
                        (out_dir / "summary.json").read_bytes()])
    assert outputs[0] == outputs[1]


# every path lies under a regular file, so no directory can be made there
@pytest.mark.parametrize("args", [
    ["run", "--alpha-rad", "1.0", "--phi-rad", "2.0", "--steps", "256",
     "--csv", "{blocker}/row.csv"],
    ["slice", "--fixed-phi", "1.0", "--points", "5", "--steps", "256",
     "--output", "{blocker}/slice.csv"],
    ["sweep", "--grid-alpha-points", "3", "--grid-phi-points", "3", "--steps", "256",
     "--output", "{blocker}/out"],
    ["run", "--alpha-rad", "1.0", "--phi-rad", "2.0", "--config", "{blocker}/engine.cfg"],
], ids=["run-csv", "slice-output", "sweep-output", "config"])
def test_unusable_paths_are_config_errors(tmp_path, capsys, args):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n")
    rc, _, err = run_cli([arg.format(blocker=blocker) for arg in args], capsys)
    assert rc == 1
    assert err.startswith("error: ") and "Traceback" not in err
