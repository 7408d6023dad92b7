import json
import math
import os
import re

import numpy as np
import pytest

from qmeter.cli import (
    BETA_TOKEN,
    CSV_BLOCK,
    CSV_HEADER,
    RunConfig,
    _repeated_tokens,
    build_parser,
    fmt,
    main,
    parse_config_file,
    write_rows_csv,
)
from qmeter.propagator import MAX_STEPS

from conftest import DEFAULT_OMEGA_TAU


def run_cli(args, capsys):
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_record(out):
    pairs = dict(line.split("=", 1) for line in out.strip().splitlines())
    return pairs


def test_unit_conversion_matches_stated_constant():
    config = RunConfig()
    assert config.omega_tau() == pytest.approx(0.015193, abs=1e-6)
    assert config.omega_tau() == pytest.approx(DEFAULT_OMEGA_TAU, abs=1e-15)
    assert config.beta_hbar_omega() == 1.0


def test_beta_explicit_value_scales_with_gap():
    config = RunConfig(hbar_omega_pev=2.0, beta=0.75)
    assert config.beta_hbar_omega() == 1.5


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
    assert "tau must be positive" in err


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
    with pytest.raises(Exception):
        parse_config_file(cfg)


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

    real_measure = measurement.measure
    ground = np.outer([0, 1], [0, 1]).astype(complex)

    def purifying_measure(rho, basis, rehermitize=True):
        post, probs = real_measure(rho, basis)
        return 0.0 * post + ground, probs

    monkeypatch.setattr(qmeter.cycle, "measure", purifying_measure)
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


def awkward_table(size):
    """Columns of few distinct values, with 0.0 and -0.0 together, NaN of
    both signs and +-inf, next to one of all-distinct values."""
    rows = np.zeros(size, dtype=[("zeros", float), ("specials", float), ("constant", float),
                                 ("spread", float)])
    k = np.arange(size)
    rows["zeros"] = np.array([0.0, -0.0, 1.5])[k % 3]
    rows["specials"] = np.array([np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf])[k % 4]
    rows["constant"] = -2.25
    rows["spread"] = np.sin(k + 0.5) * 1e-3
    rows["spread"][::7] = -0.0
    return rows


@pytest.mark.parametrize("size", [1, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1])
def test_csv_writer_matches_per_row_formatting_byte_for_byte(tmp_path, size):
    rows = awkward_table(size)
    fields = ["spread", "zeros", "specials", "constant"]  # not in dtype order
    if size > 1:  # the few-valued columns take the path that formats each value once
        assert all(_repeated_tokens(rows[name]) is not None
                   for name in ("zeros", "specials", "constant"))
        assert _repeated_tokens(rows["spread"]) is None
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
