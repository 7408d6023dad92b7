"""Command-line front end: run / sweep / slice / verify.

Configuration comes from flat key=value files plus mirroring flags; physical
inputs (peV, microseconds) are converted to the internal dimensionless pair
(omega*tau, beta*hbar*omega) here and nowhere else.  Energies in all output
are in units of hbar*omega.

Exit codes: 0 success, 1 configuration error, 2 invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .csvfmt import CSV_FIELDS, SLICE_FIELDS, fmt, open_output, write_rows_csv
from .cycle import CycleEngine, EngineParams
from .errors import ConfigurationError, InvariantViolation
from .sweep import (
    SLICE_POINTS,
    GridSpec,
    Objective,
    SweepTable,
    _partner_indices,
    _slice_nodes,
    grid_sweep,
    locate_extrema,
    slice_profile,
    symmetry_residual,
)
from .verification import SAMPLES, SYMMETRY_GRID, run_all_suites

HBAR_EV_S = 6.582119569e-16  # reduced Planck constant, eV*s
DEFAULT_SEED = 20201
SEED_ENV_VAR = "QMETER_SEED"

BETA_TOKEN = "inverse_hbar_omega"


def _coerce_beta(text: str) -> str | float:
    if text == BETA_TOKEN:
        return text
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"beta must be a number (1/peV) or the token {BETA_TOKEN!r}") from None


# the shared options, also the config file keys: type, default, help, the commands that read them
ALL = ("run", "sweep", "slice", "verify")
OPTIONS = {
    "hbar_omega_pev": (float, 1.0, "energy gap hbar*omega in peV (default: %(default)s)", ALL),
    "tau_us": (float, 10.0, "stroke duration in microseconds (default: %(default)s)", ALL),
    "beta": (_coerce_beta, BETA_TOKEN, f"inverse temperature in 1/peV, or {BETA_TOKEN!r}", ALL),
    "alpha_rad": (float, None, "basis polar angle in rad (required)", ("run",)),
    "phi_rad": (float, None, "basis azimuth in rad (required)", ("run",)),
    "steps": (int, EngineParams.steps, "integrator steps per stroke (default: %(default)s)", ALL),
    "grid.alpha_points": (int, GridSpec.alpha_points, "alpha grid points (default: %(default)s)",
                          ("sweep", "verify")),
    "grid.phi_points": (int, GridSpec.phi_points, "phi grid points, odd (default: %(default)s)",
                        ("sweep", "verify")),
    "seed": (int, None, f"RNG seed (alternative: ${SEED_ENV_VAR})", ("verify",)),
}


def omega_tau(args: argparse.Namespace) -> float:
    omega = args.hbar_omega_pev * 1e-12 / HBAR_EV_S  # rad/s
    return omega * args.tau_us * 1e-6


def beta_hbar_omega(args: argparse.Namespace) -> float:
    if isinstance(args.beta, str):
        return 1.0
    return args.beta * args.hbar_omega_pev


def engine_params(args: argparse.Namespace) -> EngineParams:
    return EngineParams(omega_tau=omega_tau(args), beta_hbar_omega=beta_hbar_omega(args),
                        steps=args.steps)


def _flag(key: str) -> str:
    return "--" + key.replace(".", "-").replace("_", "-")


def parse_config_file(path: str | Path, command: str) -> list[str]:
    """Flat key=value lines as ``--flag=value`` tokens, which parse exactly like the
    flags; '#' starts a comment; blank lines and keys ``command`` does not read are skipped."""
    tokens = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in OPTIONS:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        if command in OPTIONS[key][3]:  # '=' keeps a value such as -1e-3 from reading as a flag
            tokens.append(f"{_flag(key)}={value}")
    return tokens


def build_config(args: argparse.Namespace) -> None:
    """Check the gap; where a seed is read, fill one not given from the env var or DEFAULT_SEED."""
    # EngineParams checks the duration and temperature; the gap is checked
    # here, as a negative one would make a negative tau a positive omega_tau
    if not (math.isfinite(args.hbar_omega_pev) and args.hbar_omega_pev > 0):
        raise ConfigurationError("hbar_omega_pev must be positive")
    if "seed" in args and args.seed is None:
        env_seed = os.environ.get(SEED_ENV_VAR, str(DEFAULT_SEED))
        try:
            args.seed = int(env_seed)
        except ValueError:
            raise ConfigurationError(
                f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}") from None
    if "seed" in args and args.seed < 0:
        raise ConfigurationError("seed must be >= 0")


def write_table_csv(table: SweepTable, path: Path) -> None:
    write_rows_csv(table.rows, CSV_FIELDS, path)


def write_slice_csv(profile: np.ndarray, path: Path) -> None:
    write_rows_csv(profile, SLICE_FIELDS, path)


def _record_pairs(record) -> list[tuple[str, str]]:
    """``run``'s record: the node's CSV row, the engine inputs after the angles."""
    row, params = record.row[0], record.params
    node = [(name, "undefined" if name == "eta" and math.isnan(row[name]) else fmt(row[name]))
            for name in CSV_FIELDS]
    pairs = [*node[:2], ("omega_tau", fmt(params.omega_tau)),
             ("beta_hbar_omega", fmt(params.beta_hbar_omega)), ("steps", str(params.steps)),
             *node[2:]]
    pairs.extend((f"residual_{k}", fmt(v)) for k, v in sorted(record.residuals.items()))
    pairs.append(("residual_max", fmt(max(record.residuals.values()))))
    return pairs


def cmd_run(args: argparse.Namespace) -> int:
    if args.alpha_rad is None or args.phi_rad is None:
        raise ConfigurationError("run requires alpha_rad and phi_rad")
    record, violations = CycleEngine(engine_params(args)).evaluate_flagged(
        args.alpha_rad, args.phi_rad)
    if violations:
        raise InvariantViolation(
            "cycle invariants violated: " + ", ".join(sorted(violations)), violations)
    for key, value in _record_pairs(record):
        print(f"{key}={value}")
    if args.csv:
        write_rows_csv(record.row, CSV_FIELDS, Path(args.csv))
    return 0


def _parse_objectives(raw: str) -> list[Objective]:
    names = [token.strip() for token in raw.split(",") if token.strip()]
    if not names:
        raise ConfigurationError("no objectives given")
    try:  # a repeated objective is refined once
        return list(dict.fromkeys(Objective(name) for name in names))
    except ValueError:
        valid = ", ".join(o.value for o in Objective)
        raise ConfigurationError(f"objectives must be among: {valid}") from None


def _sweep_summary(args: argparse.Namespace, params: EngineParams, table: SweepTable,
                   objectives: list[Objective]) -> dict[str, object]:
    """``summary.json`` of a sweep: its inputs, flagged rows, extrema and symmetry residual."""
    summary: dict[str, object] = {
        "params": {
            "hbar_omega_pev": args.hbar_omega_pev,
            "tau_us": args.tau_us,
            "beta": args.beta,
            "omega_tau": params.omega_tau,
            "beta_hbar_omega": params.beta_hbar_omega,
            "steps": args.steps,
            "grid_alpha_points": args.grid_alpha_points,
            "grid_phi_points": args.grid_phi_points,
        },
        "flagged_rows": table.flagged,
    }
    for objective in objectives:
        try:
            extremum = locate_extrema(table, objective)
            summary[objective.value] = {
                "alpha": extremum.alpha_star,
                "phi": extremum.phi_star,
                "value": extremum.value,
            }
        except ConfigurationError:  # e.g. beta = 0 leaves eta undefined on every row
            summary[objective.value] = None
    summary["symmetry_residual"] = symmetry_residual(table)
    return summary


def cmd_sweep(args: argparse.Namespace) -> int:
    objectives = _parse_objectives(args.objectives)
    params = engine_params(args)
    grid = GridSpec(alpha_points=args.grid_alpha_points, phi_points=args.grid_phi_points)
    _partner_indices(grid)  # the symmetry residual needs an odd phi count
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = grid_sweep(CycleEngine(params), grid)
    summary = _sweep_summary(args, params, table, objectives)

    csv_path = out_dir / "sweep.csv"
    summary_path = out_dir / "summary.json"
    write_table_csv(table, csv_path)
    with open_output(summary_path) as fh:
        fh.write(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {csv_path} ({table.rows.shape[0]} rows) and {summary_path}")
    return 0


def cmd_slice(args: argparse.Namespace) -> int:
    if (args.fixed_alpha is None) == (args.fixed_phi is None):
        raise ConfigurationError("give exactly one of --fixed-alpha / --fixed-phi")
    fixed = "alpha" if args.fixed_alpha is not None else "phi"
    value = args.fixed_alpha if fixed == "alpha" else args.fixed_phi
    _slice_nodes(fixed, value, args.points)  # a bad slice fails before the engine build
    profile = slice_profile(CycleEngine(engine_params(args)), fixed, value, points=args.points)
    path = Path(args.output)
    write_slice_csv(profile, path)
    print(f"wrote {path} ({len(profile)} rows)")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_all_suites(engine_params(args), args.seed, args.samples,
                             GridSpec(args.grid_alpha_points, args.grid_phi_points),
                             rehermitize=args.inject_fault != "skip-rehermitize")
    print(f"seed={args.seed}")
    all_passed = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        all_passed &= res.passed
        line = (f"[{status}] {res.name}: max residual {res.max_residual:.3e}"
                f" (tol {res.tolerance:.1e})")
        if res.detail:
            line += f" - {res.detail}"
        print(line)
    return 0 if all_passed else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems are configuration errors
        raise ConfigurationError(message)


def _add_command(sub, command: str, func, text: str) -> argparse.ArgumentParser:
    parser = sub.add_parser(command, help=text)
    # argparse takes only forms like -1 and -.5 as numbers; -1e-3 would read as a flag
    parser._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    parser.add_argument("--config", help="key=value configuration file")
    for key, (kind, default, help_text, commands) in OPTIONS.items():
        if command in commands:  # dest: the flag's name in snake case
            parser.add_argument(_flag(key), type=kind, default=default, help=help_text)
    parser.set_defaults(func=func)
    return parser


def build_parser() -> _Parser:
    parser = _Parser(prog="qmeter",
                     description="measurement-fueled single-qubit engine simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = _add_command(sub, "run", cmd_run, "evaluate one cycle")
    p_run.add_argument("--csv", help="also write the record as a one-row CSV")

    p_sweep = _add_command(sub, "sweep", cmd_sweep, "scan the (alpha, phi) plane")
    p_sweep.add_argument("--output", default=".", help="output directory")
    p_sweep.add_argument("--objectives", default=",".join(o.value for o in Objective),
                         help="comma-separated extrema to refine (default: %(default)s)")

    p_slice = _add_command(sub, "slice", cmd_slice, "1-D profile with one angle fixed")
    p_slice.add_argument("--fixed-alpha", type=float,
                         help="alpha in rad, or --fixed-phi; phi spans [0, 2*pi]")
    p_slice.add_argument("--fixed-phi", type=float,
                         help="phi in rad, or --fixed-alpha; alpha spans [0, pi]")
    p_slice.add_argument("--points", type=int, default=SLICE_POINTS,
                         help="points of the free angle (default: %(default)s)")
    p_slice.add_argument("--output", default="slice.csv", help="output CSV (default: %(default)s)")

    p_verify = _add_command(sub, "verify", cmd_verify, "run the invariant suites")
    p_verify.add_argument("--samples", type=int, default=SAMPLES,
                          help="random samples per suite (default: %(default)s)")
    p_verify.add_argument("--inject-fault", choices=["skip-rehermitize"],
                          help="testing hook: disable a safeguard and expect FAIL")
    p_verify.set_defaults(grid_alpha_points=SYMMETRY_GRID.alpha_points,
                          grid_phi_points=SYMMETRY_GRID.phi_points)
    return parser


@functools.lru_cache(maxsize=1)
def _shared_parser() -> _Parser:
    """``build_parser()``, built once per process: building it costs about a
    third of a ``run`` request, and parsing leaves it unchanged."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # file tokens right after the command, so the flags come later and win
            tokens = parse_config_file(args.config, args.command)
            try:
                args = parser.parse_args([argv[0], *tokens, *argv[1:]])
            except ConfigurationError as exc:  # argv alone parsed, so the file is at fault
                raise ConfigurationError(f"{args.config}: {exc}") from None
        build_config(args)
        return args.func(args)
    # ValueError covers the package's own errors and sizes past numpy's index
    # range; sizes too large to allocate and unusable paths are errors too
    except (ValueError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        for name, residual in sorted(exc.residuals.items()):
            print(f"  {name}: {residual:.3e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
