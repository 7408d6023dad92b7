"""Command-line front end: run / sweep / slice / verify.

Configuration comes from flat key=value files plus mirroring flags; physical
inputs (peV, microseconds) are converted to the internal dimensionless pair
(omega*tau, beta*hbar*omega) here and nowhere else.  Energies in all output
are in units of hbar*omega.

Exit codes: 0 success, 1 configuration error, 2 invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import stat
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from .cycle import CycleEngine, EngineParams, run_cycle
from .errors import ConfigurationError, InvariantViolation
from .sweep import (
    GridSpec,
    Objective,
    SweepTable,
    _partner_indices,
    grid_sweep,
    locate_extrema,
    slice_profile,
    symmetry_residual,
)
from .verification import run_all_suites

HBAR_EV_S = 6.582119569e-16  # reduced Planck constant, eV*s
DEFAULT_SEED = 20201
SEED_ENV_VAR = "QMETER_SEED"

CSV_HEADER = "alpha,phi,w_ext,q_m,q_t,eta,ds,xi,zeta,delta,gamma"
CSV_FIELDS = CSV_HEADER.split(",")
SLICE_HEADER = "alpha,phi,w_ext,q_m,eta,ds,zeta,delta,gamma,dp3,dp4"
SLICE_FIELDS = SLICE_HEADER.split(",")
CSV_BLOCK = 512  # rows formatted per write
CSV_SAMPLE = 1024  # values per strided sample, and per chunk, of a column read for repeats

BETA_TOKEN = "inverse_hbar_omega"

# the options shared by every command; each is also a config file key
CONFIG_KEYS = ("hbar_omega_pev", "tau_us", "beta", "alpha_rad", "phi_rad", "steps",
               "grid.alpha_points", "grid.phi_points", "seed")


@dataclass
class RunConfig:
    hbar_omega_pev: float = 1.0
    tau_us: float = 10.0
    beta: str | float = BETA_TOKEN
    alpha_rad: float | None = None
    phi_rad: float | None = None
    steps: int = 1024
    grid_alpha_points: int = 257
    grid_phi_points: int = 257
    seed: int = DEFAULT_SEED

    def validate(self) -> None:
        if not (math.isfinite(self.hbar_omega_pev) and self.hbar_omega_pev > 0):
            raise ConfigurationError("hbar_omega_pev must be positive")
        if not (math.isfinite(self.tau_us) and self.tau_us > 0):
            raise ConfigurationError("tau must be positive")
        if isinstance(self.beta, str) and self.beta != BETA_TOKEN:
            raise ConfigurationError(
                f"beta must be a number (1/peV) or the token {BETA_TOKEN!r}"
            )
        if isinstance(self.beta, float) and not (math.isfinite(self.beta) and self.beta >= 0):
            raise ConfigurationError("beta must be >= 0")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")

    def omega_tau(self) -> float:
        omega = self.hbar_omega_pev * 1e-12 / HBAR_EV_S  # rad/s
        return omega * self.tau_us * 1e-6

    def beta_hbar_omega(self) -> float:
        if isinstance(self.beta, str):
            return 1.0
        return self.beta * self.hbar_omega_pev

    def engine_params(self, alpha: float = 0.0, phi: float = 0.0) -> EngineParams:
        return EngineParams(
            omega_tau=self.omega_tau(),
            beta_hbar_omega=self.beta_hbar_omega(),
            alpha=alpha,
            phi=phi,
            steps=self.steps,
        )


def _flag(key: str) -> str:
    return "--" + key.replace(".", "-").replace("_", "-")


def parse_config_file(path: str | Path) -> list[str]:
    """Flat key=value lines as ``--flag=value`` tokens, which parse exactly
    like the flags; '#' starts a comment, blank lines are skipped."""
    tokens = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        # the '=' form keeps a value such as -1e-3 from reading as a flag
        tokens.append(f"{_flag(key)}={value}")
    return tokens


def _coerce_beta(text: str) -> str | float:
    if text == BETA_TOKEN:
        return text
    try:
        return float(text)
    except ValueError:
        return text  # validate() rejects it with a proper message


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then config file, then flags; seed falls back to the env var."""
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)}
    env_seed = os.environ.get(SEED_ENV_VAR)
    if "seed" not in given and env_seed is not None:
        try:
            given["seed"] = int(env_seed)
        except ValueError:
            raise ConfigurationError(
                f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}"
            ) from None
    config = RunConfig(**given)
    config.validate()
    return config


def fmt(value: float) -> str:
    """17-significant-digit token; NaN serializes as 'nan'."""
    return "%.17g" % value


def open_output(path: Path) -> TextIO:
    """Open ``path`` for writing, unlinking it first if it is a regular file.

    On ext4 (default ``auto_da_alloc``), closing a file truncated to zero or
    renamed over waits for its writeback: the default ``sweep.csv`` took
    0.42-0.90 s rewritten in place, 0.41-0.62 s through a rename and 0.18 s
    as a new file (2-vCPU VM). A hard link keeps the old bytes; symlinks are
    written through; a refused unlink falls back to truncating."""
    with contextlib.suppress(OSError):
        if stat.S_ISREG(path.lstat().st_mode):
            path.unlink()
    return path.open("w", newline="")


def _repeated_tokens(column: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The distinct bit patterns of a float column, sorted as int64, and the
    ``fmt`` token of each; None unless they number a quarter of the rows or
    fewer.

    Keying on bits keeps 0.0 and -0.0 apart.  A strided sample screens the
    column first, so a column of mostly distinct values stops there.  Sets
    stand in for np.unique, which imports numpy.ma (about 1.5 MB resident),
    and np.sort, whose first call maps about 0.4 MB of sort code.
    """
    bits = column.view(np.int64)
    sample = bits[::max(1, bits.size // CSV_SAMPLE)].tolist()
    if 4 * len(set(sample)) > len(sample):
        return None
    distinct: set[int] = set()
    for start in range(0, bits.size, CSV_SAMPLE):
        distinct.update(bits[start:start + CSV_SAMPLE].tolist())
        if 4 * len(distinct) > bits.size:
            return None
    ordered = np.array(sorted(distinct), dtype=np.int64)
    return ordered, np.array([fmt(v) for v in ordered.view(float).tolist()], dtype=object)


def write_rows_csv(rows: np.ndarray, fields: list[str], path: Path) -> None:
    """Header plus one line of ``fmt`` tokens per structured row.

    A column with few distinct values, such as the grid angles, has each
    of them formatted once; its tokens enter the line as strings, looked up
    for each block of rows.  Rows are converted ``CSV_BLOCK`` at a time, so
    the Python objects held at once do not grow with the table.
    """
    repeated = [_repeated_tokens(rows[name]) for name in fields]
    line = ",".join("%.17g" if rep is None else "%s" for rep in repeated) + "\n"
    with open_output(path) as fh:
        fh.write(",".join(fields) + "\n")
        for start in range(0, len(rows), CSV_BLOCK):
            block = rows[start:start + CSV_BLOCK]
            columns = [
                block[name].tolist() if rep is None
                else rep[1][np.searchsorted(rep[0], block[name].view(np.int64))].tolist()
                for name, rep in zip(fields, repeated)
            ]
            fh.write("".join([line % values for values in zip(*columns)]))


def write_table_csv(table: SweepTable, path: Path) -> None:
    write_rows_csv(table.rows, CSV_FIELDS, path)


def write_slice_csv(profile: np.ndarray, path: Path) -> None:
    write_rows_csv(profile, SLICE_FIELDS, path)


def _record_pairs(record) -> list[tuple[str, str]]:
    pairs = [
        ("alpha", fmt(record.row["alpha"][0])),
        ("phi", fmt(record.row["phi"][0])),
        ("omega_tau", fmt(record.params.omega_tau)),
        ("beta_hbar_omega", fmt(record.params.beta_hbar_omega)),
        ("steps", str(record.params.steps)),
        ("w_ext", fmt(record.w_ext)),
        ("q_m", fmt(record.q_m)),
        ("q_t", fmt(record.q_t)),
        ("eta", "undefined" if not record.eta_defined else fmt(record.eta)),
        ("ds", fmt(record.d_s)),
        ("xi", fmt(record.probs.xi)),
        ("zeta", fmt(record.probs.zeta)),
        ("delta", fmt(record.probs.delta)),
        ("gamma", fmt(record.probs.gamma)),
    ]
    pairs.extend((f"residual_{k}", fmt(v)) for k, v in sorted(record.residuals.items()))
    pairs.append(("residual_max", fmt(max(record.residuals.values()))))
    return pairs


def cmd_run(args: argparse.Namespace) -> int:
    config = build_config(args)
    if config.alpha_rad is None or config.phi_rad is None:
        raise ConfigurationError("run requires alpha_rad and phi_rad")
    record = run_cycle(config.engine_params(config.alpha_rad, config.phi_rad))
    for key, value in _record_pairs(record):
        print(f"{key}={value}")
    if args.csv:
        write_rows_csv(record.row, CSV_FIELDS, Path(args.csv))
    return 0


def _parse_objectives(raw: str) -> list[Objective]:
    names = [token.strip() for token in raw.split(",") if token.strip()]
    if not names:
        raise ConfigurationError("no objectives given")
    try:
        return [Objective(name) for name in names]
    except ValueError:
        valid = ", ".join(o.value for o in Objective)
        raise ConfigurationError(f"objectives must be among: {valid}") from None


def cmd_sweep(args: argparse.Namespace) -> int:
    config = build_config(args)
    objectives = _parse_objectives(args.objectives)
    params = config.engine_params()
    grid = GridSpec(base=params, alpha_points=config.grid_alpha_points,
                    phi_points=config.grid_phi_points)
    _partner_indices(grid)  # the symmetry residual needs an odd phi count
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    engine = CycleEngine(params)
    table = grid_sweep(grid, engine)

    summary: dict[str, object] = {
        "params": {
            "hbar_omega_pev": config.hbar_omega_pev,
            "tau_us": config.tau_us,
            "beta": config.beta,
            "omega_tau": params.omega_tau,
            "beta_hbar_omega": params.beta_hbar_omega,
            "steps": config.steps,
            "grid_alpha_points": config.grid_alpha_points,
            "grid_phi_points": config.grid_phi_points,
        },
        "flagged_rows": table.flagged,
    }
    for objective in objectives:
        try:
            extremum = locate_extrema(table, objective, engine)
        except ConfigurationError:
            # e.g. beta = 0 leaves eta undefined on every row
            summary[objective.value] = None
            continue
        summary[objective.value] = {
            "alpha": extremum.alpha_star,
            "phi": extremum.phi_star,
            "value": extremum.value,
        }
    summary["symmetry_residual"] = symmetry_residual(table)

    csv_path = out_dir / "sweep.csv"
    summary_path = out_dir / "summary.json"
    write_table_csv(table, csv_path)
    with open_output(summary_path) as fh:
        fh.write(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {csv_path} ({table.rows.shape[0]} rows) and {summary_path}")
    return 0


def cmd_slice(args: argparse.Namespace) -> int:
    config = build_config(args)
    if (args.fixed_alpha is None) == (args.fixed_phi is None):
        raise ConfigurationError("give exactly one of --fixed-alpha / --fixed-phi")
    fixed = "alpha" if args.fixed_alpha is not None else "phi"
    value = args.fixed_alpha if fixed == "alpha" else args.fixed_phi
    profile = slice_profile(config.engine_params(), fixed, value, points=args.points)
    path = Path(args.output)
    write_slice_csv(profile, path)
    print(f"wrote {path} ({len(profile)} rows)")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    config = build_config(args)
    rehermitize = args.inject_fault != "skip-rehermitize"
    results = run_all_suites(
        config.engine_params(),
        seed=config.seed,
        samples=args.samples,
        grid_points=(config.grid_alpha_points, config.grid_phi_points),
        rehermitize=rehermitize,
    )
    print(f"seed={config.seed}")
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


def _add_common(parser: argparse.ArgumentParser) -> None:
    # argparse takes only forms like -1 and -.5 as numbers; -1e-3 would read as a flag
    parser._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    parser.add_argument("--config", help="key=value configuration file")
    helps = {"beta": f"inverse temperature in 1/peV, or {BETA_TOKEN!r}",
             "seed": f"RNG seed (alternative: ${SEED_ENV_VAR})"}
    # an option not given stays out of the namespace: the defaults live in RunConfig
    for key in CONFIG_KEYS:
        kind = int if key in ("steps", "seed") or key.startswith("grid.") else float
        parser.add_argument(_flag(key), dest=key.replace(".", "_"), default=argparse.SUPPRESS,
                            type=_coerce_beta if key == "beta" else kind, help=helps.get(key))


def build_parser() -> _Parser:
    parser = _Parser(prog="qmeter",
                     description="measurement-fueled single-qubit engine simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evaluate one cycle")
    _add_common(p_run)
    p_run.add_argument("--csv", help="also write the record as a one-row CSV")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="scan the (alpha, phi) plane")
    _add_common(p_sweep)
    p_sweep.add_argument("--output", default=".", help="output directory")
    p_sweep.add_argument("--objectives", default="max_w_ext,max_eta,min_ds")
    p_sweep.set_defaults(func=cmd_sweep)

    p_slice = sub.add_parser("slice", help="1-D profile with one angle fixed")
    _add_common(p_slice)
    p_slice.add_argument("--fixed-alpha", dest="fixed_alpha", type=float)
    p_slice.add_argument("--fixed-phi", dest="fixed_phi", type=float)
    p_slice.add_argument("--points", type=int, default=513)
    p_slice.add_argument("--output", default="slice.csv")
    p_slice.set_defaults(func=cmd_slice)

    p_verify = sub.add_parser("verify", help="run the invariant suites")
    _add_common(p_verify)
    p_verify.add_argument("--samples", type=int, default=2000)
    p_verify.add_argument("--inject-fault", choices=["skip-rehermitize"],
                          help="testing hook: disable a safeguard and expect FAIL")
    p_verify.set_defaults(func=cmd_verify, grid_alpha_points=129, grid_phi_points=129)
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
            tokens = parse_config_file(args.config)
            try:
                args = parser.parse_args([argv[0], *tokens, *argv[1:]])
            except ConfigurationError as exc:  # argv alone parsed, so the file is at fault
                raise ConfigurationError(f"{args.config}: {exc}") from None
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
