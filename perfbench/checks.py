"""Output checks: each request is judged correct or given a failure reason.

A request fails when it raises, exits nonzero or fails the check of its
output.  The oracle is the one the test suite uses (``tests/conftest.py``):
the exact rotating-frame propagators ``closed_form_u``/``closed_form_v``
and the Bloch-vector cycle ``bloch_cycle``, neither of which shares code
with the package's evaluation paths.  Bounds are the package's own
``DEFAULT_TOLERANCES``.

- sweep: header, row count, exact grid coordinates, sampled rows and the
  three refined extrema against the oracle, ``symmetry_residual`` within
  ``Tolerances.symmetry``, and the sha256 of ``sweep.csv`` identical across
  every unit and run of one program version on one checkout (the bitwise
  determinism contract).
- slice: header, row count, exact coordinates, sampled rows against the oracle.
- verify: exit 0, every suite present and ``PASS``.
- run: the echoed parameters match the argv, the record agrees with the
  oracle, and ``residual_max`` is within ``Tolerances.analytic``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import random
import re
from pathlib import Path

import numpy as np

from qmeter.tolerances import DEFAULT_TOLERANCES as TOL

import workloads

SWEEP_HEADER = "alpha,phi,w_ext,q_m,q_t,eta,ds,xi,zeta,delta,gamma"
SLICE_HEADER = "alpha,phi,w_ext,q_m,eta,ds,zeta,delta,gamma,dp3,dp4"
VERIFY_SUITES = (
    "unitarity", "propagator_error", "convergence_order", "measurement_channel",
    "first_law", "kelvin", "entropy_equalities", "analytic_vs_oracle",
    "efficiency_forms", "efficiency_bounds", "transition_inequality", "symmetry",
)
RUN_KEYS = ("alpha", "phi", "omega_tau", "beta_hbar_omega", "steps",
            "w_ext", "q_m", "q_t", "eta", "ds", "residual_max")
SAMPLED_SWEEP_ROWS = 256
SAMPLED_SLICE_ROWS = 64
DEFAULT_GRID_POINTS = 257
DEFAULT_SLICE_POINTS = 513
DEFAULT_STEPS = 1024
DIGESTS_FILE = "sweep_sha256.json"
_SUITE_LINE = re.compile(r"^\[(PASS|FAIL)\] (\w+):")


def load_oracle(root: Path):
    """``tests/conftest.py`` as a module, for its oracles."""
    spec = importlib.util.spec_from_file_location("qmeter_test_oracles", root / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def source_digest(root: Path) -> str:
    """sha256 over the package sources, which names the program version."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "qmeter").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _flag(argv: list[str], name: str, default):
    return type(default)(argv[argv.index(name) + 1]) if name in argv else default


class Checker:
    def __init__(self, root: Path, seed: int):
        self.root = root
        self.oracle = load_oracle(root)
        self.rng = random.Random(f"checks:{seed}")
        self.digests_path = root / workloads.OUT_DIR / DIGESTS_FILE
        self.version = source_digest(root)

    def failures(self, workload: str, seed: int, toy: bool, result: dict) -> list[str | None]:
        """One entry per request of ``result``: None, or why it failed."""
        requests = result["requests"]
        argvs = [argv for unit in range(len(result["units"]))
                 for argv in workloads.unit_requests(workload, seed, unit, toy)]
        reasons = [_exit_failure(req) for req in requests]
        if workload == "grid":
            self._judge_grid(argvs, requests, result["units"], reasons)
        else:
            judge = self._verify if workload == "verify" else self._run
            for k, (argv, req) in enumerate(zip(argvs, requests)):
                if reasons[k] is None:
                    reasons[k] = judge(argv, req["stdout"])
        return reasons

    # grid -----------------------------------------------------------------

    def _judge_grid(self, argvs, requests, units, reasons) -> None:
        # every unit overwrites the same files, so the content is checked on
        # the last unit and earlier units are tied to it by the digest
        sweep_argv, slice_argv = argvs[-2], argvs[-1]
        out_dir = self.root / workloads.GRID_DIR
        if reasons[-2] is None:
            reasons[-2] = self._sweep(sweep_argv, out_dir)
        if reasons[-1] is None:
            reasons[-1] = self._slice(slice_argv, self.root / slice_argv[slice_argv.index("--output") + 1])
        if reasons[-2] is not None:
            return
        on_disk = hashlib.sha256((out_dir / "sweep.csv").read_bytes()).hexdigest()
        key = f"{self.version} {' '.join(sweep_argv)}"
        digests = json.loads(self.digests_path.read_text()) if self.digests_path.exists() else {}
        expected = digests.setdefault(key, on_disk)
        for k in range(0, len(requests), 2):
            digest = units[k // 2]["digest"]
            if reasons[k] is None and digest != expected:
                reasons[k] = f"sweep.csv sha256 {digest} differs from {expected}"
        if on_disk != expected:
            reasons[-2] = f"sweep.csv sha256 {on_disk} differs from {expected}"
        self.digests_path.write_text(json.dumps(digests, indent=1) + "\n")

    def _sweep(self, argv: list[str], out_dir: Path) -> str | None:
        n_alpha = _flag(argv, "--grid-alpha-points", DEFAULT_GRID_POINTS)
        n_phi = _flag(argv, "--grid-phi-points", DEFAULT_GRID_POINTS)
        rows, why = _read_csv(out_dir / "sweep.csv", SWEEP_HEADER, n_alpha * n_phi)
        if why:
            return why
        col = {name: rows[:, k] for k, name in enumerate(SWEEP_HEADER.split(","))}
        if not (np.array_equal(col["alpha"], np.repeat(np.linspace(0.0, math.pi, n_alpha), n_phi))
                and np.array_equal(col["phi"], np.tile(np.linspace(0.0, 2 * math.pi, n_phi), n_alpha))):
            return "sweep.csv coordinates are not the row-major endpoint-inclusive grid"
        u, v, beta = self._propagators(argv)
        for k in self.rng.sample(range(len(rows)), min(SAMPLED_SWEEP_ROWS, len(rows))):
            why = self._row(col, k, u, v, beta, with_q_t=True)
            if why:
                return f"sweep.csv {why}"

        summary = json.loads((out_dir / "summary.json").read_text())
        if not summary["symmetry_residual"] <= TOL.symmetry:
            return f"symmetry_residual {summary['symmetry_residual']!r} above {TOL.symmetry}"
        objectives = _flag(argv, "--objectives", "max_w_ext,max_eta,min_ds").split(",")
        exact = summary["flagged_rows"] == 0  # extrema search only unflagged rows
        for objective in objectives:
            best = summary.get(objective)
            if best is None:
                return f"summary.json has no {objective} extremum"
            o = self.oracle.bloch_cycle(u, v, best["alpha"], best["phi"], beta)
            value = best["value"]
            if objective == "max_w_ext":
                off = abs(value + o["w"])
                beaten = exact and value < col["w_ext"].max() - TOL.refinement
            elif objective == "max_eta":
                off = abs(value * o["q_m"] + o["w"]) / max(1.0, abs(value))
                beaten = exact and value < np.nanmax(col["eta"]) - TOL.refinement
            else:
                off = abs(value - o["d_s"])
                beaten = exact and value > col["ds"].min() + TOL.refinement
            if not off <= TOL.analytic:
                return f"{objective} at ({best['alpha']!r}, {best['phi']!r}) is {off:.3e} off the oracle"
            if beaten:
                return f"{objective} {value!r} is worse than the best grid row"
        return None

    def _slice(self, argv: list[str], path: Path) -> str | None:
        points = _flag(argv, "--points", DEFAULT_SLICE_POINTS)
        rows, why = _read_csv(path, SLICE_HEADER, points)
        if why:
            return why
        col = {name: rows[:, k] for k, name in enumerate(SLICE_HEADER.split(","))}
        fixed_phi = _flag(argv, "--fixed-phi", 0.0)
        if not (np.array_equal(col["alpha"], np.linspace(0.0, math.pi, points))
                and np.all(col["phi"] == fixed_phi)):
            return "slice.csv coordinates do not match the requested slice"
        u, v, beta = self._propagators(argv)
        for k in self.rng.sample(range(points), min(SAMPLED_SLICE_ROWS, points)):
            why = self._row(col, k, u, v, beta, with_q_t=False)
            if why:
                return f"slice.csv {why}"
        return None

    def _propagators(self, argv: list[str]):
        """Exact propagators and beta*hbar*omega of a grid request, which
        keeps the default temperature beta = 1/(hbar*omega)."""
        omega_tau = self._omega_tau(_flag(argv, "--tau-us", 10.0))
        return (self.oracle.closed_form_u(omega_tau), self.oracle.closed_form_v(omega_tau), 1.0)

    def _omega_tau(self, tau_us: float) -> float:
        return 1e-12 / self.oracle.HBAR_EV_S * tau_us * 1e-6  # 1 peV gap

    def _row(self, col, k, u, v, beta, with_q_t: bool) -> str | None:
        o = self.oracle.bloch_cycle(u, v, col["alpha"][k], col["phi"][k], beta)
        return _energetics_off(
            {"w_ext": col["w_ext"][k], "q_m": col["q_m"][k], "ds": col["ds"][k],
             "eta": col["eta"][k], **({"q_t": col["q_t"][k]} if with_q_t else {})},
            o, f"row {k}")

    # verify and run -------------------------------------------------------

    def _verify(self, argv: list[str], stdout: str) -> str | None:
        lines = stdout.splitlines()
        if not lines or lines[0] != f"seed={_flag(argv, '--seed', 0)}":
            return "verify did not echo the requested seed"
        status = {}
        for line in lines[1:]:
            match = _SUITE_LINE.match(line)
            if match:
                status[match.group(2)] = match.group(1)
        missing = [s for s in VERIFY_SUITES if s not in status]
        failed = [s for s, st in status.items() if st != "PASS"]
        if missing or failed:
            return f"verify suites missing {missing}, failed {failed}"
        return None

    def _run(self, argv: list[str], stdout: str) -> str | None:
        record = dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)
        missing = [key for key in RUN_KEYS if key not in record]
        if missing:
            return f"run record lacks {missing}"
        alpha, phi = _flag(argv, "--alpha-rad", 0.0), _flag(argv, "--phi-rad", 0.0)
        beta = _flag(argv, "--beta", 0.0)
        omega_tau = self._omega_tau(_flag(argv, "--tau-us", 0.0))
        if (float(record["alpha"]) != alpha or float(record["phi"]) != phi
                or float(record["beta_hbar_omega"]) != beta
                or int(record["steps"]) != DEFAULT_STEPS
                or not math.isclose(float(record["omega_tau"]), omega_tau, rel_tol=1e-12)):
            return "run echoes other parameters than requested"
        if not float(record["residual_max"]) <= TOL.analytic:
            return f"residual_max {record['residual_max']} above {TOL.analytic}"
        o = self.oracle.bloch_cycle(self.oracle.closed_form_u(omega_tau),
                                    self.oracle.closed_form_v(omega_tau), alpha, phi, beta)
        eta = float("nan") if record["eta"] == "undefined" else float(record["eta"])
        return _energetics_off(
            {key: float(record[key]) for key in ("w_ext", "q_m", "q_t", "ds")} | {"eta": eta},
            o, "run record")


def _exit_failure(req: dict) -> str | None:
    if req["error"] is not None:
        return f"raised {req['error']}"
    if req["code"] != 0:
        return f"exit code {req['code']}: {req['stderr'].strip()[:200]}"
    return None


def _read_csv(path: Path, header: str, rows: int):
    try:
        with path.open() as fh:
            first = fh.readline().rstrip("\n")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        return None, f"{path.name} unreadable: {exc}"
    if first != header:
        return None, f"{path.name} header {first!r}"
    if data.shape != (rows, len(header.split(","))):
        return None, f"{path.name} has shape {data.shape}, expected {rows} rows"
    return data, None


def _energetics_off(values: dict, o: dict, where: str) -> str | None:
    """Compare reported energetics with the oracle at ``Tolerances.analytic``.

    The efficiency is compared in cross-multiplied form, eta * q_m = w_ext,
    which stays well conditioned where the fuel q_m is small.
    """
    values = {key: float(value) for key, value in values.items()}
    expect = {"w_ext": -float(o["w"]), "q_m": float(o["q_m"]), "q_t": float(o["q_t"]),
              "ds": float(o["d_s"])}
    for key in ("w_ext", "q_m", "q_t", "ds"):
        if key in values and not abs(values[key] - expect[key]) <= TOL.analytic:
            return f"{where}: {key}={values[key]!r}, oracle {expect[key]!r}"
    eta = values["eta"]
    if values["q_m"] > TOL.fuel:
        if not abs(eta * o["q_m"] + o["w"]) <= TOL.analytic * max(1.0, abs(eta)):
            return f"{where}: eta={eta!r} disagrees with the oracle's -w/q_m"
    elif not math.isnan(eta):
        return f"{where}: eta={eta!r} defined below the fuel floor"
    return None
