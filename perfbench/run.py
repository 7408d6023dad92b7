"""qmeter benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload {grid,verify,points} --seed N --seconds S --trace {0,1}

Run from anywhere; the checkout is the parent directory of this file, and
it must hold ``src/qmeter`` and ``tests/conftest.py``.  Each workload run is
a fresh interpreter (``worker.py``) driving ``qmeter.cli.main`` in a closed
loop with one client; see ``workloads.py`` for what each workload stresses.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload once untraced and once traced, and reports
the per-layer metrics of ``tracer.py`` plus ``trace.overhead_s``, the
traced minus the untraced wall time.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
result, with provenance and every argv, is also written to
``.perfbench_out/result-<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 10  # extra fresh interpreters timed for setup_s, besides the workload's
RUN_DEADLINE_S = 170.0


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _environment() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one client, one thread
    return env


def launch(args: list[str], deadline: float) -> float:
    """Run ``worker.py args`` to completion; return seconds from launch to ``ready``."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_environment(), stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise HarnessError(f"worker {args} ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise HarnessError(f"worker {args} failed with exit code {proc.returncode}")
    return setup_s


def run_workload(workload: str, seed: int, seconds: float, toy: bool, deadline: float,
                 spans: str | None = None, units: int | None = None) -> dict:
    """One worker run; the returned result carries its ``setup_s``."""
    shutil.rmtree(ROOT / workloads.GRID_DIR, ignore_errors=True)
    result = ROOT / workloads.OUT_DIR / f"worker-{workload}{'-traced' if spans else ''}.json"
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--result", str(result)]
    if toy:
        args.append("--toy")
    if spans:
        args += ["--spans", spans]
    if units:
        args += ["--min-units", str(units), "--max-units", str(units)]
    setup_s = launch(args, deadline)
    data = json.loads(result.read_text())
    with open(f"{result}.requests.jsonl") as records:
        data["requests"] = [json.loads(line) for line in records]
    data["setup_s"] = setup_s
    return data


def provenance(seed: int, load: tuple[float, float, float]) -> dict:
    import qmeter
    from checks import source_digest

    git = {"sha": None, "dirty": None}
    if (ROOT / ".git").exists():
        def git_out(*cmd: str) -> str:
            return subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True,
                                  timeout=30, check=True).stdout
        try:
            git = {"sha": git_out("rev-parse", "HEAD").strip(),
                   "dirty": bool(git_out("status", "--porcelain").strip())}
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git": git,
        "src_sha256": source_digest(ROOT),
        "qmeter": qmeter.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(load),
        "seed": seed,
    }


def end_to_end(result: dict, setups: list[float]) -> dict[str, tuple[float, str, int]]:
    """Times are upper quartiles, not medians: the host these figures were
    taken on alternates, over seconds to minutes, between a fast and a slow
    state about 1.5x apart, and spends most of its time in the slow one.  A
    median sits between the two states and moves with the share of the run
    spent in the fast one; the upper quartile sits inside the slow state."""
    lat = [r["latency_s"] for r in result["requests"]]
    walls = [u["wall_s"] for u in result["units"]]
    return {
        "wall_s": (float(numpy.percentile(walls, 75)), "s", len(walls)),
        "req_p75_ms": (float(numpy.percentile(lat, 75)) * 1e3, "ms", len(lat)),
        "req_p90_ms": (float(numpy.percentile(lat, 90)) * 1e3, "ms", len(lat)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", 1),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    """Run, check and summarise one workload; see the module docstring."""
    from checks import Checker

    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    load = os.getloadavg()
    out = ROOT / workloads.OUT_DIR
    out.mkdir(exist_ok=True)
    checker = Checker(ROOT, seed)
    reasons: list[str | None] = []

    def run_checked(**kwargs) -> dict:
        # checked at once: the next run of a grid unit overwrites its files
        result = run_workload(workload, seed, seconds, toy, deadline, **kwargs)
        reasons.extend(checker.failures(workload, seed, toy, result))
        return result

    layers: dict[str, float] = {}
    if not trace:
        setups = [launch(["--probe"], deadline) for _ in range(SETUP_PROBES)]
        result = run_checked()
        metrics = end_to_end(result, setups + [result["setup_s"]])
    else:
        from tracer import layer_metrics

        base = run_checked()
        spans = str(out / f"spans-{workload}.npz")
        result = run_checked(spans=spans, units=len(base["units"]))
        per_layer, layers = layer_metrics(spans)
        overhead = (sum(u["wall_s"] for u in result["units"])
                    - sum(u["wall_s"] for u in base["units"]))
        metrics = {name: (value, unit, len(result["requests"]))
                   for name, (value, unit) in per_layer.items()}
        metrics["trace.overhead_s"] = (overhead, "s", 1)
    argvs = [argv for unit in range(len(result["units"]))
             for argv in workloads.unit_requests(workload, seed, unit, toy)]
    return {
        "workload": workload,
        "trace": trace,
        "toy": toy,
        "metrics": metrics,
        "layers_self_s": layers,
        "traced_wall_s": sum(u["wall_s"] for u in result["units"]),
        "attempted": len(reasons),
        "failures": [r for r in reasons if r is not None],
        "provenance": provenance(seed, load) | {"argv": argvs},
        "elapsed_s": time.monotonic() - started,
    }


def report(summary: dict) -> None:
    """Human-readable lines, then the one-line JSON result."""
    attempted, failed = summary["attempted"], len(summary["failures"])
    prov = {k: v for k, v in summary["provenance"].items() if k != "argv"}
    argvs = summary["provenance"]["argv"]
    print(f"workload={summary['workload']} trace={int(summary['trace'])} "
          f"seed={prov['seed']} requests={attempted}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    if len(argvs) <= 4:
        for argv in argvs:
            print("argv qmeter " + " ".join(argv))
    else:
        print(f"argv {len(argvs)} requests, first: qmeter {' '.join(argvs[0])}")
    for name, (value, unit, n) in summary["metrics"].items():
        print(f"{name:36s} {value:>16.6g} {unit:<10s} n={n}")
    print(f"{'failed_frac':36s} {failed / attempted:>16.6g} {'1':<10s} n={attempted}")
    for reason in summary["failures"][:10]:
        print(f"FAILED: {reason}")
    if summary["layers_self_s"]:
        wall = summary["traced_wall_s"]
        for layer, self_s in sorted(summary["layers_self_s"].items(), key=lambda kv: -kv[1]):
            print(f"self time {layer:14s} {self_s:10.4f} s {100 * self_s / wall:6.1f}% of traced wall")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in summary["metrics"].items()},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="qmeter benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="shrink every request (harness smoke test only)")
    args = parser.parse_args(argv)
    if not ((ROOT / "src" / "qmeter" / "cli.py").is_file()
            and (ROOT / "tests" / "conftest.py").is_file()):
        print(f"error: {ROOT} holds no qmeter checkout (src/qmeter, tests/conftest.py)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        summary = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    (ROOT / workloads.OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(summary, indent=1) + "\n")
    report(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
