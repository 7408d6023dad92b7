"""A/B the benchmark's end-to-end metrics between a parent revision and the checkout.

Usage::

    python tools/bench_ab.py --parent REV --out BENCH_<n>.json

The change is the checkout as it stands: ``HEAD`` plus the edits to tracked
files, staged or not (``git stash create``, which touches neither the tree
nor the stash list).  Untracked files are not part of it, so the script
stops if there are any; stage them first.  Both sides are unpacked with
``git archive`` into one temporary directory, which is removed at the end.

The workloads and the run length ``S`` are ``BENCHMARK.json``'s.  For each
workload, pair ``i`` of ``PAIRS`` runs ``perfbench/run.py --workload W --seed
500+i --seconds S --trace 0`` once in each copy, the parent first on even
pairs and the change first on odd ones, so the host's slow drifts fall on
both sides alike.  Each copy is also hashed by this checkout's
``tools/contract_hashes.py``.

The JSON holds every run's metrics and, per workload and metric, each
side's median and quartiles and the number of pairs in which the change
read lower (ties count for neither).  A metric whose spread (interquartile
range over median) exceeds its ``BENCHMARK.json`` bound on either side, or
whose change median is worse than the parent's by more than the bound, is
listed under ``flags``.  The script claims nothing; it runs no test.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RUN_TIMEOUT_S = 600
PAIRS = 10  # per workload
FIRST_SEED = 500  # pair i runs seed FIRST_SEED + i on both sides

KNOWN_GAPS = [
    "peak_rss_mb is the workload process's own peak: the child a large table "
    "forks (qmeter/blocks.py) and its temporary file are outside it.",
    "on grid the harness sets peak_rss_mb: workloads.unit_digest reads the 13.6 MB "
    "sweep.csv on top of the 37.7 MB the first sweep leaves; a worker-like loop "
    "read 51.2 MB there against 44.3 MB during the sweep.",
]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def checkout_commit() -> tuple[str, str]:
    """``(HEAD sha, commit sha of the checkout)``; the two agree on a clean tree."""
    untracked = git("ls-files", "--others", "--exclude-standard")
    if untracked:
        raise SystemExit(f"error: untracked files are not benchmarked; stage them:\n{untracked}")
    head = git("rev-parse", "HEAD")
    return head, git("stash", "create") or head


def unpack(sha: str, dest: Path) -> Path:
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def parse_result(stdout: str) -> dict:
    """The one-line JSON result that ends ``perfbench/run.py``'s stdout, metrics flattened."""
    result = json.loads(stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def parse_contract(stdout: str) -> dict:
    """Fingerprint, module line counts and hashes from ``tools/contract_hashes.py``."""
    out: dict = {"fingerprint": [], "lines": None, "hashes": {}}
    for line in stdout.splitlines():
        if line.startswith(("simd: ", "openblas core: ")):
            out["fingerprint"].append(line)
        elif line.startswith("lines: "):
            out["lines"] = line
        elif "  " in line:
            digest, label = line.split("  ", 1)
            out["hashes"][label] = digest
    return out


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric of ``metrics`` (``BENCHMARK.json``'s ``end_to_end``): each
    side's median and quartiles over ``runs``, the pair counts and the flags."""
    summary = {}
    for spec in metrics:
        name, bound, lower_better = spec["name"], spec["bound"], spec["better"] == "lower"
        pairs = [(run["parent"]["metrics"][name], run["change"]["metrics"][name])
                 for run in runs if name in run["parent"]["metrics"]
                 and name in run["change"]["metrics"]]
        if not pairs:
            continue
        parent, change = (quartiles(list(side)) for side in zip(*pairs))
        entry = {"unit": spec["unit"], "better": spec["better"], "bound": bound,
                 "parent": parent, "change": change, "pairs": len(pairs),
                 "change_lower": sum(c < p for p, c in pairs),
                 "change_higher": sum(c > p for p, c in pairs),
                 "median_ratio": change["median"] / parent["median"], "flags": []}
        for side, q in (("parent", parent), ("change", change)):
            spread = (q["q3"] - q["q1"]) / q["median"]
            if spread > bound:
                entry["flags"].append(f"{side} spread {spread:.3f} of its median exceeds "
                                      f"the bound {bound}")
        worse = entry["median_ratio"] - 1.0 if lower_better else 1.0 - entry["median_ratio"]
        if worse > bound:
            entry["flags"].append(f"change median worse by {worse:.3f}, over the bound {bound}")
        summary[name] = entry
    return summary


def assemble(sides: dict, host: dict, protocol: dict, runs: dict[str, list[dict]],
             metrics: list[dict]) -> dict:
    """The whole BENCH document from the collected runs and the two sides' records."""
    workloads = {}
    for workload, wruns in runs.items():
        workloads[workload] = {
            "failed": {side: sum(run[side]["failed"] for run in wruns)
                       for side in ("parent", "change")},
            "attempted": {side: sum(run[side]["attempted"] for run in wruns)
                          for side in ("parent", "change")},
            "all_correct": all(run[side]["correct"] for run in wruns
                               for side in ("parent", "change")),
            "metrics": summarize(wruns, metrics),
            "runs": wruns,
        }
    hashes = [sides[side]["contract"]["hashes"] for side in ("parent", "change")]
    return {
        "parent": sides["parent"],
        "change": sides["change"],
        "host": host,
        "protocol": protocol,
        "same_fingerprint": (sides["parent"]["contract"]["fingerprint"]
                             == sides["change"]["contract"]["fingerprint"]),
        "moved_hashes": sorted(label for label in hashes[0].keys() | hashes[1].keys()
                               if hashes[0].get(label) != hashes[1].get(label)),
        "known_gaps": KNOWN_GAPS,
        "workloads": workloads,
    }


def run(cmd: list[str], cwd: Path) -> str:
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {cwd} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return proc.stdout


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--out", required=True, help="path of the JSON to write")
    args = parser.parse_args(argv)

    head, change_sha = checkout_commit()
    parent_sha = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds, metrics = bench["run_seconds"], bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]
    sides: dict[str, dict] = {
        "parent": {"rev": args.parent, "sha": parent_sha},
        "change": {"rev": "checkout", "head": head, "sha": change_sha},
    }
    for side in sides.values():  # the src tree names the benchmarked code in any later commit
        side["src_tree"] = git("rev-parse", f"{side['sha']}:src")
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    with tempfile.TemporaryDirectory(prefix="qmeter-bench-ab-") as tmp:
        copies = {side: unpack(sides[side]["sha"], Path(tmp) / side) for side in sides}
        for side, copy in copies.items():
            print(f"hashing {side}", file=sys.stderr, flush=True)
            sides[side]["contract"] = parse_contract(run(
                [sys.executable, str(ROOT / "tools" / "contract_hashes.py"), str(copy / "src")],
                ROOT))
        for workload in workloads:
            for i in range(PAIRS):
                seed = FIRST_SEED + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                record: dict = {"pair": i, "seed": seed, "first": order[0]}
                for side in order:
                    record[side] = parse_result(run(
                        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                         str(seed), "--seconds", str(seconds), "--trace", "0"],
                        copies[side]))
                    print(f"{workload} pair {i} {side}: "
                          f"wall_s={record[side]['metrics'].get('wall_s')}",
                          file=sys.stderr, flush=True)
                runs[workload].append(record)
    host = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__}
    protocol = {"command": "python perfbench/run.py --workload W --seed S --seconds "
                           f"{seconds:g} --trace 0",
                "pairs": PAIRS, "seconds": seconds,
                "seeds": [FIRST_SEED + i for i in range(PAIRS)],
                "order": "parent first on even pairs, change first on odd pairs"}
    document = assemble(sides, host, protocol, runs, metrics)
    Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    for workload, entry in document["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload:7s} {name:12s} {m['parent']['median']:10.4g} -> "
                  f"{m['change']['median']:10.4g}  lower {m['change_lower']}/{m['pairs']}"
                  + "".join(f"  FLAG: {flag}" for flag in m["flags"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
