"""Smoke test of the benchmark harness at toy size; carries no timing bound.

    python3 -m pytest -q perfbench/test_smoke.py

It runs every workload through ``run.py --toy``, untraced and traced, and
checks the result line against ``BENCHMARK.json``.  Then it hands the
output checks deliberately corrupted outputs, each of which must count as a
failed request and so raise ``failed_frac``.  The suite's ``testpaths``
keep it out of the main test run.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench  # noqa: E402
import workloads  # noqa: E402
from checks import Checker  # noqa: E402

SEED = 5
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def failed_frac(workload: str, result: dict) -> float:
    reasons = Checker(ROOT, SEED).failures(workload, SEED, True, result)
    return sum(r is not None for r in reasons) / len(reasons)


def toy_run(workload: str) -> dict:
    return bench.run_workload(workload, SEED, 0.0, True, time.monotonic() + 170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_result_line(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}


def test_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "points", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def _corrupt_record(result, key, new):
    """Give ``key`` the value ``new`` in one run record; None drops the line."""
    req = result["requests"][3]
    lines = [f"{key}={new}" if line.startswith(f"{key}=") else line
             for line in req["stdout"].splitlines()]
    req["stdout"] = "\n".join(line for line in lines if line != f"{key}=None")


POINTS_CORRUPTIONS = {
    "oracle": lambda r: _corrupt_record(r, "w_ext", "0.25"),
    "eta": lambda r: _corrupt_record(r, "eta", "0.5"),
    "residual": lambda r: _corrupt_record(r, "residual_max", "1e-3"),
    "echo": lambda r: _corrupt_record(r, "alpha", "0.125"),
    "missing key": lambda r: _corrupt_record(r, "q_t", None),
    "exit code": lambda r: r["requests"][3].update(code=2),
    "raised": lambda r: r["requests"][3].update(error="ValueError: boom"),
}
VERIFY_CORRUPTIONS = {
    "suite failed": lambda r: r["requests"][0].update(
        stdout=r["requests"][0]["stdout"].replace("[PASS] kelvin", "[FAIL] kelvin")),
    "suite missing": lambda r: r["requests"][0].update(stdout="\n".join(
        line for line in r["requests"][0]["stdout"].splitlines() if "symmetry" not in line)),
    "seed": lambda r: r["requests"][0].update(
        stdout=r["requests"][0]["stdout"].replace(f"seed={SEED}", "seed=0")),
}


@pytest.fixture(scope="module")
def points_result():
    return toy_run("points")


@pytest.fixture(scope="module")
def verify_result():
    return toy_run("verify")


@pytest.mark.parametrize("case", sorted(POINTS_CORRUPTIONS))
def test_corrupted_run_record_counts_as_failed(points_result, case):
    assert failed_frac("points", points_result) == 0.0
    result = json.loads(json.dumps(points_result))
    POINTS_CORRUPTIONS[case](result)
    assert failed_frac("points", result) == 1 / len(result["requests"])


@pytest.mark.parametrize("case", sorted(VERIFY_CORRUPTIONS))
def test_corrupted_verify_output_counts_as_failed(verify_result, case):
    assert failed_frac("verify", verify_result) == 0.0
    result = json.loads(json.dumps(verify_result))
    VERIFY_CORRUPTIONS[case](result)
    assert failed_frac("verify", result) == 1.0


def _edit_csv(path: Path, row: int, field: int, value: str) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[field] = value
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _edit_summary(path: Path, key: str, value) -> None:
    summary = json.loads(path.read_text())
    summary[key] = value
    path.write_text(json.dumps(summary))


GRID = ROOT / workloads.GRID_DIR
# corruption, and the index of the request that must fail
GRID_CORRUPTIONS = {
    "sweep byte": (lambda r: _edit_csv(GRID / "sweep.csv", 7, 2, "0.125"), 0),
    "sweep rows": (lambda r: (GRID / "sweep.csv").write_text(
        "\n".join((GRID / "sweep.csv").read_text().splitlines()[:-1]) + "\n"), 0),
    "sweep coordinates": (lambda r: _edit_csv(GRID / "sweep.csv", 0, 1, "0.5"), 0),
    "sweep header": (lambda r: (GRID / "sweep.csv").write_text(
        (GRID / "sweep.csv").read_text().replace("w_ext", "W", 1)), 0),
    "symmetry": (lambda r: _edit_summary(GRID / "summary.json", "symmetry_residual", 1e-3), 0),
    "extremum": (lambda r: _edit_summary(GRID / "summary.json", "max_w_ext",
                                         {"alpha": 1.0, "phi": 1.0, "value": 0.5}), 0),
    "digest": (lambda r: r["units"][0].update(digest="0" * 64), 0),
    "slice value": (lambda r: _edit_csv(GRID / "slice.csv", 4, 2, "0.125"), 1),
    "slice rows": (lambda r: (GRID / "slice.csv").write_text(
        "\n".join((GRID / "slice.csv").read_text().splitlines()[:-2]) + "\n"), 1),
}


def test_corrupted_grid_outputs_count_as_failed():
    result = toy_run("grid")
    pristine = {name: (GRID / name).read_bytes() for name in ("sweep.csv", "slice.csv", "summary.json")}
    assert failed_frac("grid", result) == 0.0
    checker = Checker(ROOT, SEED)
    for case, (corrupt, index) in GRID_CORRUPTIONS.items():
        for name, data in pristine.items():
            (GRID / name).write_bytes(data)
        copy = json.loads(json.dumps(result))
        corrupt(copy)
        reasons = checker.failures("grid", SEED, True, copy)
        assert reasons[index] is not None, case
        assert sum(r is not None for r in reasons) / len(reasons) > 0.0, case
    for name, data in pristine.items():
        (GRID / name).write_bytes(data)
    # the oracle check alone, not only the digest, sees wrong values
    for row in range(len(pristine["sweep.csv"].splitlines()) - 1):
        _edit_csv(GRID / "sweep.csv", row, 3, "0.125")
    argv = workloads.unit_requests("grid", SEED, 0, toy=True)[0]
    assert "q_m=0.125" in checker._sweep(argv, GRID)
