"""The assembly of ``tools/bench_ab.py``'s JSON, on canned outputs of
``perfbench/run.py`` and ``tools/contract_hashes.py``; nothing is run."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_ab.py"
spec = importlib.util.spec_from_file_location("bench_ab", TOOL)
bench_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_ab)

METRICS = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]


def run_stdout(wall_s, rss=42.0, failed=0):
    result = {"correct": failed == 0, "attempted": 10, "failed": failed,
              "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                          "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    return f"workload=verify trace=0 seed=1 requests=10\nwall_s {wall_s}\n{json.dumps(result)}\n"


def contract_stdout(help_digest="c" * 64):
    return "\n".join(["simd: SSE AVX2", "openblas core: SkylakeX",
                      "lines: cli.py 335 total 2175",
                      f"{'a' * 64}  sweep: sweep.csv",
                      f"{help_digest}  --help of qmeter and its four commands: stdout, exit codes",
                      ""])


def pairs(parent_walls, change_walls, change_rss=42.0, change_failed=0):
    return [{"pair": i, "seed": 500 + i, "first": "parent" if i % 2 == 0 else "change",
             "parent": bench_ab.parse_result(run_stdout(p)),
             "change": bench_ab.parse_result(run_stdout(c, change_rss, change_failed))}
            for i, (p, c) in enumerate(zip(parent_walls, change_walls))]


def test_a_run_result_is_read_from_the_last_line():
    assert bench_ab.parse_result(run_stdout(0.5, failed=2)) == {
        "correct": False, "attempted": 10, "failed": 2,
        "metrics": {"wall_s": 0.5, "peak_rss_mb": 42.0}}


def test_the_contract_lines_are_split_into_fingerprint_lines_and_hashes():
    contract = bench_ab.parse_contract(contract_stdout())
    assert contract["fingerprint"] == ["simd: SSE AVX2", "openblas core: SkylakeX"]
    assert contract["lines"] == "lines: cli.py 335 total 2175"
    assert contract["hashes"]["sweep: sweep.csv"] == "a" * 64
    assert len(contract["hashes"]) == 2


def test_medians_quartiles_and_pair_counts():
    summary = bench_ab.summarize(pairs([1.0, 2.0, 3.0, 4.0, 5.0], [0.9, 2.0, 3.5, 3.0, 4.0]),
                                 METRICS)
    wall = summary["wall_s"]
    assert wall["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert wall["change"] == {"median": 3.0, "q1": 2.0, "q3": 3.5}
    assert (wall["pairs"], wall["change_lower"], wall["change_higher"]) == (5, 3, 1)
    assert wall["median_ratio"] == 1.0
    # an interquartile range of 2/3 of the median is over the 0.25 bound on both sides
    assert [flag.split()[0] for flag in wall["flags"]] == ["parent", "change"]
    assert summary["peak_rss_mb"]["flags"] == []


def test_a_change_worse_than_its_bound_is_flagged_and_a_missing_metric_skipped():
    summary = bench_ab.summarize(pairs([1.0] * 4, [1.0] * 4, change_rss=50.0),
                                 [*METRICS, {"name": "setup_s", "unit": "s", "better": "lower",
                                             "bound": 0.25}])
    assert summary["wall_s"]["flags"] == []
    assert summary["peak_rss_mb"]["flags"] == ["change median worse by 0.190, over the bound 0.1"]
    assert summary["peak_rss_mb"]["change_higher"] == 4
    assert "setup_s" not in summary


def test_the_document_holds_both_sides_the_runs_and_the_known_gaps():
    sides = {"parent": {"rev": "p", "sha": "1" * 40,
                        "contract": bench_ab.parse_contract(contract_stdout())},
             "change": {"rev": "checkout", "sha": "2" * 40,
                        "contract": bench_ab.parse_contract(contract_stdout("d" * 64))}}
    runs = {"verify": pairs([1.0, 1.1], [1.0, 1.0], change_failed=1)}
    doc = bench_ab.assemble(sides, {"nproc": 2}, {"pairs": 2}, runs, METRICS)
    assert doc["same_fingerprint"] is True
    assert doc["moved_hashes"] == ["--help of qmeter and its four commands: stdout, exit codes"]
    assert doc["known_gaps"] == bench_ab.KNOWN_GAPS and len(doc["known_gaps"]) == 2
    verify = doc["workloads"]["verify"]
    assert verify["failed"] == {"parent": 0, "change": 2}
    assert verify["attempted"] == {"parent": 20, "change": 20}
    assert verify["all_correct"] is False
    assert verify["runs"] == runs["verify"]
    assert verify["metrics"]["wall_s"]["change_lower"] == 1
    assert json.loads(json.dumps(doc)) == doc


@pytest.mark.parametrize("values, expected", [([2.0], (2.0, 2.0, 2.0)),
                                              ([1.0, 3.0], (2.0, 1.5, 2.5))])
def test_quartiles_of_one_or_two_runs(values, expected):
    q = bench_ab.quartiles(values)
    assert (q["median"], q["q1"], q["q3"]) == expected
