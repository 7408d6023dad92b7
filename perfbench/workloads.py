"""The request streams of the three workloads, generated from the seed.

A workload run repeats a *unit* of requests until the measuring time is
used up.  Each request is one argv for ``qmeter.cli.main``; qmeter sees
only these argvs, never the seed.

- ``grid``: the paper's headline computation, one default sweep (257x257
  nodes, all three objectives) and one 513-point slice.  Nearly all time is
  the per-node kernel and the CSV writer; the propagator pair is built once.
- ``verify``: the invariant suites at their defaults.  It mixes propagator
  work (2001 engine builds that each miss the propagator cache, 65536-step
  reference builds) with node work (about 18.6k nodes).
- ``points``: units of 100 single-point ``run`` requests with seeded random
  angles, stroke time and temperature, so no two requests share a
  propagator pair.  Small units give a run of 20 s some 35 unit wall times.
  Engine setup dominates; the node kernel is a small share.

Outputs go under ``OUT_DIR`` (relative to the checkout root, which is the
working directory of every run), and a grid unit overwrites the files of the
unit before it.
"""

from __future__ import annotations

import hashlib
import math
import random
from pathlib import Path

WORKLOADS = ("grid", "verify", "points")
OUT_DIR = ".perfbench_out"
GRID_DIR = f"{OUT_DIR}/grid"
POINTS_PER_UNIT = 100
TOY_POINTS_PER_UNIT = 20

# Stroke times stay within 1..20 us (the default is 10 us): there the
# 1024-step integration error of the propagator is below 1e-9, a tenth of
# the analytic tolerance, so the exact rotating-frame oracle applies as is.
TAU_US_RANGE = (1.0, 20.0)
BETA_RANGE = (0.1, 10.0)  # 1/peV at the default 1 peV gap


def unit_requests(workload: str, seed: int, unit: int, toy: bool = False) -> list[list[str]]:
    """Argvs of one unit of ``workload``; the same arguments give the same argvs.

    ``toy`` shrinks every request to a size that runs in about a second, for
    the harness smoke test.
    """
    if workload == "grid":
        size = ["--grid-alpha-points", "17", "--grid-phi-points", "17"] if toy else []
        points = ["--points", "33"] if toy else []
        return [
            ["sweep", "--output", GRID_DIR, *size],
            ["slice", "--fixed-phi", "2.53", "--output", f"{GRID_DIR}/slice.csv", *points],
        ]
    if workload == "verify":
        size = ["--samples", "20", "--grid-alpha-points", "9", "--grid-phi-points", "9"] if toy else []
        return [["verify", "--seed", str(seed), *size]]
    if workload == "points":
        rng = random.Random(f"points:{seed}:{unit}")
        count = TOY_POINTS_PER_UNIT if toy else POINTS_PER_UNIT
        return [
            ["run",
             "--alpha-rad", repr(rng.uniform(0.0, math.pi)),
             "--phi-rad", repr(rng.uniform(0.0, 2.0 * math.pi)),
             "--tau-us", repr(rng.uniform(*TAU_US_RANGE)),
             "--beta", repr(rng.uniform(*BETA_RANGE))]
            for _ in range(count)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def unit_digest(workload: str) -> str | None:
    """sha256 of the sweep CSV a grid unit left behind; None for other
    workloads, or when the sweep wrote no CSV."""
    path = Path(GRID_DIR, "sweep.csv")
    if workload != "grid" or not path.exists():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()
