"""Agreement of a small sweep and one run across the BLAS cores and SIMD
levels that this host can stand in for.

Each setting runs in its own interpreter, since numpy and OpenBLAS read
them once at import.  Bytes may differ between settings; values agree
within ``Tolerances.analytic``.  Within each setting, the grouped 2x2
products of ``matmul_2x2`` have the bits of numpy's stacked product, which
every output of the package relies on.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

import qmeter
from qmeter.tolerances import DEFAULT_TOLERANCES as TOL

SETTINGS = {
    "default": {},
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "openblas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "numpy-x86-v2": {"NPY_ENABLE_CPU_FEATURES": "X86_V2"},
}

# checks qmeter's grouped 2x2 products against numpy's stacked ones bit for
# bit, then writes sweep.csv and summary.json of a 17x17 sweep, and run's
# stdout as run.txt, into the directory given as its argument
SCRIPT = """
import contextlib, sys
from pathlib import Path
import numpy as np
from qmeter.cli import main
from qmeter.qubit_algebra import matmul_2x2
parts = np.random.default_rng(5).normal(size=(2, 2, 300, 2, 2, 2))
a, b = parts[..., 0] + 1j * parts[..., 1]
for left, right in [(a, b), (a[0, 0], b), (a, b[0, 0])]:
    assert matmul_2x2(left, right).tobytes() == (left @ right).tobytes(), (left.shape, right.shape)
out = Path(sys.argv[1])
grid = ["--grid-alpha-points", "17", "--grid-phi-points", "17"]
with open(out / "run.txt", "w") as fh, contextlib.redirect_stdout(fh):
    codes = (main(["sweep", *grid, "--output", str(out)]),
             main(["run", "--alpha-rad", "1.39", "--phi-rad", "2.05"]))
sys.exit(max(codes))
"""


def numbers(value):
    """The numeric leaves of a parsed summary.json, in order, but for the
    angles of the extrema."""
    if isinstance(value, dict):
        return [x for k, v in value.items() if k not in ("alpha", "phi") for x in numbers(v)]
    return [float(value)] if isinstance(value, (int, float)) else []


def axes(summary):
    """The Bloch vector of each extremum's measurement basis.

    (alpha, phi) and (pi - alpha, phi + pi) measure along one axis with the
    outcomes swapped and give the same values (the symmetry that
    ``symmetry_residual`` checks), so two extrema agree if their vectors do
    up to sign.  Roundoff may pick either pole for ``min_ds``, which every
    phi at either pole ties.
    """
    found = [summary[k] for k in ("max_w_ext", "max_eta", "min_ds")]
    alpha, phi = np.array([[x["alpha"], x["phi"]] for x in found]).T
    return np.stack([np.sin(alpha) * np.cos(phi), np.sin(alpha) * np.sin(phi), np.cos(alpha)], 1)


def record_values(text):
    """run's key=value lines as floats, with a non-number such as
    ``undefined`` as NaN."""
    pairs = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
    values = {}
    for key, value in pairs.items():
        try:
            values[key] = float(value)
        except ValueError:
            values[key] = np.nan
    return values


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64")
                    or not __cpu_features__.get("AVX2"),
                    reason="the settings name x86 cores and levels up to AVX2")
def test_a_sweep_and_a_run_agree_across_blas_cores_and_simd_levels(tmp_path):
    src = str(Path(qmeter.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_CORETYPE", "NPY_ENABLE_CPU_FEATURES", "QMETER_SEED")}
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    children = {}
    for name, setting in SETTINGS.items():
        (tmp_path / name).mkdir()
        children[name] = subprocess.Popen(
            [sys.executable, "-c", SCRIPT, str(tmp_path / name)], env={**env, **setting},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    for name, child in children.items():
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, (name, out, err)

    def outputs(name):
        folder = tmp_path / name
        summary = json.loads((folder / "summary.json").read_text())
        return (np.loadtxt(folder / "sweep.csv", delimiter=",", skiprows=1), numbers(summary),
                axes(summary), record_values((folder / "run.txt").read_text()))

    table, summary, extrema, record = outputs("default")
    assert table.shape == (17 * 17, 11)
    for name in SETTINGS:
        other_table, other_summary, other_extrema, other_record = outputs(name)
        np.testing.assert_allclose(other_table, table, rtol=0, atol=TOL.analytic, err_msg=name)
        np.testing.assert_allclose(other_summary, summary, rtol=0, atol=TOL.analytic,
                                   err_msg=name)
        gap = np.minimum(np.abs(other_extrema - extrema).max(axis=1),
                         np.abs(other_extrema + extrema).max(axis=1))
        assert gap.max() <= TOL.analytic, name
        assert other_record.keys() == record.keys()
        np.testing.assert_allclose(list(other_record.values()), list(record.values()),
                                   rtol=0, atol=TOL.analytic, err_msg=name)
