"""Property layer over the command line: every command, at small sizes and
with extreme physical inputs.

``--tau-us`` is drawn from 1e-300 to 1e300 and ``--beta`` as 0, 1e300 or
the token.  Sizes and ``--steps`` come from -3..3, a few small valid values
and 10**15, and from nothing in between: 10**15 fails at once (numpy cannot
map that many elements, and ``MAX_STEPS`` rejects that many steps), so no
example allocates or builds anything large.  Every example must end in exit
code 0, 1 or 2 without a traceback, and on exit 0 its output must parse.

Each new ``--tau-us`` that reaches ``verify``'s suites costs one cold
65536-step build, so ``verify`` draws few examples.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeter.cli import BETA_TOKEN, main
from qmeter.csvfmt import CSV_HEADER, SLICE_HEADER

taus = st.one_of(st.sampled_from([1e-300, 1e300]),
                 st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e))
betas = st.sampled_from(["0", "1e300", BETA_TOKEN])
# valid values first: the simplest example of each command runs to the end
sizes = st.one_of(st.sampled_from([3, 5, 9]), st.integers(-3, 3), st.just(10**15))
steps = st.one_of(st.sampled_from([2, 16, 64]), st.integers(-3, 3), st.just(10**15))

SUITE_LINE = re.compile(r"^\[(PASS|FAIL)\] \w+: max residual \S+ \(tol \S+\)( - .+)?$")


def physics(tau, beta, n_steps):
    return ["--tau-us", repr(tau), "--beta", beta, "--steps", str(n_steps)]


def run_main(args):
    """(exit code, stdout, stderr) of one in-process ``main`` call; an
    exception escaping ``main`` fails the example as the traceback it is."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(args)
    assert rc in (0, 1, 2), (args, rc)
    assert "Traceback" not in err.getvalue()
    if rc == 1:
        assert err.getvalue().startswith("error: "), (args, err.getvalue())
    return rc, out.getvalue(), err.getvalue()


def read_csv(path, header):
    lines = Path(path).read_text().splitlines()
    assert lines[0] == header
    return np.array([[float(token) for token in line.split(",")] for line in lines[1:]])


@settings(max_examples=30)
@given(taus, betas, steps)
def test_run_argv(tau, beta, n_steps):
    with tempfile.TemporaryDirectory() as tmp:
        row = Path(tmp) / "row.csv"
        rc, out, _ = run_main(["run", "--alpha-rad", "1.0", "--phi-rad", "2.0",
                               "--csv", str(row), *physics(tau, beta, n_steps)])
        if rc == 0:
            record = dict(line.split("=", 1) for line in out.splitlines())
            if record["eta"] == "undefined":
                del record["eta"]
            assert all(isinstance(float(value), float) for value in record.values())
            assert read_csv(row, CSV_HEADER).shape == (1, len(CSV_HEADER.split(",")))


@settings(max_examples=30)
@given(taus, betas, steps, sizes, sizes)
def test_sweep_argv(tau, beta, n_steps, alpha_points, phi_points):
    with tempfile.TemporaryDirectory() as tmp:
        rc, _, _ = run_main(["sweep", "--output", tmp, "--grid-alpha-points", str(alpha_points),
                             "--grid-phi-points", str(phi_points),
                             *physics(tau, beta, n_steps)])
        if rc == 0:
            table = read_csv(Path(tmp) / "sweep.csv", CSV_HEADER)
            assert len(table) == alpha_points * phi_points
            summary = json.loads((Path(tmp) / "summary.json").read_text())
            assert summary["flagged_rows"] >= 0


@settings(max_examples=30)
@given(taus, betas, steps, sizes)
def test_slice_argv(tau, beta, n_steps, points):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "slice.csv"
        rc, _, _ = run_main(["slice", "--fixed-phi", "1.0", "--points", str(points),
                             "--output", str(path), *physics(tau, beta, n_steps)])
        if rc == 0:
            assert len(read_csv(path, SLICE_HEADER)) == points


@settings(max_examples=6)
@given(taus, betas, steps, sizes, sizes, sizes)
def test_verify_argv(tau, beta, n_steps, samples, alpha_points, phi_points):
    rc, out, _ = run_main(["verify", "--samples", str(samples),
                           "--grid-alpha-points", str(alpha_points),
                           "--grid-phi-points", str(phi_points), *physics(tau, beta, n_steps)])
    if rc == 0:
        lines = out.splitlines()
        assert re.fullmatch(r"seed=\d+", lines[0])
        assert all(SUITE_LINE.match(line) for line in lines[1:]), lines
        assert not any(line.startswith("[FAIL]") for line in lines)
