"""Run the test suite against one-line mutants of the source, to find what it misses.

Usage::

    python tools/mutants.py [NAME ...]

Each entry of ``MUTANTS`` is a ``(file, old text, new text)`` triple under a
short name.  For each mutant (or only those named), the checkout is copied
into a temporary directory without ``.git`` and caches, the old text, which
must occur exactly once in the file, is replaced by the new, and
``python -m pytest -x -q`` runs there with that copy's ``src`` on the path.
One line per mutant says ``killed`` with the first test that failed, or
``survived``.  A mutant whose old text is missing or repeated is reported as
``stale`` and not run.  The checkout itself is never written.  Exit status is
0 when every mutant run was killed, 1 when one survived or is stale, and 2 for
an unknown name.

Uses only the standard library and is not part of the test suite.  A killed
mutant stops at its first failure; a surviving one costs a full suite run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MUTANTS = {
    # the symmetry residual without its fuel column
    "symmetry-no-fuel": ("src/qmeter/sweep.py",
                         'for name in ("w_ext", "q_m")))', 'for name in ("w_ext",)))'),
    "zoom-5": ("src/qmeter/sweep.py", "ZOOM = 10.0", "ZOOM = 5.0"),
    "fuel-threshold-x10": ("src/qmeter/cycle.py", "fueled = q_m > TOL.fuel",
                           "fueled = q_m > 10 * TOL.fuel"),
    # the efficiency bounds without their eta - 1 half
    "efficiency-bounds-half": ("src/qmeter/verification.py", "np.fmax(-eta, eta - 1.0)", "-eta"),
    "unitarity-ladder-no-reference": ("src/qmeter/verification.py",
                                      "(2, 7, 64, 1024, REFERENCE_STEPS)", "(2, 7, 64, 1024)"),
    "thermalization-residual-zero": ("src/qmeter/cycle.py",
                                     '"entropy_thermalization": np.abs((self.s1 - s4) + d_s),',
                                     '"entropy_thermalization": np.zeros_like(d_s),'),
    "thermalization-entry-deleted": ("src/qmeter/cycle.py",
                                     '            "entropy_thermalization": '
                                     'np.abs((self.s1 - s4) + d_s),\n', ""),
    "refine-rounds-2": ("src/qmeter/sweep.py", "REFINE_ROUNDS = 3", "REFINE_ROUNDS = 2"),
    "no-newton-schulz": ("src/qmeter/propagator.py",
                         "        factors = 0.5 * (3.0 * factors - matmul_2x2(factors, gram))\n", ""),
    "csv-16-digits": ("src/qmeter/csvfmt.py", 'return "%.17g" % value', 'return "%.16g" % value'),
    # the CSV formatter rounding ties up, not to even
    "csv-half-up": ("src/qmeter/csvfmt.py", "up = t >> 1 & 1 | (lo << (65 - r) != 0)", "up = 1"),
    # the decimal exponent kept where the table puts it one too high
    "csv-no-k-correction": ("src/qmeter/csvfmt.py", "        k[redo] -= 1\n", ""),
    # fixed notation from k = -5 (C's %g switches at -4)
    "csv-fixed-from-minus-5": ("src/qmeter/csvfmt.py",
                               "(ks >= -4) & (ks < 17)", "(ks >= -5) & (ks < 17)"),
    # the integer window one binade wider at the small end: s = 28, r up to 63
    "csv-window-wider": ("src/qmeter/csvfmt.py",
                         "(decade >= -11) & (decade <= 15) & (r >= 2) & (r + 1 <= 62)",
                         "(decade >= -12) & (decade <= 15) & (r >= 2) & (r + 1 <= 63)"),
    # no point among the digits of a fixed-notation value of 10 or more
    "csv-no-point-insert": ("src/qmeter/csvfmt.py", "    if moved.size:", "    if False:"),
    # a check renamed where the kernel computes it, and not in the registry
    "kernel-check-renamed": ("src/qmeter/cycle.py", '"kelvin": q_t,', '"kelvin_statement": q_t,'),
    # a check no longer reported by its verify suite
    "registry-suite-dropped": ("src/qmeter/cycle.py",
                               '("entropy_decrease", "entropy_equalities", False)',
                               '("entropy_decrease", None, False)'),
    # a verify suite of kernel checks no longer run
    "table-suite-dropped": ("src/qmeter/verification.py",
                            'TABLE_SUITES = ("kelvin", "entropy_equalities",',
                            'TABLE_SUITES = ("entropy_equalities",'),
    # a failed verify line printed at its table's loosest bound, not the failed check's
    "fail-line-loosest-bound": ("src/qmeter/verification.py",
                                "failed[first], checks[first][1], detail)",
                                "failed[first], max(b for _, b in checks.values()), detail)"),
    # the first-law line reading only its own check when samples are flagged
    "first-law-ignores-flags": ("src/qmeter/verification.py",
                                '{"first_law": batch.checks["first_law"]} if ok.all() else '
                                'batch.checks',
                                '{"first_law": batch.checks["first_law"]}'),
    # an alpha past pi accepted up to a relative 1e-3, not TOL.alpha_range
    "alpha-range-1e-3": ("src/qmeter/measurement.py",
                         "> TOL.alpha_range * alpha", "> 1e-3 * alpha"),
    # a refinement window across phi = 0 left unwrapped
    "refine-window-unwrapped": ("src/qmeter/sweep.py",
                                "best_p + h_p, LOCAL_POINTS) % TWO_PI",
                                "best_p + h_p, LOCAL_POINTS)"),
    "np-hypot": ("src/qmeter/propagator.py",
                 "np.array([math.hypot(t, 0.5 * math.pi) for t in taus.tolist()])",
                 "np.hypot(taus, 0.5 * math.pi)"),
    "error-floor-1e-9": ("src/qmeter/propagator.py", "ERROR_FLOOR = 1e-12", "ERROR_FLOOR = 1e-9"),
    "order-needs-6-rungs": ("src/qmeter/propagator.py",
                            "if usable.sum() >= 2:", "if usable.sum() >= 6:"),
    "entropy-12-zero": ("src/qmeter/cycle.py", '"entropy_12": abs(self.s1 - self.s2),',
                        '"entropy_12": 0.0 * abs(self.s1 - self.s2),'),
    # the child's blocks of a split never taken in
    "split-child-half-dropped": ("src/qmeter/blocks.py",
                                 "                receive(out, (blocks - 1 - i) * NODE_BLOCK, "
                                 "ends[i] - begin)\n", ""),
    # the child claims its blocks from the front of the table, as the parent does
    "split-child-from-front": ("src/qmeter/blocks.py",
                               "work((blocks - 1 - len(ends)) * NODE_BLOCK, out)",
                               "work(len(ends) * NODE_BLOCK, out)"),
    # the child's blocks taken in in claim order, back to front
    "split-child-claim-order": ("src/qmeter/blocks.py", "for i in reversed(range(taken)):",
                                "for i in range(taken):"),
    # first skipped when nothing forks
    "split-first-skipped-unsplit": ("src/qmeter/blocks.py",
                                    "        if first is not None:\n            first()\n"
                                    "        for start in range(0, size, NODE_BLOCK):",
                                    "        for start in range(0, size, NODE_BLOCK):"),
    # the blocks a failed child claimed never run
    "split-failed-child-blocks-skipped": ("src/qmeter/blocks.py",
                                          "        else:\n            for start in range(front * "
                                          "NODE_BLOCK, size, NODE_BLOCK):\n"
                                          "                work(start, None)\n", ""),
    # a split from the first block, so that every table forks
    "split-from-one-block": ("src/qmeter/blocks.py", "SPLIT_BLOCKS = 4", "SPLIT_BLOCKS = 1"),
    # the grouped 2x2 product with each left factor on the next pair's diagonal block
    "grouped-diagonal-shifted": ("src/qmeter/qubit_algebra.py",
                                 "a[:full].reshape(groups, _GROUP, 2, 2)",
                                 "np.roll(a[:full], 1, axis=0).reshape(groups, _GROUP, 2, 2)"),
    # the pairs after the last whole group never multiplied
    "grouped-tail-dropped": ("src/qmeter/qubit_algebra.py",
                             "    np.matmul(a[full:], b[full:], out=out[full:])\n", ""),
    # each group multiplied by the right factors of the group before it
    "grouped-right-from-neighbour": ("src/qmeter/qubit_algebra.py",
                                     "b[:full].reshape(groups, 2 * _GROUP, 2)",
                                     "np.roll(b[:full].reshape(groups, 2 * _GROUP, 2), 1, axis=0)"),
    # the option table's default stroke time changed
    "option-default-tau": ("src/qmeter/cli.py", '"tau_us": (float, 10.0, ',
                           '"tau_us": (float, 1.0, '),
    # verify's symmetry grid changed where the library defines it
    "symmetry-grid-65": ("src/qmeter/verification.py", "SYMMETRY_GRID = GridSpec(129, 129)",
                         "SYMMETRY_GRID = GridSpec(65, 65)"),
    # the seed registered on every command again, not on verify alone
    "option-seed-every-command": ("src/qmeter/cli.py",
                                  'f"RNG seed (alternative: ${SEED_ENV_VAR})", ("verify",)),',
                                  'f"RNG seed (alternative: ${SEED_ENV_VAR})", ALL),'),
    # a config key the command does not read kept, so its flag fails the command
    "config-keeps-unread-key": ("src/qmeter/cli.py", "        if command in OPTIONS[key][3]:",
                                "        if True:"),
    # a gap not checked, so a negative gap times a negative tau passes as a positive omega_tau
    "engine-params-gap-unchecked": ("src/qmeter/cli.py",
                                    "    if not (math.isfinite(gap) and gap > 0):\n"
                                    '        raise ConfigurationError("hbar_omega_pev must be '
                                    'positive")\n', ""),
    # a seed not given ignores $QMETER_SEED
    "option-seed-env-dropped": ("src/qmeter/cli.py",
                                "os.environ.get(SEED_ENV_VAR, str(DEFAULT_SEED))",
                                "str(DEFAULT_SEED)"),
    "efficiency-scale-floor-1e-3": ("src/qmeter/cycle.py",
                                    "np.abs(dp1 - dp4), 1e-300)\n             + (np.abs(dp2) + "
                                    "np.abs(dp3)) / np.maximum(np.abs(dp2 - dp3), 1e-300)",
                                    "np.abs(dp1 - dp4), 1e-3)\n             + (np.abs(dp2) + "
                                    "np.abs(dp3)) / np.maximum(np.abs(dp2 - dp3), 1e-3)"),
}

IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".perfbench_out", ".benchmarks")


def first_failure(output: str) -> str:
    """The first ``FAILED``/``ERROR`` test of a pytest summary, else its last line."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0]
    lines = output.strip().splitlines()
    return lines[-1] if lines else "no output"


def run_mutant(path: str, old: str, new: str) -> tuple[str, str]:
    """The mutant's verdict (``killed``, ``survived`` or ``stale``) and what supports it."""
    source = (ROOT / path).read_text()
    if source.count(old) != 1:
        return "stale", f"({source.count(old)} matches of its old text in {path})"
    with tempfile.TemporaryDirectory(prefix="qmeter-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        (copy / path).write_text(source.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        proc = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return "survived", f"({first_failure(proc.stdout)})"
    return "killed", f"by {first_failure(proc.stdout + proc.stderr)}"


def main(argv: list[str]) -> int:
    unknown = [name for name in argv if name not in MUTANTS]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}; known: {', '.join(MUTANTS)}",
              file=sys.stderr)
        return 2
    missed = 0
    for name in argv or MUTANTS:
        verdict, detail = run_mutant(*MUTANTS[name])
        print(f"{name}: {verdict} {detail}", flush=True)
        missed += verdict != "killed"
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
