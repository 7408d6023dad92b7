"""Print one sha256 per output of the CLI contract, to compare two trees.

Usage::

    python tools/contract_hashes.py [SRC]

``SRC`` is the directory holding the ``qmeter`` package (default: this
repository's ``src``), so the same script hashes another checkout, e.g. a
parent commit unpacked elsewhere.  Every command runs in process through
``qmeter.cli.main``, inside a temporary directory, at its defaults apart from
the arguments shown in each label:

* the default ``sweep``: ``sweep.csv``, ``summary.json`` and stdout;
* ``slice --fixed-phi 2.53``: ``slice.csv`` and stdout;
* ``run --alpha-rad 1.39 --phi-rad 2.05 --csv``: stdout and the CSV row;
* ``verify --inject-fault skip-rehermitize``: stdout and exit code;
* ``verify --seed N`` for N in 0..99 and 400..409: one hash over the stdout
  and exit code of every seed, in that order;
* ``--help`` of the top level and of each command: one hash over the help
  texts and exit codes, formatted 80 columns wide;
* ``run --config FILE``, where the file (``CONFIG``) sets every shared key
  away from its default: stdout.  ``run`` reads six of the keys and skips the
  two grid sizes and the seed, as a command skips every key it does not read.

The hashes depend on the host's numpy and BLAS build, so compare two trees
on the same host.  Before the hashes, two lines name the host: the SIMD
extensions numpy found on the CPU, and the core OpenBLAS chose (``unknown``
where numpy ships no OpenBLAS that reports it).  A third line gives the
line count of each module of the hashed package and their total, counted
as ``wc -l`` does.  Exit status is 1 if a command other than ``verify``
does not exit 0.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

VERIFY_SEEDS = [*range(100), *range(400, 410)]
CONFIG = """hbar_omega_pev = 2.5
tau_us = 3
beta = 0.7
alpha_rad = 1.39
phi_rad = 2.05
steps = 512
grid.alpha_points = 9
grid.phi_points = 17
seed = 7
"""


def sha256(data: bytes | str) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def host_fingerprint() -> list[str]:
    """The SIMD extensions and the OpenBLAS core that numpy runs on here."""
    core = "unknown"
    for lib in sorted((Path(np.__file__).resolve().parents[1] / "numpy.libs").glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        core = corename().decode()
        break
    simd = " ".join(name for name, found in __cpu_features__.items() if found)
    return [f"simd: {simd}", f"openblas core: {core}"]


def line_counts(package: Path) -> str:
    """One line: the lines of each module of ``package``, then their total."""
    counts = {path.name: path.read_bytes().count(b"\n") for path in sorted(package.glob("*.py"))}
    return " ".join(["lines:", *(f"{name} {n}" for name, n in counts.items()),
                     f"total {sum(counts.values())}"])


def main() -> int:
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src.resolve()))
    os.environ.pop("QMETER_SEED", None)  # every seed below is explicit or the default
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal width
    import qmeter
    from qmeter.cli import main as cli

    print(f"hashing the qmeter package at {Path(qmeter.__file__).parent}", file=sys.stderr)

    def run(*argv: str) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = cli(list(argv))
            except SystemExit as exc:  # --help
                code = exc.code
        return code, out.getvalue()

    hashes, failures = [], []
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for argv, files in ((["sweep"], ["sweep.csv", "summary.json"]),
                                (["slice", "--fixed-phi", "2.53"], ["slice.csv"]),
                                (["run", "--alpha-rad", "1.39", "--phi-rad", "2.05",
                                  "--csv", "row.csv"], ["row.csv"])):
                code, out = run(*argv)
                if code != 0:
                    failures.append(f"{' '.join(argv)} exited {code}")
                label = " ".join(argv)
                hashes.append((sha256(out), f"{label}: stdout"))
                hashes += [(sha256(Path(name).read_bytes()), f"{label}: {name}")
                           for name in files]
            code, out = run("verify", "--inject-fault", "skip-rehermitize")
            hashes.append((sha256(f"{out}exit {code}\n"),
                           "verify --inject-fault skip-rehermitize: stdout, exit code"))
            joined = "".join(f"{out}exit {code}\n"
                             for code, out in (run("verify", "--seed", str(seed))
                                               for seed in VERIFY_SEEDS))
            hashes.append((sha256(joined), "verify --seed 0..99, 400..409: stdout, exit codes"))
            joined = "".join(f"{out}exit {code}\n"
                             for code, out in (run(*command, "--help") for command in
                                               ([], ["run"], ["sweep"], ["slice"], ["verify"])))
            hashes.append((sha256(joined), "--help of qmeter and its four commands: "
                                           "stdout, exit codes"))
            Path("qmeter.cfg").write_text(CONFIG)
            code, out = run("run", "--config", "qmeter.cfg")
            if code != 0:
                failures.append(f"run --config exited {code}")
            hashes.append((sha256(out), "run --config (every shared option set): stdout"))
        finally:
            os.chdir(cwd)
    for line in host_fingerprint():
        print(line)
    print(line_counts(Path(qmeter.__file__).parent))
    for digest, label in hashes:
        print(f"{digest}  {label}")
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
