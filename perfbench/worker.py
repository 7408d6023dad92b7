"""One workload run in a fresh interpreter: a closed loop with one client.

The parent (``run.py``) starts this script with ``src`` on ``PYTHONPATH``
and the checkout root as working directory.  The script imports
``qmeter.cli``, prints ``ready`` (the parent times set-up up to that line),
then calls ``qmeter.cli.main`` on each request of a unit, one after the
other, and repeats units until ``--seconds`` have passed.  Each request's
stdout and stderr are captured for the output checks and written, with its
latency, to ``<result>.requests.jsonl``.  The unit wall times and the peak
memory go to ``<result>``, and the spans when tracing to ``--spans``, once
the loop ends.

``--probe`` stops after ``ready``: the parent launches a few of these to
take the median set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time

import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-units", type=int, default=1)
    parser.add_argument("--max-units", type=int, default=1_000_000)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--spans", help="trace, and write the spans to this .npz file")
    parser.add_argument("--result", help="write the results to this JSON file")
    args = parser.parse_args()

    import qmeter.cli

    cli_main = qmeter.cli.main
    tracer = None
    if args.spans:
        from tracer import REQUEST_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
        cli_main = tracer.wrap(REQUEST_SPAN, cli_main)
    print("ready", flush=True)
    if args.probe:
        return 0

    # request records go straight to a file so that the worker's memory does
    # not grow with the number of requests
    count = 0
    units = []
    began = time.perf_counter()
    with open(args.result + ".requests.jsonl", "w") as records:
        while len(units) < args.max_units and (
                len(units) < args.min_units or time.perf_counter() - began < args.seconds):
            unit = len(units)
            argvs = workloads.unit_requests(args.workload, args.seed, unit, args.toy)
            unit_start = time.perf_counter()
            for argv in argvs:
                out, err = io.StringIO(), io.StringIO()
                code, error = None, None
                if tracer is not None:
                    tracer.request = count
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli_main(argv)
                except Exception as exc:  # a raising request counts as failed
                    error = f"{type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
                records.write(json.dumps({
                    "unit": unit, "latency_s": t1 - t0, "code": code, "error": error,
                    "stdout": out.getvalue(), "stderr": err.getvalue()}) + "\n")
                count += 1
            wall = time.perf_counter() - unit_start
            units.append({"wall_s": wall, "digest": workloads.unit_digest(args.workload)})

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.save(args.spans)
    with open(args.result, "w") as fh:
        json.dump({"units": units, "peak_rss_mb": peak_rss_mb}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
