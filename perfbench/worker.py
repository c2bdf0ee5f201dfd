"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--trace SPANS_CSV]

Imports `commcycles.cli` from the checkout's src/ (run.py puts it on
PYTHONPATH, and the worker refuses a package from anywhere else), then
sends the workload's queries to `cli.main(argv)` one at a time (a closed loop with one client), with stdout
and stderr captured.  Every answer is checked before the next query is sent.
`raw_wall_s` adds up the time from each query sent to its answer checked.
After each answer, slices of reference work are timed (reference.py), one
per SLICE_EVERY_S of the query's time and at least one, and `wall_s` is
`raw_wall_s` rescaled to the reference speed.  With `--trace` the span
wrappers are installed first, the per-layer metrics are added, and the
spans are written to SPANS_CSV.
The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time

import checks
import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", metavar="SPANS_CSV", help="trace the pass and write its spans to this file")
    args = parser.parse_args()

    queries = workloads.queries(args.workload, args.seed)
    with open(os.path.join(HERE, "recorded.json")) as fh:
        recorded = json.load(fh)

    cli = importlib.import_module("commcycles.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"commcycles was imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace is not None:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()

    ref = reference.Reference()
    failures: list[str] = []
    failed = 0
    out_bytes = 0
    raw_wall_s = 0.0
    slices_s = 0.0
    slices = 0
    for argv in queries:
        start = time.perf_counter()
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            problems = [] if code == 0 else [f"exit code {code}: {err.getvalue().strip()}"]
            if not problems:
                problems = checks.invariant_failures(argv, out.getvalue())
                problems += checks.recorded_failures(argv, out.getvalue(), recorded)
        except SystemExit as exc:  # argparse rejected the argv
            problems = [f"exit code {exc.code}: {err.getvalue().strip()}"]
        except Exception as exc:  # a crash is a failed query, not a failed benchmark
            problems = [f"{type(exc).__name__}: {exc}"]
        out_bytes += len(out.getvalue().encode())
        if problems:
            failed += 1
            failures += [f"{' '.join(argv)}: {p}" for p in problems]
        query_s = time.perf_counter() - start
        raw_wall_s += query_s
        # Slices in proportion to the query's time, so the speed estimate
        # weights each moment of the pass alike.
        count = max(1, round(query_s / reference.SLICE_EVERY_S))
        slices_s += sum(ref.time_slice() for _ in range(count))
        slices += count
    slice_s = slices_s / slices

    result = {
        "wall_s": raw_wall_s * reference.SLICE_NOMINAL_S / slice_s,
        "raw_wall_s": raw_wall_s,
        "slice_s": slice_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(queries),
        "failed": failed,
        "failures": failures[:20],
        "out_bytes": out_bytes,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
