"""The commcycles benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of the workload runs in a fresh
interpreter (worker.py), so no query repeats inside a process and lazy
imports are paid inside the pass, as a CLI user pays them.  Passes repeat
until S seconds have gone by (at least MIN_PASSES of them), and timings are
reported as medians over passes.

--trace 0 reports the end-to-end metrics: wall_s (each query sent to its
answer checked, summed over the pass), setup_s (import commcycles.cli and
build the parser in a fresh interpreter; median of SETUP_PER_PASS samples
before each pass) and peak_rss_mb (ru_maxrss of the pass process).  Both
times are rescaled to the speed of reference work timed next to them
(reference.py), because this machine's speed drifts by up to 2x within
minutes; the raw times are printed and kept in the result file.  The share
of failed queries is the result's failed / attempted.

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones, plus trace_overhead = traced wall / untraced
wall.  Spans go to .perfbench_out/ in the checkout.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The lines before it give the environment stamp and a summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

MIN_PASSES = 3
MAX_RUN_S = 150.0  # start no pass that could end the run past this
SETUP_PER_PASS = 2
PASS_TIMEOUT_S = 120.0

# Times the import, then SETUP_SLICES slices of reference work in the same
# interpreter, and prints the import time rescaled to the reference speed,
# the raw import time, and where commcycles came from.
SETUP_SLICES = 15
SETUP_CODE = f"""
import sys, time
t = time.perf_counter()
import commcycles.cli as c
c.build_parser()
raw = time.perf_counter() - t
sys.path.insert(0, {HERE!r})
import reference
ref = reference.Reference()
slice_s = sum(ref.time_slice() for _ in range({SETUP_SLICES})) / {SETUP_SLICES}
print(raw * reference.SLICE_NOMINAL_S / slice_s, raw)
print(c.__file__)
"""


def _layer_units(layer: str, extra: dict[str, str]) -> dict[str, str]:
    return {f"{layer}.self_s": "s", f"{layer}.calls": "count", **{f"{layer}.{k}": u for k, u in extra.items()}}


PER_LAYER = {
    **_layer_units("cli", {"out_bytes": "bytes"}),
    **_layer_units("polys", {"mul_calls": "count", "mul_coeff_ops": "count", "eval_calls": "count", "eval_s": "s"}),
    **_layer_units("genfun", {"pgf_build_s": "s", "rootfind_s": "s", "rootfind_calls": "count"}),
    **_layer_units("oracle", {"perms": "count", "perms_per_s": "1/s"}),
    **_layer_units("perm", {}),
    **_layer_units("rmt", {"draws": "count", "draws_per_s": "1/s", "target_s": "s"}),
    **_layer_units("verify", {"checks": "count"}),
    "trace_overhead": "ratio",
}


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # one source of run-to-run variation fewer
    return env


def _run(cmd: list[str], timeout: float) -> str:
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return proc.stdout


def measure_setup(count: int) -> list[tuple[float, float]]:
    """`count` (setup_s, raw setup seconds) samples, each in a fresh interpreter."""
    samples = []
    for _ in range(count):
        seconds, where = _run([sys.executable, "-c", SETUP_CODE], timeout=60).split("\n")[:2]
        if not os.path.abspath(where).startswith(SRC + os.sep):
            raise BenchError(f"commcycles was imported from {where}, not from {SRC}")
        samples.append(tuple(map(float, seconds.split())))
    return samples


def run_pass(workload: str, seed: int, spans_path: str | None = None) -> dict:
    """One pass in a fresh interpreter; traced when spans_path is given,
    and then its spans are written there."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed)]
    if spans_path is not None:
        cmd += ["--trace", spans_path]
    lines = _run(cmd, timeout=PASS_TIMEOUT_S).strip().splitlines()
    return json.loads(lines[-1])


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def git(*args):
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
        except OSError:
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    # Only a repository rooted at this checkout names its commit.
    top, _, sha = (git("rev-parse", "--show-toplevel", "HEAD") or "").partition("\n")
    sha = sha if sha and os.path.realpath(top) == os.path.realpath(ROOT) else None
    status = git("status", "--porcelain") if sha else None
    src_digest = hashlib.sha256()
    pkg = os.path.join(SRC, "commcycles")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src_digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": src_digest.hexdigest(),
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind like an exception, so subprocess.run kills and
    # waits for the pass it is running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "commcycles", "cli.py")):
        print(f"no commcycles package under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        # The first import writes the bytecode caches and warms the page
        # cache; it is not a sample.
        measure_setup(1)
        setup: list[tuple[float, float]] = []
        untraced: list[dict] = []
        traced: list[dict] = []
        os.makedirs(OUT_DIR, exist_ok=True)
        longest = 0.0
        while True:
            elapsed = time.perf_counter() - started
            done = len(traced) if args.trace else len(untraced)
            if done >= MIN_PASSES and elapsed >= args.seconds:
                break
            if done and elapsed + longest > MAX_RUN_S:
                break
            t0 = time.perf_counter()
            if not args.trace:
                # Spread over the run, so a short slow spell of the machine
                # moves few samples.
                setup += measure_setup(SETUP_PER_PASS)
            kinds = [False, True] if args.trace else [False]
            if len(traced) % 2:
                kinds.reverse()  # alternate which kind of pass runs first
            for kind in kinds:
                if kind:
                    spans = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-pass{len(traced)}.spans.csv")
                    traced.append(run_pass(args.workload, args.seed, spans))
                else:
                    untraced.append(run_pass(args.workload, args.seed))
            longest = max(longest, time.perf_counter() - t0)
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    wall = statistics.median(p["wall_s"] for p in untraced)
    if args.trace:
        values = {m: statistics.median(p["layers"][m] for p in traced) for m in traced[0]["layers"]}
        values["cli.out_bytes"] = statistics.median(p["out_bytes"] for p in traced)
        values["trace_overhead"] = statistics.median(p["wall_s"] for p in traced) / wall
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in PER_LAYER.items()}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(norm for norm, _raw in setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in untraced), "unit": "MB"},
        }

    env = environment(args.seed)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"env": env, "result": result, "setup_s": setup, "passes": passes}, fh, indent=1)
    print("env: " + json.dumps(env, sort_keys=True))
    print(
        f"workload {args.workload}: {len(untraced)} untraced + {len(traced)} traced passes, "
        f"{attempted} queries, failed_frac = {failed}/{attempted} = {failed / attempted:.4g}, "
        f"wall_s per pass {[round(p['wall_s'], 3) for p in untraced]}, "
        f"raw {[round(p['raw_wall_s'], 3) for p in untraced]}"
    )
    if setup:
        print(f"raw setup seconds: median {statistics.median(raw for _norm, raw in setup):.4f}")
    for p in passes:
        for line in p["failures"]:
            print(f"FAILED {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
