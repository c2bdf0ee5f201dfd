"""Record the answers the checks compare against, into recorded.json.

    PYTHONPATH=src python3 perfbench/record.py

Run it only at a commit whose answers are known to be right: it stores
every answer of every workload at the default seed, and the `pgf` and `dist`
answers for every partition of 8 and 9 that the witness workload can pick
for other seeds.  Each answer must pass its invariant checks to be stored.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import checks
import workloads
from commcycles import cli

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    todo = [q for name in workloads.NAMES for q in workloads.queries(name, workloads.DEFAULT_SEED)]
    for cmd in ("pgf", "dist"):
        todo += [[cmd, workloads.type_spec(p)] for p in workloads.partitions(8)]
        todo += [[cmd, workloads.type_spec(p), "--cap", "9"] for p in workloads.partitions(9)]
    recorded = {}
    for argv in todo:
        key = " ".join(argv)
        if key in recorded:
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        problems = checks.invariant_failures(argv, out.getvalue()) if code == 0 else [f"exit code {code}"]
        if problems:
            print(f"not recorded: {key}: {problems}", file=sys.stderr)
            return 1
        digest, floats = checks.answer_record(argv, out.getvalue())
        recorded[key] = {"digest": digest, "floats": floats}
    with open(os.path.join(HERE, "recorded.json"), "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(recorded)} answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
