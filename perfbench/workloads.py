"""The benchmark's workloads: each is a list of CLI argv lists made from a seed.

The seed sets the query order, the `--seed` passed to `mc` and `sample`,
how the witness workload splits the partitions of 8 between `pgf` and
`dist`, and which partitions of 9 it enumerates.  The program only
ever sees the generated argv.  No query repeats within a workload, and every
query is one the program answers with exit code 0 at the seed commit.

Why each workload exists is written up in README.md next to this file.
"""

from __future__ import annotations

import json
import random

# The seed whose seeded answers (MC estimates, sample histograms) are kept
# in recorded.json.  Answers that do not depend on the seed are recorded for
# every query any seed can generate.
DEFAULT_SEED = 0


def partitions(n: int, largest: int | None = None) -> list[list[int]]:
    """All partitions of n, parts in decreasing order."""
    largest = n if largest is None else largest
    if n == 0:
        return [[]]
    out = []
    for first in range(min(n, largest), 0, -1):
        out.extend([first, *rest] for rest in partitions(n - first, first))
    return out


def type_spec(parts: list[int]) -> str:
    return "type:" + json.dumps(parts, separators=(",", ":"))


def closed_form_laws(seed: int) -> list[list[str]]:
    queries = (
        [["pgf", f"one-cycle:{m}"] for m in range(20, 161, 20)]
        + [["pgf", f"two-cycles:{m}"] for m in (5, 10, 20, 30, 40)]
        + [["pgf", f"transpositions:{m}"] for m in range(20, 121, 20)]
        + [["bernoulli", f"one-cycle:{m}"] for m in range(10, 61, 10)]
        + [["bernoulli", f"{family}:{m}"] for family in ("transpositions", "uniform") for m in (20, 40, 60)]
    )
    random.Random(seed).shuffle(queries)
    return queries


def witness_laws(seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    eights = rng.sample(partitions(8), len(partitions(8)))
    half = len(eights) // 2
    queries = [["pgf", type_spec(p)] for p in eights[:half]] + [["dist", type_spec(p)] for p in eights[half:]]
    queries += [[cmd, type_spec(p), "--cap", "9"] for p in rng.sample(partitions(9), 2) for cmd in ("pgf", "dist")]
    queries += [
        ["hultman", "--max-m", "9", "--cap", "9"],
        ["verify", "--scope", "genfun_vs_oracle", "--max-m", "8"],
        ["verify", "--scope", "factorials", "--max-m", "16"],
    ]
    rng.shuffle(queries)
    # `sample` goes first: it imports scipy, and the peak RSS of the pass
    # then does not depend on which oracle queries the seed puts after it.
    return [["sample", "one-cycle:7", "--draws", "20000", "--seed", str(seed)], *queries]


# (identity, options) for every Monte-Carlo identity at N <= 4.  Each has an
# exact target, so every answer carries a z-score.
MC_CASES = (
    ("trace-power", {"n": 1, "m": 1, "k": 1}),
    ("trace-power", {"n": 2, "m": 2, "k": 1}),
    ("trace-power", {"n": 3, "m": 2, "k": 1}),
    ("trace-power", {"n": 4, "m": 3, "k": 1}),
    ("trace-power", {"n": 2, "m": 2, "k": 2}),
    ("trace-power", {"n": 3, "m": 2, "k": 2}),
    ("trace-power", {"n": 2, "m": 1, "k": 3}),
    ("trace-power", {"n": 3, "m": 1, "k": 3}),
    ("gamma", {"n": 1, "m": 1, "k": 1}),
    ("gamma", {"n": 2, "m": 3, "k": 1}),
    ("gamma", {"n": 3, "m": 4, "k": 1}),
    ("gamma", {"n": 4, "m": 4, "k": 1}),
    ("real-trace", {"n": 1, "m": 1}),
    ("real-trace", {"n": 2, "m": 3}),
    ("real-trace", {"n": 4, "m": 3}),
    ("tr-g2", {"n": 2, "m": 1}),
    ("tr-g2", {"n": 3, "m": 2}),
    ("tr-g2", {"n": 4, "m": 2}),
    ("tr-g1g2", {"n": 2, "m": 1}),
    ("tr-g1g2", {"n": 3, "m": 2}),
    ("tr-g1g2", {"n": 4, "m": 2}),
    ("mixed", {"n": 2, "m1": 1, "m2": 2}),
    ("mixed", {"n": 3, "m1": 2, "m2": 4}),
    ("mixed", {"n": 4, "m1": 1, "m2": 3}),
)


def mc_identities(seed: int) -> list[list[str]]:
    queries = []
    for identity, opts in MC_CASES:
        argv = ["mc", identity]
        for key, value in opts.items():
            argv += [f"--{key}", str(value)]
        queries.append(argv + ["--samples", "200000", "--threads", "2", "--seed", str(seed)])
    random.Random(seed).shuffle(queries)
    return queries


BUILDERS = {"closed_form_laws": closed_form_laws, "witness_laws": witness_laws, "mc_identities": mc_identities}
NAMES = tuple(BUILDERS)


def queries(workload: str, seed: int) -> list[list[str]]:
    return BUILDERS[workload](seed)
