"""The `sample` command, which `cli` imports on first use: a Monte-Carlo histogram
of C([σ,τ]) over uniform σ, tested by chi-square against τ's exact law."""

from __future__ import annotations

import math
import random

from . import cli, genfun

# Rows of σ that `sample` draws, then counts at once; a bounded block keeps peak RSS flat.
SAMPLE_BLOCK = 1024

# Draws that each pooled bin of `sample`'s chi-square test expects at least.
_MIN_EXPECTED = 5.0

# What `sample` reports for a type with no exact law to test against.
NO_REFERENCE = f"no exact reference above the character-sum limit M = {genfun.CHARACTER_MAX_M}"


def _pool_bins(probs: dict[int, float], draws: int):
    """Pool adjacent support bins until each pooled bin expects at least
    _MIN_EXPECTED draws; returns [(ks, expected)]."""
    pooled = []
    current_ks: list[int] = []
    current_expected = 0.0
    for k, p in sorted(probs.items()):
        current_ks.append(k)
        current_expected += p * draws
        if current_expected >= _MIN_EXPECTED:
            pooled.append((tuple(current_ks), current_expected))
            current_ks, current_expected = [], 0.0
    if current_ks:
        if pooled:
            ks, exp = pooled.pop()
            pooled.append((ks + tuple(current_ks), exp + current_expected))
        else:
            pooled.append((tuple(current_ks), current_expected))
    return pooled


def _chi2_sf(x: float, df: int) -> float:
    """P(X >= x) for X chi-square with integer df >= 1.  With y = x/2 this is
    e^-y * sum y^j / Γ(j+1) over j = 0, 1, ..., df/2 - 1 for even df, and
    erfc(sqrt y) plus the same sum over j = 1/2, 3/2, ..., (df-2)/2 for odd df."""
    if x <= 0:
        return 1.0
    y = x / 2
    head, first = (0.0, 0.0) if df % 2 == 0 else (math.erfc(math.sqrt(y)), 0.5)
    log_y = math.log(y)
    return head + math.fsum(
        math.exp((first + i) * log_y - y - math.lgamma(first + i + 1)) for i in range(df // 2)
    )


def _chi_square(probs: dict[int, float], histogram: dict[int, int], draws: int):
    if any(k not in probs for k in histogram):
        return {"statistic": float("inf"), "df": 0, "p_value": 0.0}
    pooled = _pool_bins(probs, draws)
    if len(pooled) < 2:  # every draw falls in the one pooled bin: the histogram counts exactly `draws`
        return {"statistic": 0.0, "df": 0, "p_value": 1.0}
    stat = 0.0
    for ks, expected in pooled:
        observed = sum(histogram.get(k, 0) for k in ks)
        stat += (observed - expected) ** 2 / expected
    df = len(pooled) - 1
    return {"statistic": stat, "df": df, "p_value": _chi2_sf(stat, df)}


def _shuffle_rows(rows: np.ndarray, rng: random.Random) -> None:
    """Fill each row of `rows`, in order, with what rng.shuffle(list(range(M))) would give.

    CPython's shuffle swaps x[n-1] with x[j] for n = M, ..., 2, where j is
    getrandbits(n.bit_length()) redrawn until j < n.  The swap indices of all
    rows are drawn by that rule, word for word, so the rng ends in the same
    state; the swaps then run as numpy column operations over the block."""
    import numpy as np

    count, m = rows.shape
    plan = [(n, n.bit_length()) for n in range(m, 1, -1)]
    getrandbits = rng.getrandbits
    js = []
    append = js.append
    for _ in range(count):
        for n, k in plan:
            j = getrandbits(k)
            while j >= n:
                j = getrandbits(k)
            append(j)
    swaps = np.array(js, dtype=np.int64).reshape(count, len(plan))
    rows[:] = np.arange(m)
    r = np.arange(count)
    for c, (n, _) in enumerate(plan):
        j = swaps[:, c]
        last = rows[:, n - 1].copy()  # a copy, so that j == n - 1 leaves the row as it is
        rows[:, n - 1] = rows[r, j]
        rows[r, j] = last


def run(args) -> int:
    """Histogram of C([σ,τ]) over --draws σ.  The σ are exactly what random.Random.shuffle
    of list(range(M)) draws on random.Random(seed), same words and same end state: _shuffle_rows
    follows CPython's _randbelow rejection rule, which the tests pin against rng.shuffle.  They
    fill a block of at most SAMPLE_BLOCK rows whose commutators the oracle's kernel counts at once."""
    if args.draws < 1:
        raise cli.UsageError("draws must be at least 1")
    import numpy as np  # after the refusal above, which stays fast

    from . import oracle

    kind, value = cli.parse_tau_spec(args.tau)
    tau = cli._tau_permutation(kind, value)
    m = tau.size
    rng = random.Random(args.seed)
    tau_arr = np.array(tau.map, dtype=np.int64)

    def count(rows):  # the next draws, into the block's rows, and their commutators' cycle counts
        _shuffle_rows(rows, rng)
        return oracle._commutator_counts(rows, tau_arr)

    block = np.empty((min(args.draws, SAMPLE_BLOCK), m), dtype=np.int64)
    counts = oracle._histogram(m, map(count, (block[: args.draws - lo] for lo in range(0, args.draws, len(block)))))
    histogram = {k: int(v) for k, v in enumerate(counts) if v}
    try:
        reference, provenance = cli._law(kind, value)
    except genfun.EnumerationCapError:
        reference = None
    payload = {
        "tau": args.tau,
        "M": tau.size,
        "draws": args.draws,
        "seed": args.seed,
        "histogram": {str(k): v for k, v in sorted(histogram.items())},
    }
    if reference is None:
        payload["reference"] = None
        payload["note"] = NO_REFERENCE
    else:
        probs = reference.reduced_probabilities()
        expected = {k: n / d for k, (n, d) in probs.items()}
        payload["reference"] = {"provenance": provenance, "probs": {str(k): f"{n}/{d}" for k, (n, d) in probs.items()}}
        payload["chi_square"] = _chi_square(expected, histogram, args.draws)

    def human(p):
        yield f"tau: {p['tau']}   M = {p['M']}   draws = {p['draws']}  seed = {p['seed']}"
        for k, v in sorted(histogram.items()):
            line = f"  C = {k}: {v}  ({v / args.draws:.4f})"
            if reference is not None:
                line += f"  expected {expected.get(k, 0.0):.4f}"
            yield line
        if reference is None:
            yield NO_REFERENCE
        else:
            cs = p["chi_square"]
            yield f"chi-square: {cs['statistic']:.3f} on {cs['df']} df, p = {cs['p_value']:.4f}"

    cli._emit(payload, args.format, human)
    return 0
