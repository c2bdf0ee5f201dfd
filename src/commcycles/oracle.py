"""Ground-truth cycle-count laws by exhaustive enumeration of the symmetric
group, used as the independent witness for every closed form.

The sigma-space is enumerated in lexicographic order as int8 rows in slices
of _BLOCK_SIZE = 7! rows: the orderings of the last min(M, 8) points, read
from a table built once per enumeration, follow each prefix of the others,
and successive prefixes fill one slice, so an enumeration's working set
(about 1 MB) no longer grows with M.  Cycles are counted by following every
row's orbits at once on a flat successor array, into which a commutator is
scattered a column at a time.  Slice histograms add, so every law is exact:
a `CyclePGF` with source "oracle", integer counts over the number enumerated.

C([σ,τ]) depends on σ only through στσ⁻¹, so the commutator law visits one
σ per coset σZ(τ) of τ's centralizer, M!/|Z(τ)| in all, and checks that
count against the class size: σ is least at a base point of each cycle,
picked so that the table is pruned as each position joins it.  The uniform
enumeration visits all M!, and one pass gives all three uniform laws.  Each
law has one entry point; `sample` counts its draws with the commutator kernel.
Its caps live in `genfun` with the other limits: refusing one compiles no oracle.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

import numpy as np

from .genfun import CyclePGF, _check_cap, one_cycle_pgf, resolve_cap
from .perm import CycleType, Permutation, from_cycle_type
from .polys import RationalPoly

__all__ = [
    "exact_commutator_distribution",
    "exact_uniform_cycle_laws",
    "hultman_row",
    "hultman_table_rows",
]

_BLOCK_SIZE = 5040
_TAIL = 8  # positions of the table that follows each prefix: at most 8! rows


def _permutation_blocks(m: int, less=()) -> Iterator[np.ndarray]:
    """Lexicographic one-line permutations of range(m) with row[a] < row[b]
    for each (a, b) in `less`, in either index order, as fresh int8 arrays of
    exactly _BLOCK_SIZE rows but the last, which is not empty."""
    p = max(m - _TAIL, 0)  # prefix positions
    # Lexicographic table (int8, to stay small) of the permutations of range(k),
    # k = 1..m - p, for the last k positions: each first point, then the table of
    # k - 1 with the points above it shifted up by one.  Shifting keeps the
    # order of two columns and the tail points are sorted, so a constraint in
    # the tail prunes the table as soon as its lower position joins it.
    tail = np.zeros((1, 0), dtype=np.int8)
    for k in range(1, m - p + 1):
        first = np.repeat(np.arange(k, dtype=np.int8), len(tail))
        rest = np.tile(tail, (k, 1))
        rest += rest >= first[:, None]
        tail = np.column_stack([first, rest])
        for a, b in (pair for pair in less if min(pair) == m - k):
            tail = tail[tail[:, a - m + k] < tail[:, b - m + k]]
    # A tail point above prefix[a] has a rank of at least the count of tail points below prefix[a], and one below
    # it a rank from the top of at least the count above: per prefix position and side, the least such rank decides.
    sides: dict[tuple[int, bool], list[int]] = {}  # (prefix position, tail point above it) -> tail columns
    for a, b in (pair for pair in less if min(pair) < p <= max(pair)):
        sides.setdefault((min(a, b), a < b), []).append(max(a, b) - p)
    low = {(a, up): (tail[:, js] if up else m - p - 1 - tail[:, js]).min(axis=1) for (a, up), js in sides.items()}
    block, filled = np.empty((_BLOCK_SIZE, m), dtype=np.int8), 0
    for prefix in itertools.permutations(range(m), p):
        if any(prefix[a] > prefix[b] for a, b in less if a < p > b):
            continue
        rest = np.array(sorted(set(range(m)).difference(prefix)), dtype=np.int8)
        below = {a: prefix[a] - sum(x < prefix[a] for x in prefix) for a, _ in low}  # tail points below prefix[a]
        keep = [least >= need for (a, up), least in low.items() if (need := below[a] if up else m - p - below[a])]
        rows = tail[np.logical_and.reduce(keep)] if keep else tail  # no mask that keeps every row
        while len(rows):  # successive prefixes fill one slice, so a pruned tail costs the kernels no call
            part, rows = rows[: _BLOCK_SIZE - filled], rows[_BLOCK_SIZE - filled :]
            block[filled : filled + len(part), :p] = prefix
            rest.take(part, out=block[filled : filled + len(part), p:])  # twice as fast as rest[part] on int8 indices
            filled += len(part)
            if filled == _BLOCK_SIZE:
                yield block
                block, filled = np.empty_like(block), 0
    if filled:
        yield block[:filled]


def _orbit_counts(succ: np.ndarray, m: int) -> np.ndarray:
    """Cycle count of each row of a flat successor array: point i of row r, at r*m + i, goes to succ[r*m + i]."""
    visited = np.zeros(len(succ), dtype=bool)
    counts = np.zeros(len(succ) // m, dtype=np.int64)
    for start in range(m):
        fresh = ~visited[start::m]
        counts += fresh
        cur = np.flatnonzero(fresh) * m + start
        while cur.size:
            visited[cur] = True
            cur = succ[cur]
            cur = cur[~visited[cur]]  # an orbit closes on its start, the one visited point
    return counts


def _cycle_counts_rows(perms: np.ndarray) -> np.ndarray:
    """Cycle count of each row of a (rows, m) array of one-line permutations."""
    rows, m = perms.shape
    return _orbit_counts((perms + np.arange(0, rows * m, m)[:, None]).ravel(), m)


def _commutator_counts(sigmas: np.ndarray, tau_arr: np.ndarray) -> np.ndarray:
    """C([σ,τ]) of each row σ of a (rows, m) array.  [σ,τ] = (στ)(τσ)⁻¹ sends
    τ[σ[i]] to σ[τ[i]]: a scatter into the flat successor array, no inverse formed."""
    rows, m = sigmas.shape
    offsets = np.arange(0, rows * m, m)
    succ = np.empty(rows * m, dtype=np.intp)
    for i in range(m):  # a column at a time, so no temporary is as large as succ
        succ[offsets + tau_arr.take(sigmas[:, i])] = offsets + sigmas[:, tau_arr[i]]
    return _orbit_counts(succ, m)


def _histogram(m: int, counts) -> np.ndarray:
    """Histogram over 0..m of the cycle counts in each array of `counts`, one block of rows at a time."""
    return sum((np.bincount(c, minlength=m + 1) for c in counts), np.zeros(m + 1, dtype=np.int64))


def _law_from_hist(m: int, hist: np.ndarray, total: int) -> CyclePGF:
    """The enumerated law: cycle-count histogram over the number enumerated."""
    counts = [int(c) for c in hist]
    if sum(counts) != total:
        raise AssertionError(f"enumerated counts sum to {sum(counts)}, not {total}")
    if counts[0] or len(counts) > m + 1:
        raise AssertionError(f"enumerated cycle counts fall outside 1..{m}")
    return CyclePGF(RationalPoly(counts) / total, m, "oracle")


def exact_commutator_distribution(tau: Permutation, cap: int | None = None) -> CyclePGF:
    """Exact law of the cycle count of [σ,τ], σ uniform on all M! permutations,
    from one σ per coset σZ(τ) ([σz,τ] = [σ,τ] for z in Z(τ)): σ least at each
    cycle's base, rising over the bases of equal-length cycles.  A base is the cycle's
    least point if in the prefix, else its largest, so the tail table prunes as it grows."""
    m = tau.size
    _check_cap(m, cap)
    cycles = tau.cycles()  # each starts at its least point, in that order
    bases = [cycle[0] if cycle[0] < m - _TAIL else max(cycle) for cycle in cycles]
    less = [(base, b) for base, cycle in zip(bases, cycles) for b in cycle if b != base]
    for length in {len(cycle) for cycle in cycles}:
        same = [base for base, cycle in zip(bases, cycles) if len(cycle) == length]
        less += zip(same, same[1:])
    tau_arr = np.array(tau.map, dtype=np.int64)
    hist = _histogram(m, (_commutator_counts(block, tau_arr) for block in _permutation_blocks(m, less)))
    return _law_from_hist(m, hist, tau.cycle_type().class_size())  # one σ per coset


def exact_uniform_cycle_laws(m: int, cap: int | None) -> dict[str, CyclePGF]:
    """Exact cycle-count laws of a uniform permutation of m points ("all"), a
    uniform even one ("alternating") and, for m >= 2, a uniform odd one
    ("co_alternating"), from one enumeration: a permutation is odd iff m - C is."""
    _check_cap(m, cap)
    hist = _histogram(m, map(_cycle_counts_rows, _permutation_blocks(m)))
    n = math.factorial(m)
    odd = hist * ((m - np.arange(m + 1)) % 2)
    laws = {"all": _law_from_hist(m, hist, n), "alternating": _law_from_hist(m, hist - odd, n - n // 2)}
    if m > 1:
        laws["co_alternating"] = _law_from_hist(m, odd, n // 2)
    return laws


def hultman_row(m: int) -> list[int]:
    """m! times the one-cycle commutator PGF: index k -> count, k = 0..m."""
    counts = one_cycle_pgf(m).poly * math.factorial(m)
    if counts.denominator != 1:
        raise AssertionError(f"non-integer counts at m={m}: common denominator {counts.denominator}")
    return list(counts.numerators)


def hultman_table_rows(max_m: int, oracle_cap: int | None) -> list[tuple]:
    """Rows (m, k, count, oracle_count) up to max_m.  Within the cap the rows
    run over every k where either count is nonzero, and oracle_count is the
    enumerated count (0 where it has none); above the cap it is None."""
    cap = resolve_cap(oracle_cap)
    rows = []
    for m in range(1, max_m + 1):
        counts = hultman_row(m)
        if m > cap:
            rows.extend((m, k, count, None) for k, count in enumerate(counts) if count)
            continue
        law = exact_commutator_distribution(from_cycle_type(CycleType([m])), cap=cap).poly * math.factorial(m)
        # law.numerators are the counts: the class size divides m!
        for k, (count, oracle_count) in enumerate(itertools.zip_longest(counts, law.numerators, fillvalue=0)):
            if count or oracle_count:
                rows.append((m, k, count, oracle_count))
    return rows

