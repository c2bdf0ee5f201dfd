"""Ground-truth cycle-count laws by exhaustive enumeration of the symmetric
group, used as the independent witness for every closed form.

The sigma-space is enumerated in lexicographic order and processed in
contiguous blocks as numpy integer arrays.  A block is one prefix of the
first M - t positions followed by the t! orderings of the remaining points,
read from a lexicographic table of range(t) built once per enumeration, so
no permutation passes through a Python tuple.  A commutator or conjugate
is one scatter per row (no inverse is formed), and cycles are counted by
following every row's orbits at once on a flat index.  Block histograms are
merged by addition, so results are deterministic and exact.  Every law is
returned as a `CyclePGF` with source "oracle": the integer counts over the
number of permutations enumerated.

C([σ,τ]) depends on σ only through στσ⁻¹, so the commutator law visits one
σ per coset σZ(τ) of τ's centralizer, M!/|Z(τ)| in all, and checks that
count against the class size; the uniform and class-member enumerations
visit all M!, so the class product stays an independent full-group route.
Each law has one entry point, and one pass gives all three uniform laws;
`sample` counts its draws with the commutator kernel.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Optional

import numpy as np

from .genfun import CHARACTER_MAX_M, CyclePGF, EnumerationCapError, one_cycle_pgf
from .perm import CycleType, Permutation, from_cycle_type, one_cycle
from .polys import RationalPoly

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "HARD_ENUMERATION_CAP",
    "EnumerationCapError",
    "resolve_cap",
    "exact_commutator_distribution",
    "exact_class_product_distribution",
    "exact_uniform_cycle_laws",
    "conjugacy_class",
    "hultman_row",
    "hultman_table_rows",
]

DEFAULT_ENUMERATION_CAP = 8
HARD_ENUMERATION_CAP = 10
_BLOCK_SIZE = 40320


def resolve_cap(cap: Optional[int]) -> int:
    """The enumeration cap in force: the default for None; a cap below 1 or
    above the hard cap raises ValueError."""
    effective = DEFAULT_ENUMERATION_CAP if cap is None else cap
    if effective < 1:
        raise ValueError(f"--cap must be at least 1, got {effective}")
    if effective > HARD_ENUMERATION_CAP:
        raise ValueError(f"cap {effective} exceeds hard enumeration cap {HARD_ENUMERATION_CAP}")
    return effective


def _check_cap(m: int, cap: Optional[int]) -> None:
    effective = resolve_cap(cap)
    if m > effective:
        raise_cap = f"raise the cap (hard cap {HARD_ENUMERATION_CAP}); " if effective < HARD_ENUMERATION_CAP else ""
        raise EnumerationCapError(
            f"ground set of size {m} exceeds the enumeration cap {effective}; {raise_cap}"
            f"`commcycles pgf` gives the law of any cycle type up to M = {CHARACTER_MAX_M}, "
            "and `commcycles sample` draws a Monte-Carlo histogram above that"
        )


def _permutation_blocks(m: int, less=()) -> Iterator[np.ndarray]:
    """Lexicographic one-line permutations of range(m) with row[a] < row[b]
    for each (a, b), a < b, in `less`, in blocks of at most t! rows with t
    the largest size such that t <= m and t! <= _BLOCK_SIZE."""
    t = 0
    while t < m and math.factorial(t + 1) <= _BLOCK_SIZE:
        t += 1
    p = m - t
    # Lexicographic table (int8, to stay small) of the permutations of range(k),
    # k = 1..t, for the last k positions: each first point, then the table of
    # k - 1 with the points above it shifted up by one.  Shifting keeps the
    # order of two columns and the tail points are sorted, so a constraint in
    # the tail prunes the table as soon as its first position joins it.
    tail = np.zeros((1, 0), dtype=np.int8)
    for k in range(1, t + 1):
        first = np.repeat(np.arange(k, dtype=np.int8), len(tail))
        rest = np.tile(tail, (k, 1))
        rest += rest >= first[:, None]
        tail = np.column_stack([first, rest])
        if inner := [first < tail[:, b - m + k] for a, b in less if a == m - k]:
            tail = tail[np.logical_and.reduce(inner)]
    # Row[b] > prefix[a] at all tail positions b paired with a iff the least
    # rank at those b reaches the number of tail points below prefix[a].
    cross = [(a, b - p) for a, b in less if a < p <= b]
    low = {a: tail[:, [j for a2, j in cross if a2 == a]].min(axis=1) for a in {a for a, _ in cross}}
    for prefix in itertools.permutations(range(m), p):
        if any(prefix[a] > prefix[b] for a, b in less if b < p):
            continue
        rest = np.array(sorted(set(range(m)).difference(prefix)), dtype=np.int64)
        keep = [least >= np.searchsorted(rest, prefix[a]) for a, least in low.items() if prefix[a] > rest[0]]
        rows = tail[np.logical_and.reduce(keep)] if keep else tail  # no mask that keeps every row
        block = np.empty((len(rows), m), dtype=np.int64)
        block[:, :p] = prefix
        block[:, p:] = rest[rows]
        yield block


def _cycle_counts_rows(perms: np.ndarray) -> np.ndarray:
    """Cycle count of each row of a (rows, m) array of one-line permutations."""
    rows, m = perms.shape
    # Point i of row r sits at r*m + i, so every row's orbits are followed
    # at once on one flat array.
    flat = (perms + np.arange(0, rows * m, m)[:, None]).ravel()
    visited = np.zeros(rows * m, dtype=bool)
    counts = np.zeros(rows, dtype=np.int64)
    for start in range(m):
        fresh = ~visited[start::m]
        counts += fresh
        cur = np.flatnonzero(fresh) * m + start
        while cur.size:
            visited[cur] = True
            cur = flat[cur]
            cur = cur[~visited[cur]]  # an orbit closes on its start, the one visited point
    return counts


def _commutator_counts(sigmas: np.ndarray, tau_arr: np.ndarray) -> np.ndarray:
    """C([σ,τ]) of each row σ of a (rows, m) array.  [σ,τ] = (στ)(τσ)⁻¹ sends
    τ[σ[i]] to σ[τ[i]]: one scatter per row, with no inverse of σ formed."""
    comm = np.empty_like(sigmas)
    np.put_along_axis(comm, tau_arr[sigmas], sigmas[:, tau_arr], axis=1)
    return _cycle_counts_rows(comm)


def _law_from_hist(m: int, hist: np.ndarray, total: int) -> CyclePGF:
    """The enumerated law: cycle-count histogram over the number enumerated."""
    counts = [int(c) for c in hist]
    if sum(counts) != total:
        raise AssertionError(f"enumerated counts sum to {sum(counts)}, not {total}")
    if counts[0] or len(counts) > m + 1:
        raise AssertionError(f"enumerated cycle counts fall outside 1..{m}")
    return CyclePGF(RationalPoly(counts) / total, m, "oracle")


def exact_commutator_distribution(tau: Permutation, cap: Optional[int] = None) -> CyclePGF:
    """Exact law of the cycle count of [σ,τ], σ uniform on all M! permutations,
    from one σ per coset σZ(τ) ([σz,τ] = [σ,τ] for z in Z(τ)): σ least at each
    cycle's first point, and rising over first points of equal-length cycles."""
    m = tau.size
    _check_cap(m, cap)
    cycles = tau.cycles()  # each starts at its least point, in that order
    less = [(cycle[0], b) for cycle in cycles for b in cycle[1:]]
    for length in {len(cycle) for cycle in cycles}:
        firsts = [cycle[0] for cycle in cycles if len(cycle) == length]
        less += zip(firsts, firsts[1:])
    tau_arr = np.array(tau.map, dtype=np.int64)
    hist = np.zeros(m + 1, dtype=np.int64)
    for block in _permutation_blocks(m, less):
        hist += np.bincount(_commutator_counts(block, tau_arr), minlength=m + 1)
    return _law_from_hist(m, hist, tau.cycle_type().class_size())  # one σ per coset


def conjugacy_class(tau: Permutation, cap: Optional[int] = None) -> list[Permutation]:
    """All permutations with the cycle type of tau, generated by conjugating
    tau with every group element and deduplicating.  The result size is
    checked against the class-size formula."""
    m = tau.size
    _check_cap(m, cap)
    tau_arr = np.array(tau.map, dtype=np.int64)
    seen: set[tuple[int, ...]] = set()
    for block in _permutation_blocks(m):
        conj = np.empty_like(block)
        np.put_along_axis(conj, block, block[:, tau_arr], axis=1)  # σ∘τ∘σ⁻¹ sends σ[i] to σ[τ[i]]
        seen.update(map(tuple, conj.tolist()))
    expected = tau.cycle_type().class_size()
    if len(seen) != expected:
        raise AssertionError(f"conjugacy class size {len(seen)} != formula value {expected}")
    return [Permutation(t) for t in sorted(seen)]


def exact_class_product_distribution(cycle_type: CycleType, cap: Optional[int] = None) -> CyclePGF:
    """Exact law of the cycle count of τ₁∘τ₂ with τ₁ uniform on the
    conjugacy class of the given type and τ₂ the inverse of its canonical
    representative.  Agrees with exact_commutator_distribution of the
    canonical representative."""
    m = cycle_type.size
    _check_cap(m, cap)
    tau = from_cycle_type(cycle_type)
    members = conjugacy_class(tau, cap=cap)
    class_arr = np.array([p.map for p in members], dtype=np.int64)
    tau2 = np.array(tau.inverse().map, dtype=np.int64)
    products = class_arr[:, tau2]  # row r: τ₁[τ₂[i]]
    hist = np.bincount(_cycle_counts_rows(products), minlength=m + 1)
    return _law_from_hist(m, hist, len(members))


def exact_uniform_cycle_laws(m: int, cap: Optional[int] = None) -> dict[str, CyclePGF]:
    """Exact cycle-count laws of a uniform permutation of m points ("all"), a
    uniform even one ("alternating") and, for m >= 2, a uniform odd one
    ("co_alternating"), from one enumeration: a permutation is odd iff m - C is."""
    _check_cap(m, cap)
    hist = np.zeros(m + 1, dtype=np.int64)
    for block in _permutation_blocks(m):
        hist += np.bincount(_cycle_counts_rows(block), minlength=m + 1)
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


def hultman_table_rows(max_m: int, oracle_cap: Optional[int] = None) -> list[tuple]:
    """Rows (m, k, count) for all nonzero counts up to max_m, with an
    enumerated cross-check column for m within the cap (None above it)."""
    cap = resolve_cap(oracle_cap)
    rows = []
    for m in range(1, max_m + 1):
        enumerated: dict[int, int] = {}
        if m <= cap:
            law = exact_commutator_distribution(one_cycle(m), cap=cap).poly * math.factorial(m)
            enumerated = {k: c for k, c in enumerate(law.numerators) if c}  # counts: class size divides m!
        for k, count in enumerate(hultman_row(m)):
            if count:
                rows.append((m, k, count, enumerated.get(k) if m <= cap else None))
    return rows

