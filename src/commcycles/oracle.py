"""Ground-truth cycle-count laws by exhaustive enumeration of the symmetric
group, used as the independent witness for every closed form.

The sigma-space is enumerated in lexicographic order and processed in
contiguous blocks as numpy integer arrays (composition by fancy indexing,
cycle counting by vectorized orbit following); block histograms are merged
by addition, so results are deterministic and exact.  Every law is returned
as a `CyclePGF` with source "oracle": the integer counts over the number of
permutations enumerated.
"""

from __future__ import annotations

import csv
import itertools
import math
from typing import Iterator, Optional

import numpy as np

from .genfun import CyclePGF, one_cycle_pgf
from .perm import CycleType, Permutation, from_cycle_type, one_cycle
from .polys import RationalPoly

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "HARD_ENUMERATION_CAP",
    "EnumerationCapError",
    "exact_commutator_distribution",
    "exact_class_product_distribution",
    "exact_uniform_cycle_distribution",
    "conjugacy_class",
    "hultman_count",
    "hultman_table_rows",
    "distribution_rows",
    "write_distribution_csv",
    "write_hultman_csv",
]

DEFAULT_ENUMERATION_CAP = 8
HARD_ENUMERATION_CAP = 10
_BLOCK_SIZE = 40320


class EnumerationCapError(ValueError):
    """Ground set too large for exhaustive enumeration."""


def _check_cap(m: int, cap: Optional[int]) -> None:
    effective = DEFAULT_ENUMERATION_CAP if cap is None else cap
    if effective > HARD_ENUMERATION_CAP:
        raise ValueError(f"cap {effective} exceeds hard enumeration cap {HARD_ENUMERATION_CAP}")
    if m > effective:
        raise EnumerationCapError(
            f"ground set of size {m} exceeds the enumeration cap {effective}; "
            "`commcycles pgf` solves one cycle, two equal cycles, the identity and "
            f"transpositions at any size; otherwise raise the cap (hard cap {HARD_ENUMERATION_CAP}) "
            "or use Monte-Carlo sampling (`commcycles mc`, `commcycles sample`)"
        )


def _permutation_blocks(m: int, block_size: int = _BLOCK_SIZE) -> Iterator[np.ndarray]:
    """Lexicographic one-line permutations of range(m), in (block, m) arrays."""
    it = itertools.permutations(range(m))
    while True:
        block = list(itertools.islice(it, block_size))
        if not block:
            return
        yield np.array(block, dtype=np.int64)


def _cycle_counts_rows(perms: np.ndarray) -> np.ndarray:
    """Cycle count of each row of a (rows, m) array of one-line permutations."""
    rows, m = perms.shape
    visited = np.zeros((rows, m), dtype=bool)
    counts = np.zeros(rows, dtype=np.int64)
    all_rows = np.arange(rows)
    for start in range(m):
        fresh = ~visited[:, start]
        counts += fresh
        active = all_rows[fresh]
        cur = np.full(active.size, start, dtype=np.int64)
        while active.size:
            visited[active, cur] = True
            cur = perms[active, cur]
            keep = cur != start
            active = active[keep]
            cur = cur[keep]
    return counts


def _law_from_hist(m: int, hist: np.ndarray, total: int) -> CyclePGF:
    """The enumerated law: cycle-count histogram over the number enumerated."""
    counts = [int(c) for c in hist]
    if sum(counts) != total:
        raise AssertionError(f"enumerated counts sum to {sum(counts)}, not {total}")
    if counts[0] or len(counts) > m + 1:
        raise AssertionError(f"enumerated cycle counts fall outside 1..{m}")
    return CyclePGF(RationalPoly(counts) / total, m, "oracle")


def exact_commutator_distribution(tau: Permutation, cap: Optional[int] = None) -> CyclePGF:
    """Exact law of the cycle count of [σ,τ] with σ ranging over all M!
    permutations, each with weight 1/M!."""
    m = tau.size
    _check_cap(m, cap)
    tau_arr = np.array(tau.map, dtype=np.int64)
    tau_inv = np.argsort(tau_arr)
    hist = np.zeros(m + 1, dtype=np.int64)
    for block in _permutation_blocks(m):
        sigma_inv = np.argsort(block, axis=1)
        inner = tau_arr[sigma_inv[:, tau_inv]]  # τ[σ⁻¹[τ⁻¹[i]]]
        comm = np.take_along_axis(block, inner, axis=1)  # σ[...]
        hist += np.bincount(_cycle_counts_rows(comm), minlength=m + 1)
    return _law_from_hist(m, hist, math.factorial(m))


def conjugacy_class(tau: Permutation, cap: Optional[int] = None) -> list[Permutation]:
    """All permutations with the cycle type of tau, generated by conjugating
    tau with every group element and deduplicating.  The result size is
    checked against the class-size formula."""
    m = tau.size
    _check_cap(m, cap)
    tau_arr = np.array(tau.map, dtype=np.int64)
    seen: set[tuple[int, ...]] = set()
    for block in _permutation_blocks(m):
        sigma_inv = np.argsort(block, axis=1)
        conj = np.take_along_axis(block, tau_arr[sigma_inv], axis=1)  # σ∘τ∘σ⁻¹
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


def exact_uniform_cycle_distribution(
    m: int, subset: str = "all", cap: Optional[int] = None
) -> CyclePGF:
    """Exact cycle-count law of a uniform permutation of m points, or of a
    uniform even ("alternating") or odd ("co_alternating") permutation."""
    if subset not in ("all", "alternating", "co_alternating"):
        raise ValueError(f"unknown subset {subset!r}")
    if subset == "co_alternating" and m < 2:
        raise ValueError("no odd permutations on a single point")
    _check_cap(m, cap)
    hist = np.zeros(m + 1, dtype=np.int64)
    for block in _permutation_blocks(m):
        counts = _cycle_counts_rows(block)
        if subset == "alternating":
            counts = counts[(m - counts) % 2 == 0]
        elif subset == "co_alternating":
            counts = counts[(m - counts) % 2 == 1]
        hist += np.bincount(counts, minlength=m + 1)
    return _law_from_hist(m, hist, int(hist.sum()))


def _hultman_row(m: int) -> list[int]:
    """m! times the one-cycle commutator PGF: index k -> count, k = 0..m."""
    counts = (one_cycle_pgf(m).poly * math.factorial(m)).coeffs
    for k, value in enumerate(counts):
        if value.denominator != 1:
            raise AssertionError(f"non-integer count {value} at m={m}, k={k}")
    return [int(value) for value in counts]


def hultman_count(m: int, k: int, method: str = "formula", cap: Optional[int] = None) -> int:
    """Number of permutations σ of m points whose commutator with the
    canonical m-cycle has exactly k cycles.

    The formula path reads the coefficient of t^k in m! times the one-cycle
    commutator PGF; the enumeration path counts directly (m within the cap).
    Out-of-range or parity-impossible k gives 0.
    """
    if k < 1 or k > m or (m - k) % 2:
        return 0
    if method == "formula":
        return _hultman_row(m)[k]
    if method == "enumerate":
        dist = exact_commutator_distribution(one_cycle(m), cap=cap)
        return int(dist.coefficient(k) * math.factorial(m))
    raise ValueError(f"unknown method {method!r}")


def hultman_table_rows(max_m: int, oracle_cap: Optional[int] = None) -> list[tuple]:
    """Rows (m, k, count) for all nonzero counts up to max_m, with an
    enumerated cross-check column for m within the cap (None above it)."""
    cap = DEFAULT_ENUMERATION_CAP if oracle_cap is None else oracle_cap
    rows = []
    for m in range(1, max_m + 1):
        enumerated: dict[int, int] = {}
        if m <= cap:
            dist = exact_commutator_distribution(one_cycle(m), cap=cap)
            enumerated = {k: int(p * math.factorial(m)) for k, p in dist.probabilities().items()}
        for k, count in enumerate(_hultman_row(m)):
            if count:
                rows.append((m, k, count, enumerated.get(k) if m <= cap else None))
    return rows


# -- CSV emitters ---------------------------------------------------------------


def distribution_rows(dist: CyclePGF) -> list[tuple[int, int, int, int]]:
    return [(dist.M, k, p.numerator, p.denominator) for k, p in dist.probabilities().items()]


def write_distribution_csv(dist: CyclePGF, fileobj) -> None:
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["M", "cycle_count", "probability_num", "probability_den"])
    writer.writerows(distribution_rows(dist))


def write_hultman_csv(rows: list[tuple], fileobj) -> None:
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["M", "k", "count", "oracle_count"])
    for m, k, count, oracle_count in rows:
        writer.writerow([m, k, count, "" if oracle_count is None else oracle_count])
