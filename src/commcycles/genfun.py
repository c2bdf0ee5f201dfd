"""Closed-form probability generating functions (PGFs) for cycle counts of
commutators [σ,τ] with σ uniform, for the solved families of τ, plus the
uniform/alternating-group baselines and decompositions of these laws into
sums of independent Bernoulli variables.  `commutator_route` is the one
place that picks, for a cycle type of τ, between a closed form and the
character sum `character_law`, which gives the law of any cycle type up to
M = CHARACTER_MAX_M without enumerating permutations.

All PGF coefficients are exact rationals.  Floating point appears only in
the root-finder that extracts numeric Bernoulli parameters for the
one-cycle family.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterator
from fractions import Fraction

from .perm import CycleType, Frozen
from .polys import (
    RationalPoly,
    _poly,
    _reduced,
    _rising_falling,
    _rising_row,
    _rising_square_sweep,
    _times_x_plus,
    rising_factorial,
    rising_falling_sum,
)

__all__ = [
    "CyclePGF",
    "PgfValidation",
    "BernoulliTerm",
    "BernoulliDecomposition",
    "RootFindError",
    "EnumerationCapError",
    "uniform_cycles_pgf",
    "alternating_pgf",
    "one_cycle_pgf",
    "two_cycles_pgf",
    "transpositions_pgf",
    "transpositions_rising_form",
    "CHARACTER_MAX_M",
    "DEFAULT_ENUMERATION_CAP",
    "HARD_ENUMERATION_CAP",
    "resolve_cap",
    "character_law",
    "commutator_route",
    "commutator_law",
    "validate_pgf",
    "require_bernoulli_source",
    "bernoulli_decomposition",
    "negative_real_roots",
]

# Every source of a law: the parity of M - C wherever its laws have mass (None
# for no parity law), and its Bernoulli decomposer pgf -> (parameters, multiplier,
# offset) or None.  The decomposable sources come first, in the order a refusal names them.
_LAW_SOURCES = {
    "uniform": (None, lambda pgf: ([Fraction(1, k) for k in range(1, pgf.M + 1)], 1, 0)),
    "transpositions": (0, lambda pgf: ([Fraction(1, 2 * k - 1) for k in range(1, pgf.M // 2 + 1)], 2, 0)),
    "one_cycle": (0, lambda pgf: ([1.0 / (1.0 - u) for u in negative_real_roots(pgf)], 2, 2 - pgf.M % 2)),
    "identity": (0, lambda pgf: ([], 1, pgf.M)),
    "two_cycles": (0, None),
    "characters": (0, None),
    "alternating": (0, None),
    "co_alternating": (1, None),
    "oracle": (None, None),
}


class EnumerationCapError(ValueError):
    """Ground set too large for exhaustive enumeration or the character sum."""


class CyclePGF(Frozen):
    """The exact law of a cycle count C on a ground set of size M, as its PGF
    E t^C = sum_k P(C = k) t^k with exact rational coefficients, from any route."""

    __slots__ = ("poly", "M", "source")

    def reduced_probabilities(self) -> dict[int, tuple[int, int]]:
        """Nonzero probabilities keyed by cycle count, as (numerator, denominator) in lowest terms."""
        den = self.poly.denominator
        return {k: _reduced(c, den) for k, c in enumerate(self.poly.numerators) if c}

    def to_json(self) -> dict:
        return {"M": self.M, "source": self.source, "coeffs": self.poly.coeff_strings()}


def uniform_cycles_pgf(m: int) -> CyclePGF:
    """PGF of the cycle count of a uniform permutation of m points:
    the degree-m rising factorial divided by m!."""
    if m < 1:
        raise ValueError("m must be positive")
    return CyclePGF(rising_factorial(m) / math.factorial(m), m, "uniform")


def alternating_pgf(m: int, complement: bool) -> CyclePGF:
    """PGF of the cycle count of a uniform even permutation of m points,
    or of a uniform odd permutation when complement=True.

    Conditioning the uniform law on cycle-count parity gives
    (R_m(t) +/- F_m(t)) / m! with R/F the rising/falling factorials.
    The even/odd split is degenerate at m=1 (there are no odd permutations),
    so complement=True requires m >= 2 and the even law at m=1 is the point
    mass t.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if complement:
        if m < 2:
            raise ValueError("no odd permutations on a single point")
        return CyclePGF(rising_falling_sum(m, -1) / math.factorial(m), m, "co_alternating")
    if m == 1:
        return CyclePGF(RationalPoly([0, 1]), 1, "alternating")
    return CyclePGF(rising_falling_sum(m, 1) / math.factorial(m), m, "alternating")


def one_cycle_pgf(m: int) -> CyclePGF:
    """PGF of the cycle count of [σ,τ] when τ is a single m-cycle:
    (R_{m+1}(t) - F_{m+1}(t)) / (m+1)!.

    This is also the cycle-count law of a uniform odd permutation of m+1
    points, which is how the brute-force oracle cross-checks it.
    """
    if m < 1:
        raise ValueError("m must be positive")
    return CyclePGF(rising_falling_sum(m + 1, -1) / math.factorial(m + 1), m, "one_cycle")


def two_cycles_pgf(m: int) -> CyclePGF:
    """PGF of the cycle count of [σ,τ] when τ is a product of two disjoint
    m-cycles on 2m points:

        (R_{2m+1}(t) - F_{2m+1}(t)) / (2m+1)!
        + 2/(2m)! * ((R_{m+1}(t) - F_{m+1}(t)) / (m+1))^2
        - 2/(2m)! * (S(t) + S(-t))

    with S = rising_square_sum(m); only even powers of t survive.  One sweep
    gives R_{m+1}, R_{2m+1} and S: R_{m+1} from the table of Stirling rows
    (m + 1 multiplications by (t + i) when it is cold), then m more.
    """
    if m < 1:
        raise ValueError("m must be positive")
    two_m = 2 * m
    short, long, s = _rising_square_sweep(m)  # R_{m+1}, R_{2m+1}, S
    head = _rising_falling(long, -1) / math.factorial(two_m + 1)
    cross = _rising_falling(short, -1) / (m + 1)
    cross = (cross * cross) * Fraction(2, math.factorial(two_m))
    diag = (s + s.reflect()) * Fraction(2, math.factorial(two_m))
    return CyclePGF(head + cross - diag, two_m, "two_cycles")


def transpositions_pgf(m: int) -> CyclePGF:
    """PGF of the cycle count of [σ,τ] when τ is a product of m disjoint
    transpositions on 2m points: prod_{k=1..m} (t^2 + 2k - 2) / (2k - 1).

    Equivalently 2 * (sum of independent Bernoulli(1/(2k-1)) variables).
    The product in u = t^2 is 2^m R_m(u/2), so u^j has the coefficient
    c(m, j) 2^(m-j), read off row m of the Stirling numbers.
    """
    if m < 1:
        raise ValueError("m must be positive")
    num = [0] * (2 * m + 1)
    num[::2] = [c << m - j for j, c in enumerate(_rising_row(m))]
    return CyclePGF(_poly(num, math.prod(range(1, 2 * m, 2))), 2 * m, "transpositions")


def transpositions_rising_form(m: int, base: int) -> RationalPoly:
    """The transpositions law written against the rising factorial:
    base^m * m!/(2m)! * R_m(t^2/2).

    base=4 reproduces transpositions_pgf exactly.  base=2, a prefactor
    sometimes quoted for this law, fails normalization — total mass 2^-m
    (1/2 already at m=1) — and is kept available as a failing witness for
    the consistency suite.
    """
    if m < 1:
        raise ValueError("m must be positive")
    scale = Fraction(base**m * math.factorial(m), math.factorial(2 * m))
    half_square = RationalPoly([0, 0, Fraction(1, 2)])
    return scale * rising_factorial(m).compose(half_square)


# Largest ground set `character_law` answers.  Its work grows with the
# number of partitions of M (5604 at M = 30).  Timed on a 2-vCPU machine
# over all 5600 types at M = 30 outside the closed forms, the slowest,
# [2, 1^28], takes 0.40 s (best of 5) and the median type 0.23 s.
CHARACTER_MAX_M = 30

# Largest ground set the enumeration oracle visits by default, and at most.
DEFAULT_ENUMERATION_CAP = 8
HARD_ENUMERATION_CAP = 10


def resolve_cap(cap: int | None) -> int:
    """The enumeration cap in force: the default for None; a cap below 1 or
    above the hard cap raises ValueError."""
    effective = DEFAULT_ENUMERATION_CAP if cap is None else cap
    if effective < 1:
        raise ValueError(f"--cap must be at least 1, got {effective}")
    if effective > HARD_ENUMERATION_CAP:
        raise ValueError(f"cap {effective} exceeds hard enumeration cap {HARD_ENUMERATION_CAP}")
    return effective


def _check_max_m(max_m: int | None) -> None:
    """Refuse a --max-m below 1; None leaves the command's own default."""
    if max_m is not None and max_m < 1:
        raise ValueError(f"--max-m must be at least 1, got {max_m}")


def _check_cap(m: int, cap: int | None) -> None:
    effective = resolve_cap(cap)
    if m > effective:
        raise_cap = f"raise the cap (hard cap {HARD_ENUMERATION_CAP}); " if effective < HARD_ENUMERATION_CAP else ""
        raise EnumerationCapError(
            f"ground set of size {m} exceeds the enumeration cap {effective}; {raise_cap}"
            f"`commcycles pgf` gives the law of any cycle type up to M = {CHARACTER_MAX_M}, "
            "and `commcycles sample` draws a Monte-Carlo histogram above that"
        )


def _content_products(m: int) -> Iterator[tuple[int, list[int]]]:
    """(β-set, integer coefficients of prod_{cells of ν} (t + content)) for
    every partition ν of m.  The β-set is the bitmask of the positions
    ν_i + len(ν) - 1 - i.

    Partitions grow row by row from the top, and a prefix's product is
    shared by every partition that starts with it: row i of length r holds
    the contents -i .. r - 1 - i, so each longer row extends the product by
    one linear factor."""

    def grow(beads, poly, row, rest, largest):
        if not rest:
            yield beads >> (m - row), poly
            return
        for r in range(1, min(rest, largest) + 1):
            poly = _times_x_plus(poly, r - 1 - row)
            yield from grow(beads | 1 << (r + m - 1 - row), poly, row + 1, rest - r, r)

    return grow(0, [1], 0, m, m)


def character_law(cycle_type: CycleType) -> CyclePGF:
    """Exact law of the cycle count of [σ,τ], σ uniform, for τ of any cycle
    type μ of size M <= CHARACTER_MAX_M, by the character sum

        E t^C([σ,τ]) = (1/M!) * sum_{ν ⊢ M} χ^ν(μ)^2 * prod_{cells of ν} (t + content).

    [σ,τ] = (στσ⁻¹)·τ⁻¹ with στσ⁻¹ uniform on the class of τ.  Expanding
    this class product by central characters and summing t^C against each
    character with the content formula s_ν(1^t) = prod (t + content) / H_ν
    (Stanley, EC2, Cor. 7.21.4) gives the sum; Zagier (1995) takes this
    route for one cycle.  χ^ν(μ) comes from Murnaghan-Nakayama on β-sets,
    largest part first: removing a border strip of length k moves one bead
    k places down into a gap, with sign (-1)^(beads jumped).  Characters are
    memoised on the β-set within this call only.  The sum stays in integers
    and is divided by M! once.  Above CHARACTER_MAX_M it raises
    EnumerationCapError before any work.
    """
    m, parts = cycle_type.size, cycle_type.parts
    if m > CHARACTER_MAX_M:
        raise EnumerationCapError(
            f"ground set of size {m} exceeds the character-sum limit {CHARACTER_MAX_M}; "
            "draw a Monte-Carlo histogram with `commcycles sample`"
        )
    memo: dict[int, int] = {}

    def chi(beads: int, i: int) -> int:
        # χ of the shape with this β-set at the parts μ_i, μ_i+1, ...; the
        # shape's size fixes i, so the β-set alone keys the memo.
        if i == len(parts):
            return 1
        if beads in memo:
            return memo[beads]
        k = parts[i]
        value = 0
        movable = beads >> k
        while movable:
            low = movable & -movable  # 1 << b for the lowest bead left at b + k
            movable ^= low
            if beads & low:  # position b is taken
                continue
            moved = beads ^ (low << k) ^ low
            moved >>= (~moved & (moved + 1)).bit_length() - 1  # drop empty rows
            sub = chi(moved, i + 1)
            value += -sub if (beads & ((low << k) - (low << 1))).bit_count() & 1 else sub
        memo[beads] = value
        return value

    totals = [0] * (m + 1)
    for beads, poly in _content_products(m):
        weight = chi(beads, 0) ** 2
        if weight:
            totals = [s + weight * a for s, a in zip(totals, poly)]
    return CyclePGF(RationalPoly(totals) / math.factorial(m), m, "characters")


def commutator_route(cycle_type: CycleType) -> tuple[str, Callable[[], CyclePGF]]:
    """(source, build) of the exact law of the cycle count of [σ,τ], σ
    uniform, for τ of this type; build() returns the law.

    [σ,τ] = (στσ⁻¹)·τ⁻¹ with στσ⁻¹ uniform on the class of τ, so the law
    depends on the cycle type alone.  The types [m], [1]^M, [2]^k and [m,m]
    (tested in that order) have closed forms at any size; every other type
    goes to the character sum `character_law`, which raises
    EnumerationCapError above M = CHARACTER_MAX_M.  No route enumerates
    permutations.  This is the one place that picks a route for a cycle
    type."""
    parts = cycle_type.parts
    if len(parts) == 1:
        return "one_cycle", lambda: one_cycle_pgf(parts[0])
    if parts[0] == 1:
        return "identity", lambda: CyclePGF(RationalPoly([0] * len(parts) + [1]), len(parts), "identity")
    if parts[0] == parts[-1] == 2:
        return "transpositions", lambda: transpositions_pgf(len(parts))
    if len(parts) == 2 and parts[0] == parts[1]:
        return "two_cycles", lambda: two_cycles_pgf(parts[0])
    return "characters", lambda: character_law(cycle_type)


def commutator_law(cycle_type: CycleType) -> CyclePGF:
    """Exact law of the cycle count of [σ,τ], σ uniform, for τ of this type,
    by the route `commutator_route` picks."""
    return commutator_route(cycle_type)[1]()


# -- validation ---------------------------------------------------------------


class PgfValidation(Frozen):
    """Structured result of checking the CyclePGF invariants; `parity_ok` is
    None when the source has no parity law."""

    __slots__ = ("source", "M", "normalized", "nonnegative", "zero_constant", "parity_ok")

    @property
    def ok(self) -> bool:
        return self.normalized and self.nonnegative and self.zero_constant and self.parity_ok is not False

    def to_json(self) -> dict:
        return {**super().to_json(), "ok": self.ok}


def validate_pgf(pgf: CyclePGF) -> PgfValidation:
    """Check normalization, nonnegativity, zero constant term, and (for
    sources with a parity law) that only cycle counts of the right parity
    carry mass.  All checks are exact, on the integer numerators."""
    num = pgf.poly.numerators
    normalized = sum(num) == pgf.poly.denominator
    nonnegative = all(c >= 0 for c in num)
    zero_constant = not num or num[0] == 0
    parity = _LAW_SOURCES[pgf.source][0]
    parity_ok = None if parity is None else all((pgf.M - k) % 2 == parity for k, c in enumerate(num) if c)
    return PgfValidation(pgf.source, pgf.M, normalized, nonnegative, zero_constant, parity_ok)


# -- Bernoulli decompositions --------------------------------------------------


class BernoulliTerm(Frozen):
    """One independent Bernoulli(p) summand, contributing multiplier * B."""

    __slots__ = ("p", "multiplier")

    @property
    def is_exact(self) -> bool:
        return isinstance(self.p, Fraction)


class BernoulliDecomposition(Frozen):
    """A cycle-count law written as offset + sum_j multiplier_j * B_j with
    independent Bernoulli B_j; the PGF is t^offset * prod_j (1 - p_j + p_j t^{m_j})."""

    __slots__ = ("terms", "offset")

    @property
    def is_exact(self) -> bool:
        return all(t.is_exact for t in self.terms)

    def reconstruct(self) -> RationalPoly | list[float]:
        """Expand the product of term PGFs times t^offset.  Exact
        decompositions return a RationalPoly; numeric ones a float
        coefficient list (index = degree)."""
        if self.is_exact:
            row = [1]  # p = r/q: one integer row times each (q - r) + r t^m, over the product of the q
            for t in self.terms:
                r, q, pad = t.p.numerator, t.p.denominator, [0] * t.multiplier
                row = [(q - r) * a + r * b for a, b in zip(row + pad, pad + row)]
            return _poly([0] * self.offset + row, math.prod(t.p.denominator for t in self.terms))
        import numpy as np

        coeffs = np.array([0.0] * self.offset + [1.0])
        for t in self.terms:
            p = float(t.p)
            coeffs = np.convolve(coeffs, [1.0 - p] + [0.0] * (t.multiplier - 1) + [p])
        return coeffs.tolist()

    def residual_against(self, pgf: CyclePGF) -> float:
        """Largest absolute coefficient difference between the expanded
        decomposition and the PGF (0.0 for exact matches)."""
        rebuilt = self.reconstruct()
        if isinstance(rebuilt, RationalPoly):
            diff = rebuilt - pgf.poly
            return max(map(abs, diff.numerators), default=0) / diff.denominator
        den = pgf.poly.denominator
        exact = [c / den for c in pgf.poly.numerators]  # int / int rounds correctly, as float(Fraction) does
        return max(abs(a - b) for a, b in itertools.zip_longest(rebuilt, exact, fillvalue=0.0))

    def to_json(self) -> dict:
        terms = []
        for t in self.terms:
            p = f"{t.p.numerator}/{t.p.denominator}" if isinstance(t.p, Fraction) else float(t.p)
            terms.append({"p": p, "multiplier": t.multiplier})
        return {"offset": self.offset, "terms": terms}


class RootFindError(RuntimeError):
    """Raised when a one-cycle root fails its exact certificate."""


# Half-width of each certifying bracket, relative to the root.  The float
# phase solve is accurate to about 1e-14; 2^-40 is about 9e-13.  Each end is
# rounded to the nearest double, which moves it by 2^-53 relative at most and
# keeps its numerator to 53 bits, so the exact sign evaluations stay cheap.
_BRACKET = 2.0**-40

_PHASE_STEPS = 64  # Newton steps before `_phase_roots` gives up; it takes 7-10 up to M = 400


def _phase_roots(m: int) -> np.ndarray:
    """y_1 > y_2 > ... > y_n > 0 (n = ceil(m/2) - 1) solving the phase
    equation f(y) = sum_{k=1..m} atan(y/k) = pi*(m/2 - j), all j at once by
    Newton steps, f'(y) = sum_k k/(k^2 + y^2), inside brackets.  As y*H_m >=
    f(y) = m*pi/2 - sum_k atan(k/y) >= m*pi/2 - m(m+1)/(2y), y_j lies in
    [pi*(m/2 - j)/H_m, m(m+1)/(2*pi*j)]; Newton starts at the geometric mean,
    and a step that would not land strictly inside the bracket bisects it.
    A root stops once its Newton step is within 2^-44 of it or no midpoint
    falls strictly inside its bracket; one still moving after _PHASE_STEPS
    steps raises RootFindError naming m."""
    import numpy as np

    k, j = np.arange(1, m + 1, dtype=float), np.arange(1, (m + 1) // 2)
    target = np.pi * (m / 2 - j)
    lo, hi = target / (1 / k).sum(), m * (m + 1) / (2 * np.pi * j)
    y, live = np.sqrt(lo * hi), np.arange(len(j))
    for _ in range(_PHASE_STEPS):
        x, r = y[live], y[live, None] / k
        f = np.arctan(r).sum(axis=1) - target[live]
        newton = x - f / (1 / (k + k * r * r)).sum(axis=1)
        lo[live], hi[live] = a, b = np.where(f < 0, x, lo[live]), np.where(f < 0, hi[live], x)
        mid, done = (a + b) / 2, abs(newton - x) <= x * 2**-44
        y[live] = np.where(done | (a < newton) & (newton < b), newton, mid)
        live = live[~done & (a < mid) & (mid < b)]
        if not live.size:
            return y
    raise RootFindError(f"the phase equation at m={m} did not settle in {_PHASE_STEPS} steps")


def negative_real_roots(pgf: CyclePGF) -> list[float]:
    """The roots u_1 < ... < u_n < 0 of the even part E of a one-cycle law
    of order m = pgf.M, (R_{m+1}(t) - F_{m+1}(t))/(m+1)! = t^offset * E(t^2),
    where offset = 2 - m % 2 and n = deg E = (m - offset)/2.

    At t = iy every factor (iy + k)/(iy - k) of R_{m+1}/F_{m+1} has modulus
    1 and argument 2*atan(y/k) - pi, so the nonzero roots are exactly
    t = ±i*y_j with

        sum_{k=1..m} atan(y_j/k) = pi*(m/2 - j),   j = 1..n,

    whose left side rises strictly from 0 to m*pi/2: one root per j, and
    u_j = -y_j^2.  The y_j come from a float Newton solve (`_phase_roots`);
    each u_j is then certified by an exact integer sign change of E, from the
    law's numerators, at the nearest doubles to u_j*(1 ± 2^-40), with the n
    brackets disjoint, so every root of E is isolated.  A failed check
    raises RootFindError naming j, the bracket and the two signs.
    """
    m, offset = pgf.M, 2 - pgf.M % 2
    even = RationalPoly(pgf.poly.numerators[offset::2])  # a positive multiple: same signs
    roots = [-y * y for y in _phase_roots(m).tolist()]
    prev_hi = None
    for j, u in enumerate(roots, 1):
        lo, hi = Fraction(u * (1 + _BRACKET)), Fraction(u * (1 - _BRACKET))
        sa, sb = even.sign_at(lo), even.sign_at(hi)
        overlap = prev_hi is not None and lo <= prev_hi
        if sa * sb >= 0 or overlap:
            raise RootFindError(
                f"one-cycle root j={j} at m={m} not certified: bracket [{float(lo)!r}, {float(hi)!r}] "
                f"of u = -y_j^2 has signs ({sa:+d}, {sb:+d}) of the even part"
                + (f" and overlaps the bracket of root j={j - 1}" if overlap else "")
            )
        prev_hi = hi
    return roots


def require_bernoulli_source(source: str) -> None:
    """Raise ValueError unless laws of this source have a Bernoulli decomposition."""
    if _LAW_SOURCES[source][1] is None:
        only = ", ".join(name for name, (_, decompose) in _LAW_SOURCES.items() if decompose)
        raise ValueError(f"no Bernoulli decomposition for source {source!r} (only {only})")


def bernoulli_decomposition(pgf: CyclePGF) -> BernoulliDecomposition:
    """Decompose a cycle-count PGF into independent Bernoulli summands, by
    the decomposer `_LAW_SOURCES` holds for its source.  For one_cycle the
    zeros of the PGF are 0 (offset times) and ±i*y_j, with sum_{k=1..M}
    atan(y_j/k) = pi*(M/2 - j) (see `negative_real_roots`), so the PGF is
    t^offset * prod_j (t^2 + y_j^2)/(1 + y_j^2): a doubled Bernoulli with
    numeric p_j = 1/(1 + y_j^2) per root, smallest p_j first.
    """
    require_bernoulli_source(pgf.source)
    ps, multiplier, offset = _LAW_SOURCES[pgf.source][1](pgf)
    return BernoulliDecomposition(tuple(BernoulliTerm(p, multiplier) for p in ps), offset)
