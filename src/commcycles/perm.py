"""Permutations of {0, ..., M-1} in one-line notation, their cycles and
cycle types, and canonical representatives of cycle types.  Commutator
cycle counts are computed in bulk by `oracle`.

Internally everything is 0-based one-line notation (map[i] = image of i);
the 1-based cycle notation of the group-theory literature appears only in
the text parser/printer.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Sequence

__all__ = [
    "Permutation",
    "CycleType",
    "from_cycle_type",
    "parse_cycles",
    "format_cycles",
]


class Frozen:
    """Base of the immutable value classes: the `__slots__` are the fields, set once by position,
    compared (within one class) and hashed as a tuple, shown as `Class(field=value, ...)`, as JSON `{field: value}`."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} of a {type(self).__qualname__} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._fields()

    def to_json(self) -> dict:
        return dict(zip(self.__slots__, self._fields()))


class Permutation:
    """A bijection of {0, ..., M-1}, stored as a tuple in one-line notation."""

    __slots__ = ("_map",)

    def __init__(self, mapping: Iterable[int]):
        m = tuple(mapping)
        n = len(m)
        if n == 0:
            raise ValueError("permutation must act on at least one point")
        seen = [False] * n
        for v in m:
            if type(v) is not int or not 0 <= v < n or seen[v]:
                raise ValueError(f"not a bijection of range({n}): {m}")
            seen[v] = True
        self._map = m

    @property
    def map(self) -> tuple[int, ...]:
        return self._map

    @property
    def size(self) -> int:
        return len(self._map)

    def cycles(self) -> list[tuple[int, ...]]:
        """Orbits as tuples, each starting at its smallest element, ordered
        by that element.  Fixed points are length-1 cycles."""
        seen = [False] * self.size
        out = []
        for start in range(self.size):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self._map[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self._map[j]
            out.append(tuple(cyc))
        return out

    def cycle_type(self) -> "CycleType":
        return CycleType(len(c) for c in self.cycles())

    def __eq__(self, other):
        if isinstance(other, Permutation):
            return self._map == other._map
        return NotImplemented

    def __hash__(self):
        return hash(self._map)

    def __repr__(self):
        return f"Permutation({list(self._map)})"

    def __str__(self):
        return format_cycles(self)


class CycleType(Frozen):
    """A multiset of cycle lengths, stored sorted in decreasing order as `parts`."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int]):
        ps = tuple(parts)
        if not ps or any(type(p) is not int or p < 1 for p in ps):  # True and 2.0 are refused too
            raise ValueError(f"cycle type needs positive integer parts, got {list(ps)}")
        super().__init__(tuple(sorted(ps, reverse=True)))

    @property
    def size(self) -> int:
        """Size of the ground set (sum of the parts)."""
        return sum(self.parts)

    def class_size(self) -> int:
        """Number of permutations with this cycle type:
        M! / prod_over_lengths(length^mult * mult!)."""
        denom = 1
        mult: dict[int, int] = {}
        for p in self.parts:
            mult[p] = mult.get(p, 0) + 1
        for length, a in mult.items():
            denom *= length**a * math.factorial(a)
        return math.factorial(self.size) // denom


def _perm_from_cycles0(cycles: Sequence[Sequence[int]], size: int) -> Permutation:
    out = list(range(size))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:]):
            out[a] = b
        out[cyc[-1]] = cyc[0]
    return Permutation(out)


def from_cycle_type(ct: CycleType) -> Permutation:
    """Canonical representative: consecutive blocks, longest cycle first."""
    cycles = []
    start = 0
    for length in ct.parts:
        cycles.append(list(range(start, start + length)))
        start += length
    return _perm_from_cycles0(cycles, ct.size)


# One cycle "(...)"; `re` compiles it on the first parse and caches it, so start-up does not.
_CYCLE = r"\(([^()]*)\)"


def parse_cycles(text: str) -> Permutation:
    """Parse 1-based cycle notation like "(1 2 3)(4 5)(6)" or "(1, 2, 3)".

    Whitespace-insensitive; commas optional.  The ground-set size is the
    largest label, so a trailing fixed point is written as a 1-cycle, as
    `format_cycles` writes every fixed point.
    """
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty cycle expression")
    if re.sub(_CYCLE, "", stripped).strip():
        raise ValueError(f"malformed cycle notation: {text!r}")
    cycles0 = []
    labels_seen = set()
    for body in re.findall(_CYCLE, stripped):
        labels = [tok for tok in re.split(r"[\s,]+", body.strip()) if tok]
        if not labels:
            raise ValueError(f"empty cycle '()' in {text!r}: write a fixed point as a 1-cycle, e.g. (3)")
        cyc = []
        for tok in labels:
            if not tok.isdigit() or int(tok) < 1:
                raise ValueError(f"labels must be positive integers, got {tok!r}")
            lab = int(tok)
            if lab in labels_seen:
                raise ValueError(f"label {lab} appears twice")
            labels_seen.add(lab)
            cyc.append(lab - 1)
        cycles0.append(cyc)
    return _perm_from_cycles0(cycles0, max(labels_seen))


def format_cycles(p: Permutation) -> str:
    """Render in 1-based cycle notation, every cycle written, fixed points
    as 1-cycles: parse_cycles(format_cycles(p)) == p."""
    return "".join("(" + " ".join(str(i + 1) for i in cyc) + ")" for cyc in p.cycles())
