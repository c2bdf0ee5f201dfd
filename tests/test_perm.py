"""Permutations and their cycles, the commutator kernel against the plain
reference algebra, canonical representatives, the cycle-notation parser, and
seeded sampling checks."""

import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import commutator_cycle_count, compose, conjugate, inverse, orbit_count, sample_uniform
from commcycles import oracle, rmt, verify
from commcycles.genfun import BernoulliDecomposition, BernoulliTerm, CyclePGF, PgfValidation
from commcycles.perm import (
    CycleType,
    Permutation,
    format_cycles,
    from_cycle_type,
    parse_cycles,
)
from commcycles.polys import RationalPoly

perms = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.permutations(list(range(n))).map(Permutation)
)


def kernel_count(s, t):
    """C([s,t]) from the shipped numpy kernel, for one pair."""
    return int(oracle._commutator_counts(np.array([s.map]), np.array(t.map))[0])


def equal_size_perm_pairs():
    return st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(
            st.permutations(list(range(n))).map(Permutation),
            st.permutations(list(range(n))).map(Permutation),
        )
    )


class TestBasics:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])
        with pytest.raises(ValueError):
            Permutation([0, 2])
        with pytest.raises(ValueError):
            Permutation([])

    @pytest.mark.parametrize("mapping", [[True, False], [False], [0, True], [1.0, 0]])
    def test_refuses_non_int_points(self, mapping):
        # bool is an int subclass: only a plain-int check refuses True and False
        with pytest.raises(ValueError, match="not a bijection"):
            Permutation(mapping)

    # compose is the reference's product, which defines its one-list formulas
    def test_compose_identity(self):
        p = (2, 0, 1)
        assert compose((0, 1, 2), p) == p
        assert compose(p, (0, 1, 2)) == p

    def test_compose_involution(self):
        assert compose((1, 0), (1, 0)) == (0, 1)

    def test_compose_three_cycle_squared(self):
        c = (1, 2, 0)  # (0 1 2)
        assert compose(c, c) == (2, 0, 1)  # (0 2 1)

    def test_inverse_examples(self):
        assert inverse(range(4)) == (0, 1, 2, 3)
        assert inverse((1, 2, 0)) == (2, 0, 1)

    def test_cycle_count_examples(self):
        assert len(Permutation(range(5)).cycles()) == 5
        assert len(from_cycle_type(CycleType([6])).cycles()) == 1
        assert len(Permutation([1, 0, 3, 2]).cycles()) == 2

    def test_cycles_listing(self):
        p = parse_cycles("(1 2 3)(4 5)(6)")
        assert p.cycles() == [(0, 1, 2), (3, 4), (5,)]
        assert p.cycle_type() == CycleType([3, 2, 1])


class TestCommutator:
    """C([s,t]) from the numpy kernel, checked by hand and against the reference."""

    def test_with_identity(self):
        # the commutator is the identity, with M cycles
        p = Permutation([2, 0, 1])
        assert kernel_count(p, Permutation(range(3))) == 3
        assert kernel_count(Permutation(range(3)), p) == 3

    def test_with_itself(self):
        p = Permutation([3, 1, 0, 2])
        assert kernel_count(p, p) == 4

    def test_known_three_cycle(self):
        s = parse_cycles("(1 2)(3)")
        t = parse_cycles("(1 2 3)")
        assert kernel_count(s, t) == 1  # a 3-cycle

    @settings(max_examples=60)
    @given(equal_size_perm_pairs())
    def test_parity_matches_ground_set(self, pair):
        # a commutator is even: C([s,t]) ≡ M (mod 2)
        s, t = pair
        c = kernel_count(s, t)
        assert c == commutator_cycle_count(s.map, t.map)
        assert c % 2 == s.size % 2

    @settings(max_examples=100)
    @given(equal_size_perm_pairs())
    def test_cycle_count_without_products(self, pair):
        # the reference's one-list formula is the orbit count of s∘t∘s⁻¹∘t⁻¹
        s, t = pair
        product = compose(compose(s.map, t.map), compose(inverse(s.map), inverse(t.map)))
        assert commutator_cycle_count(s.map, t.map) == orbit_count(product)


class TestAlgebraProperties:
    @given(perms)
    def test_inverse_is_involution(self, p):
        identity = tuple(range(p.size))
        assert inverse(inverse(p.map)) == p.map
        assert compose(p.map, inverse(p.map)) == identity
        assert compose(inverse(p.map), p.map) == identity

    @settings(max_examples=40)
    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda n: st.tuples(
                *[st.permutations(list(range(n))).map(Permutation)] * 3
            )
        )
    )
    def test_compose_associative(self, triple):
        a, b, c = (p.map for p in triple)
        assert compose(compose(a, b), c) == compose(a, compose(b, c))

    @settings(max_examples=60)
    @given(equal_size_perm_pairs())
    def test_conjugation_preserves_cycle_count(self, pair):
        s, t = pair
        conj = Permutation(conjugate(s.map, t.map))
        assert conj.map == compose(compose(s.map, t.map), inverse(s.map))
        assert len(conj.cycles()) == len(t.cycles())
        assert conj.cycle_type() == t.cycle_type()


class TestCanonicalConstructors:
    def test_one_cycle_map(self):
        assert from_cycle_type(CycleType([3])).map == (1, 2, 0)
        assert from_cycle_type(CycleType([1])).map == (0,)

    def test_two_disjoint_cycles(self):
        assert from_cycle_type(CycleType([1, 1])) == Permutation(range(2))
        p = from_cycle_type(CycleType([3, 3]))
        assert p.size == 6
        assert p.cycle_type() == CycleType([3, 3])

    def test_disjoint_transpositions(self):
        assert from_cycle_type(CycleType([2, 2])) == parse_cycles("(1 2)(3 4)")
        assert from_cycle_type(CycleType([2, 2, 2])).cycle_type() == CycleType([2, 2, 2])

    def test_named_family_maps_are_pinned(self):
        # `sample` draws against these maps, so its pinned histograms and
        # recorded digests hold only while the maps stay exactly these
        for m in range(1, 41):
            cycle = tuple((i + 1) % m for i in range(m))  # (0 1 ... m-1)
            assert from_cycle_type(CycleType([m])).map == cycle
            assert from_cycle_type(CycleType([m, m])).map == cycle + tuple(m + i for i in cycle)  # then (m ... 2m-1)
            assert from_cycle_type(CycleType([2] * m)).map == tuple(i ^ 1 for i in range(2 * m))  # (0 1)(2 3)...

    @pytest.mark.parametrize("parts", [[3], [1, 1, 1], [4, 2, 1], [2, 2, 3]])
    def test_from_cycle_type_orbits(self, parts):
        ct = CycleType(parts)
        p = from_cycle_type(ct)
        assert p.size == ct.size
        assert p.cycle_type() == ct

    def test_cycle_type_class_size(self):
        assert CycleType([3]).class_size() == 2  # the two 3-cycles
        assert CycleType([2, 2]).class_size() == 3
        assert CycleType([1] * 5).class_size() == 1
        total = sum(
            CycleType(t).class_size()
            for t in ([4], [3, 1], [2, 2], [2, 1, 1], [1, 1, 1, 1])
        )
        assert total == math.factorial(4)

    @pytest.mark.parametrize("parts", [[], [0], [3, -1], [1.5, 1.5], [2.0, 1], [True], [True, True], ["2"]])
    def test_cycle_type_refuses_bad_parts(self, parts):
        # only positive plain ints: a float or bool part would fail later, deep in a law
        with pytest.raises(ValueError, match="positive integer parts"):
            CycleType(parts)


class TestCycleNotation:
    def test_parse_basic(self):
        p = parse_cycles("(1 2 3)(4 5)")
        assert p.map == (1, 2, 0, 4, 3)

    def test_parse_with_commas_and_spaces(self):
        assert parse_cycles("( 1, 2,3 )( 4 5 )") == parse_cycles("(1 2 3)(4 5)")

    def test_fixed_points_as_one_cycles(self):
        # a trailing fixed point is a 1-cycle; one below the largest label may be left out
        assert parse_cycles("(1 2)(3)(4)").map == (1, 0, 2, 3)
        assert parse_cycles("(1 2)(4)") == parse_cycles("(1 2)(3)(4)")
        assert parse_cycles("(1 2)").size == 2

    def test_identity_needs_size(self):
        # the identity is written by its fixed points: "()" has no size and no cycle
        assert parse_cycles("(1)(2)(3)") == Permutation(range(3))
        for text in ("()", "(1 2)()", "( )(1)"):
            with pytest.raises(ValueError, match="empty cycle"):
                parse_cycles(text)

    def test_rejects_duplicates_and_bad_labels(self):
        with pytest.raises(ValueError):
            parse_cycles("(1 2)(2 3)")
        with pytest.raises(ValueError):
            parse_cycles("(0 1)")
        with pytest.raises(ValueError):
            parse_cycles("1 2 3")
        with pytest.raises(ValueError):
            parse_cycles("(1 2")

    def test_format_round_trip(self):
        p = parse_cycles("(1 3 5)(2 4)(6)")
        assert format_cycles(p) == "(1 3 5)(2 4)(6)"
        assert parse_cycles(format_cycles(p)) == p

    def test_format_examples(self):
        assert format_cycles(Permutation(range(3))) == "(1)(2)(3)"
        assert format_cycles(parse_cycles("(1 2)(4)")) == "(1 2)(3)(4)"
        assert str(from_cycle_type(CycleType([2, 1]))) == "(1 2)(3)"

    @given(perms)
    def test_round_trip_any(self, p):
        assert parse_cycles(format_cycles(p)) == p


class TestSampling:
    def test_size_one_always_identity(self):
        rng = random.Random(0)
        for _ in range(20):
            assert sample_uniform(1, rng).map == (0,)

    def test_two_point_frequencies(self):
        rng = random.Random(42)
        draws = 10_000
        hits = sum(sample_uniform(2, rng).map == (0, 1) for _ in range(draws))
        # each of the two permutations has frequency 1/2; allow 3 standard errors
        se = math.sqrt(0.25 / draws)
        assert abs(hits / draws - 0.5) < 3 * se

    def test_mean_cycle_count_matches_harmonic_sum(self):
        rng = random.Random(2024)
        draws = 100_000
        total = sum(len(sample_uniform(5, rng).cycles()) for _ in range(draws))
        mean = total / draws
        expected = float(Fraction(137, 60))  # 1 + 1/2 + 1/3 + 1/4 + 1/5
        variance = sum(Fraction(1, k) * (1 - Fraction(1, k)) for k in range(1, 6))
        se = math.sqrt(float(variance) / draws)
        assert abs(mean - expected) < 3 * se


# One value of each immutable value class: (class, positional arguments, the
# field names in order, the fields it holds, its repr).
_TERM = BernoulliTerm(Fraction(1, 3), 2)
VALUES = [
    (CycleType, ([2, 3],), ("parts",), ((3, 2),), "CycleType(parts=(3, 2))"),
    (
        CyclePGF,
        (RationalPoly([0, 1]), 1, "uniform"),
        ("poly", "M", "source"),
        (RationalPoly([0, 1]), 1, "uniform"),
        "CyclePGF(poly=RationalPoly('X'), M=1, source='uniform')",
    ),
    (
        PgfValidation,
        ("uniform", 3, True, True, False, None),
        ("source", "M", "normalized", "nonnegative", "zero_constant", "parity_ok"),
        ("uniform", 3, True, True, False, None),
        "PgfValidation(source='uniform', M=3, normalized=True, nonnegative=True, zero_constant=False, parity_ok=None)",
    ),
    (
        BernoulliTerm,
        (Fraction(1, 3), 2),
        ("p", "multiplier"),
        (Fraction(1, 3), 2),
        "BernoulliTerm(p=Fraction(1, 3), multiplier=2)",
    ),
    (
        BernoulliDecomposition,
        ((_TERM,), 1),
        ("terms", "offset"),
        ((_TERM,), 1),
        "BernoulliDecomposition(terms=(BernoulliTerm(p=Fraction(1, 3), multiplier=2),), offset=1)",
    ),
    (
        rmt.MomentReport,
        ("probe", {"N": 2}, 1.0, 0.5, Fraction(1), 0.0, 10, 3, 1, {}),
        ("identity", "params", "estimate", "std_error", "target", "z", "samples", "seed", "partitions", "extra"),
        ("probe", {"N": 2}, 1.0, 0.5, Fraction(1), 0.0, 10, 3, 1, {}),
        "MomentReport(identity='probe', params={'N': 2}, estimate=1.0, std_error=0.5, target=Fraction(1, 1),"
        " z=0.0, samples=10, seed=3, partitions=1, extra={})",
    ),
    (
        verify.CheckResult,
        ("reflection", 1, "n <= 12"),  # ok is kept as a bool
        ("name", "ok", "detail"),
        ("reflection", True, "n <= 12"),
        "CheckResult(name='reflection', ok=True, detail='n <= 12')",
    ),
]
VALUE_IDS = [cls.__name__ for cls, *_ in VALUES]


class TestValueClasses:
    """The immutable values every layer returns: built by position, equal and
    hashed field by field, printed as `Class(field=value, ...)`, and frozen."""

    @pytest.mark.parametrize("cls, args, names, fields, text", VALUES, ids=VALUE_IDS)
    def test_fields_equality_repr(self, cls, args, names, fields, text):
        value = cls(*args)
        assert tuple(getattr(value, n) for n in names) == fields
        assert value == cls(*args) and not value != cls(*args)
        assert repr(value) == text
        assert pickle.loads(pickle.dumps(value)) == value
        assert value != cls(*args[:-1], [4] if cls is CycleType else "other")  # the last field differs

    def test_no_equality_across_classes(self):
        values = [cls(*args) for cls, args, *_ in VALUES]
        for i, a in enumerate(values):
            assert [a == b for b in values] == [j == i for j in range(len(values))]
            assert a != tuple(getattr(a, n) for n in VALUES[i][2])

    def test_equal_values_hash_equal(self):
        assert hash(CycleType([3, 2, 2])) == hash(CycleType([2, 3, 2]))
        assert len({CycleType([1, 4]), CycleType((4, 1)), CycleType([5])}) == 2
        a, b = (CyclePGF(RationalPoly([0, 1, 1]) / 2, 2, "uniform") for _ in range(2))
        assert a.poly is not b.poly and hash(a) == hash(b)
        copy = BernoulliDecomposition((BernoulliTerm(Fraction(1, 3), 2),), 1)
        assert hash(BernoulliDecomposition((_TERM,), 1)) == hash(copy)

    @pytest.mark.parametrize("cls, args, names, fields, text", VALUES, ids=VALUE_IDS)
    def test_frozen(self, cls, args, names, fields, text):
        value = cls(*args)
        with pytest.raises(AttributeError):
            setattr(value, names[0], fields[0])
        with pytest.raises(AttributeError):
            value.unknown = 1
        with pytest.raises(AttributeError):
            delattr(value, names[-1])
        assert tuple(getattr(value, n) for n in names) == fields
