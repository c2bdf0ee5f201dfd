"""Permutation arithmetic, cycle statistics, canonical constructors,
the cycle-notation parser, and seeded sampling checks."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commcycles.perm import (
    CycleType,
    Permutation,
    commutator,
    commutator_cycle_count,
    compose,
    cycle_count,
    disjoint_transpositions,
    format_cycles,
    from_cycle_type,
    inverse,
    one_cycle,
    parse_cycles,
    sample_uniform,
    sign_parity,
    two_disjoint_cycles,
)

perms = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.permutations(list(range(n))).map(Permutation)
)


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

    def test_compose_identity(self):
        p = Permutation([2, 0, 1])
        assert compose(Permutation.identity(3), p) == p
        assert compose(p, Permutation.identity(3)) == p

    def test_compose_involution(self):
        swap = Permutation([1, 0])
        assert compose(swap, swap) == Permutation.identity(2)

    def test_compose_three_cycle_squared(self):
        c = Permutation([1, 2, 0])  # (0 1 2)
        assert compose(c, c) == Permutation([2, 0, 1])  # (0 2 1)

    def test_compose_size_mismatch(self):
        with pytest.raises(ValueError):
            compose(Permutation([0]), Permutation([0, 1]))

    def test_inverse_examples(self):
        assert inverse(Permutation.identity(4)) == Permutation.identity(4)
        assert inverse(Permutation([1, 2, 0])) == Permutation([2, 0, 1])

    def test_cycle_count_examples(self):
        assert cycle_count(Permutation.identity(5)) == 5
        assert cycle_count(one_cycle(6)) == 1
        assert cycle_count(Permutation([1, 0, 3, 2])) == 2

    def test_sign_parity_examples(self):
        assert sign_parity(Permutation.identity(3)) == "even"
        assert sign_parity(Permutation([1, 0])) == "odd"
        # 3-cycle: one cycle, M=3, 1 ≡ 3 (mod 2)
        assert sign_parity(Permutation([1, 2, 0])) == "even"

    def test_cycles_listing(self):
        p = parse_cycles("(1 2 3)(4 5)", size=6)
        assert p.cycles() == [(0, 1, 2), (3, 4), (5,)]
        assert p.cycle_type() == CycleType([3, 2, 1])


class TestCommutator:
    def test_with_identity(self):
        p = Permutation([2, 0, 1])
        assert commutator(p, Permutation.identity(3)).is_identity()
        assert commutator(Permutation.identity(3), p).is_identity()

    def test_with_itself(self):
        p = Permutation([3, 1, 0, 2])
        assert commutator(p, p).is_identity()

    def test_known_three_cycle(self):
        s = parse_cycles("(1 2)", size=3)
        t = parse_cycles("(1 2 3)")
        c = commutator(s, t)
        assert c.cycle_count() == 1  # a 3-cycle

    @settings(max_examples=60)
    @given(equal_size_perm_pairs())
    def test_parity_matches_ground_set(self, pair):
        s, t = pair
        c = commutator(s, t)
        assert c.is_even()
        assert c.cycle_count() % 2 == s.size % 2

    @settings(max_examples=100)
    @given(equal_size_perm_pairs())
    def test_cycle_count_without_products(self, pair):
        s, t = pair
        assert commutator_cycle_count(s, t) == commutator(s, t).cycle_count()

    def test_cycle_count_size_mismatch(self):
        with pytest.raises(ValueError):
            commutator_cycle_count(Permutation.identity(2), Permutation.identity(3))


class TestAlgebraProperties:
    @given(perms)
    def test_inverse_is_involution(self, p):
        assert inverse(inverse(p)) == p
        assert compose(p, inverse(p)).is_identity()
        assert compose(inverse(p), p).is_identity()

    @settings(max_examples=40)
    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda n: st.tuples(
                *[st.permutations(list(range(n))).map(Permutation)] * 3
            )
        )
    )
    def test_compose_associative(self, triple):
        a, b, c = triple
        assert compose(compose(a, b), c) == compose(a, compose(b, c))

    @settings(max_examples=60)
    @given(equal_size_perm_pairs())
    def test_conjugation_preserves_cycle_count(self, pair):
        s, t = pair
        assert t.conjugated_by(s).cycle_count() == t.cycle_count()
        assert t.conjugated_by(s).cycle_type() == t.cycle_type()


class TestCanonicalConstructors:
    def test_one_cycle_map(self):
        assert one_cycle(3).map == (1, 2, 0)
        assert one_cycle(1).is_identity()

    def test_two_disjoint_cycles(self):
        assert two_disjoint_cycles(1) == Permutation.identity(2)
        p = two_disjoint_cycles(3)
        assert p.size == 6
        assert p.cycle_type() == CycleType([3, 3])

    def test_disjoint_transpositions(self):
        assert disjoint_transpositions(2) == parse_cycles("(1 2)(3 4)")
        assert disjoint_transpositions(3).cycle_type() == CycleType([2, 2, 2])

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


class TestCycleNotation:
    def test_parse_basic(self):
        p = parse_cycles("(1 2 3)(4 5)")
        assert p.map == (1, 2, 0, 4, 3)

    def test_parse_with_commas_and_spaces(self):
        assert parse_cycles("( 1, 2,3 )( 4 5 )") == parse_cycles("(1 2 3)(4 5)")

    def test_fixed_points_omitted_with_size(self):
        p = parse_cycles("(1 2)", size=4)
        assert p.map == (1, 0, 2, 3)

    def test_identity_needs_size(self):
        assert parse_cycles("()", size=3).is_identity()
        with pytest.raises(ValueError):
            parse_cycles("()")

    def test_rejects_duplicates_and_bad_labels(self):
        with pytest.raises(ValueError):
            parse_cycles("(1 2)(2 3)")
        with pytest.raises(ValueError):
            parse_cycles("(0 1)")
        with pytest.raises(ValueError):
            parse_cycles("1 2 3")
        with pytest.raises(ValueError):
            parse_cycles("(1 2", size=2)

    def test_rejects_size_below_largest_label(self):
        with pytest.raises(ValueError):
            parse_cycles("(1 5)", size=3)

    def test_format_round_trip(self):
        p = parse_cycles("(1 3 5)(2 4)", size=6)
        assert parse_cycles(format_cycles(p), size=6) == p

    def test_format_examples(self):
        assert format_cycles(Permutation.identity(3)) == "()"
        assert format_cycles(parse_cycles("(1 2)", size=4)) == "(1 2)"
        assert format_cycles(parse_cycles("(1 2)", size=4), include_fixed=True) == "(1 2)(3)(4)"

    @given(perms)
    def test_round_trip_any(self, p):
        assert parse_cycles(format_cycles(p), size=p.size) == p


class TestSampling:
    def test_size_one_always_identity(self):
        rng = random.Random(0)
        for _ in range(20):
            assert sample_uniform(1, rng).is_identity()

    def test_two_point_frequencies(self):
        rng = random.Random(42)
        draws = 10_000
        hits = sum(sample_uniform(2, rng).is_identity() for _ in range(draws))
        # each of the two permutations has frequency 1/2; allow 3 standard errors
        se = math.sqrt(0.25 / draws)
        assert abs(hits / draws - 0.5) < 3 * se

    def test_mean_cycle_count_matches_harmonic_sum(self):
        rng = random.Random(2024)
        draws = 100_000
        total = sum(sample_uniform(5, rng).cycle_count() for _ in range(draws))
        mean = total / draws
        expected = float(Fraction(137, 60))  # 1 + 1/2 + 1/3 + 1/4 + 1/5
        variance = sum(Fraction(1, k) * (1 - Fraction(1, k)) for k in range(1, 6))
        se = math.sqrt(float(variance) / draws)
        assert abs(mean - expected) < 3 * se
