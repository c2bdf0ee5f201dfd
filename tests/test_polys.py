"""Exact checks of the polynomial toolkit: frozen hand-expanded values,
the factorial-polynomial identities, ring-structure properties, and the
table of Stirling rows every factorial builder reads."""

import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import _reference as reference
from commcycles import polys
from commcycles.genfun import (
    alternating_pgf,
    one_cycle_pgf,
    transpositions_pgf,
    two_cycles_pgf,
    uniform_cycles_pgf,
)
from commcycles.polys import (
    RationalPoly,
    ZERO,
    _poly,
    _pretty_strings,
    connection_expand,
    discrete_difference,
    falling_factorial,
    rising_factorial,
    rising_falling_sum,
    rising_product,
    rising_square_sum,
)

F = Fraction


def poly(*coeffs):
    return RationalPoly(coeffs)


ONE = poly(1)
X = poly(0, 1)


class TestRationalPolyBasics:
    def test_normalization_strips_trailing_zeros(self):
        assert poly(1, 2, 0, 0).coeffs == (F(1), F(2))
        assert poly(0, 0) == ZERO
        assert ZERO.degree == -1

    def test_fractions_kept_in_lowest_terms(self):
        p = RationalPoly([Fraction(2, 4)])
        assert p.coeffs == (F(1, 2),)

    def test_addition_identity(self):
        p = poly(1, 2, 3)
        assert p + ZERO == p
        assert sum([p, p, ZERO]) == 2 * p

    def test_product_example(self):
        # (X^2+X)(X^2-X) = X^4 - X^2
        assert rising_factorial(2) * falling_factorial(2) == poly(0, 0, -1, 0, 1)

    def test_scalar_division(self):
        assert poly(2, 4) / 2 == poly(1, 2)

    def test_eval_constant_term(self):
        assert poly(7, 1, 3)(0) == 7

    def test_compose(self):
        # (X^2)(X - 1) = (X-1)^2
        assert (X * X).compose(poly(-1, 1)) == poly(1, -2, 1)

    def test_reflect(self):
        assert poly(0, 0, 5).reflect() == poly(0, 0, 5)
        assert poly(0, 0, 0, 1).reflect() == poly(0, 0, 0, -1)

    def test_coeff_strings_round_trip(self):
        p = poly(F(1, 2), 0, 3)
        assert p.coeff_strings() == ["1/2", "0/1", "3/1"]
        assert RationalPoly(map(F, p.coeff_strings())) == p

    def test_pretty(self):
        assert _pretty_strings(poly(2, F(-1, 2), 1).coeff_strings(), "t") == "t^2 - 1/2*t + 2"
        assert _pretty_strings(ZERO.coeff_strings()) == "0"
        assert repr(poly(2, F(-1, 2), 1)) == "RationalPoly('X^2 - 1/2*X + 2')"


small_fractions = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
small_polys = st.lists(small_fractions, max_size=6).map(RationalPoly)

# Coefficients that stress the integer readers: zero, unit magnitude (drawn
# without a factor), other integers, and fractions over mixed denominators.
edge_coeffs = st.one_of(
    st.sampled_from([0, 1, -1, F(1, 2), F(-1, 3)]),
    st.integers(-(10**6), 10**6),
    st.fractions(min_value=-50, max_value=50, max_denominator=1000),
)
edge_polys = st.lists(edge_coeffs, max_size=8).map(RationalPoly)


class TestIntegerNumerators:
    """Readers of `numerators` and `denominator` against the references that
    read one Fraction per coefficient (tests/_reference.py)."""

    @given(edge_polys)
    def test_numerators_over_denominator_are_the_coefficients(self, p):
        assert p.denominator > 0
        assert tuple(F(c, p.denominator) for c in p.numerators) == p.coeffs

    @given(edge_polys)
    def test_coeff_strings(self, p):
        assert p.coeff_strings() == reference.coeff_strings(p.coeffs)

    @given(edge_polys, st.sampled_from(["t", "X"]))
    def test_pretty(self, p, var):
        assert _pretty_strings(p.coeff_strings(), var) == reference.pretty(p.coeffs, var)

    @pytest.mark.parametrize(
        "coeffs, text",
        [
            ((-1,), "-1"),
            ((0, -1), "-t"),
            ((1, 0, -1), "-t^2 + 1"),
            ((F(3, 6), F(-4, 2)), "-2*t + 1/2"),
            ((F(-1, 3), 0, F(1, 2)), "1/2*t^2 - 1/3"),
        ],
    )
    def test_pretty_units_and_reduced_magnitudes(self, coeffs, text):
        assert _pretty_strings(RationalPoly(coeffs).coeff_strings()) == text

    @given(st.lists(edge_coeffs, max_size=5).map(RationalPoly), st.lists(edge_coeffs, max_size=4).map(RationalPoly))
    def test_compose(self, p, q):
        assert p.compose(q).coeffs == tuple(reference.poly_compose(p.coeffs, q.coeffs))


class TestRingProperties:
    @given(small_polys, small_polys, small_fractions)
    def test_evaluation_is_ring_homomorphism(self, p, q, x):
        assert (p + q)(x) == p(x) + q(x)
        assert (p * q)(x) == p(x) * q(x)

    @given(small_polys, small_polys, small_polys)
    def test_mul_associative_and_distributive(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(small_polys)
    def test_reflect_involution(self, p):
        assert p.reflect().reflect() == p

    @given(small_polys, st.integers(1, 60), st.integers(1, 60))
    def test_equal_values_compare_and_hash_equal(self, p, k, j):
        # the same coefficients reached over different denominators
        scaled = (p * Fraction(k, j)) / Fraction(k, j)
        split = p * Fraction(1, k + 1) + p * Fraction(k, k + 1)
        den = math.lcm(*(c.denominator for c in p.coeffs)) * k  # every numerator and den share k
        unreduced = _poly([c.numerator * (den // c.denominator) for c in p.coeffs], den)
        for q in (scaled, split, unreduced):
            assert q == p
            assert hash(q) == hash(p)

    @given(small_polys, small_polys)
    def test_coeffs_in_lowest_terms(self, p, q):
        for r in (p * q, p + q, p - q, (p * q).compose(p)):
            for s in r.coeff_strings():
                num, den = map(int, s.split("/"))
                assert den > 0 and math.gcd(num, den) == 1


class TestFactorialPolynomials:
    def test_rising_frozen_values(self):
        assert rising_factorial(0) == ONE
        assert rising_factorial(1) == X
        assert rising_factorial(3) == poly(0, 2, 3, 1)  # X^3+3X^2+2X

    def test_falling_frozen_values(self):
        assert falling_factorial(0) == ONE
        assert falling_factorial(2) == poly(0, -1, 1)
        assert falling_factorial(4) == poly(0, -6, 11, -6, 1)

    def test_stirling_rows(self):
        # c(n, k) = c(n-1, k-1) + (n-1) c(n-1, k): unsigned Stirling numbers
        # of the first kind; the falling factorial carries the signs.
        row = [1]
        product = ONE
        for n in range(41):
            signed = [(-1) ** (n - k) * c for k, c in enumerate(row)]
            assert rising_factorial(n) == RationalPoly(row) == product
            assert falling_factorial(n) == RationalPoly(signed)
            row = [(row[k - 1] if k else 0) + n * (row[k] if k < len(row) else 0) for k in range(n + 2)]
            product = product * (X + n)

    def test_rising_falling_sum(self):
        for n in range(41):
            assert rising_falling_sum(n, 1) == rising_factorial(n) + falling_factorial(n)
            assert rising_falling_sum(n, -1) == rising_factorial(n) - falling_factorial(n)
        assert rising_falling_sum(3, 1) == poly(0, 4, 0, 2)  # R_3 = X^3 + 3X^2 + 2X
        assert rising_falling_sum(3, -1) == poly(0, 0, 6)
        for n, sign in [(-1, 1), (3, 0), (3, 2)]:
            with pytest.raises(ValueError):
                rising_falling_sum(n, sign)

    @pytest.mark.parametrize("n", range(9))
    def test_reflection_relation(self, n):
        assert rising_factorial(n).reflect() == (-1) ** n * falling_factorial(n)

    def test_difference_of_constant(self):
        assert discrete_difference(poly(5)) == ZERO

    def test_difference_of_square(self):
        assert discrete_difference(X * X) == poly(-1, 2)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_difference_eigenrelation(self, n):
        assert discrete_difference(rising_factorial(n)) == n * rising_factorial(n - 1)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_difference_drops_degree_by_one(self, n):
        assert discrete_difference(rising_factorial(n)).degree == n - 1

    def test_rising_eval(self):
        assert rising_factorial(4)(1) == 24
        assert rising_factorial(4)(2) == 120
        # the gamma-sum form: R_4(2) = 4 * (Γ(4)/Γ(1) + Γ(5)/Γ(2)) = 4*(6+24)
        assert 4 * (rising_product(1, 3) + rising_product(2, 3)) == 120

    def test_rising_product_exact(self):
        assert rising_product(3, 4) == 3 * 4 * 5 * 6
        assert rising_product(F(1, 2), 2) == F(3, 4)
        assert rising_product(5, 0) == 1

    @pytest.mark.parametrize("n", range(1, 13))
    def test_integer_values_as_gamma_sums(self, n):
        for k in range(1, 13):
            assert rising_factorial(n)(k) == n * sum(
                rising_product(j, n - 1) for j in range(1, k + 1)
            )


class TestSquaredRisingSums:
    def test_frozen_m1(self):
        assert rising_square_sum(1) == poly(0, F(1, 6), F(1, 2), F(1, 3))

    def test_values_m1(self):
        s = rising_square_sum(1)
        assert s(0) == 0
        assert s(1) == 1
        assert s(2) == 5  # 1^2 + 2^2

    @pytest.mark.parametrize("m", [*range(1, 9), 20, 40, 60])
    def test_characterization(self, m):
        s = rising_square_sum(m)
        assert s.degree == 2 * m + 1
        assert s(0) == 0
        assert discrete_difference(s) == rising_factorial(m) * rising_factorial(m)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_partial_sum_values(self, m):
        s = rising_square_sum(m)
        running = 0
        for n in range(1, 13):
            running += rising_product(n, m) ** 2
            assert s(n) == running


class TestConnectionExpansion:
    def test_m_zero(self):
        for n in range(6):
            assert connection_expand(0, n) == falling_factorial(n)

    def test_m_n_one(self):
        assert connection_expand(1, 1) == X * X

    def test_m_n_two(self):
        assert connection_expand(2, 2) == falling_factorial(2) * falling_factorial(2)

    @pytest.mark.parametrize("n", range(9))
    def test_general_identity(self, n):
        for m in range(n + 1):
            assert connection_expand(m, n) == falling_factorial(m) * falling_factorial(n)

    def test_rejects_m_above_n(self):
        with pytest.raises(ValueError):
            connection_expand(3, 2)


def stirling_rows(top):
    """Rows 0..top of c(n, k) by the recurrence c(n+1, k) = c(n, k-1) + n c(n, k)."""
    rows = [[1]]
    for n in range(top):
        rows.append([a + n * b for a, b in zip([0, *rows[-1]], [*rows[-1], 0])])
    return rows


# Every builder that reads the table, and the largest size it is asked for: a
# sweep builder at m reads rows up to 2m + 1, so it stops at m = 100.
TABLE_READERS = {
    "rising_factorial": (rising_factorial, 200),
    "falling_factorial": (falling_factorial, 200),
    "rising_falling_sum+": (lambda n: rising_falling_sum(n, 1), 200),
    "rising_falling_sum-": (lambda n: rising_falling_sum(n, -1), 200),
    "rising_square_sum": (rising_square_sum, 100),
    "uniform_cycles_pgf": (lambda m: uniform_cycles_pgf(m).poly, 200),
    "alternating_pgf": (lambda m: alternating_pgf(m, False).poly, 200),
    "alternating_pgf complement": (lambda m: alternating_pgf(m, True).poly, 200),
    "one_cycle_pgf": (lambda m: one_cycle_pgf(m).poly, 200),
    "two_cycles_pgf": (lambda m: two_cycles_pgf(m).poly, 100),
    "transpositions_pgf": (lambda m: transpositions_pgf(m).poly, 200),
}


class TestStirlingRowTable:
    def test_cold_and_warm_tables_agree(self, cold_rows):
        requests = [(name, n) for name, (_, top) in TABLE_READERS.items() for n in range(2, top + 1)]
        random.Random(1).shuffle(requests)
        cold = {}
        for name, n in requests:
            cold_rows.clear()
            cold[name, n] = TABLE_READERS[name][0](n)
        cold_rows.clear()
        random.Random(2).shuffle(requests)
        for name, n in requests:
            assert TABLE_READERS[name][0](n) == cold[name, n], (name, n)

    def test_mutating_a_returned_row_changes_no_later_answer(self, cold_rows):
        rows = stirling_rows(12)
        row = polys._rising_row(10)
        row[3] += 1
        row.append(7)
        assert polys._rising_row(10) == rows[10]
        assert rising_factorial(10) == RationalPoly(rows[10])
        assert polys._rising_row(12) == rows[12]

    def test_retained_bits_stay_within_the_budget(self, cold_rows):
        rows = stirling_rows(1000)
        for n in [*range(100, 801, 100), 1000]:
            assert polys._rising_row(n) == rows[n]
            assert sum(bits for bits, _ in cold_rows.values()) <= polys._ROW_BITS
        for n in range(100, 801, 100):
            assert rising_factorial(n) == RationalPoly(rows[n])
        # the oldest rows went first, and row 1000 alone is past the budget
        assert sum(sum(c.bit_length() for c in rows[n]) for n in range(100, 801, 100)) > polys._ROW_BITS
        assert sum(c.bit_length() for c in rows[1000]) > polys._ROW_BITS
        assert 100 not in cold_rows and 1000 not in cold_rows
        assert all(entry == (sum(c.bit_length() for c in rows[n]), rows[n]) for n, entry in cold_rows.items())

    def test_threads_build_laws_while_the_table_evicts(self, cold_rows, monkeypatch):
        # a budget of a few rows near 40: most stores evict rows that other threads are reading
        monkeypatch.setattr(polys, "_ROW_BITS", 1 << 15)
        laws = [one_cycle_pgf, transpositions_pgf, two_cycles_pgf, uniform_cycles_pgf]
        requests = [(law, m) for law in laws for m in range(1, 41)]
        cold = {}
        for law, m in requests:
            cold_rows.clear()
            cold[law, m] = law(m).poly
        cold_rows.clear()
        built, errors = [{} for _ in range(4)], []

        def build(k):
            order = random.Random(k).sample(requests * 5, 5 * len(requests))
            try:
                for law, m in order:
                    built[k][law, m] = law(m).poly
            except Exception as error:  # reported by the assertion below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert all(answers == cold for answers in built)
        assert sum(bits for bits, _ in cold_rows.values()) <= polys._ROW_BITS
