"""Closed-form PGFs: frozen values, cross-family equalities, invariant
validation, Bernoulli decompositions, and the Lee-Yang root structure.

The coefficientwise comparisons against brute-force enumeration live in
test_oracle.py; here we pin the formulas themselves.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import _reference as reference
from commcycles import genfun, oracle
from commcycles import polys as polys_module
from commcycles.genfun import (
    BernoulliDecomposition,
    BernoulliTerm,
    CyclePGF,
    EnumerationCapError,
    bernoulli_decomposition,
    character_law,
    negative_real_roots,
    one_cycle_pgf,
    RootFindError,
    alternating_pgf,
    transpositions_pgf,
    transpositions_rising_form,
    two_cycles_pgf,
    uniform_cycles_pgf,
    validate_pgf,
)
from commcycles.perm import CycleType, Permutation
from commcycles.polys import RationalPoly, falling_factorial, rising_factorial, rising_product

F = Fraction


def poly(*coeffs):
    return RationalPoly(coeffs)


class TestUniform:
    def test_m1(self):
        assert uniform_cycles_pgf(1).poly == poly(0, 1)

    def test_m3(self):
        assert uniform_cycles_pgf(3).poly == poly(0, F(2, 6), F(3, 6), F(1, 6))

    def test_m4_stirling_cycle_numbers(self):
        assert uniform_cycles_pgf(4).poly == poly(0, F(6, 24), F(11, 24), F(6, 24), F(1, 24))


class TestAlternating:
    def test_m2_even(self):
        assert alternating_pgf(2, complement=False).poly == poly(0, 0, 1)

    def test_m2_odd(self):
        assert alternating_pgf(2, complement=True).poly == poly(0, 1)

    def test_m4_odd(self):
        # 6 transpositions (3 cycles) + 6 four-cycles (1 cycle) out of 12
        assert alternating_pgf(4, complement=True).poly == poly(0, F(1, 2), 0, F(1, 2))

    def test_m1_even_is_point_mass(self):
        assert alternating_pgf(1, complement=False).poly == poly(0, 1)
        assert validate_pgf(alternating_pgf(1, complement=False)).ok

    def test_m1_odd_rejected(self):
        with pytest.raises(ValueError):
            alternating_pgf(1, complement=True)


class TestOneCycle:
    def test_m2(self):
        assert one_cycle_pgf(2).poly == poly(0, 0, 1)

    def test_m3(self):
        assert one_cycle_pgf(3).poly == poly(0, F(1, 2), 0, F(1, 2))

    def test_m4(self):
        assert one_cycle_pgf(4).poly == poly(0, 0, F(5, 6), 0, F(1, 6))

    @pytest.mark.parametrize("m", range(1, 10))
    def test_equals_odd_permutation_law(self, m):
        assert one_cycle_pgf(m).poly == alternating_pgf(m + 1, complement=True).poly

    @pytest.mark.parametrize("m", range(1, 7))
    def test_gamma_sum_values_inside_range(self, m):
        # M! * P(N) = sum_{i<=N} Γ(M+i)/Γ(i) for N <= M
        p = one_cycle_pgf(m).poly
        for n in range(1, m + 1):
            assert math.factorial(m) * p(n) == sum(rising_product(i, m) for i in range(1, n + 1))


class TestTwoCycles:
    def test_m1_point_mass(self):
        assert two_cycles_pgf(1).poly == poly(0, 0, 1)

    def test_meets_transpositions_at_m2(self):
        assert two_cycles_pgf(2).poly == transpositions_pgf(2).poly

    @pytest.mark.parametrize("m", range(1, 7))
    def test_normalized_and_even(self, m):
        pgf = two_cycles_pgf(m)
        assert pgf.poly(1) == 1
        assert pgf.poly.degree == 2 * m
        assert all(c == 0 for k, c in enumerate(pgf.poly.coeffs) if k % 2)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_fourth_moment_expansion_inside_range(self, m):
        # (2M)! * P(N) = ΣΓ(i+2M)/Γ(i) + 2(ΣΓ(i+M)/Γ(i))^2 - 2Σ(Γ(i+M)/Γ(i))^2
        # for N <= M
        p = two_cycles_pgf(m).poly
        for n in range(1, m + 1):
            singles = [rising_product(i, m) for i in range(1, n + 1)]
            expected = (
                sum(rising_product(i, 2 * m) for i in range(1, n + 1))
                + 2 * sum(singles) ** 2
                - 2 * sum(s**2 for s in singles)
            )
            assert math.factorial(2 * m) * p(n) == expected

    @pytest.mark.parametrize("m", range(1, 61))
    def test_matches_three_row_form(self, m):
        assert two_cycles_pgf(m).poly == reference.two_cycles_law(m)

    @pytest.mark.parametrize("m", [1, 2, 5, 17, 40])
    def test_one_sweep_of_rising_rows(self, monkeypatch, cold_rows, m):
        # R_{m+1} and R_{2m+1} come from the sweep that sums S
        real = polys_module._times_x_plus
        calls = []
        monkeypatch.setattr(polys_module, "_times_x_plus", lambda row, i: calls.append(i) or real(row, i))
        two_cycles_pgf(m)
        assert calls == list(range(2 * m + 1))

    @pytest.mark.parametrize("m", [1, 2, 5, 17, 40])
    def test_warm_sweep_starts_at_the_stored_row(self, monkeypatch, cold_rows, m):
        # a second build reads R_{m+1} from the table and sweeps only from it to R_{2m+1}
        expected = two_cycles_pgf(m)
        assert list(cold_rows) == [m + 1, 2 * m + 1]
        real = polys_module._times_x_plus
        calls = []
        monkeypatch.setattr(polys_module, "_times_x_plus", lambda row, i: calls.append(i) or real(row, i))
        assert two_cycles_pgf(m).poly == expected.poly
        assert calls == list(range(m + 1, 2 * m + 1))


class TestTranspositions:
    def test_frozen_small(self):
        assert transpositions_pgf(1).poly == poly(0, 0, 1)
        assert transpositions_pgf(2).poly == poly(0, 0, F(2, 3), 0, F(1, 3))
        assert transpositions_pgf(3).poly == poly(0, 0, F(8, 15), 0, F(2, 5), 0, F(1, 15))

    @pytest.mark.parametrize("m", range(1, 9))
    def test_rising_form_with_corrected_prefactor(self, m):
        assert transpositions_rising_form(m, base=4) == transpositions_pgf(m).poly

    def test_rising_form_up_to_120(self):
        # the product in u = t^2 against the rising factorial composed with t^2/2
        for m in range(1, 121):
            assert transpositions_pgf(m).poly == transpositions_rising_form(m, base=4)

    def test_matches_product_of_factors_up_to_200(self):
        # row m of the Stirling numbers against the product of (t^2 + 2k - 2) / (2k - 1) it replaced
        for m in range(1, 201):
            assert transpositions_pgf(m).poly == reference.transpositions_law(m)

    def test_halved_prefactor_fails_normalization(self):
        # documented failing witness: the 2^M prefactor gives mass 2^-M
        for m in range(1, 6):
            assert transpositions_rising_form(m, base=2)(1) == F(1, 2**m)
        assert transpositions_rising_form(1, base=2)(1) == F(1, 2)


class TestCharacterLaw:
    """The character sum against the closed forms at sizes the oracle cannot
    reach; test_oracle.py compares it with enumeration for every M <= 8."""

    @pytest.mark.parametrize("m", [10, 20, 30])
    def test_equals_one_cycle(self, m):
        assert character_law(CycleType([m])).poly == one_cycle_pgf(m).poly

    @pytest.mark.parametrize("m", [5, 10, 15])
    def test_equals_two_cycles(self, m):
        assert character_law(CycleType([m, m])).poly == two_cycles_pgf(m).poly

    @pytest.mark.parametrize("k", range(5, 9))
    def test_equals_transpositions(self, k):
        assert character_law(CycleType([2] * k)).poly == transpositions_pgf(k).poly

    def test_source_and_parity(self):
        law = character_law(CycleType([5, 4]))
        assert (law.source, law.M) == ("characters", 9)
        assert validate_pgf(law).parity_ok is True and validate_pgf(law).ok
        assert genfun.commutator_route(CycleType([5, 4]))[0] == "characters"

    def test_limit_raises_before_any_partition(self, monkeypatch):
        def partitions(m):
            raise AssertionError("generated partitions above the limit")

        monkeypatch.setattr(genfun, "_content_products", partitions)
        parts = [genfun.CHARACTER_MAX_M - 1, 2]  # M = CHARACTER_MAX_M + 1
        with pytest.raises(EnumerationCapError, match="character-sum limit"):
            character_law(CycleType(parts))
        with pytest.raises(EnumerationCapError):
            genfun.commutator_law(CycleType(parts))


class TestPgfInvariants:
    @pytest.mark.parametrize("m", range(1, 21))
    def test_normalization_and_mean(self, m):
        for pgf in (
            uniform_cycles_pgf(m),
            one_cycle_pgf(m),
            two_cycles_pgf(m),
            transpositions_pgf(m),
            alternating_pgf(m, complement=False),
        ):
            assert pgf.poly(1) == 1
            assert 0 <= reference.mean(pgf) <= pgf.M

    def test_validate_passes_on_real_pgfs(self):
        assert validate_pgf(uniform_cycles_pgf(5)).ok
        v = validate_pgf(one_cycle_pgf(6))
        assert v.ok and v.parity_ok  # even ground set: only even powers

    def test_validate_fails_on_garbage(self):
        bad = CyclePGF(poly(-1, 1), 1, "uniform")  # t - 1
        v = validate_pgf(bad)
        assert not v.ok
        assert not v.normalized
        assert not v.nonnegative
        assert not v.zero_constant

    def test_validate_catches_parity_violation(self):
        bad = CyclePGF(poly(0, F(1, 2), F(1, 2)), 2, "one_cycle")
        assert validate_pgf(bad).parity_ok is False

    def test_every_emitted_source_has_a_table_row(self):
        # A source missing from genfun's source table would skip its parity
        # check, and a row no builder emits is dead: every route of
        # commutator_route, the baselines, the character sum and the oracle.
        routes = [genfun.commutator_route(CycleType(t)) for t in ([4], [1, 1, 1], [2, 2, 2], [3, 3], [3, 2])]
        laws = [build() for _, build in routes]
        assert [law.source for law in laws] == [source for source, _ in routes]
        laws += [uniform_cycles_pgf(4), alternating_pgf(1, complement=False), alternating_pgf(4, complement=True)]
        laws += [character_law(CycleType([2, 1])), oracle.exact_commutator_distribution(Permutation([1, 2, 0]))]
        laws += oracle.exact_uniform_cycle_laws(4, cap=None).values()
        assert {law.source for law in laws} == genfun._LAW_SOURCES.keys()
        assert all(validate_pgf(law).ok for law in laws)

    def test_json_round_trip(self):
        pgf = transpositions_pgf(3)
        data = pgf.to_json()
        assert CyclePGF(RationalPoly(map(F, data["coeffs"])), data["M"], data["source"]) == pgf


class TestBernoulliDecompositions:
    def test_uniform_parameters(self):
        dec = bernoulli_decomposition(uniform_cycles_pgf(3))
        assert [t.p for t in dec.terms] == [F(1), F(1, 2), F(1, 3)]
        assert all(t.multiplier == 1 for t in dec.terms)
        assert dec.offset == 0
        assert dec.reconstruct() == uniform_cycles_pgf(3).poly
        assert dec.offset + sum(t.multiplier * t.p for t in dec.terms) == reference.mean(uniform_cycles_pgf(3))

    def test_transpositions_parameters(self):
        dec = bernoulli_decomposition(transpositions_pgf(2))
        assert [t.p for t in dec.terms] == [F(1), F(1, 3)]
        assert all(t.multiplier == 2 for t in dec.terms)
        assert dec.reconstruct() == transpositions_pgf(2).poly

    def test_one_cycle_m3(self):
        dec = bernoulli_decomposition(one_cycle_pgf(3))
        assert dec.offset == 1
        assert len(dec.terms) == 1
        assert dec.terms[0].multiplier == 2
        assert dec.terms[0].p == pytest.approx(0.5, abs=1e-12)

    def test_one_cycle_degenerate_sizes(self):
        assert bernoulli_decomposition(one_cycle_pgf(1)) == BernoulliDecomposition((), 1)
        assert bernoulli_decomposition(one_cycle_pgf(2)) == BernoulliDecomposition((), 2)

    def test_one_cycle_m10_parameter_count(self):
        # degree 10 = offset 2 + 2 * 4 quadratic factors
        dec = bernoulli_decomposition(one_cycle_pgf(10))
        assert dec.offset == 2
        assert len(dec.terms) == 4

    @pytest.mark.parametrize("m", range(1, 31))
    def test_reconstruction_residual(self, m):
        pgf = one_cycle_pgf(m)
        dec = bernoulli_decomposition(pgf)
        assert dec.residual_against(pgf) < 1e-10
        assert all(0 < t.p <= 1 for t in dec.terms)

    def test_rejects_undistributable_sources(self):
        with pytest.raises(ValueError):
            bernoulli_decomposition(two_cycles_pgf(2))
        with pytest.raises(ValueError):
            bernoulli_decomposition(alternating_pgf(3, complement=False))

    def test_json_round_trip_exact_and_numeric(self):
        for dec in (
            bernoulli_decomposition(uniform_cycles_pgf(4)),
            bernoulli_decomposition(one_cycle_pgf(7)),
        ):
            data = dec.to_json()
            terms = tuple(
                BernoulliTerm(F(e["p"]) if isinstance(e["p"], str) else e["p"], e["multiplier"]) for e in data["terms"]
            )
            assert BernoulliDecomposition(terms, data["offset"]) == dec


coefficients = st.one_of(
    st.sampled_from([0, 1, -1, F(1, 2), F(-1, 3)]),
    st.integers(-(10**6), 10**6),
    st.fractions(min_value=-50, max_value=50, max_denominator=1000),
)
polys = st.lists(coefficients, max_size=8).map(RationalPoly)
# The commutator sources, written out here rather than read from genfun's
# source table, so that the parity reference below does not read what it checks.
COMMUTATOR_SOURCES = ("one_cycle", "two_cycles", "transpositions", "identity", "characters")
sources = st.sampled_from(["uniform", "oracle", "alternating", "co_alternating", *COMMUTATOR_SOURCES])
bernoulli_terms = st.lists(
    st.tuples(st.fractions(min_value=0, max_value=1, max_denominator=60).filter(bool), st.integers(1, 3)),
    max_size=6,
)


def parity_law(pgf):
    """The parity every cycle count with mass must have, or None."""
    if pgf.source in COMMUTATOR_SOURCES or pgf.source == "alternating":
        return pgf.M % 2
    return (pgf.M + 1) % 2 if pgf.source == "co_alternating" else None


def flags(pgf):
    v = validate_pgf(pgf)
    return (v.normalized, v.nonnegative, v.zero_constant, v.parity_ok)


class TestIntegerNumerators:
    """Validation, Bernoulli reconstruction and residuals read the integer
    numerators; each is held against a reference that reads one Fraction per
    coefficient (tests/_reference.py)."""

    LAWS = [
        one_cycle_pgf(9),
        one_cycle_pgf(10),
        two_cycles_pgf(4),
        transpositions_pgf(5),
        alternating_pgf(6, complement=False),
        alternating_pgf(7, complement=True),
        character_law(CycleType([3, 2, 2])),
    ]

    @given(polys, sources, st.integers(1, 12))
    def test_validate_matches_reference(self, p, source, m):
        pgf = CyclePGF(p, m, source)
        assert flags(pgf) == reference.pgf_flags(p.coeffs, parity_law(pgf))

    @pytest.mark.parametrize("law", LAWS, ids=lambda law: f"{law.source}-{law.M}")
    def test_each_flag_flips(self, law):
        def t_to(k):  # the monomial t^k
            return RationalPoly([0] * k + [1])

        want = parity_law(law)
        assert flags(law) == (True, True, True, True)
        low = min(k for k, c in enumerate(law.poly.numerators) if c)
        broken = {
            0: law.poly * F(1, 2),  # mass 1/2
            1: law.poly - t_to(low) + t_to(low + 2),  # mass kept, P(C = low) < 0
            2: (law.poly + 1) / 2,  # mass at C = 0
            3: (law.poly + t_to(1 + want)) / 2,  # mass at a count of the wrong parity
        }
        for flag, poly_ in broken.items():
            bad = CyclePGF(poly_, law.M, law.source)
            assert flags(bad) == reference.pgf_flags(poly_.coeffs, want)
            assert flags(bad)[flag] is False
            assert not validate_pgf(bad).ok

    @given(bernoulli_terms, st.integers(0, 3))
    def test_reconstruct_matches_reference(self, terms, offset):
        dec = BernoulliDecomposition(tuple(BernoulliTerm(p, k) for p, k in terms), offset)
        assert list(dec.reconstruct().coeffs) == reference.bernoulli_product(terms, offset)

    @given(bernoulli_terms, st.integers(0, 3))
    def test_reconstruct_matches_products(self, terms, offset):
        dec = BernoulliDecomposition(tuple(BernoulliTerm(p, k) for p, k in terms), offset)
        assert dec.reconstruct() == reference.bernoulli_reconstruct(terms, offset)

    @given(bernoulli_terms, st.integers(0, 3), polys)
    def test_exact_residual_matches_reference(self, terms, offset, p):
        dec = BernoulliDecomposition(tuple(BernoulliTerm(q, k) for q, k in terms), offset)
        want = reference.residual(reference.bernoulli_product(terms, offset), p.coeffs)
        assert dec.residual_against(CyclePGF(p, 1, "uniform")) == want

    @given(bernoulli_terms.filter(bool), st.integers(0, 3), polys)
    def test_numeric_residual_matches_reference(self, terms, offset, p):
        dec = BernoulliDecomposition(tuple(BernoulliTerm(float(q), k) for q, k in terms), offset)
        want = reference.residual(dec.reconstruct(), p.coeffs)
        assert dec.residual_against(CyclePGF(p, 1, "one_cycle")) == want

    @pytest.mark.parametrize("m", [1, 2, 7, 30, 60])
    def test_exact_families_reconstruct_exactly(self, m):
        for pgf in (uniform_cycles_pgf(m), transpositions_pgf(m)):
            dec = bernoulli_decomposition(pgf)
            assert dec.reconstruct() == pgf.poly
            assert dec.residual_against(pgf) == 0.0

    @given(polys, sources)
    def test_reduced_probabilities(self, p, source):
        pgf = CyclePGF(p, 3, source)
        want = {k: (c.numerator, c.denominator) for k, c in reference.probabilities(pgf).items()}
        assert pgf.reduced_probabilities() == want


def imaginary_roots(m):
    """The nonzero roots ±i*y_j of the one-cycle PGF, from u_j = -y_j^2."""
    return [complex(0.0, sign * math.sqrt(-u)) for u in negative_real_roots(one_cycle_pgf(m)) for sign in (1, -1)]


class TestRootFinder:
    @pytest.mark.parametrize("m", range(3, 31))
    def test_lee_yang_property(self, m):
        roots = imaginary_roots(m)
        offset = 1 if m % 2 else 2
        assert len(roots) == m - offset
        assert max(abs(z.real) for z in roots) < 1e-9

    @pytest.mark.parametrize("m", [5, 12, 21, 30])
    def test_agrees_with_companion_matrix_roots(self, m):
        # independent cross-check: numpy's eigenvalue-based roots, polished
        w = rising_factorial(m + 1) - falling_factorial(m + 1)
        np_roots = [z for z in np.roots([float(c) for c in reversed(w.coeffs)]) if abs(z) > 1e-8]
        ours = sorted(imaginary_roots(m), key=lambda z: round(z.imag, 9))
        theirs = sorted(np_roots, key=lambda z: round(z.imag, 9))
        assert len(ours) == len(theirs)
        assert max(abs(a - b) for a, b in zip(ours, theirs)) < 1e-6

    @pytest.mark.parametrize("m", range(1, 61))
    def test_every_root_isolated(self, m):
        # an independent witness of the certificate: E changes sign across
        # each returned root and the brackets are disjoint
        offset = 1 if m % 2 else 2
        law = one_cycle_pgf(m)
        coeffs = law.poly.coeffs[offset::2]

        def e_at(u):
            return sum(c * u**k for k, c in enumerate(coeffs))

        roots = negative_real_roots(law)
        assert len(roots) == len(coeffs) - 1 == (m - offset) // 2
        assert roots == sorted(roots) and all(u < 0 for u in roots)
        for u in roots:
            lo, hi = F(u) * (1 + F(1, 2**36)), F(u) * (1 - F(1, 2**36))
            assert e_at(lo) * e_at(hi) < 0
        assert all(a * (1 - 2**-36) < b * (1 + 2**-36) for a, b in zip(roots, roots[1:]))

    @pytest.mark.parametrize("m", [60, 120, 171, 300])
    def test_certified_range(self, m):
        # M = 120 has a root that a grid search once placed 5e-4 off
        # (residual 6.8e-9); at M = 171 and 300 the even part has
        # coefficients beyond the float range
        start = time.perf_counter()
        pgf = one_cycle_pgf(m)
        dec = bernoulli_decomposition(pgf)
        assert time.perf_counter() - start < 2.0
        assert len(dec.terms) == (m - dec.offset) // 2
        assert dec.residual_against(pgf) < 1e-10

    @pytest.mark.parametrize("m", range(1, 201))
    def test_newton_matches_bisection(self, m):
        y = genfun._phase_roots(m)
        want = reference.phase_roots_bisection(m)
        assert len(y) == len(want) == (m - 1) // 2
        assert np.all(np.abs(y - want) <= 1e-13 * want)
        assert negative_real_roots(one_cycle_pgf(m)) == [-v * v for v in y.tolist()]

    def test_step_ceiling_raises(self, monkeypatch):
        monkeypatch.setattr(genfun, "_PHASE_STEPS", 3)
        with pytest.raises(RootFindError, match=r"^the phase equation at m=30 did not settle in 3 steps$"):
            bernoulli_decomposition(one_cycle_pgf(30))

    def test_settles_within_the_ceiling(self, monkeypatch):
        # Newton settles in 7-10 steps up to M = 400; 12 leaves room for the
        # last bits of arctan to differ between platforms
        monkeypatch.setattr(genfun, "_PHASE_STEPS", 12)
        for m in range(1, 401):
            assert len(genfun._phase_roots(m)) == (m - 1) // 2

    @pytest.mark.parametrize("m", range(210, 401, 10))
    def test_every_root_certifies(self, m):
        # every M <= 200 certifies in test_newton_matches_bisection; all of
        # 201..400 takes some 19 s, so one M in ten here
        roots = negative_real_roots(one_cycle_pgf(m))
        assert len(roots) == (m - 1) // 2

    def test_uncertified_root_raises(self, monkeypatch):
        # the float phase solve is the one substitution point; a root moved
        # by 1e-6 relative has no sign change of E in its bracket
        solve = genfun._phase_roots

        def shifted(m):
            y = solve(m)
            y[4] *= 1 + 1e-6
            return y

        monkeypatch.setattr(genfun, "_phase_roots", shifted)
        with pytest.raises(RootFindError, match=r"root j=5 at m=30 .* signs \((\+1, \+1|-1, -1)\)"):
            bernoulli_decomposition(one_cycle_pgf(30))


def _sturm_real_roots(coeffs):
    """Number of distinct real roots of the polynomial with these Fraction
    coefficients (index = degree), by a Sturm sequence."""

    def trim(p):
        while p and p[-1] == 0:
            p = p[:-1]
        return p

    def rem(a, b):
        a = list(a)
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            shift = len(a) - len(b)
            for k, c in enumerate(b):
                a[shift + k] -= q * c
            a = trim(a[:-1])
        return a

    seq = [trim(list(coeffs))]
    seq.append(trim([k * c for k, c in enumerate(seq[0])][1:]))
    while seq[-1]:
        seq.append([-c for c in rem(seq[-2], seq[-1])])
    seq.pop()

    def variations(signs):
        signs = [s for s in signs if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    at_minus_inf = [(-1) ** (len(p) - 1) * (1 if p[-1] > 0 else -1) for p in seq]
    at_plus_inf = [1 if p[-1] > 0 else -1 for p in seq]
    return variations(at_minus_inf) - variations(at_plus_inf)


class TestTwoCyclesNotRealRooted:
    # Why the phase-equation root routine is one-cycle only and two-cycles
    # has no Bernoulli decomposer in genfun's source table: its even part in
    # u = t^2 has complex roots from m = 4 on.
    @staticmethod
    def reduced_even_part(m):
        coeffs = [F(c) for c in two_cycles_pgf(m).poly.coeffs[::2]]
        assert coeffs[0] == 0 and coeffs[1] != 0  # one factor of u exactly
        return coeffs[1:]

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_small_m_real_rooted(self, m):
        coeffs = self.reduced_even_part(m)
        assert _sturm_real_roots(coeffs) == len(coeffs) - 1

    def test_m4_has_complex_roots(self):
        coeffs = self.reduced_even_part(4)
        assert len(coeffs) - 1 == 3
        assert _sturm_real_roots(coeffs) == 1
