"""Brute-force enumeration oracle: frozen small cases, agreement with every
closed form, the conjugacy-class reformulation, and the emitters."""

import io
import itertools
import math
import random
from fractions import Fraction

import pytest

import numpy as np

import commcycles
from _reference import commutator_cycle_count, conjugate
from commcycles import genfun, oracle
from commcycles.oracle import (
    EnumerationCapError,
    conjugacy_class,
    distribution_rows,
    exact_class_product_distribution,
    exact_commutator_distribution,
    exact_uniform_cycle_laws,
    hultman_row,
    hultman_table_rows,
    write_distribution_csv,
    write_hultman_csv,
)
from commcycles.perm import (
    CycleType,
    Permutation,
    disjoint_transpositions,
    from_cycle_type,
    one_cycle,
    parse_cycles,
    sample_uniform,
    two_disjoint_cycles,
)
from commcycles.polys import RationalPoly

F = Fraction


class TestCommutatorDistribution:
    def test_identity_tau_point_mass(self):
        dist = exact_commutator_distribution(Permutation.identity(3))
        assert dist.probabilities() == {3: F(1)}

    def test_three_cycle(self):
        dist = exact_commutator_distribution(one_cycle(3))
        assert dist.probabilities() == {3: F(1, 2), 1: F(1, 2)}

    def test_double_transposition(self):
        dist = exact_commutator_distribution(parse_cycles("(1 2)(3 4)"))
        assert dist.probabilities() == {4: F(1, 3), 2: F(2, 3)}

    def test_cap_enforced(self):
        with pytest.raises(EnumerationCapError, match="Monte-Carlo"):
            exact_commutator_distribution(Permutation.identity(9))
        # explicit cap raise works up to the hard cap
        dist = exact_commutator_distribution(Permutation.identity(9), cap=9)
        assert dist.probabilities() == {9: F(1)}
        with pytest.raises(ValueError):
            exact_commutator_distribution(Permutation.identity(11), cap=11)

    def test_cap_error_has_one_home(self):
        assert EnumerationCapError is genfun.EnumerationCapError is commcycles.EnumerationCapError
        assert EnumerationCapError.__module__ == "commcycles.genfun"
        with pytest.raises(EnumerationCapError):  # the character-sum limit raises the same class
            genfun.character_law(CycleType([16, 15]))

    def test_cap_message_below_the_hard_cap(self):
        with pytest.raises(EnumerationCapError) as info:
            exact_commutator_distribution(one_cycle(9))
        message = str(info.value)
        assert message.startswith("ground set of size 9 exceeds the enumeration cap 8; raise the cap (hard cap 10);")
        assert f"any cycle type up to M = {genfun.CHARACTER_MAX_M}" in message and "`commcycles sample`" in message

    def test_cap_message_at_the_hard_cap(self):
        # the cap cannot be raised further, so the message does not offer it
        with pytest.raises(EnumerationCapError) as info:
            exact_commutator_distribution(one_cycle(11), cap=oracle.HARD_ENUMERATION_CAP)
        message = str(info.value)
        assert message.startswith("ground set of size 11 exceeds the enumeration cap 10; `commcycles pgf`")
        assert "raise the cap" not in message
        assert f"any cycle type up to M = {genfun.CHARACTER_MAX_M}" in message and "`commcycles sample`" in message

    def test_parity_of_support(self):
        for tau in (one_cycle(4), one_cycle(5), parse_cycles("(1 2 3)(4 5)")):
            dist = exact_commutator_distribution(tau)
            assert {k % 2 for k in dist.probabilities()} == {tau.size % 2}

    def test_distribution_validates(self):
        # the histogram must hold all of the enumerated total ...
        with pytest.raises(AssertionError, match="sum to 1, not 2"):
            oracle._law_from_hist(3, np.array([0, 1, 0, 0]), 2)
        # ... and only cycle counts in 1..M
        with pytest.raises(AssertionError, match="outside 1..2"):
            oracle._law_from_hist(2, np.array([0, 0, 0, 1]), 1)
        with pytest.raises(AssertionError, match="outside 1..2"):
            oracle._law_from_hist(2, np.array([1, 0, 0]), 1)
        assert oracle._law_from_hist(2, np.array([0, 1, 1]), 2).probabilities() == {1: F(1, 2), 2: F(1, 2)}

    def test_conjugation_invariance(self):
        rng = random.Random(7)
        for tau in (one_cycle(5), parse_cycles("(1 2)(3 4 5)")):
            reference = exact_commutator_distribution(tau)
            for _ in range(20):
                s = sample_uniform(tau.size, rng)
                conj = Permutation(conjugate(s.map, tau.map))
                assert exact_commutator_distribution(conj).probabilities() == reference.probabilities()


class TestKernel:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_blocks_are_lexicographic(self, m):
        blocks = list(oracle._permutation_blocks(m))
        assert all(len(block) <= oracle._BLOCK_SIZE for block in blocks)
        expected = np.array(list(itertools.permutations(range(m))), dtype=np.int64)
        assert np.array_equal(np.concatenate(blocks), expected)

    def test_blocks_above_block_size(self):
        # 8! = _BLOCK_SIZE, so M = 9 and 10 come in full blocks, one per prefix.
        assert [len(block) for block in oracle._permutation_blocks(9)] == [oracle._BLOCK_SIZE] * 9
        assert sum(1 for _ in oracle._permutation_blocks(10)) == 90

    @pytest.mark.parametrize("m", range(1, 11))
    def test_cycle_counts(self, m):
        rng = random.Random(m)
        perms = [sample_uniform(m, rng) for _ in range(200)]
        rows = np.array([p.map for p in perms], dtype=np.int64)
        assert oracle._cycle_counts_rows(rows).tolist() == [len(p.cycles()) for p in perms]


def _brute_force_law(tau):
    """The commutator law from a plain loop over all of S_M."""
    hist = [0] * (tau.size + 1)
    for sigma in itertools.permutations(range(tau.size)):
        hist[commutator_cycle_count(sigma, tau.map)] += 1
    return RationalPoly(hist) / math.factorial(tau.size)


class TestCosetQuotient:
    """The commutator law visits one σ per coset σZ(τ) of τ's centralizer."""

    @pytest.mark.parametrize("m", range(1, 8))
    def test_every_type_matches_brute_force(self, m):
        for parts in _partitions(m):
            tau = from_cycle_type(CycleType(parts))
            assert exact_commutator_distribution(tau).poly == _brute_force_law(tau), parts

    @pytest.mark.parametrize("m", range(1, 7))
    def test_relabelled_taus_match_brute_force(self, m):
        # conjugating by a random σ puts the cycles on non-consecutive points
        rng = random.Random(100 + m)
        for _ in range(20):
            canonical = from_cycle_type(CycleType(rng.choice(_partitions(m))))
            tau = Permutation(conjugate(sample_uniform(m, rng).map, canonical.map))
            assert exact_commutator_distribution(tau).poly == _brute_force_law(tau), tau.cycles()

    def test_constrained_blocks_are_the_filtered_group(self):
        # M = 10: two prefix positions, so constraints within the prefix,
        # across prefix and tail, and within the tail all occur
        tau = Permutation([4, 9, 5, 1, 7, 2, 6, 0, 8, 3])
        assert tau.cycles() == [(0, 4, 7), (1, 9, 3), (2, 5), (6,), (8,)]
        less = [(0, 4), (0, 7), (1, 9), (1, 3), (0, 1), (2, 5), (6, 8)]
        got = np.concatenate(list(oracle._permutation_blocks(10, less)))
        kept = []
        for block in oracle._permutation_blocks(10):
            kept.append(block[np.logical_and.reduce([block[:, a] < block[:, b] for a, b in less])])
        assert np.array_equal(got, np.concatenate(kept))
        assert len(got) == tau.cycle_type().class_size() == 50400

    @pytest.mark.parametrize(
        "tau", [one_cycle(6), parse_cycles("(1 3)(2 5 4)(6)(7)"), one_cycle(9), two_disjoint_cycles(5)]
    )
    def test_dropping_a_constraint_trips_the_class_size_check(self, monkeypatch, tau):
        blocks = oracle._permutation_blocks
        constraints = []

        def record(m, less=()):
            constraints[:] = list(less)
            return blocks(m, less)

        monkeypatch.setattr(oracle, "_permutation_blocks", record)
        exact_commutator_distribution(tau, cap=10)
        assert constraints
        for dropped in range(len(constraints)):
            less = constraints[:dropped] + constraints[dropped + 1 :]
            monkeypatch.setattr(oracle, "_permutation_blocks", lambda m, _: blocks(m, less))
            with pytest.raises(AssertionError, match=f"not {tau.cycle_type().class_size()}$"):
                exact_commutator_distribution(tau, cap=10)


class TestHardCapWitnesses:
    def test_one_cycle_at_the_hard_cap(self):
        dist = exact_commutator_distribution(one_cycle(10), cap=oracle.HARD_ENUMERATION_CAP)
        assert dist.poly == genfun.one_cycle_pgf(10).poly

    def test_two_cycles_at_the_hard_cap(self):
        dist = exact_commutator_distribution(two_disjoint_cycles(5), cap=oracle.HARD_ENUMERATION_CAP)
        assert dist.poly == genfun.two_cycles_pgf(5).poly


class TestClosedFormAgreement:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_one_cycle(self, m):
        dist = exact_commutator_distribution(one_cycle(m))
        assert dist.poly == genfun.one_cycle_pgf(m).poly

    @pytest.mark.parametrize("m", range(1, 5))
    def test_two_cycles(self, m):
        dist = exact_commutator_distribution(two_disjoint_cycles(m))
        assert dist.poly == genfun.two_cycles_pgf(m).poly

    @pytest.mark.parametrize("m", range(1, 5))
    def test_transpositions(self, m):
        dist = exact_commutator_distribution(disjoint_transpositions(m))
        assert dist.poly == genfun.transpositions_pgf(m).poly


def _partitions(n, largest=None):
    """All partitions of n, parts in decreasing order."""
    largest = n if largest is None else largest
    if n == 0:
        return [[]]
    return [[first, *rest] for first in range(min(n, largest), 0, -1) for rest in _partitions(n - first, first)]


def _closed_form_source(parts):
    """The closed form commutator_law should route a cycle type to, or None."""
    if len(parts) == 1:
        return "one_cycle"
    if len(parts) == 2 and parts[0] == parts[1]:
        return "two_cycles"
    if set(parts) == {1}:
        return "identity"
    if set(parts) == {2}:
        return "transpositions"
    return None


class TestCommutatorLaw:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_every_type_matches_oracle(self, m):
        for parts in _partitions(m):
            law = genfun.commutator_law(CycleType(parts))
            assert law.source == (_closed_form_source(parts) or "characters"), parts
            assert genfun.commutator_route(CycleType(parts))[0] == law.source, parts
            assert law.M == m
            enumerated = exact_commutator_distribution(from_cycle_type(CycleType(parts))).poly
            assert law.poly == enumerated, parts
            # the character sum also covers the closed-form types
            assert genfun.character_law(CycleType(parts)).poly == enumerated, parts
            assert genfun.validate_pgf(law).ok

    def test_above_cap_raises(self):
        # M = 31: no closed form and above the character-sum limit
        with pytest.raises(EnumerationCapError):
            genfun.commutator_law(CycleType([16, 15]))
        assert genfun.commutator_law(CycleType([3, 2, 2, 2])).source == "characters"

    def test_closed_forms_above_cap(self):
        assert genfun.commutator_law(CycleType([20])) == genfun.one_cycle_pgf(20)
        assert genfun.commutator_law(CycleType([6, 6])) == genfun.two_cycles_pgf(6)
        assert genfun.commutator_law(CycleType([2] * 7)) == genfun.transpositions_pgf(7)
        identity = genfun.commutator_law(CycleType([1] * 12))
        assert (identity.source, identity.M, identity.probabilities()) == ("identity", 12, {12: F(1)})


class TestUniformSubsetLaws:
    def test_all_m3(self):
        dist = exact_uniform_cycle_laws(3)["all"]
        assert dist.probabilities() == {1: F(2, 6), 2: F(3, 6), 3: F(1, 6)}

    def test_alternating_m3(self):
        dist = exact_uniform_cycle_laws(3)["alternating"]
        assert dist.probabilities() == {3: F(1, 3), 1: F(2, 3)}

    def test_co_alternating_m2(self):
        dist = exact_uniform_cycle_laws(2)["co_alternating"]
        assert dist.probabilities() == {1: F(1)}

    def test_co_alternating_m1_rejected(self):
        # no odd permutations on a single point: the law is absent
        laws = exact_uniform_cycle_laws(1)
        assert "co_alternating" not in laws
        assert laws["alternating"].probabilities() == {1: F(1)}

    def test_unknown_subset_rejected(self):
        laws = exact_uniform_cycle_laws(3)
        assert list(laws) == ["all", "alternating", "co_alternating"]
        with pytest.raises(KeyError):
            laws["odd"]

    @pytest.mark.parametrize("m", range(1, 9))
    def test_against_closed_forms(self, m):
        laws = exact_uniform_cycle_laws(m)
        assert laws["all"].poly == genfun.uniform_cycles_pgf(m).poly
        assert laws["alternating"].poly == genfun.alternating_pgf(m).poly
        if m >= 2:
            assert laws["co_alternating"].poly == genfun.alternating_pgf(m, complement=True).poly


def _filtered_uniform_law(m, subset):
    """The subset law from its own pass over S_M, keeping the rows of the
    chosen parity (m - C is even for an even permutation)."""
    hist = np.zeros(m + 1, dtype=np.int64)
    for block in oracle._permutation_blocks(m):
        counts = oracle._cycle_counts_rows(block)
        if subset != "all":
            counts = counts[(m - counts) % 2 == (subset == "co_alternating")]
        hist += np.bincount(counts, minlength=m + 1)
    return RationalPoly([int(c) for c in hist]) / int(hist.sum())


class TestOnePassUniformLaws:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_equals_row_filtered_enumeration(self, m):
        laws = oracle.exact_uniform_cycle_laws(m)
        subsets = ["all", "alternating"] + (["co_alternating"] if m > 1 else [])
        assert list(laws) == subsets
        for subset in subsets:
            assert laws[subset].poly == _filtered_uniform_law(m, subset), subset

    def test_parity_totals_are_checked(self, monkeypatch):
        # the odd (0 1 3 2) replaced by the identity: still 4! rows, 13 of them even
        block = next(oracle._permutation_blocks(4))
        block[1] = block[0]
        monkeypatch.setattr(oracle, "_permutation_blocks", lambda m: [block])
        with pytest.raises(AssertionError, match="sum to 13, not 12"):
            oracle.exact_uniform_cycle_laws(4)

    def test_cap_checked_before_enumerating(self, monkeypatch):
        monkeypatch.setattr(oracle, "_permutation_blocks", lambda m: pytest.fail("enumerated"))
        with pytest.raises(EnumerationCapError):
            oracle.exact_uniform_cycle_laws(9)


class TestConjugacyClassRoute:
    def test_class_size_checked(self):
        members = conjugacy_class(one_cycle(4))
        assert len(members) == CycleType([4]).class_size() == 6
        assert all(p.cycle_type() == CycleType([4]) for p in members)

    def test_single_cycle_m3(self):
        dist = exact_class_product_distribution(CycleType([3]))
        assert dist.probabilities() == {3: F(1, 2), 1: F(1, 2)}

    def test_identity_type(self):
        dist = exact_class_product_distribution(CycleType([1, 1, 1, 1]))
        assert dist.probabilities() == {4: F(1)}

    def test_two_two_type(self):
        dist = exact_class_product_distribution(CycleType([2, 2]))
        assert dist.probabilities() == {4: F(1, 3), 2: F(2, 3)}

    @pytest.mark.parametrize(
        "parts", [[1], [2], [3], [2, 1], [2, 2], [3, 2], [4, 2], [2, 2, 2], [3, 3]]
    )
    def test_matches_commutator_distribution(self, parts):
        ct = CycleType(parts)
        via_class = exact_class_product_distribution(ct)
        via_commutator = exact_commutator_distribution(from_cycle_type(ct))
        assert via_class.probabilities() == via_commutator.probabilities()


class TestHultman:
    def test_small_values(self):
        assert hultman_row(3) == [0, 3, 0, 3]  # parity forbids k = 2
        assert hultman_row(2) == [0, 0, 2]
        assert hultman_row(5)[3] == 75

    @pytest.mark.parametrize("m", range(1, 9))
    def test_formula_matches_enumeration(self, m):
        enumerated = exact_commutator_distribution(one_cycle(m))
        assert hultman_row(m) == [enumerated.coefficient(k) * math.factorial(m) for k in range(m + 1)]

    @pytest.mark.parametrize("m", range(1, 9))
    def test_row_sums_are_factorials(self, m):
        assert sum(hultman_row(m)) == math.factorial(m)

    def test_table_rows(self):
        rows = hultman_table_rows(3)
        assert rows == [(1, 1, 1, 1), (2, 2, 2, 2), (3, 1, 3, 3), (3, 3, 3, 3)]

    def test_table_above_cap_has_no_oracle_column(self):
        rows = hultman_table_rows(9, oracle_cap=4)
        above = [r for r in rows if r[0] > 4]
        assert above and all(r[3] is None for r in above)
        below = [r for r in rows if r[0] <= 4]
        assert all(r[2] == r[3] for r in below)


class TestEmitters:
    def test_distribution_round_trip_through_pgf(self):
        dist = exact_commutator_distribution(one_cycle(4))
        assert dist.source == "oracle"
        assert dist.poly(1) == 1
        assert genfun.CyclePGF.from_json(dist.to_json()) == dist

    def test_point_mass_pgf(self):
        assert exact_commutator_distribution(Permutation.identity(3)).poly == RationalPoly([0, 0, 0, 1])

    def test_distribution_csv(self):
        dist = exact_commutator_distribution(parse_cycles("(1 2)(3 4)"))
        buf = io.StringIO()
        write_distribution_csv(dist, buf)
        assert buf.getvalue() == (
            "M,cycle_count,probability_num,probability_den\n4,2,2,3\n4,4,1,3\n"
        )
        assert distribution_rows(dist) == [(4, 2, 2, 3), (4, 4, 1, 3)]

    def test_hultman_csv(self):
        buf = io.StringIO()
        write_hultman_csv([(3, 1, 3, 3), (9, 1, 1, None)], buf)
        assert buf.getvalue() == "M,k,count,oracle_count\n3,1,3,3\n9,1,1,\n"

    def test_mean(self):
        dist = exact_commutator_distribution(one_cycle(3))
        assert dist.mean() == F(2)
