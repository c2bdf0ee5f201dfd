"""Brute-force enumeration oracle: frozen small cases, agreement with every
closed form, the conjugacy-class reformulation by its character sum, and the JSON
round trip of a law."""

import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import numpy as np

import commcycles
from _reference import commutator_cycle_count, conjugacy_class, conjugate, mean, probabilities, sample_uniform
from commcycles import genfun, oracle
from commcycles.oracle import (
    EnumerationCapError,
    exact_commutator_distribution,
    exact_uniform_cycle_laws,
    hultman_row,
    hultman_table_rows,
)
from commcycles.perm import (
    CycleType,
    Permutation,
    from_cycle_type,
    parse_cycles,
)
from commcycles.polys import RationalPoly

F = Fraction


class TestCommutatorDistribution:
    def test_identity_tau_point_mass(self):
        dist = exact_commutator_distribution(Permutation(range(3)))
        assert probabilities(dist) == {3: F(1)}

    def test_three_cycle(self):
        dist = exact_commutator_distribution(from_cycle_type(CycleType([3])))
        assert probabilities(dist) == {3: F(1, 2), 1: F(1, 2)}

    def test_double_transposition(self):
        dist = exact_commutator_distribution(parse_cycles("(1 2)(3 4)"))
        assert probabilities(dist) == {4: F(1, 3), 2: F(2, 3)}

    def test_cap_enforced(self):
        with pytest.raises(EnumerationCapError, match="Monte-Carlo"):
            exact_commutator_distribution(Permutation(range(9)))
        # explicit cap raise works up to the hard cap
        dist = exact_commutator_distribution(Permutation(range(9)), cap=9)
        assert probabilities(dist) == {9: F(1)}
        with pytest.raises(ValueError):
            exact_commutator_distribution(Permutation(range(11)), cap=11)

    def test_cap_error_has_one_home(self):
        assert EnumerationCapError is genfun.EnumerationCapError is commcycles.EnumerationCapError
        assert EnumerationCapError.__module__ == "commcycles.genfun"
        with pytest.raises(EnumerationCapError):  # the character-sum limit raises the same class
            genfun.character_law(CycleType([16, 15]))

    def test_cap_message_below_the_hard_cap(self):
        with pytest.raises(EnumerationCapError) as info:
            exact_commutator_distribution(from_cycle_type(CycleType([9])))
        message = str(info.value)
        assert message.startswith("ground set of size 9 exceeds the enumeration cap 8; raise the cap (hard cap 10);")
        assert f"any cycle type up to M = {genfun.CHARACTER_MAX_M}" in message and "`commcycles sample`" in message

    def test_cap_message_at_the_hard_cap(self):
        # the cap cannot be raised further, so the message does not offer it
        with pytest.raises(EnumerationCapError) as info:
            exact_commutator_distribution(from_cycle_type(CycleType([11])), cap=oracle.HARD_ENUMERATION_CAP)
        message = str(info.value)
        assert message.startswith("ground set of size 11 exceeds the enumeration cap 10; `commcycles pgf`")
        assert "raise the cap" not in message
        assert f"any cycle type up to M = {genfun.CHARACTER_MAX_M}" in message and "`commcycles sample`" in message

    def test_parity_of_support(self):
        for tau in (from_cycle_type(CycleType([4])), from_cycle_type(CycleType([5])), parse_cycles("(1 2 3)(4 5)")):
            dist = exact_commutator_distribution(tau)
            assert {k % 2 for k in probabilities(dist)} == {tau.size % 2}

    def test_distribution_validates(self):
        # the histogram must hold all of the enumerated total ...
        with pytest.raises(AssertionError, match="sum to 1, not 2"):
            oracle._law_from_hist(3, np.array([0, 1, 0, 0]), 2)
        # ... and only cycle counts in 1..M
        with pytest.raises(AssertionError, match="outside 1..2"):
            oracle._law_from_hist(2, np.array([0, 0, 0, 1]), 1)
        with pytest.raises(AssertionError, match="outside 1..2"):
            oracle._law_from_hist(2, np.array([1, 0, 0]), 1)
        assert probabilities(oracle._law_from_hist(2, np.array([0, 1, 1]), 2)) == {1: F(1, 2), 2: F(1, 2)}

    def test_conjugation_invariance(self):
        rng = random.Random(7)
        for tau in (from_cycle_type(CycleType([5])), parse_cycles("(1 2)(3 4 5)")):
            reference = exact_commutator_distribution(tau)
            for _ in range(20):
                s = sample_uniform(tau.size, rng)
                conj = Permutation(conjugate(s.map, tau.map))
                assert probabilities(exact_commutator_distribution(conj)) == probabilities(reference)


class TestKernel:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_blocks_are_lexicographic(self, m):
        blocks = list(oracle._permutation_blocks(m))
        assert all(len(block) <= oracle._BLOCK_SIZE for block in blocks)
        expected = np.array(list(itertools.permutations(range(m))), dtype=np.int64)
        assert np.array_equal(np.concatenate(blocks), expected)

    def test_blocks_above_block_size(self):
        # Rows of M = 9 and 10 come in int8 slices within _BLOCK_SIZE rows, none
        # empty; each row is a permutation, and row codes rise across slices.
        for m in (9, 10):
            places, last, total = 16 ** np.arange(m - 1, -1, -1, dtype=np.int64), -1, 0
            for block in oracle._permutation_blocks(m):
                assert block.dtype == np.int8 and 0 < len(block) <= oracle._BLOCK_SIZE
                assert (np.sort(block, axis=1) == np.arange(m)).all()
                codes = block @ places
                assert codes[0] > last and (np.diff(codes) > 0).all()
                last, total = codes[-1], total + len(block)
            assert total == math.factorial(m)

    def test_pruned_rows_fill_whole_slices(self):
        # a pruned tail is packed with the next prefix's rows: only the last slice is short
        less = [(0, b) for b in range(1, 7)]  # the coset constraints of a 7-cycle on 0..6
        sizes = [len(block) for block in oracle._permutation_blocks(10, less)]
        assert sizes[:-1] == [oracle._BLOCK_SIZE] * (len(sizes) - 1) and 0 < sizes[-1] <= oracle._BLOCK_SIZE
        assert sum(sizes) == math.factorial(10) // 7

    @pytest.mark.parametrize("m", range(1, 11))
    def test_cycle_counts(self, m):
        rng = random.Random(m)
        perms = [sample_uniform(m, rng) for _ in range(200)]
        rows = np.array([p.map for p in perms], dtype=np.int64)
        assert oracle._cycle_counts_rows(rows).tolist() == [len(p.cycles()) for p in perms]

    @pytest.mark.parametrize("m", range(1, 11))
    def test_int8_and_int64_rows_count_alike(self, m):
        # enumeration slices are int8 and `sample`'s rows int64: one kernel takes both
        rng = random.Random(50 + m)
        rows = np.array([sample_uniform(m, rng).map for _ in range(300)], dtype=np.int64)
        for tau in (from_cycle_type(CycleType([m])), sample_uniform(m, rng)):
            tau_arr = np.array(tau.map, dtype=np.int64)
            narrow = oracle._commutator_counts(rows.astype(np.int8), tau_arr)
            assert narrow.tolist() == oracle._commutator_counts(rows, tau_arr).tolist()
            assert narrow.tolist() == [commutator_cycle_count(row, tau.map) for row in rows.tolist()]

    @pytest.mark.parametrize(
        "law",
        [
            lambda: exact_commutator_distribution(from_cycle_type(CycleType([9])), cap=9),
            lambda: exact_uniform_cycle_laws(10, cap=10),
        ],
        ids=["one_cycle_9", "uniform_10"],
    )
    def test_working_set_is_bounded(self, law):
        # numpy reports its buffers to tracemalloc.  One slice and its kernel's
        # temporaries take about 1 MiB; a block of 8! int64 rows alone takes 2.5 MiB.
        law()
        tracemalloc.start()
        try:
            law()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20


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

    def test_constraints_in_either_index_order(self):
        # M = 10, with a > b within the prefix (1, 0), within the tail (9, 4) and (7, 2),
        # and across both (5, 1) and (8, 0), beside a < b pairs of each kind
        less = [(1, 0), (9, 4), (7, 2), (5, 1), (8, 0), (0, 6), (3, 8), (9, 3)]
        got = np.concatenate(list(oracle._permutation_blocks(10, less)))
        kept = []
        for block in oracle._permutation_blocks(10):
            kept.append(block[np.logical_and.reduce([block[:, a] < block[:, b] for a, b in less])])
        assert np.array_equal(got, np.concatenate(kept))
        assert 0 < len(got) < math.factorial(10) // 2**5

    def test_one_cycle_table_is_pruned_as_it_grows(self, monkeypatch):
        # σ least at the cycle's largest point: the tail table holds 8 * 6! rows before its last pruning, not 8!
        largest = []
        column_stack = np.column_stack

        def record(arrays):
            largest.append(len(arrays[0]))
            return column_stack(arrays)

        monkeypatch.setattr(np, "column_stack", record)
        assert exact_commutator_distribution(from_cycle_type(CycleType([8]))).poly == genfun.one_cycle_pgf(8).poly
        assert max(largest) == 8 * math.factorial(6)

    @pytest.mark.parametrize(
        "tau",
        [
            from_cycle_type(CycleType([6])),
            parse_cycles("(1 3)(2 5 4)(6)(7)"),
            from_cycle_type(CycleType([9])),
            from_cycle_type(CycleType([5, 5])),
        ],
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
        dist = exact_commutator_distribution(from_cycle_type(CycleType([10])), cap=oracle.HARD_ENUMERATION_CAP)
        assert dist.poly == genfun.one_cycle_pgf(10).poly

    def test_two_cycles_at_the_hard_cap(self):
        dist = exact_commutator_distribution(from_cycle_type(CycleType([5, 5])), cap=oracle.HARD_ENUMERATION_CAP)
        assert dist.poly == genfun.two_cycles_pgf(5).poly


class TestClosedFormAgreement:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_one_cycle(self, m):
        dist = exact_commutator_distribution(from_cycle_type(CycleType([m])))
        assert dist.poly == genfun.one_cycle_pgf(m).poly

    @pytest.mark.parametrize("m", range(1, 5))
    def test_two_cycles(self, m):
        dist = exact_commutator_distribution(from_cycle_type(CycleType([m, m])))
        assert dist.poly == genfun.two_cycles_pgf(m).poly

    @pytest.mark.parametrize("m", range(1, 5))
    def test_transpositions(self, m):
        dist = exact_commutator_distribution(from_cycle_type(CycleType([2] * m)))
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
    if set(parts) == {1}:
        return "identity"
    if set(parts) == {2}:
        return "transpositions"
    if len(parts) == 2 and parts[0] == parts[1]:
        return "two_cycles"
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
        assert (identity.source, identity.M, probabilities(identity)) == ("identity", 12, {12: F(1)})


class TestUniformSubsetLaws:
    def test_all_m3(self):
        dist = exact_uniform_cycle_laws(3, cap=None)["all"]
        assert probabilities(dist) == {1: F(2, 6), 2: F(3, 6), 3: F(1, 6)}

    def test_alternating_m3(self):
        dist = exact_uniform_cycle_laws(3, cap=None)["alternating"]
        assert probabilities(dist) == {3: F(1, 3), 1: F(2, 3)}

    def test_co_alternating_m2(self):
        dist = exact_uniform_cycle_laws(2, cap=None)["co_alternating"]
        assert probabilities(dist) == {1: F(1)}

    def test_co_alternating_m1_rejected(self):
        # no odd permutations on a single point: the law is absent
        laws = exact_uniform_cycle_laws(1, cap=None)
        assert "co_alternating" not in laws
        assert probabilities(laws["alternating"]) == {1: F(1)}

    def test_unknown_subset_rejected(self):
        laws = exact_uniform_cycle_laws(3, cap=None)
        assert list(laws) == ["all", "alternating", "co_alternating"]
        with pytest.raises(KeyError):
            laws["odd"]

    @pytest.mark.parametrize("m", range(1, 9))
    def test_against_closed_forms(self, m):
        laws = exact_uniform_cycle_laws(m, cap=None)
        assert laws["all"].poly == genfun.uniform_cycles_pgf(m).poly
        assert laws["alternating"].poly == genfun.alternating_pgf(m, complement=False).poly
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
        laws = oracle.exact_uniform_cycle_laws(m, cap=None)
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
            oracle.exact_uniform_cycle_laws(4, cap=None)

    def test_cap_checked_before_enumerating(self, monkeypatch):
        monkeypatch.setattr(oracle, "_permutation_blocks", lambda m: pytest.fail("enumerated"))
        with pytest.raises(EnumerationCapError):
            oracle.exact_uniform_cycle_laws(9, cap=None)


class TestConjugacyClassRoute:
    """The class product (στσ⁻¹)·τ⁻¹, στσ⁻¹ uniform on the class of τ, by its
    Frobenius expansion, the character sum, held against the coset enumeration."""

    def test_class_size_checked(self):
        # [σ,τ] = 1 exactly when σ commutes with τ: P(C = M) = |Z(τ)|/M! = 1/|class(τ)|
        members = conjugacy_class(from_cycle_type(CycleType([4])).map)
        assert len(members) == CycleType([4]).class_size() == 6
        assert all(Permutation(p).cycle_type() == CycleType([4]) for p in members)
        assert genfun.character_law(CycleType([4])).poly.coefficient(4) == F(1, len(members))

    def test_single_cycle_m3(self):
        dist = genfun.character_law(CycleType([3]))
        assert probabilities(dist) == {3: F(1, 2), 1: F(1, 2)}

    def test_identity_type(self):
        dist = genfun.character_law(CycleType([1, 1, 1, 1]))
        assert probabilities(dist) == {4: F(1)}

    def test_two_two_type(self):
        dist = genfun.character_law(CycleType([2, 2]))
        assert probabilities(dist) == {4: F(1, 3), 2: F(2, 3)}

    @pytest.mark.parametrize(
        "parts", [[1], [2], [3], [2, 1], [2, 2], [3, 2], [4, 2], [2, 2, 2], [3, 3]]
    )
    def test_matches_commutator_distribution(self, parts):
        ct = CycleType(parts)
        via_class = genfun.character_law(ct)
        via_commutator = exact_commutator_distribution(from_cycle_type(ct))
        assert probabilities(via_class) == probabilities(via_commutator)

    def test_witness_queries_do_not_import_numpy_ma(self):
        # np.unique imports numpy.ma on its first call in a process (numpy 2.4), some 10 ms of a witness query
        code = (
            "import contextlib, io, sys\n"
            "from commcycles import cli\n"
            "from commcycles.oracle import exact_commutator_distribution, exact_uniform_cycle_laws\n"
            "from commcycles.perm import CycleType, from_cycle_type\n"
            "exact_commutator_distribution(from_cycle_type(CycleType([2, 2])), cap=None)\n"
            "exact_uniform_cycle_laws(4, cap=None)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['verify', '--scope', 'genfun_vs_oracle', '--max-m', '6']) == 0\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(commcycles.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestHultman:
    def test_small_values(self):
        assert hultman_row(3) == [0, 3, 0, 3]  # parity forbids k = 2
        assert hultman_row(2) == [0, 0, 2]
        assert hultman_row(5)[3] == 75

    @pytest.mark.parametrize("m", range(1, 9))
    def test_formula_matches_enumeration(self, m):
        enumerated = exact_commutator_distribution(from_cycle_type(CycleType([m])))
        assert hultman_row(m) == [enumerated.poly.coefficient(k) * math.factorial(m) for k in range(m + 1)]

    @pytest.mark.parametrize("m", range(1, 9))
    def test_row_sums_are_factorials(self, m):
        assert sum(hultman_row(m)) == math.factorial(m)

    def test_table_rows(self):
        rows = hultman_table_rows(3, oracle_cap=None)
        assert rows == [(1, 1, 1, 1), (2, 2, 2, 2), (3, 1, 3, 3), (3, 3, 3, 3)]

    def test_table_above_cap_has_no_oracle_column(self):
        rows = hultman_table_rows(9, oracle_cap=4)
        above = [r for r in rows if r[0] > 4]
        assert above and all(r[3] is None for r in above)
        below = [r for r in rows if r[0] <= 4]
        assert all(r[2] == r[3] for r in below)

    def test_table_shows_a_wrong_enumeration(self, monkeypatch):
        # an enumeration that moves the C = 1 mass of M = 3 to C = 2: the table
        # lists both supports and writes 0, never None, where one count is missing
        real = oracle.exact_commutator_distribution

        def moved(tau, cap=None):
            law = real(tau, cap=cap)
            if tau.size != 3:
                return law
            return genfun.CyclePGF(RationalPoly([0, 0, law.poly.coefficient(1), law.poly.coefficient(3)]), 3, law.source)

        monkeypatch.setattr(oracle, "exact_commutator_distribution", moved)
        rows = hultman_table_rows(4, oracle_cap=None)
        assert [r for r in rows if r[0] == 3] == [(3, 1, 3, 0), (3, 2, 0, 3), (3, 3, 3, 3)]
        assert all(r[3] is not None for r in rows)
        assert [r for r in rows if r[2] != r[3]] == [(3, 1, 3, 0), (3, 2, 0, 3)]


class TestEmitters:
    def test_distribution_round_trip_through_pgf(self):
        dist = exact_commutator_distribution(from_cycle_type(CycleType([4])))
        assert dist.source == "oracle"
        assert dist.poly(1) == 1
        assert RationalPoly(map(F, dist.to_json()["coeffs"])) == dist.poly

    def test_point_mass_pgf(self):
        assert exact_commutator_distribution(Permutation(range(3))).poly == RationalPoly([0, 0, 0, 1])

    def test_mean(self):
        dist = exact_commutator_distribution(from_cycle_type(CycleType([3])))
        assert mean(dist) == 2
