"""Monte-Carlo harness: exact targets frozen against hand calculations,
seeded determinism, and quick z-score sanity runs (the full statistical
grid runs in test_acceptance.py)."""

import itertools
import math
import os
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

import _reference as reference
from commcycles import oracle, rmt
from commcycles.oracle import EnumerationCapError
from commcycles.polys import rising_product
from commcycles.rmt import (
    _BATCH,
    _CHUNK,
    _collect,
    _ginibre,
    _normal_chunks,
    _partition_sizes,
    _power_traces,
    _streams,
    gamma_shortcut_target,
    mc_gamma_shortcut_moment,
    mc_real_trace_law,
    mc_tr_g1g2_law,
    mc_tr_g_squared_law,
    mc_trace_power_moment,
    mixed_trace_vanishing,
    real_trace_target,
    tr_g1g2_target,
    tr_g_squared_target,
    trace_power_target,
)

F = Fraction
SAMPLES = 40_000


class TestExactTargets:
    def test_trace_power_single_cycle(self):
        assert trace_power_target(1, 1, 1) == 1
        assert trace_power_target(2, 2, 1) == 8  # 2! * P(2), P = t^2
        assert trace_power_target(2, 3, 1) == 30  # 3! * (8+2)/2

    def test_trace_power_two_cycles(self):
        assert trace_power_target(2, 2, 2) == 192  # 4! * ((1/3)16 + (2/3)4)

    def test_trace_power_identity_tau(self):
        # power 1: tau is the identity, commutator always trivial
        assert trace_power_target(3, 1, 4) == math.factorial(4) * 3**4

    def test_trace_power_identity_above_cap(self):
        # 9 fixed points: above the default enumeration cap, still a closed form
        assert trace_power_target(2, 1, 9) == math.factorial(9) * 2**9

    def test_trace_power_transpositions(self):
        # power 2, many factors: tau is disjoint transpositions
        p = trace_power_target(2, 2, 3)
        assert p == math.factorial(6) * (F(8, 15) * 4 + F(2, 5) * 16 + F(1, 15) * 64)

    def test_trace_power_character_fallback(self, monkeypatch):
        # [3,3,3] is the one type [m]^K with M <= 10 outside the closed
        # forms: it comes from the character sum, with no enumeration
        def enumerate_(*args, **kwargs):
            raise AssertionError("enumerated permutations")

        monkeypatch.setattr(oracle, "_permutation_blocks", enumerate_)
        assert trace_power_target(2, 3, 3) == 4419360
        # no closed form and above the character-sum limit: no exact law
        with pytest.raises(EnumerationCapError):
            trace_power_target(2, 3, 11)

    def test_gamma_shortcut_targets(self):
        assert gamma_shortcut_target(1, 1, 1) == 1  # Γ(2)/Γ(1)
        assert gamma_shortcut_target(2, 2, 1) == 8
        assert gamma_shortcut_target(2, 3, 1) == 30  # Γ(4)/Γ(1) + Γ(5)/Γ(2) = 6+24
        assert gamma_shortcut_target(2, 2, 2) == trace_power_target(2, 2, 2) == 192
        # N = 1: E γ_1^(m·K) = (m·K)!
        assert gamma_shortcut_target(1, 2, 3) == math.factorial(6)
        for k in range(1, 7):
            assert isinstance(gamma_shortcut_target(3, 4, k), Fraction)

    @pytest.mark.parametrize(
        "n_dim, m, factors",
        [
            (1, 1, 3), (1, 3, 3), (2, 2, 3), (2, 3, 3), (3, 3, 3), (2, 2, 4),
            (2, 2, 5), (3, 3, 2), (3, 4, 2), (4, 4, 2), (4, 5, 2), (2, 5, 2),
            # character-sum targets up to M = 30
            (2, 3, 4), (2, 3, 10), (3, 4, 5), (4, 5, 6), (2, 7, 4),
        ],
    )
    def test_gamma_shortcut_equals_bridge(self, n_dim, m, factors):
        assert gamma_shortcut_target(n_dim, m, factors) == trace_power_target(n_dim, m, factors)

    def test_gamma_shortcut_matches_two_factor_expansion(self):
        # the K = 1 and K = 2 closed forms it replaces:
        # Σ_i (i)_m and Σ_i (i)_2m + 2(Σ_i (i)_m)² - 2 Σ_i ((i)_m)²
        for n_dim in range(1, 5):
            for m in range(n_dim, 7):
                singles = [rising_product(i, m) for i in range(1, n_dim + 1)]
                doubles = sum(rising_product(i, 2 * m) for i in range(1, n_dim + 1))
                assert gamma_shortcut_target(n_dim, m, 1) == sum(singles)
                two = doubles + 2 * sum(singles) ** 2 - 2 * sum(s * s for s in singles)
                assert gamma_shortcut_target(n_dim, m, 2) == two

    def test_real_trace_targets(self):
        assert real_trace_target(1, 1) == 1  # 2 * (1/2)
        assert real_trace_target(2, 1) == 4
        assert real_trace_target(2, 3) == 192  # 8 * 2*3*4
        # 2^M (N²/2)_M, the rising-product form of (2M-1)!! times the transpositions law at N
        assert all(
            real_trace_target(n, m) == 2**m * rising_product(F(n * n, 2), m) for n in range(1, 6) for m in range(1, 41)
        )

    def test_tr_g_squared_targets(self):
        assert tr_g_squared_target(1, 1) == 2  # 4 * 1! * 1/2
        assert tr_g_squared_target(2, 1) == 8  # 4 * 1! * 2
        # 4^M M! (N²/2)_M, the rising-product form of (2M)! times the transpositions law at N
        assert all(
            tr_g_squared_target(n, m) == 4**m * math.factorial(m) * rising_product(F(n * n, 2), m)
            for n in range(1, 6)
            for m in range(1, 41)
        )

    def test_tr_g1g2_targets(self):
        assert tr_g1g2_target(1, 1) == 1
        assert tr_g1g2_target(2, 1) == 4
        assert tr_g1g2_target(2, 2) == 40  # 2! * 4*5
        # M! (N²)_M, the rising-product form of (M!)² times the uniform law at N²
        assert all(
            tr_g1g2_target(n, m) == math.factorial(m) * rising_product(n * n, m) for n in range(1, 6) for m in range(1, 41)
        )

    def test_targets_are_exact_rationals(self):
        t = real_trace_target(3, 2)  # half-integer rising product, still exact
        assert isinstance(t, Fraction)
        assert t == 2**2 * F(9, 2) * F(11, 2)


class TestDeterminism:
    def test_same_seed_same_estimate(self):
        a = mc_real_trace_law(2, 3, samples=10_000, seed=7, partitions=1)
        b = mc_real_trace_law(2, 3, samples=10_000, seed=7, partitions=1)
        assert a.estimate == b.estimate and a.std_error == b.std_error

    def test_different_seeds_differ(self):
        a = mc_real_trace_law(2, 3, samples=10_000, seed=7, partitions=1)
        b = mc_real_trace_law(2, 3, samples=10_000, seed=8, partitions=1)
        assert a.estimate != b.estimate

    def test_partitions_recorded_and_deterministic(self):
        a = mc_real_trace_law(2, 3, samples=10_000, seed=7, partitions=4)
        b = mc_real_trace_law(2, 3, samples=10_000, seed=7, partitions=4)
        assert a.partitions == 4
        assert a.estimate == b.estimate

    def test_report_json_schema(self):
        rep = mc_trace_power_moment(2, 2, 1, samples=2_000, seed=42, partitions=1)
        data = rep.to_json()
        for key in ("identity", "N", "M", "K", "estimate", "std_error", "target", "z", "samples", "seed", "partitions"):
            assert key in data
        assert data["target"] == "8/1"
        assert data["target_float"] == 8.0 and isinstance(data["z"], float)


class TestEstimates:
    def test_single_entry_second_moment(self):
        rep = mc_trace_power_moment(1, 1, 1, samples=SAMPLES, seed=42, partitions=1)
        assert rep.target == 1
        assert abs(rep.z) <= 5

    def test_trace_power_matches_bridge(self):
        rep = mc_trace_power_moment(2, 2, 1, samples=SAMPLES, seed=42, partitions=1)
        assert rep.target == 8
        assert abs(rep.z) <= 5

    def test_no_exact_law_raises_before_drawing(self, monkeypatch):
        def collect(*args, **kwargs):
            raise AssertionError("drew samples for a moment with no exact target")

        monkeypatch.setattr(rmt, "_collect", collect)
        with pytest.raises(EnumerationCapError):
            mc_trace_power_moment(2, 3, 11, samples=2_000, seed=42, partitions=1)

    @pytest.mark.parametrize(
        "call, identity",
        [
            (lambda: mc_real_trace_law(4, 200, samples=2_000_000, seed=42, partitions=1), "real_trace"),
            (lambda: mc_trace_power_moment(4, 1, 200, samples=2_000_000, seed=42, partitions=1), "trace_power"),
            (lambda: mc_gamma_shortcut_moment(5, 200, 40, samples=2_000_000, seed=42, partitions=1), "gamma_shortcut"),
            (lambda: mc_tr_g_squared_law(4, 200, samples=2_000_000, seed=42, partitions=1), "tr_g_squared"),
            (lambda: mc_tr_g1g2_law(4, 300, samples=2_000_000, seed=42, partitions=1), "tr_g1_g2"),
        ],
        ids=["real_trace", "trace_power", "gamma_shortcut", "tr_g_squared", "tr_g1_g2"],
    )
    def test_target_beyond_double_range_raises_before_drawing(self, monkeypatch, call, identity):
        # a ValueError naming the identity, not an OverflowError after the draws
        def collect(*args, **kwargs):
            raise AssertionError("drew samples for a target beyond the double range")

        monkeypatch.setattr(rmt, "_collect", collect)
        with pytest.raises(ValueError, match=f"^the exact {identity} target, about 2\\^\\d+, does not fit a double$"):
            call()

    def test_target_whose_square_overflows_raises_before_drawing(self, monkeypatch):
        # the target (about 7.9e245) fits a double, but its square, and the samples' squares, do not
        def collect(*args, **kwargs):
            raise AssertionError("drew samples for a target whose square is beyond the double range")

        monkeypatch.setattr(rmt, "_collect", collect)
        assert math.isfinite(float(rmt.real_trace_target(4, 120)))
        message = "^the square of the exact real_trace target, about 2\\^\\d+, does not fit a double$"
        with pytest.raises(ValueError, match=message):
            mc_real_trace_law(4, 120, samples=20_000, seed=42, partitions=1)

    @pytest.mark.parametrize(
        "values",
        [np.array([1e200, -1e200, 3e200]), np.array([1e308, 1e308]), np.array([1e200 + 0j, 1e200j, -1e200 + 0j])],
        ids=["std_error", "estimate", "complex"],
    )
    def test_overflowed_estimate_or_standard_error_is_refused(self, values):
        def draw(rng, out):
            out[:] = values

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused, not warned of
            with pytest.raises(ValueError, match="^the probe samples overflow a double: estimate"):
                rmt._estimate("probe", {"N": 1}, (len(values), 0, 1), lambda: Fraction(1), draw, values.dtype)

    def test_gamma_shortcut_requires_high_power(self):
        with pytest.raises(ValueError):
            mc_gamma_shortcut_moment(3, 2, 1, samples=100, seed=42, partitions=1)

    def test_gamma_shortcut_small(self):
        rep = mc_gamma_shortcut_moment(2, 3, 1, samples=SAMPLES, seed=42, partitions=1)
        assert rep.target == 30
        assert abs(rep.z) <= 5

    def test_shortcut_vs_direct(self):
        direct = mc_trace_power_moment(2, 4, 1, samples=SAMPLES, seed=42, partitions=1)
        shortcut = mc_gamma_shortcut_moment(2, 4, 1, samples=SAMPLES, seed=42, partitions=1)
        assert direct.target == shortcut.target == 144
        combined = abs(direct.estimate - shortcut.estimate) / math.hypot(
            direct.std_error, shortcut.std_error
        )
        assert combined <= 5

    def test_real_trace_fourth_entry_sum(self):
        rep = mc_real_trace_law(2, 1, samples=SAMPLES, seed=42, partitions=1)
        assert rep.target == 4
        assert abs(rep.z) <= 5

    def test_tr_g_squared_fourth_moment(self):
        rep = mc_tr_g_squared_law(1, 1, samples=SAMPLES, seed=42, partitions=1)
        assert rep.target == 2
        assert abs(rep.z) <= 5

    def test_tr_g_squared_phase_symmetry(self):
        values = reference.tr_g_squared_samples(2, SAMPLES, 42, 1)
        n = values.size
        for comp in (values.real, values.imag):
            se = comp.std(ddof=1) / math.sqrt(n)
            assert abs(comp.mean()) <= 4 * se

    @pytest.mark.parametrize("n_dim, m, partitions", [(1, 1, 1), (3, 2, 2), (4, 2, 3)])
    def test_tr_g_squared_is_the_modulus_power_of_the_complex_samples(self, monkeypatch, n_dim, m, partitions):
        # one float draw on the identity's substreams takes |tr G²|^(2M) chunk by
        # chunk; the estimate and standard error are those of the whole complex array
        samples = 70_001  # more than one batch of a partition
        values = np.abs(reference.tr_g_squared_samples(n_dim, samples, 5, partitions)) ** (2 * m)
        collect, draws = rmt._collect, []

        def recorded(identity, seed, partitions, total, draw, dtype):
            draws.append((identity, seed, partitions, total, dtype))
            return collect(identity, seed, partitions, total, draw, dtype)

        monkeypatch.setattr(rmt, "_collect", recorded)
        rep = mc_tr_g_squared_law(n_dim, m, samples=samples, seed=5, partitions=partitions)
        assert draws == [("tr_g_squared", 5, partitions, samples, float)]
        assert rep.estimate == float(values.mean())
        assert rep.std_error == float(values.std(ddof=1)) / math.sqrt(samples)

    def test_tr_g1g2(self):
        rep = mc_tr_g1g2_law(2, 2, samples=SAMPLES, seed=42, partitions=1)
        assert rep.target == 40
        assert abs(rep.z) <= 5

    def test_mixed_trace_vanishes(self):
        rep = mixed_trace_vanishing(2, 1, 2, samples=SAMPLES, seed=42, partitions=1)
        assert rep.target == 0
        assert rep.z <= 5
        assert {"estimate_re", "estimate_im"} <= rep.extra.keys()

    def test_mixed_trace_rejects_equal_orders(self):
        with pytest.raises(ValueError):
            mixed_trace_vanishing(2, 2, 2, samples=100, seed=42, partitions=1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: mc_gamma_shortcut_moment(2, 3, 1, samples=100, seed=42, partitions=0),
            lambda: mc_gamma_shortcut_moment(0, 3, 1, samples=100, seed=42, partitions=1),
            lambda: mc_real_trace_law(2, 1, samples=1, seed=42, partitions=1),
            lambda: mc_real_trace_law(2, 0, samples=100, seed=42, partitions=1),
            lambda: mc_tr_g_squared_law(0, 1, samples=100, seed=42, partitions=1),
            lambda: mc_tr_g_squared_law(2, 0, samples=100, seed=42, partitions=1),
            lambda: mc_tr_g_squared_law(2, 1, samples=0, seed=42, partitions=1),
            lambda: mc_tr_g1g2_law(2, 1, samples=100, seed=42, partitions=0),
            lambda: mixed_trace_vanishing(2, 0, 2, samples=100, seed=42, partitions=1),
            lambda: mc_trace_power_moment(2, 0, 1, samples=100, seed=42, partitions=1),
            # with the cases above, every estimator meets each bad plan:
            # N = 0, samples = 1 and partitions = 0
            lambda: mc_gamma_shortcut_moment(2, 3, 1, samples=1, seed=42, partitions=1),
            lambda: mc_real_trace_law(0, 1, samples=100, seed=42, partitions=1),
            lambda: mc_real_trace_law(2, 1, samples=100, seed=42, partitions=0),
            lambda: mc_tr_g_squared_law(2, 1, samples=1, seed=42, partitions=1),
            lambda: mc_tr_g_squared_law(2, 1, samples=100, seed=42, partitions=0),
            lambda: mc_tr_g1g2_law(0, 1, samples=100, seed=42, partitions=1),
            lambda: mc_tr_g1g2_law(2, 1, samples=1, seed=42, partitions=1),
            lambda: mixed_trace_vanishing(0, 1, 2, samples=100, seed=42, partitions=1),
            lambda: mixed_trace_vanishing(2, 1, 2, samples=1, seed=42, partitions=1),
            lambda: mixed_trace_vanishing(2, 1, 2, samples=100, seed=42, partitions=0),
            lambda: mc_trace_power_moment(0, 2, 1, samples=100, seed=42, partitions=1),
            lambda: mc_trace_power_moment(2, 2, 1, samples=1, seed=42, partitions=1),
            lambda: mc_trace_power_moment(2, 2, 1, samples=100, seed=42, partitions=0),
        ],
    )
    def test_bad_plans_rejected(self, call):
        with pytest.raises(ValueError, match="must be at least"):
            call()

    def test_partition_count_bounded(self):
        # refused, not clamped, since the partition count fixes the substreams
        with pytest.raises(ValueError, match="partitions must be at most 1024, got 1025"):
            mc_real_trace_law(2, 1, samples=2000, seed=42, partitions=1025)


class TestKernels:
    """The sampling kernels against the direct numpy formulas they replace."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_power_trace_matches_matrix_power(self, n):
        # C-contiguous stacks of one matrix, of 200 and of a streamed chunk's
        # size, and a (k, n, n) view of a batch-last array; none is written to
        rng = np.random.default_rng(n)
        stacks = []
        for count in (1, 200, _CHUNK // (n * n)):
            x, y = rng.standard_normal((2, count, n, n))
            stacks.append((x + 1j * y) * np.sqrt(0.5))
        stacks.append(np.ascontiguousarray(stacks[1].transpose(1, 2, 0)).transpose(2, 0, 1))
        for g in stacks:
            kept = g.copy()
            for p, traces in enumerate(_power_traces(g, *range(1, 9)), 1):
                direct = np.trace(np.linalg.matrix_power(g, p), axis1=1, axis2=2)
                np.testing.assert_allclose(traces, direct, rtol=1e-12)
            assert np.array_equal(g, kept)

    def test_shared_powers_equal_one_chain_per_power(self):
        # powers come from one chain G^(i+1) = G^i G, so sharing it between
        # the traces changes no bit of any of them, in any order of the powers
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal((2, 300, 3, 3))
        g = (x + 1j * y) * np.sqrt(0.5)
        alone = {p: _power_traces(g, p)[0] for p in range(1, 9)}
        for p1, p2 in itertools.permutations(range(1, 9), 2):
            t1, t2 = _power_traces(g, p1, p2)
            assert np.array_equal(t1, alone[p1]) and np.array_equal(t2, alone[p2])

    # Estimates of the two-chain kernel (one batch-last copy and one chain of
    # powers per trace): sharing the chain must not move them by one bit, on
    # one thread or two.
    MIXED_PINNED = [
        ((3, 3, 5, 5001, 3, 2), 15.602044870991298, 20.254325741898736, -12.515117435369802, 9.316417752297749),
        ((2, 1, 2, 5001, 0, 1), 0.019996502614896466, 0.07012992237040755, 0.016561714565898982, -0.011205789908134579),
        ((4, 2, 4, 5001, 7, 3), 3.3681155245427177, 4.444922268415976, -1.5334558245592427, -2.9987856576939604),
        ((3, 5, 3, 5001, 1, 2), 22.44139694869056, 20.507746886499433, -21.152857492624925, 7.494859365284957),
    ]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "args, estimate, std_error, re, im", MIXED_PINNED, ids=[f"N{a[0]}-{a[1]}-{a[2]}-p{a[5]}" for a, *_ in MIXED_PINNED]
    )
    def test_mixed_estimates_pinned_bit_for_bit(self, monkeypatch, threads, args, estimate, std_error, re, im):
        monkeypatch.setattr(os, "cpu_count", lambda: threads)
        n_dim, m1, m2, samples, seed, partitions = args
        rep = mixed_trace_vanishing(n_dim, m1, m2, samples=samples, seed=seed, partitions=partitions)
        assert (rep.estimate, rep.std_error) == (estimate, std_error)
        assert rep.extra == {"estimate_re": re, "estimate_im": im}

    @pytest.mark.parametrize("n, count", [(1, 70_001), (3, 5001), (2, _CHUNK // 2), (4, _CHUNK // 8 + 1)])
    def test_streamed_draw_layout(self, n, count):
        rng = np.random.default_rng(7)
        real = rng.standard_normal((count, n, n))
        imag = rng.standard_normal((count, n, n))
        expected = (real + 1j * imag) * np.sqrt(0.5)
        chunks = []

        def keep(g):
            chunks.append(g.copy())
            return np.einsum("kii->k", g)

        traces = np.empty(count, dtype=complex)
        _ginibre(np.random.default_rng(7), n, traces, keep)
        got = np.concatenate(chunks)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
        assert len(chunks) > 1 and max(c.size for c in chunks) <= _CHUNK
        assert np.array_equal(traces, np.einsum("kii->k", expected))
        streamed = np.concatenate([x.copy() for _, x in _normal_chunks(np.random.default_rng(7), count, n)])
        assert np.array_equal(streamed, real)

    # (estimate, std_error) at samples=5000, seed=0, partitions=2 from the
    # direct kernels: np.linalg.matrix_power on one (2, count, n, n) draw.
    PINNED = [
        pytest.param(
            lambda: mc_trace_power_moment(3, 5, 1, samples=5000, seed=0, partitions=2),
            3514.0839132076258, 302.5358738753634, id="trace_power_5",
        ),
        pytest.param(
            lambda: mc_trace_power_moment(2, 4, 2, samples=5000, seed=0, partitions=2),
            351927.70122829353, 52211.1691297838, id="trace_power_4_k2",
        ),
        pytest.param(
            lambda: mc_gamma_shortcut_moment(2, 3, 1, samples=5000, seed=0, partitions=2),
            32.02062824086091, 1.2160871162628035, id="gamma",
        ),
        pytest.param(
            lambda: mc_real_trace_law(2, 3, samples=5000, seed=0, partitions=2),
            193.63693606420804, 8.74688976309504, id="real_trace",
        ),
        pytest.param(
            lambda: mc_tr_g_squared_law(3, 2, samples=5000, seed=0, partitions=2),
            780.1987049442037, 32.04302932010629, id="tr_g2",
        ),
        pytest.param(
            lambda: mc_tr_g1g2_law(3, 2, samples=5000, seed=0, partitions=2),
            185.92452181671382, 7.162893552215124, id="tr_g1g2",
        ),
        pytest.param(
            lambda: mixed_trace_vanishing(3, 3, 4, samples=5000, seed=0, partitions=2),
            6.99396309381095, 6.673003880130127, id="mixed_3_4",
        ),
    ]

    @pytest.mark.parametrize("run, estimate, std_error", PINNED)
    def test_estimates_are_pinned(self, run, estimate, std_error):
        rep = run()
        assert rep.estimate == pytest.approx(estimate, rel=1e-12, abs=0)
        assert rep.std_error == pytest.approx(std_error, rel=1e-12, abs=0)


def _serial(identity, seed, partitions, total):
    """What _collect must return for _batch_draw: one partition after another,
    in batches of at most _BATCH, all on this thread."""
    values = []
    for rng, size in zip(_streams(seed, partitions, identity), _partition_sizes(total, partitions)):
        for lo in range(0, size, _BATCH):
            b = min(_BATCH, size - lo)
            values.append(rng.standard_normal(b) + b)
    return np.concatenate(values)


def _batch_draw(rng, values):
    # the batch size shows in the values, so a changed split would too
    values[:] = rng.standard_normal(len(values)) + len(values)


@pytest.fixture
def fast_switching():
    """Switch threads every 10 µs, so interleavings a slice bug needs occur."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.usefixtures("fast_switching")
class TestPartitions:
    """Partitions run side by side without changing a single value."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("total", [200_000, 5_001])
    @pytest.mark.parametrize("partitions", [1, 2, 3, 4, 5])
    def test_collect_equals_serial_loop(self, monkeypatch, cpus, total, partitions):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        got = _collect("probe", 11, partitions, total, _batch_draw, float)
        assert np.array_equal(got, _serial("probe", 11, partitions, total))

    # at most one thread per CPU, the caller's included; one partition, or
    # an unknown CPU count, stays on the caller
    @pytest.mark.parametrize("cpus, partitions, threads", [(2, 8, 2), (4, 1, 1), (None, 3, 1)])
    def test_threads_capped(self, monkeypatch, cpus, partitions, threads):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        idents = set()

        def draw(rng, values):
            idents.add(threading.get_ident())
            _batch_draw(rng, values)

        got = _collect("probe", 11, partitions, 5_001, draw, float)
        assert threading.get_ident() in idents and len(idents) <= threads
        assert np.array_equal(got, _serial("probe", 11, partitions, 5_001))

    def test_error_in_other_partition_reraises(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        before = threading.active_count()
        caller = []

        def draw(rng, values):
            if threading.get_ident() != caller[0]:
                raise ValueError("draw failed off the calling thread")
            _batch_draw(rng, values)

        def run():
            caller.append(threading.get_ident())
            return _collect("probe", 11, 4, 5_001, draw, float)

        with ThreadPoolExecutor(1) as pool:
            with pytest.raises(ValueError, match="off the calling thread"):
                pool.submit(run).result(timeout=60)
        assert threading.active_count() == before

    def test_estimates_equal_serial_partitions(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        serial = mc_tr_g_squared_law(2, 2, samples=5_001, seed=3, partitions=8)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        threaded = mc_tr_g_squared_law(2, 2, samples=5_001, seed=3, partitions=8)
        assert (threaded.estimate, threaded.std_error) == (serial.estimate, serial.std_error)

    @pytest.mark.parametrize(
        "run",
        [
            lambda: mc_trace_power_moment(4, 3, 1, samples=5_001, seed=3, partitions=2),
            lambda: mixed_trace_vanishing(3, 2, 5, samples=5_001, seed=3, partitions=2),
        ],
        ids=["trace_power", "mixed_trace"],
    )
    def test_power_trace_estimates_equal_serial_partitions(self, monkeypatch, run):
        # the product chain of _power_trace is what runs side by side here
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        serial = run()
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        threaded = run()
        assert (threaded.estimate, threaded.std_error) == (serial.estimate, serial.std_error)
        assert threaded.extra == serial.extra


class TestGaussianConvention:
    def test_entry_variance_is_one(self):
        # complex entries are (x+iy)/sqrt(2): E|G_ij|^2 = 1, E|G_ij|^4 = 2
        rep = mc_trace_power_moment(1, 1, 1, samples=60_000, seed=42, partitions=1)
        assert rep.target == 1 and abs(rep.z) <= 5
        rep4 = mc_trace_power_moment(1, 1, 2, samples=60_000, seed=42, partitions=1)
        assert rep4.target == 2 and abs(rep4.z) <= 5

    def test_wrong_convention_rejected(self):
        # unscaled entries (variance 2) would give E|G_11|^4 = 8, far away
        rep4 = mc_trace_power_moment(1, 1, 2, samples=60_000, seed=42, partitions=1)
        se = rep4.std_error
        assert abs(rep4.estimate - 8.0) / se > 10
