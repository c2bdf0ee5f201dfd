"""Monte-Carlo harness: exact targets frozen against hand calculations,
seeded determinism, and quick z-score sanity runs (the full statistical
grid runs in test_acceptance.py)."""

import math
from fractions import Fraction

import pytest

from commcycles.rmt import (
    MatrixSampleConfig,
    gamma_shortcut_target,
    mc_gamma_shortcut_moment,
    mc_real_trace_law,
    mc_tr_g1g2_law,
    mc_tr_g_squared_law,
    mc_trace_power_moment,
    mixed_trace_vanishing,
    real_trace_target,
    tr_g1g2_target,
    tr_g_squared_samples,
    tr_g_squared_target,
    trace_power_target,
)

F = Fraction
SAMPLES = 40_000


def cfg(n, samples=SAMPLES, seed=42, partitions=1):
    return MatrixSampleConfig(N=n, samples=samples, seed=seed, partitions=partitions)


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

    def test_trace_power_oracle_fallback(self):
        # 2 disjoint 3-cycles handled by two_cycles; 8 = 4*2 within cap via oracle
        assert trace_power_target(2, 4, 2) is not None
        # above cap and outside closed forms: flagged
        assert trace_power_target(2, 3, 3) is None

    def test_gamma_shortcut_targets(self):
        assert gamma_shortcut_target(1, 1, 1) == 1  # Γ(2)/Γ(1)
        assert gamma_shortcut_target(2, 2, 1) == 8
        assert gamma_shortcut_target(2, 3, 1) == 30  # Γ(4)/Γ(1) + Γ(5)/Γ(2) = 6+24
        assert gamma_shortcut_target(2, 2, 2) == trace_power_target(2, 2, 2) == 192
        assert gamma_shortcut_target(2, 2, 3) is None

    def test_real_trace_targets(self):
        assert real_trace_target(1, 1) == 1  # 2 * (1/2)
        assert real_trace_target(2, 1) == 4
        assert real_trace_target(2, 3) == 192  # 8 * 2*3*4

    def test_tr_g_squared_targets(self):
        assert tr_g_squared_target(1, 1) == 2  # 4 * 1! * 1/2
        assert tr_g_squared_target(2, 1) == 8  # 4 * 1! * 2

    def test_tr_g1g2_targets(self):
        assert tr_g1g2_target(1, 1) == 1
        assert tr_g1g2_target(2, 1) == 4
        assert tr_g1g2_target(2, 2) == 40  # 2! * 4*5

    def test_targets_are_exact_rationals(self):
        t = real_trace_target(3, 2)  # half-integer rising product, still exact
        assert isinstance(t, Fraction)
        assert t == 2**2 * F(9, 2) * F(11, 2)


class TestDeterminism:
    def test_same_seed_same_estimate(self):
        a = mc_real_trace_law(2, 3, samples=10_000, seed=7)
        b = mc_real_trace_law(2, 3, samples=10_000, seed=7)
        assert a.estimate == b.estimate and a.std_error == b.std_error

    def test_different_seeds_differ(self):
        a = mc_real_trace_law(2, 3, samples=10_000, seed=7)
        b = mc_real_trace_law(2, 3, samples=10_000, seed=8)
        assert a.estimate != b.estimate

    def test_partitions_recorded_and_deterministic(self):
        a = mc_real_trace_law(2, 3, samples=10_000, seed=7, partitions=4)
        b = mc_real_trace_law(2, 3, samples=10_000, seed=7, partitions=4)
        assert a.partitions == 4
        assert a.estimate == b.estimate

    def test_report_json_schema(self):
        rep = mc_trace_power_moment(cfg(2, samples=2_000), 2, 1)
        data = rep.to_json()
        for key in ("identity", "N", "M", "K", "estimate", "std_error", "target", "z", "samples", "seed", "partitions"):
            assert key in data
        assert data["target"] == "8/1"
        assert not rep.flagged


class TestEstimates:
    def test_single_entry_second_moment(self):
        rep = mc_trace_power_moment(cfg(1), 1, 1)
        assert rep.target == 1
        assert abs(rep.z) <= 5

    def test_trace_power_matches_bridge(self):
        rep = mc_trace_power_moment(cfg(2), 2, 1)
        assert rep.target == 8
        assert abs(rep.z) <= 5

    def test_flagged_when_no_target(self):
        rep = mc_trace_power_moment(cfg(2, samples=2_000), 3, 3)
        assert rep.flagged and rep.z is None

    def test_gamma_shortcut_requires_high_power(self):
        with pytest.raises(ValueError):
            mc_gamma_shortcut_moment(3, 2, 1, samples=100)

    def test_gamma_shortcut_small(self):
        rep = mc_gamma_shortcut_moment(2, 3, 1, samples=SAMPLES, seed=42)
        assert rep.target == 30
        assert abs(rep.z) <= 5

    def test_shortcut_vs_direct(self):
        direct = mc_trace_power_moment(cfg(2), 4, 1)
        shortcut = mc_gamma_shortcut_moment(2, 4, 1, samples=SAMPLES, seed=42)
        assert direct.target == shortcut.target == 144
        combined = abs(direct.estimate - shortcut.estimate) / math.hypot(
            direct.std_error, shortcut.std_error
        )
        assert combined <= 5

    def test_real_trace_fourth_entry_sum(self):
        rep = mc_real_trace_law(2, 1, samples=SAMPLES, seed=42)
        assert rep.target == 4
        assert abs(rep.z) <= 5

    def test_tr_g_squared_fourth_moment(self):
        rep = mc_tr_g_squared_law(1, 1, samples=SAMPLES, seed=42)
        assert rep.target == 2
        assert abs(rep.z) <= 5

    def test_tr_g_squared_phase_symmetry(self):
        values = tr_g_squared_samples(2, samples=SAMPLES, seed=42)
        n = values.size
        for comp in (values.real, values.imag):
            se = comp.std(ddof=1) / math.sqrt(n)
            assert abs(comp.mean()) <= 4 * se

    def test_tr_g1g2(self):
        rep = mc_tr_g1g2_law(2, 2, samples=SAMPLES, seed=42)
        assert rep.target == 40
        assert abs(rep.z) <= 5

    def test_mixed_trace_vanishes(self):
        rep = mixed_trace_vanishing(2, 1, 2, samples=SAMPLES, seed=42)
        assert rep.target == 0
        assert rep.z <= 5
        assert {"estimate_re", "estimate_im"} <= rep.extra.keys()

    def test_mixed_trace_rejects_equal_orders(self):
        with pytest.raises(ValueError):
            mixed_trace_vanishing(2, 2, 2, samples=100)

    def test_trace_power_needs_complex_ensemble(self):
        bad = MatrixSampleConfig(N=2, samples=100, seed=1, ensemble="real_gaussian")
        with pytest.raises(ValueError):
            mc_trace_power_moment(bad, 2, 1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MatrixSampleConfig(N=0, samples=10, seed=1)
        with pytest.raises(ValueError):
            MatrixSampleConfig(N=1, samples=10, seed=1, ensemble="quaternion")


class TestGaussianConvention:
    def test_entry_variance_is_one(self):
        # complex entries are (x+iy)/sqrt(2): E|G_ij|^2 = 1, E|G_ij|^4 = 2
        rep = mc_trace_power_moment(cfg(1, samples=60_000), 1, 1)
        assert rep.target == 1 and abs(rep.z) <= 5
        rep4 = mc_trace_power_moment(cfg(1, samples=60_000), 1, 2)
        assert rep4.target == 2 and abs(rep4.z) <= 5

    def test_wrong_convention_rejected(self):
        # unscaled entries (variance 2) would give E|G_11|^4 = 8, far away
        rep4 = mc_trace_power_moment(cfg(1, samples=60_000), 1, 2)
        se = rep4.std_error
        assert abs(rep4.estimate - 8.0) / se > 10
