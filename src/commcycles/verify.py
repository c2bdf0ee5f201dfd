"""Aggregated consistency suites behind the CLI `verify` command.

Each suite returns a list of CheckResult; exact checks use rational
arithmetic with zero tolerance, statistical checks use a z-score threshold.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from . import genfun, oracle
from .perm import CycleType, Frozen, from_cycle_type
from .polys import (
    RationalPoly,
    connection_expand,
    discrete_difference,
    falling_factorial,
    rising_factorial,
    rising_product,
    rising_square_sum,
)

__all__ = ["CheckResult", "run_scope", "SCOPES"]

SCOPES = ("factorials", "genfun_vs_oracle", "bernoulli", "rmt", "all")


class CheckResult(Frozen):
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str):
        super().__init__(name, bool(ok), detail)

    def to_json(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


def run_factorial_checks(max_n: int) -> list[CheckResult]:
    out = []
    ok = all(discrete_difference(rising_factorial(n)) == n * rising_factorial(n - 1) for n in range(1, max_n + 1))
    out.append(CheckResult("difference_of_rising", ok, f"n <= {max_n}"))

    ok = all(rising_factorial(n).reflect() == (-1) ** n * falling_factorial(n) for n in range(max_n + 1))
    out.append(CheckResult("reflection", ok, f"n <= {max_n}"))

    ok = all(
        connection_expand(m, n) == falling_factorial(m) * falling_factorial(n)
        for n in range(9)
        for m in range(n + 1)
    )
    out.append(CheckResult("connection_coefficients", ok, "m <= n <= 8"))

    ok = True
    for m in range(1, 9):
        s = rising_square_sum(m)
        ok &= s(0) == 0
        ok &= discrete_difference(s) == rising_factorial(m) * rising_factorial(m)
        ok &= all(s(n) == sum(rising_product(k, m) ** 2 for k in range(1, n + 1)) for n in range(1, 13))
    out.append(CheckResult("squared_rising_partial_sums", ok, "m <= 8, evaluations n <= 12"))

    ok = True
    for n in range(1, max_n + 1):
        rising, gamma_sum = rising_factorial(n), 0  # gamma_sum: rising_product(j, n - 1) over j <= k
        for k in range(1, max_n + 1):
            gamma_sum += rising_product(k, n - 1)
            ok &= rising(k) == n * gamma_sum
    out.append(CheckResult("rising_values_as_gamma_sums", ok, f"n, k <= {max_n}"))
    return out


def run_genfun_oracle_checks(max_m: int, cap: int | None) -> list[CheckResult]:
    @functools.cache
    def enumerated(*parts: int) -> RationalPoly:  # one enumeration per cycle type, shared by every check
        return oracle.exact_commutator_distribution(from_cycle_type(CycleType(parts)), cap=cap).poly

    out = []
    ok = all(enumerated(m) == genfun.one_cycle_pgf(m).poly for m in range(1, max_m + 1))
    out.append(CheckResult("one_cycle_vs_oracle", ok, f"M <= {max_m}"))

    ok = all(enumerated(m, m) == genfun.two_cycles_pgf(m).poly for m in range(1, max_m // 2 + 1))
    out.append(CheckResult("two_cycles_vs_oracle", ok, f"ground sets <= {max_m}"))

    ok = all(enumerated(*[2] * m) == genfun.transpositions_pgf(m).poly for m in range(1, max_m // 2 + 1))
    out.append(CheckResult("transpositions_vs_oracle", ok, f"ground sets <= {max_m}"))

    ok = all(  # one enumeration per M gives all three laws
        law.poly == genfun.uniform_cycles_pgf(m).poly
        if subset == "all"
        else law.poly == genfun.alternating_pgf(m, complement=subset == "co_alternating").poly
        for m in range(1, max_m + 1)
        for subset, law in oracle.exact_uniform_cycle_laws(m, cap=cap).items()
    )
    out.append(CheckResult("subset_laws_vs_oracle", ok, f"M <= {max_m}"))

    ok = all(  # the character sum, not the closed form, against the odd law at M + 1
        genfun.character_law(CycleType([m])).poly == genfun.alternating_pgf(m + 1, complement=True).poly
        for m in range(1, 10)
    )
    out.append(CheckResult("one_cycle_equals_odd_law", ok, "M <= 9"))

    # the character sum is Frobenius's expansion of the class product (στσ⁻¹)·τ⁻¹, closed-form types included
    types = [t for t in ([1], [2], [3], [2, 1], [2, 2], [3, 2], [4, 2], [2, 2, 2]) if sum(t) <= max_m]
    ok = all(genfun.character_law(CycleType(t)).poly == enumerated(*t) for t in types)
    out.append(CheckResult("class_product_reformulation", ok, f"types with M <= {max_m}"))

    ok = all(  # one Hultman row per M
        oracle.hultman_row(m) == [enumerated(m).coefficient(k) * math.factorial(m) for k in range(m + 1)]
        for m in range(1, max_m + 1)
    )
    out.append(CheckResult("hultman_formula_vs_enumeration", ok, f"M <= {max_m}"))

    ok = genfun.two_cycles_pgf(2).poly == genfun.transpositions_pgf(2).poly
    out.append(CheckResult("two_cycles_meets_transpositions", ok, "cycle type [2,2]"))

    ok = all(
        genfun.validate_pgf(pgf).ok
        for m in range(1, max_m + 1)
        for pgf in (
            genfun.uniform_cycles_pgf(m),
            genfun.one_cycle_pgf(m),
            genfun.two_cycles_pgf(m),
            genfun.transpositions_pgf(m),
        )
    )
    out.append(CheckResult("pgf_invariants", ok, f"M <= {max_m}"))

    mass = genfun.transpositions_rising_form(1, base=2)(1)
    out.append(
        CheckResult(
            "prefactor_witness_detected",
            mass == Fraction(1, 2),
            "the 2^M-prefactor closed form has total mass 1/2 at M=1 (product form is the law)",
        )
    )
    return out


def run_bernoulli_checks(max_m: int) -> list[CheckResult]:
    out = []
    dec = genfun.bernoulli_decomposition(genfun.uniform_cycles_pgf(12))
    ok = [t.p for t in dec.terms] == [Fraction(1, k) for k in range(1, 13)]
    ok &= all(t.multiplier == 1 for t in dec.terms) and dec.offset == 0
    ok &= dec.reconstruct() == genfun.uniform_cycles_pgf(12).poly
    out.append(CheckResult("uniform_parameters", ok, "1/k for k <= 12, exact reconstruction"))

    dec = genfun.bernoulli_decomposition(genfun.transpositions_pgf(12))
    ok = [t.p for t in dec.terms] == [Fraction(1, 2 * k - 1) for k in range(1, 13)]
    ok &= all(t.multiplier == 2 for t in dec.terms) and dec.offset == 0
    ok &= dec.reconstruct() == genfun.transpositions_pgf(12).poly
    out.append(CheckResult("transpositions_parameters", ok, "1/(2k-1) for k <= 12, exact reconstruction"))

    worst_res = 0.0
    ok = True
    for m in range(1, max_m + 1):  # each term is a certified pair of roots ±i·y
        pgf = genfun.one_cycle_pgf(m)
        d = genfun.bernoulli_decomposition(pgf)
        worst_res = max(worst_res, d.residual_against(pgf))
        ok &= 2 * len(d.terms) == m - d.offset
    ok &= worst_res < 1e-10
    detail = f"M <= {max_m}: residual {worst_res:.2e} < 1e-10, 2*terms == M - offset"
    out.append(CheckResult("one_cycle_decomposition", ok, detail))
    return out


def _z_check(name: str, report: rmt.MomentReport) -> CheckResult:
    from . import rmt

    detail = f"estimate {report.estimate:.6g}, target {float(report.target):.6g}, z {report.z:+.2f}"
    return CheckResult(name, abs(report.z) <= rmt.Z_MAX, detail)


def run_rmt_checks(samples: int, seed: int, partitions: int) -> list[CheckResult]:
    from . import rmt  # compiled on first use: the other scopes never need it

    plan = {"samples": samples, "seed": seed, "partitions": partitions}
    out = []
    for n_dim, power, factors in [(1, 1, 1), (2, 2, 1), (3, 2, 1), (2, 4, 1), (2, 2, 2), (3, 2, 2), (2, 2, 3)]:
        rep = rmt.mc_trace_power_moment(n_dim, power, factors, **plan)
        out.append(_z_check(f"trace_power[N={n_dim},m={power},K={factors}]", rep))

    for n_dim, m in [(1, 1), (2, 2), (2, 3), (3, 4), (2, 5)]:
        rep = rmt.mc_gamma_shortcut_moment(n_dim, m, 1, **plan)
        out.append(_z_check(f"gamma_shortcut[N={n_dim},M={m},K=1]", rep))
        target = rmt.trace_power_target(n_dim, m, 1)  # Kostlan's shortcut is exact for m >= N
        detail = f"gamma sum {rep.target}, trace-power target {target}"
        out.append(CheckResult(f"shortcut_target_exact[N={n_dim},M={m}]", rep.target == target, detail))

    for n_dim, m in [(1, 1), (2, 1), (2, 3), (3, 2), (4, 3)]:
        rep = rmt.mc_real_trace_law(n_dim, m, **plan)
        out.append(_z_check(f"real_trace[N={n_dim},M={m}]", rep))

    for n_dim, m in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        rep = rmt.mc_tr_g_squared_law(n_dim, m, **plan)
        out.append(_z_check(f"tr_g_squared[N={n_dim},M={m}]", rep))

    for n_dim, m1, m2 in [(2, 1, 2), (1, 1, 3), (3, 2, 4)]:
        rep = rmt.mixed_trace_vanishing(n_dim, m1, m2, **plan)
        out.append(
            CheckResult(
                f"mixed_trace_zero[N={n_dim},M1={m1},M2={m2}]",
                rep.z <= rmt.Z_MAX,
                f"|mean| {rep.estimate:.4g}, z {rep.z:.2f}",
            )
        )

    for n_dim, m in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        rep = rmt.mc_tr_g1g2_law(n_dim, m, **plan)
        out.append(_z_check(f"tr_g1_g2[N={n_dim},M={m}]", rep))
    return out


def run_scope(
    scope: str, max_m: int | None, samples: int, seed: int, partitions: int, cap: int | None
) -> list[CheckResult]:
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; choose from {', '.join(SCOPES)}")
    if max_m is not None and max_m < 1:
        raise ValueError(f"--max-m must be at least 1, got {max_m}")
    oracle.resolve_cap(cap)  # refuse a cap the oracle cannot honour before any check runs
    oracle_max_m = 6 if max_m is None else max_m
    if scope in ("genfun_vs_oracle", "all"):
        oracle._check_cap(oracle_max_m, cap)  # the oracle suite enumerates up to M = oracle_max_m
    if scope in ("rmt", "all"):
        from . import rmt

        rmt._check_plan(samples, partitions)
    out = []
    if scope in ("factorials", "all"):
        out.extend(run_factorial_checks(max_n=12 if max_m is None else max_m))
    if scope in ("genfun_vs_oracle", "all"):
        out.extend(run_genfun_oracle_checks(max_m=oracle_max_m, cap=cap))
    if scope in ("bernoulli", "all"):
        out.extend(run_bernoulli_checks(max_m=30 if max_m is None else max_m))
    if scope in ("rmt", "all"):
        out.extend(run_rmt_checks(samples=samples, seed=seed, partitions=partitions))
    return out
