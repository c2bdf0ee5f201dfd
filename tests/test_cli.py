"""CLI behavior: output schemas, byte-determinism, env-var mirroring, exit
codes, and the verify suite's sensitivity to injected coefficient errors."""

import argparse
import json
import math
import os
import random
import re
import subprocess
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import commcycles
from _reference import commutator_cycle_count, sample_uniform
from commcycles import cli, genfun, oracle, polys, rmt, sampling, verify
from commcycles.perm import CycleType, from_cycle_type
from commcycles.polys import RationalPoly, _pretty_strings


def python_env() -> dict:
    """Environment for a fresh interpreter that imports the package under test."""
    return {**os.environ, "PYTHONPATH": str(Path(commcycles.__file__).resolve().parents[1])}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# A short call of each command, without global flags.
COMMAND_ARGV = {
    "pgf": ["pgf", "one-cycle:3"],
    "dist": ["dist", "one-cycle:3"],
    "bernoulli": ["bernoulli", "uniform:3"],
    "hultman": ["hultman"],
    "sample": ["sample", "one-cycle:3", "--draws", "10"],
    "verify": ["verify", "--scope", "factorials"],
    "mc": ["mc", "gamma", "--n", "1"],
}


# The identity options each `mc` identity reads, in its estimator's argument
# order, and a short call of each identity with only --n and the options it needs.
MC_READS = {
    "trace-power": ("n", "m", "k"),
    "gamma": ("n", "m", "k"),
    "real-trace": ("n", "m"),
    "tr-g2": ("n", "m"),
    "tr-g1g2": ("n", "m"),
    "mixed": ("n", "m1", "m2"),
}
MC_ARGV = {identity: ["--n", "2", *(["--m1", "1", "--m2", "3"] if identity == "mixed" else [])] for identity in MC_READS}
MC_UNREAD = [(i, o) for i, reads in MC_READS.items() for o in ("n", "m", "k", "m1", "m2") if o not in reads]


# Every command that enforces --cap (`pgf` checks it and builds no enumeration with it).
CAP_COMMANDS = [["dist", "type:[3]"], ["hultman", "--max-m", "3"]] + [["verify", "--scope", s] for s in verify.SCOPES]
CAP_COMMANDS.append(["pgf", "one-cycle:3"])


def stub_mc_work(monkeypatch) -> None:
    """Make every exact Monte-Carlo target and every draw fail the test."""
    for name in ("trace_power_target", "gamma_shortcut_target", "real_trace_target", "tr_g1g2_target", "_collect"):
        monkeypatch.setattr(rmt, name, lambda *args, name=name, **kwargs: pytest.fail(f"rmt.{name} ran"))


def stub_commands(monkeypatch) -> list:
    """Replace every _cmd_* by a stub that records the parsed namespace and exits 0."""
    ran = []
    for command in COMMAND_ARGV:
        monkeypatch.setattr(cli, f"_cmd_{command}", lambda args: ran.append(args) or 0)
    return ran


class TestTauSpecParsing:
    def test_named_selectors(self):
        # a named family is shorthand for its cycle type
        assert cli.parse_tau_spec("one-cycle:5") == ("type", CycleType([5]))
        assert cli.parse_tau_spec("two-cycles:3") == ("type", CycleType([3, 3]))
        assert cli.parse_tau_spec("transpositions:2") == ("type", CycleType([2, 2]))
        assert cli.parse_tau_spec("uniform:4") == ("uniform", 4)

    def test_type_selector(self):
        kind, ct = cli.parse_tau_spec("type:[3,2]")
        assert kind == "type" and ct.parts == (3, 2)

    def test_explicit_selector(self):
        kind, p = cli.parse_tau_spec("(1 2 3)(4 5)")
        assert kind == "explicit" and p.size == 5

    @pytest.mark.parametrize(
        "bad",
        [
            "nonsense", "one-cycle:x", "one-cycle:0", "type:{}", "type:[1,\"a\"]", "type:[true]", "type:[true,1]",
            "type:[1.5]", "type:[2.0,1]", "type:[]", "type:[3,0]",
        ],
    )
    def test_rejects_garbage(self, bad):
        with pytest.raises(cli.UsageError):
            cli.parse_tau_spec(bad)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("type:[1,", "expected type:[c1,c2,...], got 'type:[1,'"),
            ("type:[2 3]", "expected type:[c1,c2,...], got 'type:[2 3]'"),
            ("cycles:3", "unknown tau selector 'cycles'"),
            ("Foo:[3]", "unknown tau selector 'foo'"),
        ],
    )
    def test_refusals_name_the_fault(self, bad, message):
        with pytest.raises(cli.UsageError) as refused:
            cli.parse_tau_spec(bad)
        assert str(refused.value) == message


# Each named family and the cycle type it is shorthand for.
FAMILY_TYPES = {
    "one-cycle": lambda m: [m],
    "two-cycles": lambda m: [m, m],
    "transpositions": lambda m: [2] * m,
}


class TestNamedFamilies:
    @pytest.mark.parametrize("m", range(1, 13))
    @pytest.mark.parametrize("family", FAMILY_TYPES)
    def test_answers_as_its_type(self, capsys, family, m):
        # one route decider: a family and its type get the same answer, or the same refusal
        def answer(*argv):
            code, out, err = run_cli(capsys, *argv)
            return code, out and {k: v for k, v in json.loads(out).items() if k != "tau"}, err

        type_spec = "type:" + json.dumps(FAMILY_TYPES[family](m))
        for command, *flags in (["pgf"], ["bernoulli"], ["dist"], ["sample", "--draws", "200", "--seed", "3"]):
            assert answer(command, f"{family}:{m}", *flags) == answer(command, type_spec, *flags), command


class TestPgfCommand:
    def test_closed_form_json(self, capsys):
        code, out, _ = run_cli(capsys, "pgf", "one-cycle:3")
        assert code == 0
        data = json.loads(out)
        assert data["provenance"] == "closed-form: one-cycle"
        assert data["pgf"]["coeffs"] == ["0/1", "1/2", "0/1", "1/2"]
        assert data["validation"]["ok"] is True

    def test_character_fallback(self, capsys):
        # a type outside the closed forms is answered by the character sum,
        # and its law is the enumerated one
        code, out, _ = run_cli(capsys, "pgf", "type:[3,2]")
        assert code == 0
        data = json.loads(out)
        assert data["provenance"] == "character sum"
        assert data["pgf"]["M"] == 5
        assert data["validation"]["parity_ok"] is True
        enumerated = oracle.exact_commutator_distribution(from_cycle_type(CycleType([3, 2])))
        assert data["pgf"]["coeffs"] == enumerated.poly.coeff_strings()

    def test_law_longer_than_the_int_string_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # CPython's default; one-cycle:1600 has longer reduced coefficients
        try:
            code, out, _ = run_cli(capsys, "pgf", "one-cycle:1600")
            assert code == 0 and sys.get_int_max_str_digits() == 4300
            sys.set_int_max_str_digits(0)
            assert sum(map(Fraction, json.loads(out)["pgf"]["coeffs"])) == 1
        finally:
            sys.set_int_max_str_digits(limit)

    def test_int_string_limit_restored_when_a_command_raises(self, monkeypatch):
        def command(args):
            assert sys.get_int_max_str_digits() == 0
            raise RuntimeError("raised")

        monkeypatch.setattr(cli, "_cmd_pgf", command)
        limit = sys.get_int_max_str_digits()
        with pytest.raises(RuntimeError):
            cli.main(["pgf", "one-cycle:3"])
        assert sys.get_int_max_str_digits() == limit

    def test_above_cap_suggests_sample(self, capsys):
        # M = 31 is above the character-sum limit; `mc` refuses the same τ,
        # so the advice names `sample` only
        code, _, err = run_cli(capsys, "pgf", "type:[16,15]")
        assert code == 2
        assert "`commcycles sample`" in err and "commcycles mc" not in err
        assert err.count("\n") == 1

    def test_no_enumeration_above_the_oracle_cap(self, capsys, monkeypatch):
        def enumerate_(*args, **kwargs):
            raise AssertionError("enumerated permutations")

        monkeypatch.setattr(oracle, "_permutation_blocks", enumerate_)
        code, out, _ = run_cli(capsys, "pgf", "type:[5,4]")
        assert code == 0
        assert json.loads(out)["provenance"] == "character sum"

    def test_solved_type_uses_closed_form(self, capsys):
        # M = 20 is far above the enumeration cap; the one-cycle law is closed
        code, out, _ = run_cli(capsys, "pgf", "type:[20]")
        assert code == 0
        data = json.loads(out)
        assert data["provenance"] == "closed-form: one-cycle"
        assert data["pgf"] == genfun.one_cycle_pgf(20).to_json()

    def test_explicit_tau_routed_by_cycle_type(self, capsys):
        code, out, _ = run_cli(capsys, "pgf", "(1 2 3 4)(5 6 7 8)")
        assert code == 0
        data = json.loads(out)
        assert data["provenance"] == "closed-form: two-cycles"
        assert data["pgf"]["source"] == "two_cycles"
        assert data["validation"]["parity_ok"] is True

    def test_two_fixed_points_take_the_identity_route(self, capsys):
        code, out, _ = run_cli(capsys, "pgf", "type:[1,1]")
        assert code == 0
        data = json.loads(out)
        assert data["provenance"] == "closed-form: identity"
        assert data["pgf"] == {"M": 2, "source": "identity", "coeffs": ["0/1", "0/1", "1/1"]}

    @pytest.mark.parametrize("spec", ["type:[true]", "type:[1.5]"])
    def test_non_integer_parts_exit_2(self, capsys, spec):
        code, out, err = run_cli(capsys, "pgf", spec)
        assert (code, out) == (2, "")
        assert err == f"error: cycle type needs positive integer parts, got {json.loads(spec[5:])} in {spec!r}\n"

    @pytest.mark.parametrize(
        "tau",
        ["one-cycle:9", "two-cycles:6", "transpositions:5", "uniform:7", "type:[1,1,1]", "type:[3,3]", "type:[3,2]", "type:[4,4,1]"],
    )
    def test_pretty_renders_the_law(self, capsys, tau):
        # `pretty` is rendered from the coefficient strings, once reduced
        want = _pretty_strings(cli._law(*cli.parse_tau_spec(tau))[0].poly.coeff_strings())
        _, out, _ = run_cli(capsys, "pgf", tau)
        assert json.loads(out)["pretty"] == want
        _, out, _ = run_cli(capsys, "pgf", tau, "--format", "human")
        assert out.splitlines()[2] == f"PGF: {want}"

    def test_transpositions_example(self, capsys):
        code, out, _ = run_cli(capsys, "pgf", "transpositions:2")
        data = json.loads(out)
        assert data["pgf"]["coeffs"] == ["0/1", "0/1", "2/3", "0/1", "1/3"]


# Each command's `--format human` lines on one small input.
HUMAN_LINES = {
    "dist": (["dist", "one-cycle:3"], ["tau: one-cycle:3   M = 3", "  P(C = 1) = 1/2 = 0.500000", "  P(C = 3) = 1/2 = 0.500000"]),
    "bernoulli": (
        ["bernoulli", "uniform:3"],
        [
            "tau: uniform:3   (exact parameters)", "offset: 0", "  + 1 * Bernoulli(1/1)", "  + 1 * Bernoulli(1/2)",
            "  + 1 * Bernoulli(1/3)", "reconstruction residual: 0",
        ],
    ),
    "hultman": (  # above the cap the oracle column is blank
        ["hultman", "--max-m", "3", "--cap", "2"],
        [
            "  M   k        count       oracle", "  1   1            1            1", "  2   2            2            2",
            "  3   1            3             ", "  3   3            3             ",
        ],
    ),
    "verify": (
        ["verify", "--scope", "factorials", "--max-m", "3"],
        [
            "[PASS] difference_of_rising  n <= 3", "[PASS] reflection  n <= 3",
            "[PASS] connection_coefficients  m <= n <= 8", "[PASS] squared_rising_partial_sums  m <= 8, evaluations n <= 12",
            "[PASS] rising_values_as_gamma_sums  n, k <= 3", "5 passed, 0 failed",
        ],
    ),
    "sample": (
        ["sample", "one-cycle:3", "--draws", "100", "--seed", "0"],
        [
            "tau: one-cycle:3   M = 3   draws = 100  seed = 0", "  C = 1: 44  (0.4400)  expected 0.5000",
            "  C = 3: 56  (0.5600)  expected 0.5000", "chi-square: 1.440 on 1 df, p = 0.2301",
        ],
    ),
    "sample_no_reference": (
        ["sample", "type:[3,3,3,3,3,3,3,3,3,3,3]", "--draws", "2", "--seed", "0"],
        ["tau: type:[3,3,3,3,3,3,3,3,3,3,3]   M = 33   draws = 2  seed = 0", "  C = 5: 2  (1.0000)", sampling.NO_REFERENCE],
    ),
}


@pytest.mark.parametrize("command", HUMAN_LINES)
def test_human_lines(capsys, command):
    argv, lines = HUMAN_LINES[command]
    assert run_cli(capsys, *argv, "--format", "human") == (0, "".join(f"{line}\n" for line in lines), "")


def test_human_root_found_bernoulli(capsys):
    # a root-found p prints as a float of 12 significant digits, not as "n/d"
    code, out, _ = run_cli(capsys, "bernoulli", "one-cycle:4", "--format", "human")
    head, residual = out.splitlines()[:3], out.splitlines()[3]
    assert code == 0 and head == ["tau: one-cycle:4   (root-found parameters)", "offset: 2", "  + 2 * Bernoulli(0.166666666667)"]
    assert re.fullmatch(r"reconstruction residual: \S+", residual) and float(residual.split()[-1]) < 1e-12


class TestDistCommand:
    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "type:[2,2]", "--format", "csv")
        assert code == 0
        assert out == "M,cycle_count,probability_num,probability_den\n4,2,2,3\n4,4,1,3\n"

    def test_csv_explicit_tau(self, capsys):
        code, out, err = run_cli(capsys, "dist", "(1 2)(3 4)", "--format", "csv")
        assert (code, err) == (0, "")
        assert out == "M,cycle_count,probability_num,probability_den\n4,2,2,3\n4,4,1,3\n"

    def test_uniform_refused(self, capsys):
        code, out, err = run_cli(capsys, "dist", "uniform:3")
        assert (code, out, err) == (2, "", "error: 'uniform' selects a law, not a permutation\n")

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "(1 2 3)")
        data = json.loads(out)
        assert data["probs"] == {"1": "1/2", "3": "1/2"}


class TestBernoulliCommand:
    def test_transpositions_parameters(self, capsys):
        code, out, _ = run_cli(capsys, "bernoulli", "transpositions:3")
        assert code == 0
        data = json.loads(out)
        assert [t["p"] for t in data["decomposition"]["terms"]] == ["1/1", "1/3", "1/5"]
        assert all(t["multiplier"] == 2 for t in data["decomposition"]["terms"])
        assert data["provenance"] == "exact"

    def test_one_cycle_root_found(self, capsys):
        code, out, _ = run_cli(capsys, "bernoulli", "one-cycle:3")
        data = json.loads(out)
        assert data["decomposition"]["offset"] == 1
        assert len(data["decomposition"]["terms"]) == 1
        assert data["decomposition"]["terms"][0]["p"] == pytest.approx(0.5, abs=1e-12)
        assert data["provenance"] == "root-found"
        assert data["reconstruction_residual"] < 1e-10

    def test_one_cycle_ten(self, capsys):
        code, out, _ = run_cli(capsys, "bernoulli", "one-cycle:10")
        data = json.loads(out)
        assert data["decomposition"]["offset"] == 2
        assert len(data["decomposition"]["terms"]) == 4
        assert data["reconstruction_residual"] < 1e-10

    @pytest.mark.parametrize("m", range(1, 6))
    def test_identity_is_the_empty_sum(self, capsys, m):
        # t^M: offset M and no terms, whether [1] routes to one cycle or [1^M] to the identity
        tau = "type:" + json.dumps([1] * m)
        code, out, _ = run_cli(capsys, "bernoulli", tau)
        assert code == 0
        data = json.loads(out)
        assert (data["tau"], data["provenance"], data["reconstruction_residual"]) == (tau, "exact", 0.0)
        assert data["decomposition"] == {"offset": m, "terms": []}

    def test_uniform_allowed(self, capsys):
        code, out, _ = run_cli(capsys, "bernoulli", "uniform:3")
        data = json.loads(out)
        assert [t["p"] for t in data["decomposition"]["terms"]] == ["1/1", "1/2", "1/3"]

    def test_unsupported_family(self, capsys):
        code, _, err = run_cli(capsys, "bernoulli", "two-cycles:3")
        assert code == 2
        assert "Bernoulli" in err

    @pytest.mark.parametrize("k", range(2, 7))
    def test_type_of_transpositions(self, capsys, k):
        # [2,2] is two transpositions before it is two equal cycles
        code, out, err = run_cli(capsys, "bernoulli", "type:" + json.dumps([2] * k))
        assert (code, err) == (0, "")
        terms = json.loads(out)["decomposition"]["terms"]
        assert [t["p"] for t in terms] == [f"1/{2 * j - 1}" for j in range(1, k + 1)]
        assert all(t["multiplier"] == 2 for t in terms)

    def test_type_matches_named_family(self, capsys):
        _, by_type, _ = run_cli(capsys, "bernoulli", "type:[12]")
        _, by_name, _ = run_cli(capsys, "bernoulli", "one-cycle:12")
        assert json.loads(by_type)["decomposition"] == json.loads(by_name)["decomposition"]
        code, _, err = run_cli(capsys, "bernoulli", "type:[3,2]")
        assert code == 2
        assert "Bernoulli" in err

    def test_refused_before_the_law_is_built(self, capsys, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("the law was built")

        monkeypatch.setattr(genfun, "two_cycles_pgf", built)
        monkeypatch.setattr(genfun, "character_law", built)
        for tau in ("two-cycles:200", "type:[3,3,2]"):
            code, _, err = run_cli(capsys, "bernoulli", tau)
            assert code == 2
            assert err == "error: no Bernoulli decomposition for source " + (
                "'two_cycles'" if tau.startswith("two") else "'characters'"
            ) + " (only uniform, transpositions, one_cycle, identity)\n"

    def test_one_cycle_law_built_once(self, capsys, monkeypatch):
        real = genfun.one_cycle_pgf
        built = []

        def counted(m):
            built.append(m)
            return real(m)

        monkeypatch.setattr(genfun, "one_cycle_pgf", counted)
        for tau in ("one-cycle:12", "type:[13]"):
            code, _, err = run_cli(capsys, "bernoulli", tau)
            assert (code, err) == (0, "")
        assert built == [12, 13]

    def test_root_find_failure_exit_code(self, capsys, monkeypatch):
        # a float root moved off its certificate exits 2 with one line
        solve = genfun._phase_roots

        def shifted(m):
            y = solve(m)
            y[4] *= 1 + 1e-6
            return y

        monkeypatch.setattr(genfun, "_phase_roots", shifted)
        code, out, err = run_cli(capsys, "bernoulli", "one-cycle:30")
        assert code == 2
        assert out == ""
        assert err.startswith("error: one-cycle root j=5 at m=30 not certified") and err.count("\n") == 1


class TestHultmanCommand:
    def test_csv_default(self, capsys):
        code, out, _ = run_cli(capsys, "hultman", "--max-m", "3")
        assert code == 0
        assert out.splitlines()[0] == "M,k,count,oracle_count"
        assert "3,1,3,3" in out

    def test_csv_empty_oracle_field(self, capsys):
        # above the cap the oracle column is an empty field
        code, out, err = run_cli(capsys, "hultman", "--max-m", "3", "--cap", "2", "--format", "csv")
        assert (code, err) == (0, "")
        assert out == "M,k,count,oracle_count\n1,1,1,1\n2,2,2,2\n3,1,3,\n3,3,3,\n"

    def test_row_sums(self, capsys):
        code, out, _ = run_cli(capsys, "hultman", "--max-m", "5", "--format", "json")
        rows = json.loads(out)["rows"]
        for m in range(1, 6):
            assert sum(r["count"] for r in rows if r["M"] == m) == math.factorial(m)

    def test_max_m_at_limit(self, capsys):
        code, out, _ = run_cli(capsys, "hultman", "--max-m", str(cli.HULTMAN_MAX_M))
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        top = [r for r in rows if int(r[0]) == cli.HULTMAN_MAX_M]
        assert sum(int(r[2]) for r in top) == math.factorial(cli.HULTMAN_MAX_M)
        assert all(r[3] == "" for r in top)  # above the oracle cap

    def test_each_row_extends_the_last(self, capsys, monkeypatch, cold_rows):
        # from a cold table, row M + 1 of the Stirling numbers is one step past row M
        real = polys._times_x_plus
        calls = []
        monkeypatch.setattr(polys, "_times_x_plus", lambda row, i: calls.append(i) or real(row, i))
        code, _, _ = run_cli(capsys, "hultman", "--max-m", "100", "--cap", "1")
        assert code == 0
        assert calls == list(range(101))

    @pytest.mark.parametrize("cap", [genfun.DEFAULT_ENUMERATION_CAP, 5])
    def test_default_max_m_is_the_default_cap(self, capsys, monkeypatch, cap):
        # without --max-m the table ends at the default cap, so every row has an oracle count
        monkeypatch.delenv("COMMCYCLES_MAX_M", raising=False)
        monkeypatch.delenv("COMMCYCLES_CAP", raising=False)
        monkeypatch.setattr(genfun, "DEFAULT_ENUMERATION_CAP", cap)
        code, out, err = run_cli(capsys, "hultman", "--format", "json")
        assert (code, err) == (0, "")
        rows = json.loads(out)["rows"]
        assert max(r["M"] for r in rows) == cap
        assert all(type(r["oracle_count"]) is int for r in rows)

    def test_max_m_capped(self, capsys):
        code, _, err = run_cli(capsys, "hultman", "--max-m", str(cli.HULTMAN_MAX_M + 1))
        assert code == 2

    @pytest.mark.parametrize("command", [["hultman"]] + [["verify", "--scope", scope] for scope in verify.SCOPES])
    @pytest.mark.parametrize("max_m", ["0", "-1"])
    def test_max_m_below_one_refused(self, capsys, monkeypatch, command, max_m):
        for name in ("run_factorial_checks", "run_genfun_oracle_checks", "run_bernoulli_checks", "run_rmt_checks"):
            monkeypatch.setattr(verify, name, lambda *a, **k: pytest.fail("checks ran"))
        code, out, err = run_cli(capsys, *command, "--max-m", max_m)
        assert (code, out) == (2, "")
        assert err == f"error: --max-m must be at least 1, got {max_m}\n"

    def cap_refused(self, capsys, monkeypatch, command, cap) -> str:
        """stderr of a command refused for its --cap before any check, enumeration or law runs."""
        for name in ("run_factorial_checks", "run_genfun_oracle_checks", "run_bernoulli_checks", "run_rmt_checks"):
            monkeypatch.setattr(verify, name, lambda *a, **k: pytest.fail("checks ran"))
        monkeypatch.setattr(oracle, "_permutation_blocks", lambda *a, **k: pytest.fail("enumerated"))
        monkeypatch.setattr(genfun, "commutator_route", lambda *a, **k: pytest.fail("built a law"))
        code, out, err = run_cli(capsys, *command, "--cap", cap)
        assert (code, out) == (2, "")
        return err

    @pytest.mark.parametrize("command", CAP_COMMANDS)
    @pytest.mark.parametrize("cap", ["0", "-4"])
    def test_cap_below_one_refused(self, capsys, monkeypatch, command, cap):
        assert self.cap_refused(capsys, monkeypatch, command, cap) == f"error: --cap must be at least 1, got {cap}\n"

    @pytest.mark.parametrize("command", CAP_COMMANDS)
    def test_cap_above_the_hard_cap_refused(self, capsys, monkeypatch, command):
        assert self.cap_refused(capsys, monkeypatch, command, "11") == "error: cap 11 exceeds hard enumeration cap 10\n"

    def test_closed_pipe_exits_quietly(self):
        # The full table is about 180 kB, more than a pipe buffers, so the
        # writer meets the closed pipe while it is still printing.
        proc = subprocess.Popen(
            [sys.executable, "-c", "import sys; from commcycles import cli; sys.exit(cli.main(sys.argv[1:]))",
             "hultman", "--max-m", str(cli.HULTMAN_MAX_M)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=python_env(),
        )
        assert proc.stdout.read(300).startswith(b"M,k,count,oracle_count")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
        assert err == b""


class TestSampleCommand:
    def test_reference_and_chi_square(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "one-cycle:3", "--draws", "4000", "--seed", "42")
        assert code == 0
        data = json.loads(out)
        assert data["reference"]["probs"] == {"1": "1/2", "3": "1/2"}
        assert data["chi_square"]["p_value"] > 1e-6
        assert sum(data["histogram"].values()) == 4000

    def test_histograms_are_pinned(self, capsys):
        # histograms of the validated perm.commutator route, draw for draw
        _, out, _ = run_cli(capsys, "sample", "one-cycle:7", "--draws", "2000", "--seed", "3")
        assert json.loads(out)["histogram"] == {"1": 480, "3": 1337, "5": 181, "7": 2}
        _, out, _ = run_cli(capsys, "sample", "type:[3,2,2]", "--draws", "2000", "--seed", "5")
        assert json.loads(out)["histogram"] == {"1": 399, "3": 1342, "5": 250, "7": 9}

    def test_point_mass_tau(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "transpositions:1", "--draws", "50")
        data = json.loads(out)
        assert data["histogram"] == {"2": 50}

    def test_solved_type_reference(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "type:[3,3]", "--draws", "2000")
        assert code == 0
        data = json.loads(out)
        assert data["reference"]["provenance"] == "closed-form: two-cycles"
        assert data["chi_square"]["p_value"] > 1e-6

    def test_chi2_sf_matches_scipy(self):
        chi2 = pytest.importorskip("scipy.stats").chi2
        xs = [0.001 * 1.5**i for i in range(31)] + [0.5 * i for i in range(1, 400)]
        for df in range(1, 41):
            for x in xs:
                expected = float(chi2.sf(x, df))
                assert sampling._chi2_sf(x, df) == pytest.approx(expected, rel=1e-12, abs=0), (x, df)
        assert sampling._chi2_sf(0.0, 3) == 1.0

    def test_sample_does_not_import_scipy(self):
        code = (
            "import sys; from commcycles import cli; "
            "code = cli.main(['sample', 'one-cycle:5', '--draws', '500']); "
            "sys.exit(code or 'scipy' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=python_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "chi_square" in json.loads(proc.stdout)

    @pytest.mark.parametrize("draws", ["0", "-5"])
    def test_draws_below_one_exit_2(self, capsys, monkeypatch, draws):
        monkeypatch.setattr(oracle, "_commutator_counts", lambda *a: pytest.fail("drew"))
        code, out, err = run_cli(capsys, "sample", "one-cycle:4", "--draws", draws)
        assert (code, out, err) == (2, "", "error: draws must be at least 1\n")

    def test_uniform_refused_before_drawing(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "_commutator_counts", lambda *a: pytest.fail("drew"))
        code, out, err = run_cli(capsys, "sample", "uniform:3", "--draws", "5")
        assert (code, out, err) == (2, "", "error: 'uniform' selects a law, not a permutation\n")

    @pytest.mark.parametrize("seed", [0, 3, 12345])
    @pytest.mark.parametrize(
        "spec", ["one-cycle:7", "type:[3,2,2]", "(1 4)(2 5 3)", "one-cycle:1", "type:[40]", "one-cycle:2", "type:[5,4]"]
    )
    def test_block_sampler_matches_per_draw_loop(self, capsys, monkeypatch, spec, seed):
        # same draws in the same order as sample_uniform + commutator_cycle_count,
        # across block edges (1024 rows), and no draw added or dropped
        tau = cli._tau_permutation(*cli.parse_tau_spec(spec))
        made, real = [], random.Random

        class Recording(real):
            def __init__(self, x):
                super().__init__(x)
                made.append(self)

        monkeypatch.setattr(sampling.random, "Random", Recording)
        for draws in (1, 1023, 1024, 1025, 20000) if seed == 0 else (1, 1023, 1024, 1025):
            made.clear()
            _, out, _ = run_cli(capsys, "sample", spec, "--draws", str(draws), "--seed", str(seed))
            rng = real(seed)
            expected = Counter(commutator_cycle_count(sample_uniform(tau.size, rng).map, tau.map) for _ in range(draws))
            assert json.loads(out)["histogram"] == {str(k): v for k, v in sorted(expected.items())}
            assert len(made) == 1 and made[0].getstate() == rng.getstate()

    @pytest.mark.parametrize("seed", [0, 3, 12345])
    @pytest.mark.parametrize("m", range(1, 13))
    def test_shuffle_rows_equals_successive_shuffles(self, m, seed):
        # bounds n = 2, 4, 8 draw one bit more than they need and reject half of the words;
        # n = 9 rejects 7/16 of them
        for count in (1, 1023, 1024, 1025):
            rng, reference = random.Random(seed), random.Random(seed)
            rows = np.full((count, m), -1, dtype=np.int64)
            sampling._shuffle_rows(rows, rng)
            expected = []
            for _ in range(count):
                sigma = list(range(m))
                reference.shuffle(sigma)
                expected.append(sigma)
            assert rows.tolist() == expected
            assert rng.getstate() == reference.getstate()

    def test_draws_counted_in_bounded_blocks(self, capsys, monkeypatch):
        sizes, real = [], oracle._commutator_counts
        monkeypatch.setattr(oracle, "_commutator_counts", lambda rows, tau: sizes.append(len(rows)) or real(rows, tau))
        code, out, _ = run_cli(capsys, "sample", "one-cycle:5", "--draws", "2049")
        assert code == 0 and sum(json.loads(out)["histogram"].values()) == 2049
        assert sizes == [sampling.SAMPLE_BLOCK, sampling.SAMPLE_BLOCK, 1] and sampling.SAMPLE_BLOCK == 1024

    def test_no_reference_above_cap(self, capsys):
        # M = 31: no closed form and above the character-sum limit
        code, out, _ = run_cli(capsys, "sample", "type:[16,13,2]", "--draws", "100")
        assert code == 0
        data = json.loads(out)
        assert data["reference"] is None
        assert data["note"] == f"no exact reference above the character-sum limit M = {genfun.CHARACTER_MAX_M}"


class TestVerifyCommand:
    def test_factorials_scope_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--scope", "factorials")
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True and data["failed"] == 0

    def test_unknown_scope_exits_2_before_any_check(self, capsys, monkeypatch):
        for suite in ("run_factorial_checks", "run_genfun_oracle_checks", "run_bernoulli_checks", "run_rmt_checks"):
            monkeypatch.setattr(verify, suite, lambda *args, suite=suite, **kwargs: pytest.fail(f"{suite} ran"))
        code, out, err = run_cli(capsys, "verify", "--scope", "nope")
        assert (code, out) == (2, "")
        assert err == "error: unknown scope 'nope'; choose from factorials, genfun_vs_oracle, bernoulli, rmt, all\n"

    def test_bernoulli_scope_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--scope", "bernoulli", "--max-m", "12")
        assert code == 0

    def test_genfun_scope_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--scope", "genfun_vs_oracle", "--max-m", "5")
        assert code == 0

    def test_hultman_check_enumerates_once_per_m(self, monkeypatch):
        real = oracle.exact_commutator_distribution
        calls = []

        def counted(tau, cap=None):
            calls.append(tau)
            return real(tau, cap=cap)

        monkeypatch.setattr(oracle, "exact_commutator_distribution", counted)
        checks = verify.run_genfun_oracle_checks(max_m=7, cap=None)
        assert all(c.ok for c in checks)
        # one_cycle_vs_oracle, the Hultman check and (for M <= 3) the
        # class-product check share one enumeration of each one-cycle.
        assert [calls.count(from_cycle_type(CycleType([m]))) for m in range(1, 8)] == [1] * 7

    def test_hultman_check_builds_one_row_per_m(self, monkeypatch):
        real = oracle.one_cycle_pgf
        built = []
        monkeypatch.setattr(oracle, "one_cycle_pgf", lambda m: built.append(m) or real(m))
        checks = {c.name: c for c in verify.run_genfun_oracle_checks(max_m=8, cap=None)}
        assert checks["hultman_formula_vs_enumeration"] == verify.CheckResult("hultman_formula_vs_enumeration", True, "M <= 8")
        assert built == list(range(1, 9))

    def test_one_enumeration_per_cycle_type(self, monkeypatch):
        real = oracle.exact_commutator_distribution
        calls = []

        def counted(tau, cap=None):
            calls.append(tau.cycle_type().parts)
            return real(tau, cap=cap)

        monkeypatch.setattr(oracle, "exact_commutator_distribution", counted)
        assert all(c.ok for c in verify.run_genfun_oracle_checks(max_m=8, cap=None))
        # [1]..[8], [m, m] for m <= 4, [2]^3, [2]^4, and [2, 1], [3, 2], [4, 2]
        assert len(calls) == len(set(calls)) == 17
        assert set(calls) == {
            *((m,) for m in range(1, 9)),
            *((m, m) for m in range(1, 5)),
            (2, 2, 2), (2, 2, 2, 2), (2, 1), (3, 2), (4, 2),
        }

    def test_uniform_laws_enumerate_once_per_m(self, monkeypatch):
        laws = oracle.exact_uniform_cycle_laws
        uniform = []

        def record(m, cap=None):
            uniform.append(m)
            return laws(m, cap)

        monkeypatch.setattr(oracle, "exact_uniform_cycle_laws", record)
        checks = verify.run_genfun_oracle_checks(max_m=8, cap=None)
        assert uniform == list(range(1, 9))
        # names, verdicts and details as recorded by the benchmark's digests
        assert [(c.name, c.ok, c.detail) for c in checks[:7]] == [
            ("one_cycle_vs_oracle", True, "M <= 8"),
            ("two_cycles_vs_oracle", True, "ground sets <= 8"),
            ("transpositions_vs_oracle", True, "ground sets <= 8"),
            ("subset_laws_vs_oracle", True, "M <= 8"),
            ("one_cycle_equals_odd_law", True, "M <= 9"),
            ("class_product_reformulation", True, "types with M <= 8"),
            ("hultman_formula_vs_enumeration", True, "M <= 8"),
        ]

    def test_swapped_parity_laws_fail_the_subset_check(self, monkeypatch):
        real = oracle.exact_uniform_cycle_laws

        def swapped(m, cap=None):
            laws = real(m, cap)
            if m == 4:
                laws["alternating"], laws["co_alternating"] = laws["co_alternating"], laws["alternating"]
            return laws

        monkeypatch.setattr(oracle, "exact_uniform_cycle_laws", swapped)
        checks = {c.name: c.ok for c in verify.run_genfun_oracle_checks(max_m=5, cap=None)}
        assert checks["subset_laws_vs_oracle"] is False
        assert checks["one_cycle_vs_oracle"] is True

    def test_rmt_checks_draw_each_trace_power_once(self, monkeypatch):
        real = rmt.mc_trace_power_moment
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(rmt, "mc_trace_power_moment", counted)
        checks = verify.run_rmt_checks(samples=2000, seed=42, partitions=1)
        # one run per trace-power check; the Kostlan checks compare exact targets and draw nothing
        assert len(calls) == 7 and len(set(calls)) == 7
        assert [c.name for c in checks] == [
            "trace_power[N=1,m=1,K=1]", "trace_power[N=2,m=2,K=1]", "trace_power[N=3,m=2,K=1]",
            "trace_power[N=2,m=4,K=1]", "trace_power[N=2,m=2,K=2]", "trace_power[N=3,m=2,K=2]",
            "trace_power[N=2,m=2,K=3]",
            "gamma_shortcut[N=1,M=1,K=1]", "shortcut_target_exact[N=1,M=1]",
            "gamma_shortcut[N=2,M=2,K=1]", "shortcut_target_exact[N=2,M=2]",
            "gamma_shortcut[N=2,M=3,K=1]", "shortcut_target_exact[N=2,M=3]",
            "gamma_shortcut[N=3,M=4,K=1]", "shortcut_target_exact[N=3,M=4]",
            "gamma_shortcut[N=2,M=5,K=1]", "shortcut_target_exact[N=2,M=5]",
            "real_trace[N=1,M=1]", "real_trace[N=2,M=1]", "real_trace[N=2,M=3]",
            "real_trace[N=3,M=2]", "real_trace[N=4,M=3]",
            "tr_g_squared[N=1,M=1]",
            "mixed_trace_zero[N=2,M1=1,M2=2]", "mixed_trace_zero[N=1,M1=1,M2=3]",
            "mixed_trace_zero[N=3,M1=2,M2=4]",
            "tr_g1_g2[N=1,M=1]", "tr_g1_g2[N=2,M=1]", "tr_g1_g2[N=2,M=2]", "tr_g1_g2[N=3,M=2]",
        ]

    def test_genfun_scope_enforces_cap(self, capsys):
        with pytest.raises(genfun.EnumerationCapError):
            verify.run_genfun_oracle_checks(max_m=5, cap=4)
        code, _, err = run_cli(capsys, "verify", "--scope", "genfun_vs_oracle", "--max-m", "9")
        assert code == 2 and "enumeration cap 8" in err

    @staticmethod
    def moved(law):
        """The law with 1/1000 of the mass at C = 1 moved to C = 3."""
        coeffs = list(law.poly.coeffs)
        coeffs[1] += Fraction(1, 1000)
        coeffs[3] -= Fraction(1, 1000)
        return genfun.CyclePGF(RationalPoly(coeffs), law.M, law.source)

    def test_odd_law_check_reads_the_character_sum(self, monkeypatch):
        # a character sum that moves 1/1000 of the one-cycle mass at M = 5 fails
        # the odd-law check, and only it: the closed forms and the oracle are untouched
        real, moved = genfun.character_law, CycleType([5])
        monkeypatch.setattr(genfun, "character_law", lambda ct: self.moved(real(ct)) if ct == moved else real(ct))
        checks = {c.name: c for c in verify.run_genfun_oracle_checks(max_m=3, cap=None)}
        assert checks["one_cycle_equals_odd_law"] == verify.CheckResult("one_cycle_equals_odd_law", False, "M <= 9")
        assert [name for name, c in checks.items() if not c.ok] == ["one_cycle_equals_odd_law"]

    def test_class_product_check_reads_the_character_sum(self, monkeypatch):
        real, moved = genfun.character_law, CycleType([3, 2])
        monkeypatch.setattr(genfun, "character_law", lambda ct: self.moved(real(ct)) if ct == moved else real(ct))
        checks = {c.name: c for c in verify.run_genfun_oracle_checks(max_m=5, cap=None)}
        failed = verify.CheckResult("class_product_reformulation", False, "types with M <= 5")
        assert checks["class_product_reformulation"] == failed
        assert [name for name, c in checks.items() if not c.ok] == ["class_product_reformulation"]

    def test_class_product_check_reads_the_oracle(self, monkeypatch):
        real = oracle.exact_commutator_distribution

        def perturbed(tau, cap=None):
            law = real(tau, cap=cap)
            return self.moved(law) if tau.cycle_type() == CycleType([3, 2]) else law

        monkeypatch.setattr(oracle, "exact_commutator_distribution", perturbed)
        checks = {c.name: c for c in verify.run_genfun_oracle_checks(max_m=5, cap=None)}
        assert [name for name, c in checks.items() if not c.ok] == ["class_product_reformulation"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--scope", "all", "--threads", "0"], "partitions must be at least 1, got 0"),
            (["--scope", "rmt", "--samples", "1"], "samples must be at least 2 for a standard error, got 1"),
            (["--scope", "all", "--threads", "2000"], "partitions must be at most 1024, got 2000"),
            (
                ["--scope", "genfun_vs_oracle", "--max-m", "11", "--cap", "10"],
                "ground set of size 11 exceeds the enumeration cap 10; `commcycles pgf` gives the law of any "
                "cycle type up to M = 30, and `commcycles sample` draws a Monte-Carlo histogram above that",
            ),
            (
                ["--scope", "all", "--max-m", "9"],
                "ground set of size 9 exceeds the enumeration cap 8; raise the cap (hard cap 10); `commcycles pgf` "
                "gives the law of any cycle type up to M = 30, and `commcycles sample` draws a Monte-Carlo "
                "histogram above that",
            ),
        ],
        ids=["threads_0", "samples_1", "threads_2000", "max_m_above_cap", "max_m_above_default_cap"],
    )
    def test_bad_plan_or_size_exits_2_before_any_suite(self, capsys, monkeypatch, argv, message):
        for suite in ("run_factorial_checks", "run_genfun_oracle_checks", "run_bernoulli_checks", "run_rmt_checks"):
            monkeypatch.setattr(verify, suite, lambda *args, suite=suite, **kwargs: pytest.fail(f"{suite} ran"))
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_mutated_closed_form_detected(self, capsys, monkeypatch):
        # seeded mutation of a single closed-form coefficient must flip the
        # suite to failure
        real = genfun.one_cycle_pgf

        def corrupted(m):
            pgf = real(m)
            if m == 4:
                coeffs = list(pgf.poly.coeffs)
                coeffs[2] += Fraction(1, 1000)
                coeffs[4] -= Fraction(1, 1000)
                return genfun.CyclePGF(RationalPoly(coeffs), pgf.M, pgf.source)
            return pgf

        monkeypatch.setattr(genfun, "one_cycle_pgf", corrupted)
        code, out, _ = run_cli(capsys, "verify", "--scope", "genfun_vs_oracle", "--max-m", "5")
        assert code == 1
        data = json.loads(out)
        failing = {c["name"] for c in data["checks"] if not c["ok"]}
        assert "one_cycle_vs_oracle" in failing


class TestMcCommand:
    def test_gamma_identity(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc", "gamma", "--n", "2", "--m", "3", "--samples", "20000"
        )
        assert code == 0
        data = json.loads(out)
        assert data["target"] == "30/1"
        assert abs(data["z"]) <= 5

    @pytest.mark.parametrize("identity", ["gamma", "trace-power"])
    def test_three_factor_target(self, capsys, identity):
        # the gamma sum at K = 3, and the enumerated law of type [3,3,3]
        argv = ["mc", identity, "--n", "2", "--m", "3", "--k", "3", "--samples", "20000"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        data = json.loads(out)
        assert data["target"] == "4419360/1"
        assert abs(data["z"]) <= 5
        code, out, _ = run_cli(capsys, *argv, "--format", "human")
        assert code == 0 and "target: 4419360/1 = " in out

    def test_no_exact_law_exits_2_before_drawing(self, capsys, monkeypatch):
        def collect(*args, **kwargs):
            raise AssertionError("drew samples for a moment with no exact target")

        monkeypatch.setattr(rmt, "_collect", collect)
        code, out, err = run_cli(capsys, "mc", "trace-power", "--n", "2", "--m", "3", "--k", "11")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ground set of size 33 exceeds the character-sum limit 30") and err.count("\n") == 1

    @pytest.mark.parametrize("z", [float("inf"), float("-inf"), float("nan"), 5.01])
    def test_z_outside_the_gate_exits_1(self, capsys, monkeypatch, z):
        def estimate(n_dim, m, factors=1, samples=2, seed=42, partitions=1):
            params = {"N": n_dim, "M": m, "K": factors}
            return rmt.MomentReport("gamma_shortcut", params, 31.0, 0.0, Fraction(30), z, samples, seed, partitions, {})

        monkeypatch.setattr(rmt, "mc_gamma_shortcut_moment", estimate)
        for fmt in ("json", "human"):
            code, _, _ = run_cli(capsys, "mc", "gamma", "--n", "2", "--m", "3", "--format", fmt)
            assert code == 1

    def test_mixed_requires_orders(self, capsys, monkeypatch):
        # --n, --m1 and --m2 have no default
        stub_mc_work(monkeypatch)
        for argv, missing in (
            (["mixed", "--n", "2"], "--m1"),
            (["mixed", "--n", "2", "--m1", "1"], "--m2"),
            (["gamma", "--m", "3"], "--n"),
        ):
            code, out, err = run_cli(capsys, "mc", *argv)
            assert (code, out) == (2, "")
            assert err == f"error: mc {argv[0]} requires {missing}\n"

    @pytest.mark.parametrize(
        "argv, estimator, args",
        [
            (["trace-power", "--n", "2"], "mc_trace_power_moment", (2, 1, 1)),
            (["trace-power", "--k", "4", "--n", "2", "--m", "3"], "mc_trace_power_moment", (2, 3, 4)),
            (["gamma", "--n", "3"], "mc_gamma_shortcut_moment", (3, 1, 1)),
            (["gamma", "--n", "3", "--m", "5", "--k", "2"], "mc_gamma_shortcut_moment", (3, 5, 2)),
            (["real-trace", "--n", "4"], "mc_real_trace_law", (4, 1)),
            (["tr-g2", "--n", "2", "--m", "3"], "mc_tr_g_squared_law", (2, 3)),
            (["tr-g1g2", "--m", "2", "--n", "3"], "mc_tr_g1g2_law", (3, 2)),
            (["mixed", "--m2", "4", "--n", "2", "--m1", "1"], "mixed_trace_vanishing", (2, 1, 4)),
        ],
    )
    def test_read_options_reach_the_estimator(self, capsys, monkeypatch, argv, estimator, args):
        # the estimator is looked up on rmt per call, so a patched one runs
        calls = []

        def record(*given, samples, seed, partitions):
            calls.append((given, samples, seed, partitions))
            return rmt.MomentReport("probe", {"N": given[0]}, 1.0, 0.5, Fraction(1), 0.0, samples, seed, partitions, {})

        monkeypatch.setattr(rmt, estimator, record)
        code, _, _ = run_cli(capsys, "--seed", "5", "mc", *argv, "--samples", "30", "--threads", "2")
        assert code == 0
        assert calls == [(args, 30, 5, 2)]

    @pytest.mark.parametrize("identity, option", MC_UNREAD)
    def test_unread_identity_option_exits_2(self, capsys, monkeypatch, identity, option):
        stub_mc_work(monkeypatch)
        argv = ["mc", identity, *MC_ARGV[identity]]
        flag = [f"--{option}", "3"]
        globals_ = ["--samples", "10", "--seed", "1"]
        for order in ([*argv, *flag, *globals_], [*argv, *globals_, *flag], [*globals_, *argv, *flag]):
            code, out, err = run_cli(capsys, *order)
            assert (code, out) == (2, "")
            assert err == f"error: mc {identity} does not take --{option}\n"

    def test_fifteen_unread_identity_options(self):
        assert len(MC_UNREAD) == 15
        assert {identity: cli._MC[identity][1] for identity in cli._MC} == MC_READS

    @pytest.mark.parametrize(
        "argv, identity",
        [
            (["real-trace", "--n", "4", "--m", "200"], "real_trace"),
            (["trace-power", "--n", "4", "--m", "1", "--k", "200"], "trace_power"),
            (["gamma", "--n", "5", "--m", "200", "--k", "40"], "gamma_shortcut"),
            (["tr-g2", "--n", "4", "--m", "200"], "tr_g_squared"),
            (["tr-g1g2", "--n", "4", "--m", "300"], "tr_g1_g2"),
        ],
    )
    def test_target_beyond_double_range_exits_2_before_drawing(self, capsys, monkeypatch, argv, identity):
        def collect(*args, **kwargs):
            raise AssertionError("drew samples for a target beyond the double range")

        monkeypatch.setattr(rmt, "_collect", collect)
        code, out, err = run_cli(capsys, "mc", *argv, "--samples", "2000000")
        assert (code, out) == (2, "")
        assert re.fullmatch(f"error: the exact {identity} target, about 2\\^\\d+, does not fit a double\n", err)

    @pytest.mark.parametrize("n, m, k, bits", [("4", "300", "60", 228522), ("5", "200", "40", 92239)])
    def test_oversize_gamma_target_refused_without_the_sum(self, capsys, monkeypatch, n, m, k, bits):
        # one term of the sum, (N)_(mK), is already beyond a double; the bits are those of the exact sum
        stub_mc_work(monkeypatch)
        code, out, err = run_cli(capsys, "mc", "gamma", "--n", n, "--m", m, "--k", k, "--samples", "2000")
        assert (code, out) == (2, "")
        assert err == f"error: the exact gamma_shortcut target, about 2^{bits}, does not fit a double\n"
        code, _, err = run_cli(capsys, "mc", "gamma", "--n", n, "--m", m, "--k", k, "--threads", "0")
        assert (code, err) == (2, "error: partitions must be at least 1, got 0\n")  # a bad plan is refused first

    def test_target_whose_square_overflows_exits_2_before_drawing(self, capsys, monkeypatch):
        def collect(*args, **kwargs):
            raise AssertionError("drew samples for a target whose square is beyond the double range")

        monkeypatch.setattr(rmt, "_collect", collect)
        code, out, err = run_cli(capsys, "mc", "real-trace", "--n", "4", "--m", "120", "--samples", "20000")
        assert (code, out) == (2, "")
        assert re.fullmatch("error: the square of the exact real_trace target, about 2\\^\\d+, does not fit a double\n", err)

    def test_mixed_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc", "mixed", "--n", "2", "--m1", "1", "--m2", "2", "--samples", "20000"
        )
        assert code == 0

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gamma", "--n", "2", "--m", "3", "--threads", "0"], "partitions must be at least 1"),
            (["real-trace", "--n", "2", "--m", "1", "--samples", "1"], "samples must be at least 2"),
            (["trace-power", "--n", "2", "--m", "2", "--samples", "0"], "samples must be at least 2"),
            (["tr-g2", "--n", "0", "--m", "1"], "N must be at least 1"),
            (["tr-g2", "--n", "2", "--m", "0"], "M must be at least 1"),
            (["mixed", "--n", "2", "--m1", "0", "--m2", "2"], "M must be at least 1"),
        ],
    )
    def test_bad_inputs_exit_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "mc", *argv)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("env", [False, True])
    def test_too_many_threads_exit_2_before_drawing(self, capsys, monkeypatch, env):
        # refused, not clamped: the partition count fixes the substreams
        argv = ["gamma", "--n", "2", "--m", "3", "--samples", "200000"]
        if env:
            monkeypatch.setenv("COMMCYCLES_THREADS", "100000")
        else:
            argv += ["--threads", "100000"]
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "mc", *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err == "error: partitions must be at most 1024, got 100000\n"
        argv = ["real-trace", "--n", "2", "--m", "1", "--samples", "2000", "--threads", "1024"]
        code, _, _ = run_cli(capsys, "mc", *argv)
        assert code == 0

    def test_draw_error_off_the_calling_thread_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        caller, ginibre = threading.get_ident(), rmt._ginibre

        def failing(rng, n, out, reduce):
            if threading.get_ident() != caller:
                raise ValueError("draw failed in partition 1")
            ginibre(rng, n, out, reduce)

        monkeypatch.setattr(rmt, "_ginibre", failing)
        argv = ["trace-power", "--n", "2", "--m", "2", "--samples", "2000", "--threads", "2"]
        code, out, err = run_cli(capsys, "mc", *argv)
        assert code == 2
        assert out == ""
        assert err == "error: draw failed in partition 1\n"


class TestGlobalBehavior:
    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(capsys, "sample", "one-cycle:4", "--draws", "2000", "--seed", "9")
        _, out2, _ = run_cli(capsys, "sample", "one-cycle:4", "--draws", "2000", "--seed", "9")
        assert out1 == out2
        _, mc1, _ = run_cli(capsys, "mc", "real-trace", "--n", "2", "--m", "2", "--samples", "5000")
        _, mc2, _ = run_cli(capsys, "mc", "real-trace", "--n", "2", "--m", "2", "--samples", "5000")
        assert mc1 == mc2

    def test_env_var_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("COMMCYCLES_SEED", "123")
        _, out, _ = run_cli(capsys, "sample", "one-cycle:3", "--draws", "100")
        assert json.loads(out)["seed"] == 123

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("COMMCYCLES_SEED", "123")
        _, out, _ = run_cli(capsys, "sample", "one-cycle:3", "--draws", "100", "--seed", "77")
        assert json.loads(out)["seed"] == 77

    def test_env_format(self, capsys, monkeypatch):
        monkeypatch.setenv("COMMCYCLES_FORMAT", "human")
        _, out, _ = run_cli(capsys, "pgf", "transpositions:2")
        assert "PGF:" in out
        monkeypatch.setenv("COMMCYCLES_FORMAT", "json")  # beats the table's CSV fallback
        _, out, _ = run_cli(capsys, "hultman", "--max-m", "2")
        assert len(json.loads(out)["rows"]) == 2

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["pgf"])  # missing tau argument
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["pgf", "one-cycle:3"],
            ["bernoulli", "one-cycle:3"],
            ["sample", "one-cycle:3"],
            ["verify", "--scope", "factorials"],
            ["mc", "gamma", "--n", "2", "--m", "3"],
        ],
    )
    def test_csv_only_for_tables(self, capsys, monkeypatch, argv):
        command = argv[0]
        monkeypatch.setattr(cli, f"_cmd_{command}", lambda args: pytest.fail(f"{command} ran"))
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert code == 2
        assert out == ""
        assert err == f"error: --format csv is for dist and hultman; {command} speaks json or human\n"
        monkeypatch.setenv("COMMCYCLES_FORMAT", "csv")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2 and out == ""

    def test_global_flags_before_subcommand(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "human", "pgf", "one-cycle:3")
        assert code == 0 and "PGF:" in out

    @pytest.mark.parametrize(
        "name, value",
        [("SEED", "abc"), ("SAMPLES", "1e5"), ("MAX_M", "8.0"), ("CAP", ""), ("THREADS", "x"), ("FORMAT", "bogus")],
    )
    def test_bad_env_value_exit_2(self, capsys, monkeypatch, name, value):
        # A command that reads the variable refuses the value; any other ignores it.
        monkeypatch.setenv(f"COMMCYCLES_{name}", value)
        ran = stub_commands(monkeypatch)
        for command, argv in COMMAND_ARGV.items():
            code, out, err = run_cli(capsys, *argv)
            if name.lower() in cli._READS[command]:
                assert (code, out, ran) == (2, "", [])
                assert err == f"error: bad value for COMMCYCLES_{name}: {value!r}\n"
            else:
                assert (code, out, err) == (0, "", "") and ran.pop().command == command

    def test_unread_variable_ignored_end_to_end(self, capsys, monkeypatch):
        monkeypatch.setenv("COMMCYCLES_THREADS", "x")
        code, out, _ = run_cli(capsys, "bernoulli", "uniform:3")
        assert code == 0 and json.loads(out)["provenance"] == "exact"

    @pytest.mark.parametrize("command", list(COMMAND_ARGV))
    def test_unread_global_flag_exits_2(self, capsys, monkeypatch, command):
        ran = stub_commands(monkeypatch)
        argv = COMMAND_ARGV[command]
        unread = [d for d in cli._GLOBALS if d not in cli._READS[command]]
        assert len(unread) == {"pgf": 4, "dist": 4, "bernoulli": 5, "hultman": 3, "sample": 4, "mc": 2, "verify": 0}[command]
        for dest in unread:
            flag = ["--" + dest.replace("_", "-"), "3"]
            for order in ([*flag, *argv], [*argv, *flag], [*argv, f"{flag[0]}={flag[1]}"]):
                code, out, err = run_cli(capsys, *order)  # before or after the subcommand: one refusal
                assert (code, out) == (2, "")
                assert err == f"error: {command} does not take {flag[0]}\n"
        assert ran == []

    def test_other_leftovers_still_refused_by_argparse(self, capsys, monkeypatch):
        ran = stub_commands(monkeypatch)
        for extra in (["--bogus", "5"], ["stray"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(["pgf", "one-cycle:3", *extra])
            captured = capsys.readouterr()
            assert (exc.value.code, captured.out, ran) == (2, "", [])
            assert f"commcycles: error: unrecognized arguments: {' '.join(extra)}" in captured.err

    @pytest.mark.parametrize(
        "argv, refusal",
        [
            (["--sam", "5", "pgf", "one-cycle:3"], "pgf does not take --samples"),
            (["pgf", "one-cycle:3", "--sam", "5"], "pgf does not take --samples"),
            (["pgf", "one-cycle:3", "--sam=5"], "pgf does not take --samples"),
            (["pgf", "one-cycle:3", "--th=2"], "pgf does not take --threads"),
            (["mc", "trace-power", "--n", "2", "--ma", "1"], "mc does not take --max-m"),
            (["pgf", "one-cycle:3", "--threads", "x"], "pgf does not take --threads"),
            (["pgf", "one-cycle:3", "--th"], "pgf does not take --threads"),
        ],
        ids=["before", "after", "after_equals", "threads_equals", "mc_max_m", "bad_value", "no_value"],
    )
    def test_unread_flag_prefix_exits_2(self, capsys, monkeypatch, argv, refusal):
        # a unique prefix names its flag on either side of the subcommand, and an
        # unread flag is refused whatever value follows it, or none
        ran = stub_commands(monkeypatch)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, ran) == (2, "", [])
        assert err == f"error: {refusal}\n"

    @pytest.mark.parametrize(
        "argv", [["--s", "5", "pgf", "one-cycle:3"], ["pgf", "one-cycle:3", "--s", "5"]], ids=["before", "after"]
    )
    def test_ambiguous_flag_prefix_left_to_argparse(self, capsys, monkeypatch, argv):
        ran = stub_commands(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out, ran) == (2, "", [])
        assert "commcycles: error: ambiguous option: --s could match --seed, --samples" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["pgf", "one-cycle:3", "--samples", "5", "--threads", "9"],
            ["mc", "trace-power", "--n", "2", "--m", "3", "--k", "3", "--cap", "3", "--max-m", "1"],
        ],
    )
    def test_several_unread_flags_exit_2(self, capsys, monkeypatch, argv):
        # the first unread flag in cli._GLOBALS order is named, as when they come first
        ran = stub_commands(monkeypatch)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, ran) == (2, "", [])
        assert err == f"error: {argv[0]} does not take {'--samples' if argv[0] == 'pgf' else '--max-m'}\n"

    @pytest.mark.parametrize("command", list(COMMAND_ARGV))
    def test_read_global_flags_before_and_after(self, capsys, monkeypatch, command):
        ran = stub_commands(monkeypatch)
        argv = COMMAND_ARGV[command]
        for dest in cli._READS[command]:
            flag = "--" + dest.replace("_", "-")
            first, second, env = ("human", "json", "human") if dest == "format" else ("3", "4", "5")
            cast = str if dest == "format" else int
            assert run_cli(capsys, flag, first, *argv)[0] == 0
            assert getattr(ran.pop(), dest) == cast(first)
            assert run_cli(capsys, *argv, flag, first)[0] == 0
            assert getattr(ran.pop(), dest) == cast(first)
            assert run_cli(capsys, flag, first, *argv, flag, second)[0] == 0
            assert getattr(ran.pop(), dest) == cast(second)  # the flag after the subcommand wins
            monkeypatch.setenv(cli._GLOBALS[dest][0], env)
            assert run_cli(capsys, *argv)[0] == 0
            assert getattr(ran.pop(), dest) == cast(env)
            assert run_cli(capsys, *argv, flag, second)[0] == 0
            assert getattr(ran.pop(), dest) == cast(second)  # a flag beats the variable
            monkeypatch.delenv(cli._GLOBALS[dest][0])

    @pytest.mark.parametrize("command", list(COMMAND_ARGV))
    def test_help_lists_the_read_global_flags(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        flags = {dest: "--" + dest.replace("_", "-") + " " for dest in cli._GLOBALS}
        listed = sorted((out.index(flag), dest) for dest, flag in flags.items() if flag in out)
        assert [dest for _, dest in listed] == list(cli._READS[command])  # in usage order

    @pytest.fixture
    def built(self, monkeypatch, request):
        """The prog of each parser given the global options, from a fresh `build_parser` on."""
        built, add = [], cli._add_global_options
        monkeypatch.setattr(cli, "_add_global_options", lambda parser, *dests: built.append(parser.prog) or add(parser, *dests))
        cli.build_parser.cache_clear()
        request.addfinalizer(cli.build_parser.cache_clear)
        return built

    def test_parser_built_once_per_process(self, capsys, built):
        run_cli(capsys, "pgf", "one-cycle:3")
        run_cli(capsys, "sample", "one-cycle:3", "--draws", "10")
        assert built.count("commcycles") == 1
        assert cli.build_parser() is cli.build_parser()

    def test_subcommand_parser_built_on_first_use(self, capsys, built):
        cli.build_parser()
        assert built == ["commcycles"]  # the top-level parser alone
        assert run_cli(capsys, "pgf", "one-cycle:3")[0] == 0
        assert built == ["commcycles", "commcycles pgf"]
        assert run_cli(capsys, "pgf", "one-cycle:4")[0] == 0
        assert built == ["commcycles", "commcycles pgf"]  # reused by later calls

    # The usage line of each command's --help, at a width that keeps it on one line.
    USAGE = {
        "pgf": "commcycles pgf [-h] [--cap CAP] [--format {json,human,csv}] tau",
        "dist": "commcycles dist [-h] [--cap CAP] [--format {json,human,csv}] tau",
        "bernoulli": "commcycles bernoulli [-h] [--format {json,human,csv}] tau",
        "hultman": "commcycles hultman [-h] [--max-m MAX_M] [--cap CAP] [--format {json,human,csv}]",
        "sample": "commcycles sample [-h] [--draws DRAWS] [--seed SEED] [--format {json,human,csv}] tau",
        "verify": "commcycles verify [-h] [--scope SCOPE] [--seed SEED] [--samples SAMPLES] [--max-m MAX_M]"
        " [--cap CAP] [--threads THREADS] [--format {json,human,csv}]",
        "mc": "commcycles mc [-h] [--n N] [--m M] [--k K] [--m1 M1] [--m2 M2] [--samples SAMPLES] [--seed SEED]"
        " [--threads THREADS] [--format {json,human,csv}] {trace-power,gamma,real-trace,tr-g2,tr-g1g2,mixed}",
    }

    @pytest.mark.parametrize("command", list(COMMAND_ARGV))
    def test_command_help_usage_line(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "300")
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out.splitlines()[0], err) == (0, "usage: " + self.USAGE[command], "")

    def test_top_level_help_lists_the_commands(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "300")
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        out = capsys.readouterr().out
        listing = out[out.index("positional arguments:") :].split("\n\n")[0].splitlines()
        assert exc.value.code == 0 and listing == [
            "positional arguments:",
            "  {pgf,dist,bernoulli,hultman,sample,verify,mc}",
            "    pgf                 closed-form or character-sum PGF for a tau selector",
            "    dist                exact enumerated distribution for a tau selector",
            "    bernoulli           Bernoulli decomposition of a solved family",
            "    hultman             table of one-cycle commutator counts",
            "    sample              Monte-Carlo histogram of the commutator cycle count",
            "    verify              run consistency suites",
            "    mc                  one Monte-Carlo identity check",
        ]

    @pytest.mark.parametrize("command", list(COMMAND_ARGV))
    def test_command_help_option_is_argparses_own(self, capsys, command):
        """A command's -h is declared with its arguments, and reads as argparse's own -h."""
        own = next(" ".join(line.split()) for line in argparse.ArgumentParser().format_help().splitlines() if "--help" in line)
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        lines = [" ".join(line.split()) for line in capsys.readouterr().out.splitlines()]
        assert exc.value.code == 0 and own in lines

    def test_command_looked_up_per_call(self, capsys, monkeypatch):
        assert run_cli(capsys, "pgf", "one-cycle:3")[0] == 0
        ran = []
        monkeypatch.setattr(cli, "_cmd_pgf", lambda args: ran.append(args.tau) or 0)
        code, out, _ = run_cli(capsys, "pgf", "one-cycle:4")
        assert (code, out, ran) == (0, "", ["one-cycle:4"])

    def test_env_read_on_every_call(self, capsys, monkeypatch):
        for seed in (123, 456):
            monkeypatch.setenv("COMMCYCLES_SEED", str(seed))
            _, out, _ = run_cli(capsys, "sample", "one-cycle:3", "--draws", "100")
            assert json.loads(out)["seed"] == seed
        monkeypatch.delenv("COMMCYCLES_SEED")
        _, out, _ = run_cli(capsys, "sample", "one-cycle:3", "--draws", "100")
        assert json.loads(out)["seed"] == 42

    def test_flag_after_subcommand_beats_flag_before_and_env(self, capsys, monkeypatch):
        argv = ["--seed", "1", "sample", "one-cycle:3", "--draws", "100", "--seed", "2"]
        _, out, _ = run_cli(capsys, *argv)
        assert json.loads(out)["seed"] == 2
        monkeypatch.setenv("COMMCYCLES_SEED", "abc")  # never read: a flag set the seed
        _, out, _ = run_cli(capsys, *argv)
        assert json.loads(out)["seed"] == 2
        _, out, _ = run_cli(capsys, "--seed", "1", "sample", "one-cycle:3", "--draws", "100")
        assert json.loads(out)["seed"] == 1
        monkeypatch.delenv("COMMCYCLES_SEED")
        monkeypatch.setenv("COMMCYCLES_FORMAT", "json")
        code, out, _ = run_cli(capsys, "--format", "json", "pgf", "one-cycle:3", "--format", "human")
        assert code == 0 and "PGF:" in out


# A CLI call in a fresh interpreter; its last line of stderr lists numpy and its submodules if loaded.
FRESH_CALL = (
    "import sys\n"
    "from commcycles import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


class TestLazyNumpy:
    """numpy is imported where it is computed with: the closed forms never load
    it, not even as a module to be loaded later, and the commands that do
    compute with it answer as they do with numpy imported."""

    def fresh_call(self, capsys, *argv) -> str:
        """The fresh interpreter's numpy modules, after checking its stdout
        byte for byte against the same call here, where numpy is imported."""
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and "numpy" in sys.modules
        env = {**python_env(), "PYTHONIOENCODING": "utf-8"}
        proc = subprocess.run([sys.executable, "-c", FRESH_CALL, *argv], env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == out.encode("utf-8")
        return proc.stderr.decode().splitlines()[-1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["pgf", "one-cycle:40"],
            ["pgf", "type:[3,3,2]"],
            ["bernoulli", "transpositions:40"],
            ["bernoulli", "uniform:40"],
            ["verify", "--scope", "factorials", "--max-m", "16"],
        ],
    )
    def test_closed_forms_never_load_numpy(self, capsys, argv):
        assert self.fresh_call(capsys, *argv) == "[]"

    def test_import_loads_no_numpy(self):
        code = "import sys, commcycles; sys.exit(any(m.partition('.')[0] == 'numpy' for m in sys.modules))"
        proc = subprocess.run([sys.executable, "-c", code], env=python_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["mc", "trace-power", "--n", "3", "--m", "2", "--samples", "20000", "--threads", "2"],
            ["sample", "one-cycle:7", "--draws", "2000", "--seed", "3"],
            ["dist", "type:[4,4]"],
            ["verify", "--scope", "rmt", "--samples", "4000", "--threads", "2"],
        ],
    )
    def test_numpy_loaded_on_first_use(self, capsys, argv):
        assert self.fresh_call(capsys, *argv) != "[]"


# Imports and builds the CLI, then prints the modules it should not have loaded.
BARE_START = (
    "import sys\n"
    "import commcycles.cli\n"
    "commcycles.cli.build_parser()\n"
    "unwanted = {'dataclasses', 'inspect', 'typing', 'csv', 'commcycles.rmt', 'commcycles.oracle', 'commcycles.verify',\n"
    "            'commcycles.sampling'}\n"
    "print(sorted(m for m in sys.modules if m in unwanted or m.partition('.')[0] == 'numpy'))\n"
)

# Runs one command, its output discarded, then prints its exit code and which of
# the enumeration oracle, the sampler and the verify suites it loaded.
BARE_COMMAND = (
    "import io, sys\n"
    "import commcycles.cli\n"
    "sys.stdout = io.StringIO()\n"
    "code = commcycles.cli.main(sys.argv[1:])\n"
    "sys.stdout = sys.__stdout__\n"
    "print(code, sorted(m for m in ('commcycles.oracle', 'commcycles.sampling', 'commcycles.verify') if m in sys.modules))\n"
)

# The names the package serves on first access from one of its modules, then by `import *`.
NAMES_SERVED = (
    "import importlib, sys, commcycles\n"
    "module, names = 'commcycles.' + sys.argv[1], sys.argv[2:]\n"
    "assert module not in sys.modules\n"
    "served = [getattr(commcycles, n) for n in names]\n"
    "own = importlib.import_module(module)\n"
    "assert all(a is getattr(own, n) for a, n in zip(served, names))\n"
    "bound = {}\n"
    "exec('from commcycles import *', bound)\n"
    "assert all(bound[n] is a for a, n in zip(served, names)) and bound['CyclePGF'] is commcycles.CyclePGF\n"
    "try:\n"
    "    commcycles.no_such_name\n"
    "except AttributeError as exc:\n"
    "    print(exc)\n"
)

SERVED = {
    "rmt": ["MomentReport", "mc_trace_power_moment", "mc_gamma_shortcut_moment", "mc_real_trace_law",
            "mc_tr_g_squared_law", "mc_tr_g1g2_law", "mixed_trace_vanishing"],
    "oracle": ["exact_commutator_distribution", "exact_uniform_cycle_laws", "hultman_row", "hultman_table_rows"],
}


class TestBareStart:
    """Starting the CLI loads only what every command needs: not dataclasses
    (which imports inspect), typing, csv, the enumeration oracle, the verify
    suites, the sampler, the Monte-Carlo module or numpy."""

    @staticmethod
    def bare_python(*argv) -> str:
        """Stdout of an interpreter without `site`, so that no .pth file preloads a
        module, which finds only the package under test and numpy."""
        path = [Path(commcycles.__file__).resolve().parents[1], Path(np.__file__).resolve().parents[1]]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, path))}
        proc = subprocess.run([sys.executable, "-S", "-c", *argv], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_start_loads_none_of_them(self):
        assert self.bare_python(BARE_START) == "[]\n"

    @pytest.mark.parametrize(
        "argv, code, loaded",
        [
            (["pgf", "one-cycle:5"], 0, []),
            (["bernoulli", "uniform:5"], 0, []),
            (["mc", "trace-power", "--n", "1", "--samples", "2"], 0, []),
            (["dist", "type:[3]"], 0, ["commcycles.oracle"]),
            (["sample", "one-cycle:5", "--draws", "20"], 0, ["commcycles.oracle", "commcycles.sampling"]),
            # only the suite that enumerates compiles the oracle; genfun states the caps
            (["verify", "--scope", "factorials"], 0, ["commcycles.verify"]),
            (["verify", "--scope", "bernoulli"], 0, ["commcycles.verify"]),
            (["verify", "--scope", "factorials", "--cap", "0"], 2, ["commcycles.verify"]),
        ],
        ids=["pgf", "bernoulli", "mc", "dist", "sample", "verify", "verify_bernoulli", "verify_cap_0"],
    )
    def test_command_loads_what_it_runs(self, argv, code, loaded):
        assert self.bare_python(BARE_COMMAND, *argv) == f"{code} {loaded}\n"

    def test_limits_bound_at_import(self):
        code = (
            "import sys, commcycles\n"
            "from commcycles import genfun\n"
            "names = ('DEFAULT_ENUMERATION_CAP', 'HARD_ENUMERATION_CAP', 'resolve_cap')\n"
            "assert all(vars(commcycles)[n] is getattr(genfun, n) for n in names)\n"
            "print(sorted(m for m in sys.modules if m in ('commcycles.oracle', 'numpy')))\n"
        )
        assert self.bare_python(code) == "[]\n"

    @pytest.mark.parametrize("module", SERVED)
    def test_names_served_on_first_access(self, module):
        out = self.bare_python(NAMES_SERVED, module, *SERVED[module])
        assert out == "module 'commcycles' has no attribute 'no_such_name'\n"
