"""Command-line front end.

Subcommands: pgf, dist, bernoulli, hultman, sample, verify, mc.  Output is
JSON by default (`--format human` for aligned text; dist and hultman also
speak CSV), and `_emit` writes every format.  One `parse_args` call reads the
command line.  The top-level parser declares all the global flags, and so does
a subcommand's parser, whose arguments are declared on its first parse: a flag
may come before or after the command's name, and `_refuse_unread` refuses one
that the command does not read (`_READS`).  A read flag falls back to its
COMMCYCLES_* variable, read on every call.  A flag wins; an unread flag or a
bad value exits 2; an unread variable is ignored.  An `mc` identity reads the
options that `_MC` lists for it, refuses any other in the same way, and runs
the rmt estimator that `_MC` names.  Starting the CLI compiles neither the
enumeration oracle, the verify suites, rmt nor the sampler, nor imports numpy:
`dist` and `hultman` import `oracle`, `sample` imports `sampling` (which
imports `oracle`), `verify` imports `verify` (which alone checks --scope), and
`mc` imports `rmt`, each on first use.  Exit codes: 0 pass, 1 check failure, 2
usage error or a typed failure (enumeration cap or character-sum limit, root
finding, an exact target beyond the double range), each with a one-line
message.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import genfun
from .perm import CycleType, Permutation, from_cycle_type, parse_cycles
from .polys import _pretty_strings

FORMATS = ("json", "human", "csv")

# Largest `hultman --max-m`.  The formula path builds one PGF per M, each
# from the row of Stirling numbers one step past the last; the whole table up
# to M = 100 (2550 rows, 180 kB of CSV) takes about 25 ms in-process on a
# 2-vCPU machine, 5 ms of it the oracle column up to the default cap, after
# about 0.15 s to import the oracle and numpy on first use.
HULTMAN_MAX_M = 100

# The named families of τ, as the cycle types they stand for.
_FAMILIES = {
    "one-cycle": lambda m: CycleType([m]),
    "two-cycles": lambda m: CycleType([m, m]),
    "transpositions": lambda m: CycleType([2] * m),
}

# Named laws that are not commutator laws, as the (source, builder, ctor) triples perfbench/tracer.py wraps.
_CLOSED_FORMS = {"uniform": ("uniform", genfun.uniform_cycles_pgf, None)}


# Each `mc` identity: the name of its rmt estimator, looked up per call, and the
# options it reads, in argument order.  --m and --k default to 1; the others are required.
_MC = {
    "trace-power": ("mc_trace_power_moment", ("n", "m", "k")),
    "gamma": ("mc_gamma_shortcut_moment", ("n", "m", "k")),
    "real-trace": ("mc_real_trace_law", ("n", "m")),
    "tr-g2": ("mc_tr_g_squared_law", ("n", "m")),
    "tr-g1g2": ("mc_tr_g1g2_law", ("n", "m")),
    "mixed": ("mixed_trace_vanishing", ("n", "m1", "m2")),
}
_MC_OPTIONS = tuple(dict.fromkeys(opt for _, options in _MC.values() for opt in options))  # n, m, k, m1, m2
_MC_DEFAULTS = {"m": 1, "k": 1}


class UsageError(ValueError):
    pass


def parse_tau_spec(text: str):
    """Parse a τ selector: "one-cycle:M", "two-cycles:M", "transpositions:M",
    "uniform:M", "type:[c1,c2,...]", or explicit cycle notation "(1 2 3)(4 5)".
    A named family parses to ("type", its cycle type)."""
    text = text.strip()
    if text.startswith("("):
        return ("explicit", parse_cycles(text))
    if ":" not in text:
        raise UsageError(f"cannot parse tau selector {text!r}")
    head, _, tail = text.partition(":")
    head = head.strip().lower()
    if head in _FAMILIES or head in _CLOSED_FORMS:
        try:
            m = int(tail)
        except ValueError:
            raise UsageError(f"expected an integer after {head!r}, got {tail!r}") from None
        if m < 1:
            raise UsageError("the size parameter must be positive")
        return ("type", _FAMILIES[head](m)) if head in _FAMILIES else (head, m)
    if head == "type":
        try:
            parts = json.loads(tail)
        except json.JSONDecodeError:
            raise UsageError(f"expected type:[c1,c2,...], got {text!r}") from None
        if not isinstance(parts, list):
            raise UsageError(f"expected a list of integers in {text!r}")
        try:
            return ("type", CycleType(parts))
        except ValueError as exc:
            raise UsageError(f"{exc} in {text!r}") from None
    raise UsageError(f"unknown tau selector {head!r}")


def _tau_permutation(kind, value) -> Permutation:
    if kind in _CLOSED_FORMS:
        raise UsageError(f"{kind!r} selects a law, not a permutation")
    return value if kind == "explicit" else from_cycle_type(value)


def _emit(payload: dict, fmt: str, human_lines, csv_rows=None) -> None:
    """Write the payload as JSON, its human lines, or the CSV rows (a header
    first; None is written as an empty field)."""
    if fmt == "csv":
        import csv

        csv.writer(sys.stdout, lineterminator="\n").writerows(csv_rows)
    elif fmt == "human":
        for line in human_lines(payload):
            print(line)
    else:
        print(json.dumps(payload))


# -- subcommands -------------------------------------------------------------


def _route(kind, value):
    """(source, build) of the exact law for a τ selector, without building
    it.  A named law uses its own builder; every τ goes through
    genfun.commutator_route by its cycle type."""
    if kind in _CLOSED_FORMS:
        source, builder, _ = _CLOSED_FORMS[kind]
        return source, lambda: builder(value)
    cycle_type = value if kind == "type" else value.cycle_type()
    return genfun.commutator_route(cycle_type)


def _law(kind, value):
    """(exact law, provenance) for a τ selector."""
    source, build = _route(kind, value)
    law = build()
    if source == "characters":
        return law, "character sum"
    return law, f"closed-form: {source.replace('_', '-')}"


def _cmd_pgf(args) -> int:
    genfun.resolve_cap(args.cap)  # refused as `dist` refuses it, though `pgf` never enumerates
    pgf, provenance = _law(*parse_tau_spec(args.tau))
    validation = genfun.validate_pgf(pgf)
    payload = {
        "tau": args.tau,
        "provenance": provenance,
        "pgf": (law := pgf.to_json()),
        "pretty": _pretty_strings(law["coeffs"]),  # the reduced strings, not a second reduction
        "validation": validation.to_json(),
    }

    def human(p):
        yield f"tau: {p['tau']}   ({p['provenance']})"
        yield f"ground set size: {pgf.M}"
        yield f"PGF: {p['pretty']}"
        for k, prob in enumerate(p["pgf"]["coeffs"]):
            if prob != "0/1":
                yield f"  P(C = {k}) = {prob}"
        yield f"invariants ok: {validation.ok}"

    _emit(payload, args.format, human)
    return 0


def _cmd_dist(args) -> int:
    from . import oracle

    dist = oracle.exact_commutator_distribution(_tau_permutation(*parse_tau_spec(args.tau)), cap=args.cap)
    probs = dist.reduced_probabilities()
    payload = {"tau": args.tau, "M": dist.M, "probs": {str(k): f"{n}/{d}" for k, (n, d) in probs.items()}}

    def human(p):
        yield f"tau: {p['tau']}   M = {dist.M}"
        for k, (n, d) in probs.items():
            yield f"  P(C = {k}) = {n}/{d} = {n / d:.6f}"

    header = ("M", "cycle_count", "probability_num", "probability_den")
    _emit(payload, args.format, human, [header, *((dist.M, k, n, d) for k, (n, d) in probs.items())])
    return 0


def _cmd_bernoulli(args) -> int:
    source, build = _route(*parse_tau_spec(args.tau))
    genfun.require_bernoulli_source(source)  # refuse before building the law
    pgf = build()
    dec = genfun.bernoulli_decomposition(pgf)
    payload = {
        "tau": args.tau,
        "provenance": "exact" if dec.is_exact else "root-found",
        "decomposition": dec.to_json(),
        "reconstruction_residual": dec.residual_against(pgf),
    }

    def human(p):
        yield f"tau: {p['tau']}   ({p['provenance']} parameters)"
        yield f"offset: {dec.offset}"
        for t in p["decomposition"]["terms"]:  # an exact p is a "n/d" string, a root-found one a float
            pval = t["p"] if isinstance(t["p"], str) else f"{t['p']:.12g}"
            yield f"  + {t['multiplier']} * Bernoulli({pval})"
        yield f"reconstruction residual: {p['reconstruction_residual']:.3g}"

    _emit(payload, args.format, human)
    return 0


def _cmd_hultman(args) -> int:
    genfun._check_max_m(args.max_m)
    max_m = args.max_m if args.max_m is not None else genfun.DEFAULT_ENUMERATION_CAP
    if max_m > HULTMAN_MAX_M:
        raise UsageError(f"the formula path is tabulated up to M = {HULTMAN_MAX_M}")
    from . import oracle

    rows = oracle.hultman_table_rows(max_m, oracle_cap=args.cap)
    payload = {"rows": [{"M": m, "k": k, "count": c, "oracle_count": oc} for m, k, c, oc in rows]}

    def human(p):
        yield f"{'M':>3} {'k':>3} {'count':>12} {'oracle':>12}"
        for m, k, c, oc in rows:
            yield f"{m:>3} {k:>3} {c:>12} {('' if oc is None else oc):>12}"

    _emit(payload, args.format, human, [("M", "k", "count", "oracle_count"), *rows])
    return 0


def _cmd_sample(args) -> int:
    from . import sampling  # compiled on first use: no other command needs it

    return sampling.run(args)


def _cmd_verify(args) -> int:
    from . import verify  # refuses an unknown --scope before any check runs

    checks = verify.run_scope(
        args.scope,
        max_m=args.max_m,
        samples=args.samples,
        seed=args.seed,
        partitions=args.threads,
        cap=args.cap,
    )
    failed = [c for c in checks if not c.ok]
    payload = {
        "scope": args.scope,
        "checks": [c.to_json() for c in checks],
        "passed": len(checks) - len(failed),
        "failed": len(failed),
        "ok": not failed,
    }

    def human(p):
        for c in checks:
            yield f"[{'PASS' if c.ok else 'FAIL'}] {c.name}  {c.detail}"
        yield f"{p['passed']} passed, {p['failed']} failed"

    _emit(payload, args.format, human)
    return 0 if not failed else 1


def _cmd_mc(args) -> int:
    from . import rmt  # compiled on first use: no other command needs it

    estimator, options = _MC[args.identity]
    values = [getattr(args, opt, _MC_DEFAULTS.get(opt)) for opt in options]
    if None in values:
        raise UsageError(f"mc {args.identity} requires --{options[values.index(None)]}")
    report = getattr(rmt, estimator)(*values, samples=args.samples, seed=args.seed, partitions=args.threads)
    payload = report.to_json()

    def human(p):
        yield f"identity: {p['identity']}  params: " + ", ".join(
            f"{key}={p[key]}" for key in ("N", "M", "M2", "K") if key in p
        )
        yield f"estimate: {report.estimate:.8g}  std error: {report.std_error:.4g}"
        yield f"target: {p['target']} = {p['target_float']:.8g}  z: {report.z:+.3f}"
        yield f"samples: {report.samples}  seed: {report.seed}  partitions: {report.partitions}"

    _emit(payload, args.format, human)
    return 0 if abs(report.z) <= rmt.Z_MAX else 1  # an infinite or NaN z fails too


# -- wiring -------------------------------------------------------------------


def _format(raw: str) -> str:
    if raw not in FORMATS:
        raise ValueError(raw)
    return raw


# The global options: dest -> (environment variable, cast, fallback).  The
# fallback of --format is a function of the command: the Hultman table is CSV-typed.
_GLOBALS = {
    "seed": ("COMMCYCLES_SEED", int, 42),
    "samples": ("COMMCYCLES_SAMPLES", int, 100_000),
    "max_m": ("COMMCYCLES_MAX_M", int, None),
    "cap": ("COMMCYCLES_CAP", int, None),
    "threads": ("COMMCYCLES_THREADS", int, 1),
    "format": ("COMMCYCLES_FORMAT", _format, lambda command: "csv" if command == "hultman" else "json"),
}


# The global options each command reads.  `pgf` checks --cap and uses it for
# nothing else: the witness_laws workload of perfbench sends `pgf type:[...] --cap 9`.
_READS = {
    "pgf": ("cap", "format"), "dist": ("cap", "format"), "bernoulli": ("format",),
    "hultman": ("max_m", "cap", "format"), "sample": ("seed", "format"),
    "mc": ("samples", "seed", "threads", "format"), "verify": tuple(_GLOBALS),
}


# Every parser, the top-level one and each subcommand's once it first parses,
# declares all the global options with default SUPPRESS.  So argparse reads a
# flag, or a prefix of one, the same way before and after the subcommand; a flag
# after it beats one before it; and an option that no flag set is absent from
# the parsed namespace.  The flags a command reads come first, typed and in its
# --help.  The others are hidden and take any value or none: `_refuse_unread`
# refuses them whatever follows.  `main` fills the absent options from the
# environment on every call, so the parsers hold no per-call input and each is
# built once per process.
def _add_global_options(parser: argparse.ArgumentParser, reads=tuple(_GLOBALS)) -> None:
    for dest in (*reads, *(d for d in _GLOBALS if d not in reads)):
        if dest not in reads:
            kind = {"help": argparse.SUPPRESS, "nargs": "?"}
        elif dest == "format":
            kind = {"choices": FORMATS}
        else:
            kind = {"type": _GLOBALS[dest][1]}
        parser.add_argument("--" + dest.replace("_", "-"), dest=dest, default=argparse.SUPPRESS, **kind)


def _refuse_unread(args: argparse.Namespace) -> None:
    """Refuse the first global flag, in `_GLOBALS` order, that was given but
    that the command does not read."""
    for dest in _GLOBALS:
        if dest in args and dest not in _READS[args.command]:
            raise UsageError(f"{args.command} does not take --{dest.replace('_', '-')}")
    for opt in _MC_OPTIONS if args.command == "mc" else ():
        if opt in args and opt not in _MC[args.identity][1]:
            raise UsageError(f"mc {args.identity} does not take --{opt}")


def _fill_globals(args: argparse.Namespace) -> None:
    reads = _READS[args.command]
    for dest, (env, cast, fallback) in _GLOBALS.items():
        if dest in args or dest not in reads:  # an unread variable is never looked at
            continue
        raw = os.environ.get(env)
        if raw is None:
            setattr(args, dest, fallback(args.command) if callable(fallback) else fallback)
            continue
        try:
            setattr(args, dest, cast(raw))
        except ValueError:
            raise UsageError(f"bad value for {env}: {raw!r}") from None


def _tau(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("tau")


def _sample_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("tau")
    parser.add_argument("--draws", type=int, default=10_000)


def _mc_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("identity", choices=tuple(_MC))
    for opt in _MC_OPTIONS:  # absent unless given, so that `_refuse_unread` sees what was given
        parser.add_argument("--" + opt, type=int, default=argparse.SUPPRESS)


# Each command, in the order top-level --help lists them: its help line, and
# what declares the command's own arguments, ahead of the global options.
_COMMANDS = {
    "pgf": ("closed-form or character-sum PGF for a tau selector", _tau),
    "dist": ("exact enumerated distribution for a tau selector", _tau),
    "bernoulli": ("Bernoulli decomposition of a solved family", _tau),
    "hultman": ("table of one-cycle commutator counts", lambda parser: None),
    "sample": ("Monte-Carlo histogram of the commutator cycle count", _sample_arguments),
    "verify": ("run consistency suites", lambda parser: parser.add_argument("--scope", default="all")),
    "mc": ("one Monte-Carlo identity check", _mc_arguments),
}


class _CommandParser(argparse.ArgumentParser):
    """A command's parser, as `add_subparsers(parser_class=...)` makes it.
    Start-up makes it empty.  Its first parse declares -h, the command's own
    arguments and the global options, in that order; later parses reuse them."""

    def __init__(self, *, command: str, **kwargs):
        super().__init__(add_help=False, **kwargs)  # -h too waits for the first parse
        self._undeclared = command

    def parse_known_args(self, args, namespace):
        if self._undeclared is not None:
            command, self._undeclared = self._undeclared, None
            self.add_argument("-h", "--help", action="help", default=argparse.SUPPRESS,
                              help="show this help message and exit")  # as add_help=True declares it
            _COMMANDS[command][1](self)
            _add_global_options(self, _READS[command])
        return super().parse_known_args(args, namespace)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one argument parser, built on first use.  It declares
    the global options and names the commands; a command's own arguments are
    declared when a call first names it."""
    parser = argparse.ArgumentParser(
        prog="commcycles",
        description="Cycle statistics of commutators of random permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for command, (help_line, _) in _COMMANDS.items():
        sub.add_parser(command, help=help_line, command=command)
    _add_global_options(parser)
    return parser


def main(argv=None) -> int:
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()  # absent before CPython 3.10.7
    try:
        args = build_parser().parse_args(argv)
        _refuse_unread(args)
        _fill_globals(args)
        if args.format == "csv" and args.command not in ("dist", "hultman"):
            raise UsageError(f"--format csv is for dist and hultman; {args.command} speaks json or human")
        if limit is not None:
            sys.set_int_max_str_digits(0)  # the limit guards parsing input, not printing an exact law
        code = globals()[f"_cmd_{args.command}"](args)  # per call: the parser outlives a patched _cmd_*
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except (ValueError, genfun.RootFindError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away: send what is still buffered to devnull so
        # that the flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)  # an in-process caller keeps its own


if __name__ == "__main__":
    sys.exit(main())
