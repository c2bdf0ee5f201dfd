"""Correctness checks on each CLI answer.

Two kinds of check run on every answer:

* invariants that hold for any seed, recomputed here from the printed
  payload rather than trusted from it (exact sums, parity, residuals,
  z-scores, chi-square p-values);
* a comparison with the value recorded at the seed commit, for every query
  that `recorded.json` holds.  Exact payloads must match their digest; MC
  estimates and numeric Bernoulli parameters must match to a relative 1e-9,
  which admits float-rounding changes but not a change of random substream.

`answer_record()` turns one answer into the (digest, floats) pair that
`record.py` stores and `recorded_failures()` compares.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from fractions import Fraction

FLOAT_RTOL = 1e-9
Z_MAX = 5.0
CHI_SQUARE_P_MIN = 1e-3
RESIDUAL_MAX = 1e-10


def _law_failures(probs: dict[int, Fraction], m: int) -> list[str]:
    """An exact commutator law: mass 1, nonnegative, support of the parity
    of M (a commutator is even, so its cycle count C has M - C even)."""
    out = []
    if sum(probs.values()) != 1:
        out.append("probabilities do not sum to 1")
    if any(p < 0 for p in probs.values()):
        out.append("negative probability")
    if any((m - k) % 2 for k, p in probs.items() if p):
        out.append("support has the wrong parity")
    return out


def _hultman_rows(out: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(out)))[1:]


def invariant_failures(argv: list[str], out: str) -> list[str]:
    """Seed-independent checks of one answer; [] when it passes."""
    cmd = argv[0]
    if cmd == "hultman":
        rows = _hultman_rows(out)
        failures = []
        totals: dict[int, int] = {}
        for m, _k, count, oracle_count in rows:
            totals[int(m)] = totals.get(int(m), 0) + int(count)
            if oracle_count and int(oracle_count) != int(count):
                failures.append(f"M={m}: formula count {count} != oracle count {oracle_count}")
        failures += [f"M={m}: counts sum to {t} != M!" for m, t in totals.items() if t != math.factorial(m)]
        return failures if rows else ["empty Hultman table"]
    payload = json.loads(out)
    if cmd == "pgf":
        coeffs = [Fraction(c) for c in payload["pgf"]["coeffs"]]
        failures = _law_failures(dict(enumerate(coeffs)), payload["pgf"]["M"])
        if coeffs and coeffs[0] != 0:
            failures.append("nonzero constant term")
        if not payload["validation"]["ok"]:
            failures.append("validation.ok is false")
        return failures
    if cmd == "dist":
        return _law_failures({int(k): Fraction(p) for k, p in payload["probs"].items()}, payload["M"])
    if cmd == "bernoulli":
        failures = []
        if not payload["reconstruction_residual"] < RESIDUAL_MAX:
            failures.append(f"reconstruction residual {payload['reconstruction_residual']} >= {RESIDUAL_MAX}")
        for term in payload["decomposition"]["terms"]:
            # Exact parameters may be 1: the uniform law's first summand is
            # Bernoulli(1/1).  Root-found parameters lie strictly inside.
            p = term["p"]
            inside = 0 < Fraction(p) <= 1 if isinstance(p, str) else 0 < p < 1
            if not inside:
                failures.append(f"Bernoulli parameter {p} out of range")
        return failures
    if cmd == "mc":
        z = payload["z"]
        return [] if z is not None and abs(z) <= Z_MAX else [f"|z| = {z} exceeds {Z_MAX}"]
    if cmd == "verify":
        bad = [c["name"] for c in payload["checks"] if not c["ok"]]
        return [f"verify check failed: {name}" for name in bad] + ([] if payload["ok"] else ["verify ok is false"])
    if cmd == "sample":
        failures = []
        if sum(payload["histogram"].values()) != payload["draws"]:
            failures.append("histogram does not add up to the draws")
        p = payload.get("chi_square", {}).get("p_value", 0.0)
        if not p >= CHI_SQUARE_P_MIN:
            failures.append(f"chi-square p = {p} < {CHI_SQUARE_P_MIN}")
        return failures
    return [f"no check for command {cmd!r}"]


def answer_record(argv: list[str], out: str) -> tuple[str, list[float]]:
    """(digest of the exact part of the answer, its floating-point values).

    The digest covers the law or result only, not how it was obtained."""
    cmd = argv[0]
    floats: list[float] = []
    if cmd == "hultman":
        exact = _hultman_rows(out)
    else:
        payload = json.loads(out)
        # Only the law itself: provenance fields such as the pgf `source`
        # may change when a route moves, while the answer stays the same.
        if cmd == "pgf":
            exact = [payload["pgf"]["M"], payload["pgf"]["coeffs"]]
        elif cmd == "dist":
            exact = payload["probs"]
        elif cmd == "bernoulli":
            terms = payload["decomposition"]["terms"]
            exact = [
                payload["decomposition"]["offset"],
                [[t["p"] if isinstance(t["p"], str) else None, t["multiplier"]] for t in terms],
            ]
            floats = [t["p"] for t in terms if not isinstance(t["p"], str)]
        elif cmd == "mc":
            exact = payload["target"]
            floats = [payload["estimate"], payload["std_error"]]
        elif cmd == "verify":
            exact = [[c["name"], c["ok"], c["detail"]] for c in payload["checks"]]
        elif cmd == "sample":
            exact = [payload["histogram"], payload["reference"]]
            floats = [payload["chi_square"]["statistic"]]
        else:
            raise ValueError(f"no record for command {cmd!r}")
    text = json.dumps(exact, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32], floats


def recorded_failures(argv: list[str], out: str, recorded: dict) -> list[str]:
    """Compare one answer with the value recorded at the seed commit; []
    when the query was not recorded or matches."""
    want = recorded.get(" ".join(argv))
    if want is None:
        return []
    digest, floats = answer_record(argv, out)
    failures = []
    if digest != want["digest"]:
        failures.append("exact payload differs from the recorded one")
    if len(floats) != len(want["floats"]):
        failures.append(f"{len(floats)} float values, {len(want['floats'])} recorded")
    else:
        failures += [
            f"value {got!r} differs from recorded {ref!r}"
            for got, ref in zip(floats, want["floats"])
            if not math.isclose(got, ref, rel_tol=FLOAT_RTOL, abs_tol=0.0)
        ]
    return failures
