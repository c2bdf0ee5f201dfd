"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench

The coverage test runs one traced pass of each workload (about 20 s in all)
and checks that every layer the workload should exercise records calls and
every layer it should leave alone records none.  A wrapper missing from a
binding site, or a workload that drifts onto another route, fails it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ACTIVE = {
    "closed_form_laws": {"cli", "polys", "genfun"},
    "witness_laws": {"cli", "polys", "genfun", "oracle", "perm", "verify"},
    "mc_identities": {"cli", "polys", "genfun", "rmt"},
}


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_layer_coverage(workload, tmp_path):
    spans = tmp_path / "spans.csv"
    result = run.run_pass(workload, workloads.DEFAULT_SEED, str(spans))
    assert spans.stat().st_size > 0
    assert result["failed"] == 0, result["failures"]
    layers = result["layers"]
    calls = {layer: layers[f"{layer}.calls"] for layer in tracer.LAYERS}
    assert {layer for layer, n in calls.items() if n} == ACTIVE[workload], calls
    assert set(layers) | {"cli.out_bytes", "trace_overhead"} == set(run.PER_LAYER)


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}


def test_queries_are_reproducible_and_distinct():
    for name in workloads.NAMES:
        first = workloads.queries(name, 5)
        assert first == workloads.queries(name, 5)
        assert len({" ".join(q) for q in first}) == len(first)


def test_checks_reject_a_changed_answer():
    recorded = {"pgf type:[2,1]": None}
    argv = ["pgf", "type:[2,1]"]
    payload = {
        "pgf": {"M": 3, "source": "oracle", "coeffs": ["0/1", "2/3", "0/1", "1/3"]},
        "validation": {"ok": True},
    }
    out = json.dumps(payload)
    digest, floats = checks.answer_record(argv, out)
    recorded[" ".join(argv)] = {"digest": digest, "floats": floats}
    assert checks.invariant_failures(argv, out) == []
    assert checks.recorded_failures(argv, out, recorded) == []

    payload["pgf"]["coeffs"] = ["0/1", "1/3", "1/3", "1/3"]  # wrong parity
    out = json.dumps(payload)
    assert checks.invariant_failures(argv, out) == ["support has the wrong parity"]
    assert checks.recorded_failures(argv, out, recorded) == ["exact payload differs from the recorded one"]


def test_checks_ignore_how_an_answer_was_obtained():
    """A route moving inside the package changes provenance, not the law."""
    pgf = {
        "tau": "type:[2,1]",
        "provenance": "oracle enumeration",
        "pgf": {"M": 3, "source": "oracle", "coeffs": ["0/1", "2/3", "0/1", "1/3"]},
        "validation": {"source": "oracle", "ok": True},
    }
    check = {"name": "reflection", "ok": True, "detail": "n <= 4"}
    verify = {"scope": "factorials", "checks": [check], "passed": 1, "failed": 0, "ok": True}
    answers = [(["pgf", "type:[2,1]"], pgf), (["verify", "--scope", "factorials"], verify)]
    recorded = {}
    for argv, payload in answers:
        digest, floats = checks.answer_record(argv, json.dumps(payload))
        recorded[" ".join(argv)] = {"digest": digest, "floats": floats}

    pgf["provenance"] = "character formula"
    pgf["pgf"]["source"] = pgf["validation"]["source"] = "character"
    check.update(route="character", seconds=0.01)
    for argv, payload in answers:
        assert checks.invariant_failures(argv, json.dumps(payload)) == []
        assert checks.recorded_failures(argv, json.dumps(payload), recorded) == []

    check["ok"] = False
    argv, payload = answers[1]
    assert checks.recorded_failures(argv, json.dumps(payload), recorded) == [
        "exact payload differs from the recorded one"
    ]


def test_recorded_values_cover_the_default_seed():
    with open(os.path.join(HERE, "recorded.json")) as fh:
        recorded = json.load(fh)
    for name in workloads.NAMES:
        for seed in (workloads.DEFAULT_SEED, 7):
            missing = [
                " ".join(q)
                for q in workloads.queries(name, seed)
                if " ".join(q) not in recorded and (seed == workloads.DEFAULT_SEED or "--seed" not in q)
            ]
            assert not missing, missing


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "witness_laws", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
