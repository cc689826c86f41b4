"""The benchmark's own tests: tiny runs of every workload.

Run from the repository root with ``python -m pytest perfbench/tests``.
Each workload runs at ``--size tiny`` for a fraction of a second.  The
tests check that every metric named in ``BENCHMARK.json`` is emitted
with its unit, and that each correctness check fires on a deliberately
corrupted output.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import build, delta_serve, report, segment_store, tenant_fleet
from perfbench.layers import LayerTracer

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("build", "delta_serve", "tenant_fleet", "segment_store")
SECONDS = 0.3


@pytest.fixture(scope="module")
def runs():
    """One untraced and one traced tiny run of every workload."""
    out = {}
    for name in WORKLOADS:
        base = report.measure(name, 3, SECONDS, "tiny")
        tracer = LayerTracer()
        with tracer.installed():
            traced = report.measure(name, 3, SECONDS, "tiny", tracer)
        out[name] = (base, traced, tracer)
    return out


def test_spec_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: unit for name, (unit, _) in report.END_TO_END.items()
    }
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _) in report.PER_LAYER.items()
    }
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(runs, name):
    base, traced, tracer = runs[name]
    assert base.failed == 0 and traced.failed == 0, (base.failures, traced.failures)
    assert base.attempted > 0
    end_to_end = report.end_to_end_metrics(base)
    for metric in SPEC["end_to_end"]:
        emitted = end_to_end[metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float) and emitted["value"] > 0
    per_layer = report.per_layer_metrics(tracer, traced, base)
    for metric in SPEC["per_layer"]:
        emitted = per_layer[metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)
    assert 0 < per_layer["trace.coverage"]["value"] <= 1
    assert per_layer["trace.overhead_ratio"]["value"] > 0


def test_workload_contrast_in_recorded_traffic(runs):
    delta = report.per_layer_metrics(*_traced(runs, "delta_serve"))
    fleet = report.per_layer_metrics(*_traced(runs, "tenant_fleet"))
    assert delta["incremental.reuse_ratio"]["value"] > 0.5
    assert fleet["incremental.reuse_ratio"]["value"] < 0.5
    assert runs["delta_serve"][0].traffic["dirty_share_mean"] < 0.5
    assert runs["tenant_fleet"][0].traffic["components_per_tenant"] == [1]


def _traced(runs, name):
    base, traced, tracer = runs[name]
    return tracer, traced, base


def test_tracer_restores_what_it_patched():
    from repro.rdf.store import TripleStore
    from repro.incremental import engine

    before = (TripleStore.copy, engine.canonical_claims)
    tracer = LayerTracer()
    with tracer.installed():
        assert TripleStore.copy is not before[0]
        assert engine.canonical_claims is not before[1]
    assert (TripleStore.copy, engine.canonical_claims) == before


def _flip_one_belief(result):
    corrupted = copy.deepcopy(result)
    key = min(corrupted.belief)
    corrupted.belief[key] = 1.0 - corrupted.belief[key]
    return corrupted


def test_build_check_fires_on_a_flipped_belief(runs):
    base = runs["build"][0]
    digests, f1s = base.outputs["digests"], base.outputs["f1s"]
    result = base.outputs["result"]
    assert build.digest(result) == digests[-1]
    assert build.check_repeats(digests, f1s) == []
    assert build.check_repeats(
        [digests[0], build.digest(_flip_one_belief(result))], f1s
    ) == ["build.fused_bytes_differ"]
    assert build.check_repeats(digests, [f1s[0], f1s[0] + 0.01]) == [
        "build.kb_f1_differs"
    ]


def test_delta_serve_check_fires_on_a_flipped_served_belief(runs):
    outputs = runs["delta_serve"][0].outputs
    served = outputs["served"].result
    reference = outputs["reference"].canonical_bytes()
    actions = outputs["actions"]
    assert delta_serve.check_served(
        served.canonical_bytes(), reference, actions
    ) == []
    assert delta_serve.check_served(
        _flip_one_belief(served).canonical_bytes(), reference, actions
    ) == ["delta_serve.served_differs_from_refusion"]
    assert delta_serve.check_served(
        served.canonical_bytes(), reference, actions + ["poisoned"]
    ) == ["delta_serve.step_not_applied"]


def test_tenant_fleet_check_fires_on_lag_and_halt(runs):
    fleet = runs["tenant_fleet"][0].outputs["fleet"]
    assert tenant_fleet.check_fleet(fleet) == []
    name = fleet.names()[0]
    runtime = fleet.tenant(name)
    runtime.server.publish(copy.deepcopy(runtime.pending[0]))
    runtime.halted = "corrupted by the test"
    assert tenant_fleet.check_fleet(fleet) == [
        f"tenant_fleet.{name}.halted",
        f"tenant_fleet.{name}.unfinished",
        f"tenant_fleet.{name}.lag",
    ]


def test_segment_store_check_fires_on_a_dropped_claim(runs):
    outputs = runs["segment_store"][0].outputs
    reopened, expected = outputs["reopened"], outputs["expected"]
    assert segment_store.check_digest(reopened, expected) == []
    assert segment_store.check_digest(reopened[1:], expected) == [
        "segment_store.reopened_digest_differs"
    ]


def test_same_seed_same_delta_stream():
    first = delta_serve.make_state(5, "tiny").stream
    second = delta_serve.make_state(5, "tiny").stream
    for _ in range(20):
        one, two = first.next(), second.next()
        assert (one.added, one.retracted) == (two.added, two.retracted)


def _run_cli(cwd, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "segment_store",
         "--seed", "2", "--seconds", "0.2", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_cli_prints_the_result_line_last():
    done = _run_cli(ROOT, "--size", "tiny", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _run_cli(tmp_path, "--size", "tiny")
    assert done.returncode != 0
    assert done.stdout == ""
