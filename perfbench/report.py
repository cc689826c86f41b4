"""Turn measured runs into the printed metrics, meta block and report."""

from __future__ import annotations

import hashlib
import importlib
import os
import platform
import statistics
import subprocess
import sys

from perfbench.harness import (
    REFERENCE_PROBE_S,
    ROOT,
    Run,
    cpu_affinity,
    peak_rss_mib,
)


def measure(workload: str, seed: int, seconds: float, size: str,
            tracer=None) -> Run:
    """One measured pass of ``workload``, with host-speed probes running."""
    module = importlib.import_module(f"perfbench.{workload}")
    run = Run()
    with run.probing():
        module.measure(run, seed, seconds, size, tracer)
    return run


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _setup_s(run: Run) -> float:
    return _median([
        (ended - begun) * REFERENCE_PROBE_S / run.host_probe(begun, ended)
        for begun, ended in run.setups
    ])


def _op_probes(run: Run) -> float:
    return _median([
        (ended - begun) / run.host_probe(begun, ended)
        for begun, ended in run.ops
    ])


def _claims_per_probe(run: Run) -> float:
    return _median([
        claims / (ended - begun) * run.host_probe(begun, ended)
        for claims, begun, ended in run.writes
    ])


#: name -> (unit, value of an untraced run).  Every workload reports
#: every one; see README.md for what the unit operation is per workload.
#: Times are taken relative to the host-speed probes run around them
#: (``harness.probe``); ``setup_s`` is that ratio times the reference
#: probe time.  Wall-clock values are in the report line.
END_TO_END = {
    "setup_s": ("s", _setup_s),
    "peak_rss_mb": ("MiB", lambda run: peak_rss_mib()),
    "op_p50_probes": ("probe", _op_probes),
    "claims_per_probe": ("1/probe", _claims_per_probe),
}


def _per_unit(layer: str, quantity: str = "busy"):
    def value(tracer, traced: Run, base: Run) -> float:
        seconds = (
            tracer.busy(layer) if quantity == "busy" else tracer.self_time(layer)
        )
        return seconds / max(1, traced.units)
    return value


def _counter_per_unit(name: str):
    return lambda tracer, traced, base: tracer.counters[name] / max(1, traced.units)


def _ratio(numerator: str, denominator: str):
    def value(tracer, traced, base) -> float:
        total = tracer.counters[denominator]
        return tracer.counters[numerator] / total if total else 0.0
    return value


def _traffic(key: str, source: str = "traffic"):
    return lambda tracer, traced, base: getattr(traced, source).get(key, 0.0)


def _write_amp(tracer, traced: Run, base: Run) -> float:
    stored = traced.traffic.get("stored_bytes", 0)
    return tracer.counters["rdf.segments.bytes_written"] / stored if stored else 0.0


def _overhead(tracer, traced: Run, base: Run) -> float:
    traced_per_unit = traced.measured_seconds / max(1, traced.units)
    base_per_unit = base.measured_seconds / max(1, base.units)
    return traced_per_unit / base_per_unit if base_per_unit else 0.0


_BUSY_LAYERS = (
    "synth.generate",
    "extract.kb.extract",
    "extract.querystream.extract",
    "extract.dom.extract",
    "extract.webtext.learn",
    "extract.webtext.extract",
    "entity.resolution.run",
    "core.confidence.score_batch",
    "core.augmentation.augment_kb",
    "fusion.fuse",
    "fusion.correlations.estimate",
    "fusion.sharding.shard_claims",
    "incremental.apply_delta",
    "incremental.canonical_claims",
    "incremental.journal.apply",
    "rdf.store.copy",
    "rdf.backend.claims_for_item",
    "rdf.segments.add_all",
    "rdf.segments.flush",
    "rdf.segments.compact",
    "rdf.segments.open",
    "rdf.segments.read",
    "serving.stream.append",
    "serving.version.commit",
    "serving.query.lookup",
    "serving.query.scan_subject",
    "serving.query.scan_predicate",
    "serving.query.top_entities",
    "serving.tenancy.pump",
    "evalx.evaluate_fusion",
)

#: name -> (unit, value of a traced run).  Seconds are per work unit
#: (``trace.units``): one build run, one delta, one fleet delta or one
#: ingest cycle.
PER_LAYER = {
    **{
        f"{layer}.busy_s": ("s", _per_unit(layer))
        for layer in _BUSY_LAYERS
    },
    "serving.server.step.self_s": ("s", _per_unit("serving.server.step", "self")),
    "serving.tenancy.pump.self_s": ("s", _per_unit("serving.tenancy.pump", "self")),
    "serving.tenancy.turn_wait_s": ("s", _traffic("turn_wait_s_mean")),
    "serving.server.retries": ("count", _traffic("retries")),
    "textproc.memo.hit_ratio": ("1", _traffic("memo_hit_ratio")),
    "entity.blocking.prune_ratio": ("1", _traffic("blocking_prune_ratio")),
    "fusion.rounds": ("count", _counter_per_unit("fusion.rounds")),
    "incremental.reuse_ratio": (
        "1", _ratio("incremental.reused_components", "incremental.components")
    ),
    "incremental.dirty_components": (
        "count", _ratio("incremental.dirty_components", "incremental.deltas")
    ),
    "incremental.full_refuse_ms": ("ms", _traffic("full_refuse_ms", "extras")),
    "rdf.segments.flushes": ("count", _counter_per_unit("rdf.segments.flushes")),
    "rdf.segments.bytes_written": (
        "B", _counter_per_unit("rdf.segments.bytes_written")
    ),
    "rdf.segments.write_amp": ("1", _write_amp),
    "trace.units": ("count", lambda tracer, traced, base: traced.units),
    "trace.coverage": (
        "1", lambda tracer, traced, base: tracer.top_level / tracer.measured
        if tracer.measured else 0.0
    ),
    "trace.overhead_ratio": ("1", _overhead),
}


def end_to_end_metrics(run: Run) -> dict:
    return {
        name: {"value": compute(run), "unit": unit}
        for name, (unit, compute) in END_TO_END.items()
    }


def per_layer_metrics(tracer, traced: Run, base: Run) -> dict:
    return {
        name: {"value": float(compute(tracer, traced, base)), "unit": unit}
        for name, (unit, compute) in PER_LAYER.items()
    }


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the program's sources (a checkout may lack git)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def meta(args) -> dict:
    return {
        "git_sha": _git_sha(),
        "source_sha256": source_digest(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": cpu_affinity(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "traced": bool(args.trace),
    }


def details(run: Run) -> dict:
    """The reported-not-gated part of a run: traffic, extras, checks."""
    return {
        "setup_wall_s": _median(run.setup_seconds),
        "op_p50_ms": _median(run.op_seconds) * 1e3,
        "claims_per_s": _median(run.write_rates),
        "probe_ms": _median(run.probe_seconds) * 1e3,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_checks": run.failures,
        "setup_seconds": run.setup_seconds,
        "units": run.units,
        "traffic": run.traffic,
        "extras": run.extras,
    }
