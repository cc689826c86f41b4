"""Workload ``build``: the default pipeline world through ``run()``.

The paper's Figure-1 batch path.  Set-up generates the ground-truth
world; each measured operation is one full
``KnowledgeBaseConstructionPipeline.run()`` (serial, memory backend,
the CLI default) on a freshly generated world of the same seed.  The
delta, serving, tenancy and storage layers do no work here.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace

from repro.core.pipeline import KnowledgeBaseConstructionPipeline, PipelineConfig
from repro.fusion.sharding import shard_claims
from repro.synth.world import GroundTruthWorld

from perfbench.harness import Run, Setups

#: ``full`` is ``PipelineConfig()``; ``tiny`` shrinks the world for tests.
SIZES = {
    "full": None,
    "tiny": {"Book": 6, "Film": 6, "Country": 4, "University": 5, "Hotel": 4},
}

#: Same-seed runs compared by the determinism check.
MIN_RUNS = 2
WARM = 3


def pipeline_config(seed: int, size: str) -> PipelineConfig:
    """``PipelineConfig()`` with every generator seed drawn from ``seed``."""
    config = PipelineConfig()
    rng = random.Random(seed)
    world = replace(config.world, seed=rng.randrange(2**31))
    if SIZES[size] is not None:
        world = replace(world, entities_per_class=dict(SIZES[size]))
    return replace(
        config,
        world=world,
        kb_pair=replace(config.kb_pair, seed=rng.randrange(2**31)),
        querylog=replace(config.querylog, seed=rng.randrange(2**31)),
        websites=replace(config.websites, seed=rng.randrange(2**31)),
        webtext=replace(config.webtext, seed=rng.randrange(2**31)),
    )


def digest(result) -> str:
    return hashlib.sha256(result.canonical_bytes()).hexdigest()


def check_repeats(digests: list[str], f1s: list[float]) -> list[str]:
    """Same-seed runs must fuse byte-identical verdicts with equal F1."""
    failures = []
    if len(set(digests)) > 1:
        failures.append("build.fused_bytes_differ")
    if len(set(f1s)) > 1:
        failures.append("build.kb_f1_differs")
    return failures


def _counter_sum(counters: dict, name: str) -> float:
    prefix = name + "{"
    return sum(
        value for key, value in counters.items()
        if key == name or key.startswith(prefix)
    )


def measure(run: Run, seed: int, seconds: float, size: str, tracer=None) -> None:
    config = pipeline_config(seed, size)
    setups = Setups(
        lambda: KnowledgeBaseConstructionPipeline(
            config, GroundTruthWorld(config.world)
        ),
        run,
    )
    digests, f1s = [], []
    # The first world is the last of WARM set-ups, so setup_s is a
    # median of more than MIN_RUNS; each later run gets a fresh world.
    pipeline = setups.warm(WARM)
    started = run.clock()
    while len(digests) < MIN_RUNS or run.clock() - started < seconds:
        if pipeline is None:
            pipeline = setups.build()
        run.settle()
        with run.measuring(tracer):
            begun = run.clock()
            try:
                report = pipeline.run()
            except Exception as exc:  # noqa: BLE001 — counted, reported
                run.attempt(False)
                run.extras["error"] = f"{type(exc).__name__}: {exc}"
                break
            ended = run.clock()
        run.attempt(True)
        run.op(begun, ended)
        run.wrote(len(pipeline.claims), begun, ended)
        run.units += 1
        digests.append(digest(report.fusion_result))
        f1s.append(report.fusion_report.f1)
        run.outputs["result"] = report.fusion_result
        if len(digests) == 1:
            counters = report.metrics.counters
            hits = _counter_sum(counters, "simcache_hits_total")
            misses = _counter_sum(counters, "simcache_misses_total")
            pruned = _counter_sum(counters, "blocking_candidates_pruned_total")
            kept = _counter_sum(counters, "blocking_tier2_candidates_total")
            run.traffic.update(
                claims=len(pipeline.claims),
                components=len(shard_claims(pipeline.claims)),
                fused_items=len(report.fusion_result.truths),
                fusion_iterations=report.fusion_result.iterations,
                memo_lookups=hits + misses,
                memo_hit_ratio=hits / (hits + misses) if hits + misses else 0.0,
                blocking_prune_ratio=(
                    pruned / (pruned + kept) if pruned + kept else 0.0
                ),
                stage_seconds={
                    timing.stage: timing.seconds for timing in report.timings
                },
            )
        pipeline = report = None
    run.traffic["runs"] = len(digests)
    run.check(check_repeats(digests, f1s))
    run.outputs.update(digests=digests, f1s=f1s)
    if f1s:
        run.extras["kb_f1"] = f1s[0]
