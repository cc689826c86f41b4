"""Execution-layer costs — retry overhead, pipeline snapshot, caches.

Measures three things and verifies, in the same breath, that none of
them changes a single output:

1.  **Retry-policy overhead** — VOTE and ACCU MapReduce jobs with the
    retry policy off vs on and zero faults, over the engine's one
    dispatch path; the fused decisions must be byte-identical.
2.  **Pipeline snapshot** — one end-to-end pipeline run: wall clock,
    per-stage times, similarity-cache hit rates and the deterministic
    metric subset.
3.  **Similarity caching** — the attribute-resolution stage with
    caches off / cold / warm, plus hit rates of every similarity
    cache; resolved output must be identical in all three modes.

Results land in ``benchmarks/out/parallel.txt`` (tables) and
``benchmarks/out/BENCH_parallel.json`` (machine-readable).  Run
standalone with ``python benchmarks/bench_parallel.py [--quick]``;
``--quick`` shrinks every workload for CI smoke runs.
"""

import argparse
import json
import os
import pathlib
import sys
import time

from repro.core.pipeline import (
    KnowledgeBaseConstructionPipeline,
    PipelineConfig,
)
from repro.evalx.tables import format_ratio, render_table
from repro.mapreduce.engine import RetryPolicy
from repro.mapreduce.jobs import mr_accu, mr_vote
from repro.synth.claims import ClaimWorldConfig, generate_claim_world
from repro.synth.querylog import QueryLogConfig
from repro.synth.websites import WebsiteConfig
from repro.synth.webtext import WebTextConfig
from repro.synth.world import WorldConfig
from repro.textproc.memo import (
    clear_similarity_caches,
    configure_similarity_caches,
    similarity_cache_stats,
)

OUT_DIR = pathlib.Path(__file__).parent / "out"
# Timed runs per retry setting in Section 1 (best one is reported).
REPEATS = 6


# ----------------------------------------------------------------------
# Shared helpers.


def _canonical_fusion_bytes(result) -> bytes:
    """Canonical byte serialization of a fusion result's decisions."""
    return repr(
        (
            sorted(
                (item, sorted(values))
                for item, values in result.truths.items()
            ),
            sorted(result.belief.items()),
            sorted(result.source_quality.items()),
        )
    ).encode()


def _pipeline_config(quick: bool, **overrides) -> PipelineConfig:
    if quick:
        return PipelineConfig(
            world=WorldConfig(
                entities_per_class={
                    "Book": 15, "Film": 15, "Country": 12,
                    "University": 12, "Hotel": 10,
                }
            ),
            querylog=QueryLogConfig(seed=17, scale=0.0005),
            websites=WebsiteConfig(sites_per_class=2, pages_per_site=6),
            webtext=WebTextConfig(
                sources_per_class=2, documents_per_source=6
            ),
            **overrides,
        )
    return PipelineConfig(
        querylog=QueryLogConfig(seed=17, scale=0.002), **overrides
    )


# ----------------------------------------------------------------------
# Section 1: retry-policy overhead (one dispatch path, zero faults).


def run_retry_section(quick: bool) -> dict:
    """Cost of a retry policy when nothing fails.

    Every job runs its map partitions and reduce chunks as dispatched
    tasks (attempt bookkeeping, per-task duration measurement, wave
    loop); a retry policy only widens the attempt budget.  This section
    runs the same jobs with retries off (one attempt) vs on and zero
    injected faults, so the delta is what the policy itself costs
    (best of :data:`REPEATS` runs each, alternating which goes first).
    The ratio is reported, not asserted: it is noise-dominated on tiny
    workloads and that is fine — the contract is identical output.
    """
    n_items = 200 if quick else 800
    rounds = 3 if quick else 5
    world = generate_claim_world(
        ClaimWorldConfig(seed=47, n_items=n_items, n_sources=10)
    )
    policy = RetryPolicy(max_attempts=3, backoff_base=0.0)
    records = []
    for job_name, job in (
        ("VOTE", lambda claims, **kw: mr_vote(claims, **kw)),
        ("ACCU", lambda claims, **kw: mr_accu(claims, rounds=rounds, **kw)),
    ):
        # Alternate which setting runs first and keep each one's best
        # of REPEATS, so warm-up and ordering do not show up as overhead.
        settings = [("off", {}), ("on", {"retry": policy})]
        best = {"off": float("inf"), "on": float("inf")}
        outputs = {}
        for repeat in range(REPEATS):
            for name, kwargs in settings[:: 1 if repeat % 2 == 0 else -1]:
                started = time.perf_counter()
                outputs[name] = job(world.claims, partitions=4, **kwargs)
                best[name] = min(best[name], time.perf_counter() - started)

        records.append(
            {
                "job": job_name,
                "claims": len(world.claims),
                "retries_off_seconds": round(best["off"], 4),
                "retries_on_seconds": round(best["on"], 4),
                "overhead_ratio": round(best["on"] / best["off"], 3),
                "identical": _canonical_fusion_bytes(outputs["on"])
                == _canonical_fusion_bytes(outputs["off"]),
            }
        )
    return {"items": n_items, "accu_rounds": rounds, "runs": records}


def retry_table(section: dict) -> str:
    rows = [
        [
            record["job"],
            record["claims"],
            f"{record['retries_off_seconds'] * 1000:.1f}ms",
            f"{record['retries_on_seconds'] * 1000:.1f}ms",
            f"{record['overhead_ratio']:.2f}x",
            "yes" if record["identical"] else "NO",
        ]
        for record in section["runs"]
    ]
    return render_table(
        ["job", "claims", "retries off", "retries on (0 faults)",
         "overhead", "identical"],
        rows,
        title="Retry policy: overhead with zero faults",
    )


# ----------------------------------------------------------------------
# Section 2: one end-to-end pipeline run.


def run_pipeline_section(quick: bool) -> dict:
    # Start from cold similarity caches so hit rates are per-run.
    clear_similarity_caches()
    pipeline = KnowledgeBaseConstructionPipeline(_pipeline_config(quick))
    started = time.perf_counter()
    report = pipeline.run()
    wall = time.perf_counter() - started
    return {
        "claims": len(pipeline.claims),
        "wall_seconds": round(wall, 3),
        "stage_seconds": {
            timing.stage: round(timing.seconds, 3)
            for timing in report.timings
        },
        # Hit rates observed during the end-to-end run; the tag-path
        # cache's near-total hit rate is the DOM win.
        "extraction_cache_stats": {
            name: {
                "hit_rate": round(stats.hit_rate, 4),
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
            }
            for name, stats in similarity_cache_stats().items()
        },
        # The run's count-type metrics (the deterministic subset):
        # reproducible run-to-run, so BENCH diffs stay clean.
        "metrics_snapshot": report.metrics.deterministic_subset(),
        "serial_pipeline": pipeline,  # reused by the cache section
    }


def pipeline_table(section: dict) -> str:
    mode_table = render_table(
        ["wall", "summed stage time"],
        [
            [
                f"{section['wall_seconds']:.2f}s",
                f"{sum(section['stage_seconds'].values()):.2f}s",
            ]
        ],
        title=f"Pipeline: one end-to-end run ({section['claims']} claims)",
    )
    stat_rows = [
        [name, format_ratio(stats["hit_rate"]), stats["hits"],
         stats["misses"], stats["evictions"]]
        for name, stats in sorted(section["extraction_cache_stats"].items())
        if stats["hits"] or stats["misses"]
    ]
    stats_table = render_table(
        ["cache", "hit rate", "hits", "misses", "evictions"],
        stat_rows,
        title="Cache hit rates during one end-to-end run",
    )
    return mode_table + "\n\n" + stats_table


# ----------------------------------------------------------------------
# Section 3: similarity caches on the attribute-resolution hot path.


def run_cache_section(serial_pipeline) -> dict:
    all_triples = [
        scored
        for output in serial_pipeline.outputs.values()
        for scored in output.triples
    ]

    def resolve_once():
        started = time.perf_counter()
        resolved = serial_pipeline._resolve_attributes(list(all_triples))
        return time.perf_counter() - started, sorted(
            repr(triple) for triple in resolved
        )

    configure_similarity_caches(enabled=False)
    off_seconds, off_output = resolve_once()
    clear_similarity_caches()
    configure_similarity_caches(enabled=True)
    cold_seconds, cold_output = resolve_once()
    warm_seconds, warm_output = resolve_once()

    hit_rates = {
        name: {
            "hit_rate": round(stats.hit_rate, 4),
            "hits": stats.hits,
            "misses": stats.misses,
            "evictions": stats.evictions,
            "size": stats.size,
        }
        for name, stats in similarity_cache_stats().items()
    }
    return {
        "input_claims": len(all_triples),
        "attribute_resolution_seconds": {
            "cache_off": round(off_seconds, 3),
            "cache_cold": round(cold_seconds, 3),
            "cache_warm": round(warm_seconds, 3),
        },
        "warm_speedup": round(off_seconds / warm_seconds, 3),
        "identical_output": off_output == cold_output == warm_output,
        "cache_stats": hit_rates,
    }


def cache_table(section: dict) -> str:
    seconds = section["attribute_resolution_seconds"]
    timing_table = render_table(
        ["cache off", "cache cold", "cache warm", "warm speedup",
         "identical"],
        [
            [
                f"{seconds['cache_off']:.2f}s",
                f"{seconds['cache_cold']:.2f}s",
                f"{seconds['cache_warm']:.2f}s",
                f"{section['warm_speedup']:.2f}x",
                "yes" if section["identical_output"] else "NO",
            ]
        ],
        title=(
            "Similarity caches: attribute resolution "
            f"({section['input_claims']} claims)"
        ),
    )
    stat_rows = [
        [name, format_ratio(stats["hit_rate"]), stats["hits"],
         stats["misses"], stats["evictions"], stats["size"]]
        for name, stats in sorted(section["cache_stats"].items())
    ]
    stats_table = render_table(
        ["cache", "hit rate", "hits", "misses", "evictions", "size"],
        stat_rows,
        title="Per-cache statistics (cumulative this run)",
    )
    return timing_table + "\n\n" + stats_table


# ----------------------------------------------------------------------
# Harness.


def run_all(quick: bool) -> tuple[dict, str]:
    retry = run_retry_section(quick)
    pipeline = run_pipeline_section(quick)
    cache = run_cache_section(pipeline.pop("serial_pipeline"))
    document = {
        "meta": {
            "quick": quick,
            "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
        },
        "retry_overhead": retry,
        "pipeline": pipeline,
        "similarity_cache": cache,
    }
    tables = "\n\n".join(
        [
            retry_table(retry),
            pipeline_table(pipeline),
            cache_table(cache),
        ]
    )
    return document, tables


def emit(document: dict, tables: str) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "parallel.txt").write_text(tables + "\n")
    (OUT_DIR / "BENCH_parallel.json").write_text(
        json.dumps(document, indent=2) + "\n"
    )


def test_parallel_report():
    document, tables = run_all(quick=False)
    print()
    print(tables)
    emit(document, tables)

    for record in document["retry_overhead"]["runs"]:
        assert record["identical"]
        assert record["overhead_ratio"] > 0
    cache = document["similarity_cache"]
    assert cache["identical_output"]
    # The DOM tag-path cache is the headline win; the warm
    # attribute-resolution pass must also come out ahead.
    extraction_stats = document["pipeline"]["extraction_cache_stats"]
    assert extraction_stats["tagpath-relative"]["hit_rate"] > 0.5
    assert cache["warm_speedup"] > 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink every workload (CI smoke mode)",
    )
    options = parser.parse_args(argv)
    document, tables = run_all(quick=options.quick)
    print(tables)
    emit(document, tables)
    print(f"\nwrote {OUT_DIR / 'BENCH_parallel.json'}")
    failures = []
    if not all(r["identical"] for r in document["retry_overhead"]["runs"]):
        failures.append("retries-on outputs diverged from retries-off")
    if not document["similarity_cache"]["identical_output"]:
        failures.append("cached attribute resolution diverged")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
