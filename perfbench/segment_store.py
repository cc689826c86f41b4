"""Workload ``segment_store``: bulk ingest, compact and reopen segment storage.

Set-up generates a claim corpus about five times ``MEMTABLE_LIMIT``.
One measured cycle bulk-ingests it in batches through
``TripleStore(SegmentBackend(...))`` (automatic flushes included),
compacts and closes the store, reopens the directory ``REOPENS`` times,
and runs point lookups and subject scans on the reopened store.  Cycles
repeat, each in a fresh directory, until the measuring time is spent.
The only workload on ``rdf.segments``.
"""

from __future__ import annotations

import random
import statistics
from repro.obs.metrics import MetricsRegistry
from repro.rdf.segments import SegmentBackend
from repro.rdf.store import TripleStore

from perfbench.corpus import claim_worlds, claims_digest
from perfbench.harness import Run, Setups, latency_summary, work_dir

SIZES = {
    "full": {"worlds": 200, "items": 12, "sources": 6},
    "tiny": {"worlds": 10, "items": 6, "sources": 4},
}
MEMTABLE_LIMIT = 2048
BATCH = 1000
REOPENS = 20
LOOKUPS = 200
SCANS = 20
PREDICATE = "attr"


def make_corpus(seed: int, size: str) -> list:
    shape = SIZES[size]
    per_world, _ = claim_worlds(
        seed, shape["worlds"], shape["items"], shape["sources"]
    )
    return [one for claims in per_world for one in claims]


def _open(directory, metrics=None) -> TripleStore:
    return TripleStore(
        SegmentBackend(directory, memtable_limit=MEMTABLE_LIMIT, metrics=metrics)
    )


def check_digest(reopened: list, expected: str) -> list[str]:
    """The reopened store holds exactly the ingested claims, in order."""
    if claims_digest(reopened) != expected:
        return ["segment_store.reopened_digest_differs"]
    return []


def _cycle(directory, corpus, subjects, rng, run: Run, tracer, stats) -> None:
    """One ingest → compact → close → reopen → read cycle in ``directory``."""
    metrics = MetricsRegistry()
    run.settle()
    with run.measuring(tracer):
        begun = run.clock()
        store = _open(directory, metrics)
        for start in range(0, len(corpus), BATCH):
            store.add_all(corpus[start:start + BATCH])
            run.attempt(True)
        ingested = run.clock()
        store.compact()
        store.close()
        compacted = run.clock()
    for index in range(REOPENS):
        with run.measuring(tracer):
            opened = run.clock()
            store = _open(directory)
            run.op(opened, run.clock())
            if index < REOPENS - 1:
                store.close()
        run.attempt(True)
    with run.measuring(tracer):
        for index in range(LOOKUPS + SCANS):
            subject = subjects[rng.randrange(len(subjects))]
            read = run.clock()
            if index < LOOKUPS:
                store.claims_for_item(subject, PREDICATE)
            else:
                store.match(subject=subject)
            run.read_seconds.append(run.clock() - read)
            run.attempt(True)
    run.wrote(len(corpus), begun, ingested)
    run.units += 1
    stats["compact_seconds"].append(compacted - ingested)
    stats["flushes"] += metrics.counter("storage_flushes_total").value
    stats["compactions"] += metrics.counter("storage_compactions_total").value
    stats["stored_bytes"] += sum(path.stat().st_size for path in directory.iterdir())
    stats["live_claims"] += len(store)
    run.outputs["reopened"] = store.claims()
    store.close()


def measure(run: Run, seed: int, seconds: float, size: str, tracer=None) -> None:
    corpus = Setups(lambda: make_corpus(seed, size), run).warm()

    # Baseline from the same run: the same claims into the memory backend.
    begun = run.clock()
    memory = TripleStore()
    for start in range(0, len(corpus), BATCH):
        memory.add_all(corpus[start:start + BATCH])
    memory_seconds = run.clock() - begun
    expected = claims_digest(memory.claims())
    run.outputs["expected"] = expected

    subjects = sorted({one.triple.subject for one in corpus})
    rng = random.Random(seed)
    stats = {"compact_seconds": [], "flushes": 0, "compactions": 0,
             "stored_bytes": 0, "live_claims": 0}
    started = run.clock()
    while run.clock() - started < seconds or not run.units:
        try:
            with work_dir() as directory:
                _cycle(directory, corpus, subjects, rng, run, tracer, stats)
        except Exception as exc:  # noqa: BLE001 — counted, reported
            run.attempt(False)
            run.extras["error"] = f"{type(exc).__name__}: {exc}"
            break
        run.check(check_digest(run.outputs["reopened"], expected))

    ingest_rate = statistics.median(run.write_rates) if run.write_rates else 0.0
    memory_rate = len(corpus) / memory_seconds
    run.extras.update(
        reopen_ms=latency_summary(run.op_seconds, 1e3),
        read_us=latency_summary(run.read_seconds, 1e6),
        bytes_per_claim=(
            stats["stored_bytes"] / stats["live_claims"]
            if stats["live_claims"] else 0.0
        ),
        compact_ms_p50=(
            statistics.median(stats["compact_seconds"]) * 1e3
            if stats["compact_seconds"] else 0.0
        ),
        memory_ingest_claims_per_s=memory_rate,
        ingest_over_memory=ingest_rate / memory_rate,
    )
    run.traffic.update(
        claims=len(corpus),
        cycles=run.units,
        flushes=stats["flushes"],
        compactions=stats["compactions"],
        stored_bytes=stats["stored_bytes"],
        reads={"lookup": LOOKUPS * run.units, "scan_subject": SCANS * run.units},
    )
