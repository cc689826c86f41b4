"""Workload ``tenant_fleet``: 16 mixed tenants on one ``TenantManager``.

Set-up generates a fleet (static, drift and copying tenants in turn)
and primes every tenant's private serving stack.  The measured loop
drains the fleet fair-share, the way ``TenantManager.drain_fair`` does:
rounds over the live tenants in name order, one ``TenantRuntime.pump``
turn each (publish one delta, consume up to ``STEPS``), followed by one
read on a reader pinned to that tenant's current version.

Each tenant's producer is a closed loop: it has its next delta ready as
soon as its previous one was committed and read back, and publishes it
at its next turn.  A delta's latency runs from that moment to its
commit, so it includes the other tenants' turns.  Every tenant is one
connected component, so every delta dirties all of its tenant: the
workload on which component reuse is bypassed.  Fleets are drained one
after another until the measuring time is spent.
"""

from __future__ import annotations

import statistics

from repro.fusion.sharding import shard_claims
from repro.incremental import engine as incremental_engine
from repro.obs.metrics import MetricsRegistry
from repro.serving.tenancy import TenantManager
from repro.synth.tenants import TenantMixConfig

from perfbench.harness import Run, Setups, latency_summary

SIZES = {
    "full": {"tenants": 16, "items": 40, "deltas": 12},
    "tiny": {"tenants": 3, "items": 12, "deltas": 3},
}
STEPS = 2  # drain_fair's default steps per turn
READ_KINDS = ("lookup", "scan_subject", "scan_predicate", "top_entities")
SCAN_LIMIT = 20
TOP_K = 10


def make_fleet(seed: int, size: str) -> TenantManager:
    shape = SIZES[size]
    return TenantManager.from_mix(
        TenantMixConfig(
            n_tenants=shape["tenants"],
            seed=seed,
            n_items=shape["items"],
            parts=shape["deltas"],
            epochs=shape["deltas"],
        ),
        metrics=MetricsRegistry(),
    )


def _read(runtime, tick: int) -> str:
    """One pinned read on a tenant; the kind rotates with ``tick``."""
    reader = runtime.server.reader()
    kind = READ_KINDS[tick % len(READ_KINDS)]
    truths = reader.version.result.truths
    subject, predicate = min(truths) if truths else ("", "")
    if kind == "lookup":
        reader.lookup(subject, predicate)
    elif kind == "scan_subject":
        reader.scan_subject(subject)
    elif kind == "scan_predicate":
        reader.scan_predicate(predicate, limit=SCAN_LIMIT)
    else:
        reader.top_entities(TOP_K)
    return kind


def check_fleet(fleet: TenantManager) -> list[str]:
    """Every tenant ends finished, not halted, with zero lag."""
    failures = []
    for name in fleet.names():
        runtime = fleet.tenant(name)
        server = runtime.server
        if runtime.halted is not None:
            failures.append(f"tenant_fleet.{name}.halted")
        if not runtime.finished:
            failures.append(f"tenant_fleet.{name}.unfinished")
        if server.log.lag(server.group) != 0:
            failures.append(f"tenant_fleet.{name}.lag")
    return failures


def _drain(fleet: TenantManager, run: Run, tracer, stats: dict) -> None:
    """Drain one fleet fair-share, timing every delta and read.

    ``Run.settle`` runs between rounds, with the run's clock stopped, so
    it stays out of every open latency.
    """
    issued = dict.fromkeys(fleet.names(), run.clock())
    pending: dict[str, int] = {}
    while True:
        run.settle()
        live = [
            name for name in fleet.names()
            if fleet.tenant(name).halted is None
            and not fleet.tenant(name).finished
        ]
        if not live:
            return
        for name in live:
            runtime = fleet.tenant(name)
            server = runtime.server
            published = runtime.published
            dirty = runtime.metrics.counter("incremental_dirty_components")
            dirty_before = dirty.value
            with run.measuring(tracer):
                begun = run.clock()
                try:
                    runtime.pump(STEPS)
                    pumped = run.clock()
                    kind = _read(runtime, stats["reads_total"])
                except Exception as exc:  # noqa: BLE001 — tenant boundary
                    run.attempt(False)
                    runtime.halted = f"{type(exc).__name__}: {exc}"
                    continue
                read_done = run.clock()
            run.attempt(True)
            run.attempted += 1  # the read
            run.read_seconds.append(read_done - pumped)
            stats["reads"][kind] = stats["reads"].get(kind, 0) + 1
            stats["reads_total"] += 1
            if runtime.published > published:
                delta = runtime.pending[runtime.published - 1]
                pending[name] = server.log.head - 1
                run.wrote(len(delta.added) + len(delta.retracted), begun, pumped)
                stats["wait"].append(begun - issued[name])
            if name in pending and server.versions.current.offset > pending[name]:
                del pending[name]
                run.op(issued[name], pumped)
                run.units += 1
                issued[name] = read_done
                stats["dirty_shares"].append(
                    (dirty.value - dirty_before) / server.engine.components
                )


def measure(run: Run, seed: int, seconds: float, size: str, tracer=None) -> None:
    fleet_index = iter(range(1 << 30))
    setups = Setups(
        lambda: make_fleet(seed * 1000 + next(fleet_index), size), run
    )
    stats = {"reads": {}, "reads_total": 0, "wait": [], "dirty_shares": []}
    f1s, fleets, deltas = [], 0, 0
    fleet = None
    started = run.clock()
    while run.clock() - started < seconds or not fleets:
        fleet = None
        fleet = setups.build()
        _drain(fleet, run, tracer, stats)
        run.check(check_fleet(fleet))
        rows = fleet.eval_rows().rows
        f1s.append(statistics.fmean(row.f1 for row in rows))
        fleets += 1
        deltas += sum(row.published for row in rows)
    engines = [fleet.tenant(name).server.engine for name in fleet.names()]
    run.outputs["fleet"] = fleet
    run.extras.update(
        kb_f1=statistics.fmean(f1s),
        commit_ms=latency_summary(run.op_seconds, 1e3),
        read_us=latency_summary(run.read_seconds, 1e6),
    )
    run.traffic.update(
        fleets=fleets,
        tenants=SIZES[size]["tenants"],
        claims_last_fleet=sum(len(engine.store) for engine in engines),
        components_per_tenant=sorted({
            len(shard_claims(incremental_engine.canonical_claims(engine.store)))
            for engine in engines
        }),
        deltas=deltas,
        dirty_share_mean=(
            statistics.fmean(stats["dirty_shares"])
            if stats["dirty_shares"] else 0.0
        ),
        turn_wait_s_mean=(
            statistics.fmean(stats["wait"]) if stats["wait"] else 0.0
        ),
        reads=stats["reads"],
    )
