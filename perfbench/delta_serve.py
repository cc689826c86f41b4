"""Workload ``delta_serve``: a stream of small deltas into one ``KBServer``.

Set-up builds a corpus of disjoint claim worlds (one connected
component each), holds a fifth of every world's claims back, and primes
one incremental engine and server on the rest.  The measured loop is a
closed loop from one client: publish one delta, ``step`` until it is
committed, then run a fixed read mix on a reader freshly pinned to the
new version; the next delta is published only after that.

Each delta touches one world, so it dirties one of ``worlds``
components: it retracts one live triple and adds two claims, taken from
the held-back claims while any are left and then from retracted triples
(re-additions).  This is the one workload where component reuse can pay.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field

from repro.evalx.freshness import truth_metrics
from repro.fusion.knowledge_fusion import KnowledgeFusion
from repro.incremental import engine as incremental_engine
from repro.incremental.delta import ClaimDelta
from repro.mapreduce.engine import RetryPolicy
from repro.obs.metrics import MetricsRegistry
from repro.rdf.store import TripleStore
from repro.serving.server import KBServer
from repro.serving.stream import EventLog

from perfbench.corpus import claim_worlds
from perfbench.harness import Run, Setups, latency_summary

SIZES = {
    "full": {"worlds": 120, "items": 12, "sources": 6},
    "tiny": {"worlds": 12, "items": 6, "sources": 4},
}
MAX_ITERATIONS = 10
HELD_BACK = 0.2
PREDICATE = "attr"  # the claim worlds' single attribute
# Read mix run after every commit: kind -> count.
READ_MIX = (
    ("lookup", 8),
    ("scan_subject", 2),
    ("scan_predicate", 1),
    ("top_entities", 1),
)
SCAN_LIMIT = 20
TOP_K = 10


def _fusion(metrics=None) -> KnowledgeFusion:
    # tolerance=0 pins the iteration count: the byte-identity regime.
    return KnowledgeFusion(
        tolerance=0.0, max_iterations=MAX_ITERATIONS, metrics=metrics
    )


class DeltaStream:
    """Seeded, unbounded stream of one-world deltas."""

    def __init__(self, rng: random.Random, live, held) -> None:
        self.rng = rng
        # Per world: live triple -> its claims; held-back claims;
        # retracted triples (with their claims) awaiting re-addition.
        self.live = live
        self.held = held
        self.retracted: list[list] = [[] for _ in live]
        self.count = 0

    def next(self) -> ClaimDelta:
        rng = self.rng
        world = rng.randrange(len(self.live))
        live = self.live[world]
        triple = sorted(live, key=repr)[rng.randrange(len(live))]
        retracted = [triple]
        gone = live.pop(triple)
        added = []
        for _ in range(2):
            if self.held[world]:
                one = self.held[world].pop()
                live.setdefault(one.triple, []).append(one)
                added.append(one)
            elif self.retracted[world]:
                pool = self.retracted[world]
                back, claims = pool.pop(rng.randrange(len(pool)))
                live.setdefault(back, []).extend(claims)
                added.extend(claims)
        # Re-addable from the next delta on, so no delta undoes itself.
        self.retracted[world].append((triple, gone))
        self.count += 1
        return ClaimDelta(
            added=added, retracted=retracted, label=f"delta-{self.count}"
        )


@dataclass
class State:
    server: KBServer
    metrics: MetricsRegistry
    stream: DeltaStream
    truth: dict
    subjects: list[str]
    rng: random.Random
    reads: dict = field(default_factory=dict)


def make_state(seed: int, size: str) -> State:
    shape = SIZES[size]
    per_world, truth = claim_worlds(
        seed, shape["worlds"], shape["items"], shape["sources"]
    )
    rng = random.Random(seed)
    base, live, held = [], [], []
    for claims in per_world:
        claims = list(claims)
        rng.shuffle(claims)
        cut = int(len(claims) * HELD_BACK)
        held.append(claims[:cut])
        world_live: dict = {}
        for one in claims[cut:]:
            world_live.setdefault(one.triple, []).append(one)
            base.append(one)
        live.append(world_live)
    store = TripleStore()
    store.add_all(base)
    metrics = MetricsRegistry()
    engine = _fusion(metrics).begin_incremental(store)
    server = KBServer(
        engine,
        EventLog(capacity=4096, metrics=metrics),
        retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
        metrics=metrics,
    )
    subjects = sorted({one.triple.subject for one in base})
    return State(
        server=server,
        metrics=metrics,
        stream=DeltaStream(rng, live, held),
        truth=truth,
        subjects=subjects,
        rng=random.Random(seed + 1),
    )


def _read_mix(state: State, reader, delta: ClaimDelta, run: Run) -> None:
    """The fixed read mix on one pinned reader; every read timed."""
    rng = state.rng
    dirty = delta.retracted[0].subject
    for kind, count in READ_MIX:
        for index in range(count):
            subject = (
                dirty if index % 2 == 0
                else state.subjects[rng.randrange(len(state.subjects))]
            )
            begun = run.clock()
            if kind == "lookup":
                reader.lookup(subject, PREDICATE)
            elif kind == "scan_subject":
                reader.scan_subject(subject)
            elif kind == "scan_predicate":
                reader.scan_predicate(PREDICATE, limit=SCAN_LIMIT)
            else:
                reader.top_entities(TOP_K)
            run.read_seconds.append(run.clock() - begun)
            state.reads[kind] = state.reads.get(kind, 0) + 1


def check_served(served: bytes, reference: bytes, actions: list[str]) -> list[str]:
    """Served verdicts equal a cold re-fusion; every step was applied."""
    failures = []
    if served != reference:
        failures.append("delta_serve.served_differs_from_refusion")
    if any(action != "applied" for action in actions):
        failures.append("delta_serve.step_not_applied")
    return failures


def measure(run: Run, seed: int, seconds: float, size: str, tracer=None) -> None:
    state = Setups(lambda: make_state(seed, size), run).warm()
    server, metrics = state.server, state.metrics
    dirty_counter = metrics.counter("incremental_dirty_components")
    actions, dirty_shares = [], []
    delta_claims = 0
    started = run.clock()
    while run.clock() - started < seconds or not actions:
        delta = state.stream.next()
        dirty_before = dirty_counter.value
        run.settle()
        with run.measuring(tracer):
            begun = run.clock()
            try:
                server.publish(delta)
                outcome = server.step()
                committed = run.clock()
                _read_mix(state, server.reader(), delta, run)
            except Exception as exc:  # noqa: BLE001 — counted, reported
                run.attempt(False)
                run.extras["error"] = f"{type(exc).__name__}: {exc}"
                break
        action = outcome.action if outcome is not None else "none"
        actions.append(action)
        run.attempt(action == "applied")
        run.op(begun, committed)
        run.units += 1
        size_of_delta = len(delta.added) + len(delta.retracted)
        delta_claims += size_of_delta
        run.wrote(size_of_delta, begun, committed)
        dirty_shares.append(
            (dirty_counter.value - dirty_before) / server.engine.components
        )
    run.attempted += sum(count for _, count in READ_MIX) * len(actions)

    served = server.versions.current
    begun = run.clock()
    reference = _fusion().fuse(
        incremental_engine.canonical_claims(server.engine.store)
    )
    full_refuse = run.clock() - begun
    run.check(
        check_served(served.canonical_bytes(), reference.canonical_bytes(),
                     actions)
    )
    run.outputs.update(served=served, reference=reference, actions=actions)

    commit_p50 = statistics.median(run.op_seconds) if run.op_seconds else 0.0
    run.extras.update(
        kb_f1=truth_metrics(served.result.truths, state.truth).f1,
        full_refuse_ms=full_refuse * 1e3,
        commit_p50_over_full_refuse=commit_p50 / full_refuse,
        commit_ms=latency_summary(run.op_seconds, 1e3),
        read_us=latency_summary(run.read_seconds, 1e6),
    )
    run.traffic.update(
        claims=len(served.store),
        components=server.engine.components,
        deltas=len(actions),
        delta_claims=delta_claims,
        dirty_share_mean=(
            statistics.fmean(dirty_shares) if dirty_shares else 0.0
        ),
        dirty_share_max=max(dirty_shares, default=0.0),
        reads=dict(state.reads),
        retries=metrics.counter("stream_retries_total").value,
    )
