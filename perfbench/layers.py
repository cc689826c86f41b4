"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps the public functions and methods listed in
:data:`TARGETS` for the duration of a traced pass and restores them
afterwards; nothing under ``src/`` is edited.  While the workload's
measured region is open (:meth:`LayerTracer.measuring`) every wrapped
call records a span.  Per layer name it accumulates:

* **busy** time: wall time of the outermost call of that name (a
  recursive or re-entrant call is not counted twice);
* **self** time: busy time minus the time of wrapped calls nested in it;
* **calls**, and counters fed from return values (:data:`HOOKS`).

Calls that start with no wrapped call open are *top level*; their total
time divided by the measured wall time is ``trace.coverage``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: (layer name, module, attribute path).  Several targets may share a
#: layer name; a function imported by name into other modules is
#: patched wherever the same object is bound.
TARGETS = (
    ("synth.generate", "repro.synth.kb_snapshots", "build_kb_pair"),
    ("synth.generate", "repro.synth.querylog", "generate_query_log"),
    ("synth.generate", "repro.synth.websites", "generate_websites"),
    ("synth.generate", "repro.synth.webtext", "generate_webtext"),
    ("extract.kb.extract", "repro.extract.kb", "KbExtractor.extract"),
    ("extract.querystream.extract", "repro.extract.querystream",
     "QueryStreamExtractor.extract"),
    ("extract.dom.extract", "repro.extract.dom", "DomTreeExtractor.extract"),
    ("extract.webtext.learn", "repro.extract.webtext",
     "WebTextExtractor.learn"),
    ("extract.webtext.extract", "repro.extract.webtext",
     "WebTextExtractor.extract"),
    ("entity.resolution.run", "repro.entity.resolution",
     "AttributeResolver.run"),
    ("core.confidence.score_batch", "repro.core.confidence",
     "ConfidenceScorer.score_batch"),
    ("core.augmentation.augment_kb", "repro.core.augmentation", "augment_kb"),
    ("fusion.fuse", "repro.fusion.knowledge_fusion", "KnowledgeFusion.fuse"),
    ("fusion.fuse", "repro.fusion.hierarchy", "HierarchicalFusion.fuse"),
    ("fusion.fuse", "repro.fusion.multitruth", "MultiTruth.fuse"),
    ("fusion.correlations.estimate", "repro.fusion.correlations",
     "CorrelationEstimator.estimate"),
    ("fusion.sharding.shard_claims", "repro.fusion.sharding", "shard_claims"),
    ("incremental.apply_delta", "repro.incremental.engine",
     "IncrementalFusion.apply_delta"),
    ("incremental.canonical_claims", "repro.incremental.engine",
     "canonical_claims"),
    ("incremental.journal.apply", "repro.incremental.journal",
     "DeltaJournal.apply"),
    ("rdf.store.copy", "repro.rdf.store", "TripleStore.copy"),
    ("rdf.backend.claims_for_item", "repro.rdf.backend",
     "MemoryBackend.claims_for_item"),
    ("rdf.segments.add_all", "repro.rdf.segments", "SegmentBackend.add_all"),
    ("rdf.segments.flush", "repro.rdf.segments", "SegmentBackend.flush"),
    ("rdf.segments.compact", "repro.rdf.segments", "SegmentBackend.compact"),
    ("rdf.segments.open", "repro.rdf.segments", "SegmentBackend.__init__"),
    ("rdf.segments.close", "repro.rdf.segments", "SegmentBackend.close"),
    ("rdf.segments.read", "repro.rdf.segments",
     "SegmentBackend.claims_for_item"),
    ("rdf.segments.read", "repro.rdf.segments", "SegmentBackend.match"),
    ("rdf.segments.build", "repro.rdf.segments", "build_segment_bytes"),
    ("serving.stream.append", "repro.serving.stream", "EventLog.append"),
    ("serving.server.step", "repro.serving.server", "KBServer.step"),
    ("serving.version.commit", "repro.serving.version", "VersionedKB.commit"),
    ("serving.query.lookup", "repro.serving.query", "KBReader.lookup"),
    ("serving.query.scan_subject", "repro.serving.query",
     "KBReader.scan_subject"),
    ("serving.query.scan_predicate", "repro.serving.query",
     "KBReader.scan_predicate"),
    ("serving.query.top_entities", "repro.serving.query",
     "KBReader.top_entities"),
    ("serving.tenancy.pump", "repro.serving.tenancy", "TenantRuntime.pump"),
    ("evalx.evaluate_fusion", "repro.evalx.metrics", "evaluate_fusion"),
)


def _count_rounds(tracer, args, kwargs, result) -> None:
    tracer.counters["fusion.rounds"] += result.iterations


def _count_reuse(tracer, args, kwargs, result) -> None:
    tracer.counters["incremental.deltas"] += 1
    tracer.counters["incremental.components"] += result.components
    tracer.counters["incremental.reused_components"] += (
        result.reused_components
    )
    tracer.counters["incremental.dirty_components"] += (
        result.dirty_components
    )


def _count_segment(tracer, args, kwargs, result) -> None:
    tracer.counters["rdf.segments.bytes_written"] += len(result)
    if not kwargs.get("canonical", False):
        tracer.counters["rdf.segments.flushes"] += 1


#: Counters fed from the return value of the *outermost* call of a layer.
HOOKS = {
    "fusion.fuse": _count_rounds,
    "incremental.apply_delta": _count_reuse,
    "rdf.segments.build": _count_segment,
}


class _Layer:
    __slots__ = ("busy", "self_time", "calls", "depth")

    def __init__(self) -> None:
        self.busy = 0.0
        self.self_time = 0.0
        self.calls = 0
        self.depth = 0


class LayerTracer:
    """Span-recording wrappers around :data:`TARGETS` (one thread)."""

    def __init__(self) -> None:
        self.layers: dict[str, _Layer] = defaultdict(_Layer)
        self.counters: dict[str, float] = defaultdict(float)
        self.top_level = 0.0
        self.measured = 0.0
        # (layer, start, end, parent span index or -1), kept in memory
        # and written out by :meth:`write_spans`.
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[list] = []
        self._on = False
        self._origin = time.perf_counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        for layer, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = vars(owner)[attr]
            wrapper = self._wrap(layer, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            # A module function: rebind it wherever it was imported by name.
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def measuring(self):
        """Open the measured region: wrapped calls record spans."""
        started = time.perf_counter()
        self._on = True
        try:
            yield
        finally:
            self._on = False
            self.measured += time.perf_counter() - started

    # -- the wrapper ---------------------------------------------------
    def _wrap(self, layer: str, function):
        stats = self.layers[layer]
        hook = HOOKS.get(layer)
        stack = self._stack
        spans = self.spans

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not self._on:
                return function(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            stats.depth += 1
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                elapsed = ended - started
                stack.pop()
                stats.depth -= 1
                stats.calls += 1
                stats.self_time += elapsed - frame[1]
                if stats.depth == 0:
                    stats.busy += elapsed
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.top_level += elapsed
                spans[frame[0]] = (
                    layer, started - self._origin, ended - self._origin,
                    parent,
                )
            if hook is not None and stats.depth == 0:
                hook(self, args, kwargs, result)
            return result

        return traced

    # -- read-out ------------------------------------------------------
    def busy(self, layer: str) -> float:
        return self.layers[layer].busy if layer in self.layers else 0.0

    def self_time(self, layer: str) -> float:
        return self.layers[layer].self_time if layer in self.layers else 0.0

    def summary(self) -> dict:
        """Calls, busy and self seconds of every layer that was called."""
        return {
            layer: {
                "calls": stats.calls,
                "busy_s": stats.busy,
                "self_s": stats.self_time,
            }
            for layer, stats in sorted(self.layers.items())
            if stats.calls
        }

    def write_spans(self, path) -> None:
        """Write the recorded spans as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "fields": ["layer", "start_s", "end_s", "parent"],
                    "spans": [list(span) for span in self.spans],
                }
            )
        )
