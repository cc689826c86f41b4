"""Dirty-component re-fusion over a journalled claim store.

Fusion couples an item to its sources and a source to its items, so a
delta that touches a handful of items can only change verdicts inside
the connected components of the claim graph it lands in (see
:mod:`repro.fusion.sharding`).  The :class:`IncrementalFusion` engine
exploits that:

1. the current claim corpus lives in a :class:`TripleStore`; each
   delta is journalled against a *copy* of it (retract, then add);
2. claims are canonicalized (sorted on a total key, then deduplicated
   through :meth:`ClaimSet.from_scored_triples`), so the fused output
   is a function of store *content*, not of journal history;
3. the canonical claim set is partitioned into connected components;
   each component carries a content digest, and a component whose
   digest matches the cached entry from the previous state is *clean*
   — its cached verdicts are reused verbatim.  Everything else is
   *dirty* and re-fused;
4. the merged result plus the new component cache are committed as a
   single state-object swap, so a crash anywhere before the commit
   leaves the engine fully pre-delta (the torn-state chaos contract).

Two estimation details make the reuse exact rather than approximate:

* extractor-correlation weights are global (extractors span
  components), so they are recomputed per delta and folded into claim
  confidences *before* partitioning — a shifted extractor weight
  changes every component digest and degenerates the delta to a full
  re-fusion, which is the correct price for a global parameter shift;
* source-correlation weights are component-local by construction
  (sources in different components share no items, and the estimator
  ignores pairs without common items), so the engine estimates them
  per component inside :meth:`_fuse_component` and still matches the
  global estimate bit for bit.

Byte-identity contract: with ``KnowledgeFusion(tolerance=0)``,
``apply_delta(delta)`` and a full ``fuse(canonical_claims(store))``
over the post-delta store produce results whose
:meth:`~repro.fusion.base.FusionResult.canonical_bytes` agree exactly.
At a nonzero tolerance, per-component early exit keeps engine-to-engine
determinism but may differ from a *global* fuse by up to the tolerance
(the standard sharding caveat).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

from repro.errors import DeltaError
from repro.fusion.base import ClaimSet, FusionResult
from repro.fusion.sharding import merge, shard_claims
from repro.incremental.delta import ClaimDelta
from repro.incremental.journal import DeltaJournal, DeltaReceipt
from repro.rdf.store import TripleStore
from repro.rdf.triple import ScoredTriple

__all__ = [
    "ComponentEntry",
    "DeltaOutcome",
    "IncrementalFusion",
    "canonical_claims",
]


def _scored_sort_key(scored: ScoredTriple):
    triple = scored.triple
    provenance = scored.provenance
    return (
        triple.subject,
        triple.predicate,
        triple.obj.kind.value,
        triple.obj.lexical,
        provenance.source_id,
        provenance.extractor_id,
        provenance.locator,
        scored.confidence,
    )


def canonical_claims(store: TripleStore) -> ClaimSet:
    """The store's claims as a canonically-ordered :class:`ClaimSet`.

    Sorting on a total key before building the claim set makes the
    fused output a pure function of store *content*: two stores that
    hold the same claims — regardless of the add/remove history that
    produced them — yield byte-identical claim sets, hence
    byte-identical fusion (float accumulation order included).
    """
    return ClaimSet.from_scored_triples(
        sorted(store.claims(), key=_scored_sort_key)
    )


def _component_digest(shard: ClaimSet) -> str:
    """Content digest of one component's (reweighted) claims."""
    signature = sorted(
        (
            claim.item,
            claim.value,
            claim.lexical,
            claim.source_id,
            claim.extractor_id,
            claim.confidence,
        )
        for claim in shard
    )
    return hashlib.sha256(repr(signature).encode()).hexdigest()


@dataclass(slots=True)
class ComponentEntry:
    """Cached fusion of one connected component."""

    sources: frozenset[str]
    content_hash: str
    n_claims: int
    # The component's own fused sub-result, *before* the functional
    # constraint (which is applied on the merged result so a changed
    # functionality oracle never invalidates the cache).
    result: FusionResult


@dataclass(slots=True)
class _FusionState:
    """Everything one committed engine state consists of.

    ``apply_delta`` builds a complete replacement state off to the
    side and installs it with a single attribute rebind — the commit
    point of the no-torn-state contract.
    """

    store: TripleStore
    claims: ClaimSet  # canonical, pre-reweight
    working: ClaimSet  # post extractor reweight (== claims when off)
    extractor_weights: dict[str, float]
    entries: list[ComponentEntry]
    result: FusionResult
    sequence: int = 0


@dataclass(slots=True)
class DeltaOutcome:
    """Accounting of one applied delta."""

    sequence: int
    receipt: DeltaReceipt
    result: FusionResult
    components: int
    dirty_components: int
    reused_components: int
    # Items whose cached verdicts were carried over unfused.
    reused_verdicts: int
    # Claims inside the re-fused (dirty) components.
    refused_claims: int
    # True when every component was re-fused — the delta degenerated
    # to a full re-fusion (e.g. a global extractor-weight shift).
    degenerate: bool
    wall_seconds: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "sequence": self.sequence,
            "receipt": self.receipt.to_json_dict(),
            "components": self.components,
            "dirty_components": self.dirty_components,
            "reused_components": self.reused_components,
            "reused_verdicts": self.reused_verdicts,
            "refused_claims": self.refused_claims,
            "degenerate": self.degenerate,
            "wall_seconds": self.wall_seconds,
            "fused_items": len(self.result.truths),
        }


@dataclass(slots=True)
class _ComputeStats:
    components: int = 0
    dirty_components: int = 0
    reused_components: int = 0
    reused_verdicts: int = 0
    refused_claims: int = 0


class IncrementalFusion:
    """Cached per-component fusion state plus the delta-apply loop.

    Built via :meth:`KnowledgeFusion.begin_incremental`; not intended
    to be constructed from scratch elsewhere (it drives the fusion
    object's private preparation helpers to guarantee byte-identity
    with full re-fusion).
    """

    def __init__(
        self,
        fusion,
        store: TripleStore,
        *,
        functional_refresh=None,
        metrics=None,
        fault_plan=None,
    ) -> None:
        self.fusion = fusion
        self.functional_refresh = functional_refresh
        self.metrics = metrics
        self.fault_plan = fault_plan
        self.receipts: list[DeltaReceipt] = []
        self._initial_store = store
        self._state: _FusionState | None = None

    # -- public state ---------------------------------------------------
    @property
    def store(self) -> TripleStore:
        return (
            self._state.store
            if self._state is not None
            else self._initial_store
        )

    @property
    def claims(self) -> ClaimSet:
        self._require_primed()
        return self._state.claims

    @property
    def result(self) -> FusionResult:
        self._require_primed()
        return self._state.result

    @property
    def sequence(self) -> int:
        return self._state.sequence if self._state is not None else -1

    @property
    def components(self) -> int:
        self._require_primed()
        return len(self._state.entries)

    def _require_primed(self) -> None:
        if self._state is None:
            raise DeltaError("incremental engine not primed yet")

    # -- lifecycle ------------------------------------------------------
    def prime(self) -> FusionResult:
        """Fuse the initial store in full, caching every component."""
        state, stats = self._compute(self._initial_store, {})
        self._state = state
        self._count("incremental_primes_total")
        self._gauge("incremental_components", stats.components)
        return state.result

    def apply_delta(self, delta: ClaimDelta) -> DeltaOutcome:
        """Journal one delta and re-fuse only its dirty components.

        All mutation is staged against copies; the engine's visible
        state changes in a single commit at the end, so a crash (or an
        injected fault) mid-apply leaves the store *and* the cached
        result exactly pre-delta.  Fault scopes, in order:
        ``stage:incremental-journal`` (before any staging),
        ``stage:incremental-fusion`` (after journalling, before
        re-fusion), ``stage:incremental-commit`` (after the commit —
        a crash there leaves fully post-delta state).
        """
        self._require_primed()
        started = time.perf_counter()
        injected = self._fault("stage:incremental-journal")

        staged = self._state.store.copy()
        receipt = DeltaJournal(staged).apply(delta)
        receipt.sequence = self._state.sequence + 1

        injected += self._fault("stage:incremental-fusion")
        prior = {entry.sources: entry for entry in self._state.entries}
        state, stats = self._compute(staged, prior)
        state.sequence = self._state.sequence + 1

        # -- commit: one attribute rebind -------------------------------
        self._state = state
        self.receipts.append(receipt)

        wall = time.perf_counter() - started + injected
        outcome = DeltaOutcome(
            sequence=state.sequence,
            receipt=receipt,
            result=state.result,
            components=stats.components,
            dirty_components=stats.dirty_components,
            reused_components=stats.reused_components,
            reused_verdicts=stats.reused_verdicts,
            refused_claims=stats.refused_claims,
            degenerate=stats.dirty_components == stats.components,
            wall_seconds=wall,
        )
        self._publish(outcome)
        self._fault("stage:incremental-commit")
        return outcome

    # -- internals ------------------------------------------------------
    def _compute(
        self,
        store: TripleStore,
        prior: dict[frozenset[str], ComponentEntry],
    ) -> tuple[_FusionState, _ComputeStats]:
        """Build a complete replacement state from a store's content."""
        fusion = self.fusion
        claims = canonical_claims(store)
        if len(claims) == 0:
            raise DeltaError(
                "claim store is empty; refusing to fuse nothing "
                "(did the delta retract every claim?)"
            )
        extractor_weights: dict[str, float] = {}
        working = claims
        if fusion.use_extractor_correlations:
            extractor_weights = fusion._extractor_weights(claims)
            working = fusion._apply_extractor_weights(
                claims, extractor_weights
            )

        stats = _ComputeStats()
        entries: list[ComponentEntry] = []
        for shard in shard_claims(working):
            sources = frozenset(shard.sources())
            digest = _component_digest(shard)
            cached = prior.get(sources)
            stats.components += 1
            if cached is not None and cached.content_hash == digest:
                entries.append(cached)
                stats.reused_components += 1
                stats.reused_verdicts += len(cached.result.truths)
            else:
                entries.append(
                    ComponentEntry(
                        sources=sources,
                        content_hash=digest,
                        n_claims=len(shard),
                        result=self._fuse_component(shard),
                    )
                )
                stats.dirty_components += 1
                stats.refused_claims += len(shard)

        merged = merge(fusion.name, (entry.result for entry in entries))
        if self.functional_refresh is not None:
            fusion.functional_of = self.functional_refresh(claims)
        if fusion.functional_of is not None:
            fusion._constrain_functional(working, merged)
        return (
            _FusionState(
                store=store,
                claims=claims,
                working=working,
                extractor_weights=extractor_weights,
                entries=entries,
                result=merged,
            ),
            stats,
        )

    def _fuse_component(self, shard: ClaimSet) -> FusionResult:
        """Fuse one component exactly as the global run would.

        Source-correlation weights are estimated on the shard alone —
        identical to the global estimate restricted to the shard,
        because no dependence pair crosses a component boundary.
        """
        fusion = self.fusion
        source_weights = (
            fusion._source_weights(shard)
            if fusion.use_source_correlations
            else None
        )
        return fusion._base_method(source_weights).fuse(shard)

    # -- plumbing -------------------------------------------------------
    def _fault(self, scope: str) -> float:
        """Fire an injected fault point; returns injected slow seconds."""
        if self.fault_plan is None:
            return 0.0
        return self.fault_plan.task_delay(scope, 0, 0)

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None and amount:
            self.metrics.counter(name).inc(amount)

    def _gauge(self, name: str, value: float) -> None:
        if self.metrics is not None:
            self.metrics.gauge(name).set(value)

    def _publish(self, outcome: DeltaOutcome) -> None:
        self._count("incremental_deltas_total")
        self._count(
            "incremental_dirty_components", outcome.dirty_components
        )
        self._count("incremental_reused_verdicts", outcome.reused_verdicts)
        self._count("incremental_claims_added_total", outcome.receipt.added)
        self._count(
            "incremental_claims_removed_total",
            outcome.receipt.removed_claims,
        )
        if outcome.degenerate:
            self._count("incremental_degenerate_total")
        self._gauge("incremental_components", outcome.components)
        if self.metrics is not None:
            self.metrics.histogram("incremental_delta_seconds").observe(
                outcome.wall_seconds
            )
