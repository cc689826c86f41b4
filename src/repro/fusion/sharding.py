"""Connected-component partition-and-merge of the claim bipartite graph.

Fusion couples an item to its sources and a source to its items —
nothing else.  Two claims therefore interact only when their items and
sources are linked in the bipartite item↔source graph, so each
connected *component* of that graph is an independent fusion problem:
fusing components separately and merging the results is exactly
equivalent to one global run (per-source and per-item statistics never
cross a component boundary, and the float operation order inside one
component is unchanged, so the merged output is byte-identical).

This module owns that decision for every caller: :func:`shard_claims`
is the one item↔source union-find, :func:`merge` the one disjoint-union
merge, and :func:`fuse_sharded` their composition with a per-component
fuse.  The incremental engine (:mod:`repro.incremental.engine`) reuses
the same partition and merge around its per-component cache.

Caveat: a component that satisfies its convergence tolerance early
exits on its *own* delta, while a global run exits on the maximum
delta across all components — identical truths in practice, but extra
rounds elsewhere can move beliefs by up to the tolerance.  Run with
``tolerance=0`` (fixed iterations) for bit-identical merged output;
the equivalence tests pin both regimes.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import FusionError
from repro.fusion.base import ClaimSet, FusionMethod, FusionResult

__all__ = [
    "fuse_sharded",
    "merge",
    "shard_claims",
]


def _component_map(claims: ClaimSet) -> dict[str, int]:
    """Source id → component id via union-find over the claim graph.

    Component ids are densely numbered in order of first appearance in
    the claim set's iteration order, so the sharding is deterministic.
    """
    parent: dict[object, object] = {}

    def find(node):
        root = node
        while parent[root] is not root:
            root = parent[root]
        while parent[node] is not root:  # path compression
            parent[node], node = root, parent[node]
        return root

    def union(left, right):
        for node in (left, right):
            if node not in parent:
                parent[node] = node
        left_root, right_root = find(left), find(right)
        if left_root is not right_root:
            parent[right_root] = left_root

    for claim in claims:
        union(("item", claim.item), ("source", claim.source_id))

    component_of_root: dict[object, int] = {}
    mapping: dict[str, int] = {}
    for claim in claims:
        source = claim.source_id
        if source not in mapping:
            root = find(("source", source))
            mapping[source] = component_of_root.setdefault(
                root, len(component_of_root)
            )
    return mapping


def shard_claims(claims: ClaimSet) -> list[ClaimSet]:
    """Split a claim set into its connected components.

    Claims keep their relative order inside each shard, so fusing a
    shard replays the exact float operation order of the global run
    restricted to that component.
    """
    mapping = _component_map(claims)
    shards: dict[int, ClaimSet] = {}
    for claim in claims:
        shards.setdefault(mapping[claim.source_id], ClaimSet()).add(claim)
    return [shards[component] for component in sorted(shards)]


def merge(method: str, results: Iterable[FusionResult]) -> FusionResult:
    """Disjoint-union merge of per-component fusion results.

    Truth sets are copied, so the merged result can be mutated (the
    functional constraint rebinds them) while the component results
    stay cached.  ``iterations`` and ``converged_at`` report the
    slowest component (``converged_at`` is None if any component hit
    its iteration cap).
    """
    merged = FusionResult(method)
    converged: list[int | None] = []
    for result in results:
        for item, values in result.truths.items():
            merged.truths[item] = set(values)
        merged.belief.update(result.belief)
        merged.source_quality.update(result.source_quality)
        merged.iterations = max(merged.iterations, result.iterations)
        converged.append(result.converged_at)
    if converged and all(round_ is not None for round_ in converged):
        merged.converged_at = max(converged)  # type: ignore[type-var]
    return merged


def fuse_sharded(method: FusionMethod, claims: ClaimSet) -> FusionResult:
    """Fuse each connected component independently and merge."""
    if len(claims) == 0:
        raise FusionError(f"{method.name}: empty claim set")
    return merge(
        method.name, (method.fuse(shard) for shard in shard_claims(claims))
    )
