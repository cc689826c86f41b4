"""Many-component claim corpora shared by ``delta_serve`` and ``segment_store``.

Each synthetic claim world is prefixed with its own namespace, so no
source or subject is shared between worlds: the claim graph has exactly
one connected component per world.
"""

from __future__ import annotations

import hashlib
import random

from repro.rdf.triple import Provenance, ScoredTriple, Triple
from repro.synth.claims import ClaimWorldConfig, generate_claim_world
from repro.synth.deltas import scored_from_claims


def claim_worlds(seed: int, worlds: int, items: int, sources: int):
    """``(claims per world, truth)`` for ``worlds`` disjoint claim worlds.

    World seeds come from ``seed``; the truth maps each namespaced item
    to its true values.
    """
    rng = random.Random(seed)
    per_world: list[list[ScoredTriple]] = []
    truth: dict = {}
    for index in range(worlds):
        world = generate_claim_world(
            ClaimWorldConfig(
                seed=rng.randrange(2**31), n_items=items, n_sources=sources
            )
        )
        prefix = f"w{index:03d}/"
        per_world.append(
            [
                ScoredTriple(
                    Triple(
                        prefix + one.triple.subject,
                        one.triple.predicate,
                        one.triple.obj,
                    ),
                    Provenance(
                        prefix + one.provenance.source_id,
                        one.provenance.extractor_id,
                        one.provenance.locator,
                    ),
                    one.confidence,
                )
                for one in scored_from_claims(world.claims)
            ]
        )
        for (subject, predicate), values in world.truths.items():
            truth[(prefix + subject, predicate)] = set(values)
    return per_world, truth


def claim_key(scored: ScoredTriple) -> tuple:
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


def claims_digest(claims) -> str:
    """Order-sensitive content digest of a claim sequence."""
    digest = hashlib.sha256()
    for scored in claims:
        digest.update(repr(claim_key(scored)).encode())
    return digest.hexdigest()
