"""Lossless merge of content-addressed store segments.

The merge contract, and why it can be this simple: every record in a
:class:`~repro.campaign.store.ResultStore` lives under the SHA-256 of
its trial's canonical payload, and every outcome -- success or
:class:`~repro.runtime.tasks.TrialFailure` -- is a deterministic
function of that payload.  Two segments can therefore only ever agree
about a shared key; a disagreement is not a statistics problem to paper
over but evidence that one side violated the determinism contract (or
was tampered with), and the merge refuses loudly
(:class:`MergeConflict`) rather than pick a winner.

The merged segment is written **in sorted-key order with the canonical
record encoding**, so its bytes are identical for any segment order,
any shard count, and any completion interleaving -- merge is
commutative, associative, and idempotent on the nose, not just up to
semantics (``tests/test_distrib_properties.py`` pins all three).  The
write goes through a temp file and ``os.replace``, so a coordinator
killed mid-ingest leaves the previous merged state intact, never a torn
one.

Version fencing: segments carrying a
:class:`~repro.distrib.shard.ShardManifest` must agree on campaign,
spec digest, schema version and store format before any record is read
(:class:`SchemaMismatch` for version skew).  Bare stores -- e.g. a
pre-distrib single-host ``.campaigns`` directory -- merge without
fencing, trusting their record checksums.

Telemetry is not merged here: each segment's stream spool folds
through :func:`repro.telemetry.stream.fold_streams`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.campaign.store import ResultStore, StoredOutcome
from repro.distrib.shard import ShardManifest, read_manifest, write_manifest
from repro.runtime.tasks import TrialFailure


class MergeError(RuntimeError):
    """The segments cannot be combined (inconsistent manifests)."""


class SchemaMismatch(MergeError):
    """Segments were produced under different schema/store versions.

    Raised before any record is read: a fleet whose hosts disagree on
    the artifact schema cannot produce one trustworthy report, so the
    merge refuses instead of emitting a chimera.
    """


class MergeConflict(MergeError):
    """One key maps to different bodies in different segments.

    Content addresses name computations; a key collision with divergent
    outcomes means some host broke the determinism contract.  The merge
    names the key and both sources so the offending host can be found.
    """

    def __init__(self, key: str, first_root: str, second_root: str) -> None:
        super().__init__(
            f"merge conflict on key {key}: {second_root} disagrees with "
            f"{first_root} about the stored body (determinism violation "
            f"or tampering; refusing to merge)"
        )
        self.key = key
        self.first_root = first_root
        self.second_root = second_root


@dataclass
class MergeStats:
    """What one merge did (provenance only -- never part of artifacts)."""

    segments: int = 0
    #: Well-formed records read across all segments (duplicates included).
    records: int = 0
    #: Distinct keys in the merged output.
    unique: int = 0
    #: Failure records among the merged output.
    failures: int = 0
    #: Shard indices seen per shard count, e.g. ``{3: [0, 1, 2]}``.
    coverage: Dict[int, List[int]] = field(default_factory=dict)

    @property
    def deduped(self) -> int:
        """Duplicate records dropped (identical key *and* body)."""
        return self.records - self.unique

    def __str__(self) -> str:
        text = (
            f"{self.segments} segments, {self.records} records -> "
            f"{self.unique} unique ({self.deduped} deduped, "
            f"{self.failures} failures)"
        )
        for of in sorted(self.coverage):
            indices = self.coverage[of]
            text += f"; shards {len(indices)}/{of} of {of}-way split"
        return text


def _check_manifests(
    manifests: Sequence[Tuple[str, ShardManifest]]
) -> Optional[ShardManifest]:
    """Fence the merge on manifest consistency; returns the reference."""
    if not manifests:
        return None
    first_root, first = manifests[0]
    for root, manifest in manifests[1:]:
        if manifest.schema_version != first.schema_version:
            raise SchemaMismatch(
                f"cannot merge {root} (schema_version "
                f"{manifest.schema_version}) with {first_root} "
                f"(schema_version {first.schema_version}); re-run the "
                f"older shards under the current schema"
            )
        if manifest.store_format != first.store_format:
            raise SchemaMismatch(
                f"cannot merge {root} (store format {manifest.store_format}) "
                f"with {first_root} (store format {first.store_format})"
            )
        if (
            manifest.campaign != first.campaign
            or manifest.spec_digest != first.spec_digest
        ):
            raise MergeError(
                f"cannot merge {root} (campaign {manifest.campaign}, spec "
                f"{manifest.spec_digest[:16]}) with {first_root} (campaign "
                f"{first.campaign}, spec {first.spec_digest[:16]}): "
                f"segments slice different campaigns"
            )
    return first


def merge_stores(
    segment_roots: Iterable[str],
    dest_root: str,
    check_manifests: bool = True,
) -> MergeStats:
    """Merge *segment_roots* (plus any existing *dest_root* content)
    into a sorted, canonical store at *dest_root*; returns the stats.

    Ingest is incremental by construction: the destination's current
    records participate as one more segment, so a coordinator can merge
    each shard the moment it completes and the final bytes equal a
    single end-of-fleet merge of all segments in any order.  Corrupt
    records inside a segment are skipped by the store's checksum path
    exactly as on load (they degrade to re-execution on the shard's
    resume, never to wrong merged data).
    """
    roots = list(segment_roots)
    stats = MergeStats(segments=len(roots))
    dest = ResultStore(dest_root)
    sources: List[Tuple[str, Dict[str, StoredOutcome]]] = []
    if os.path.exists(dest.path):
        # Incremental ingest: current merged state is one more segment.
        sources.append((dest_root, dict(ResultStore(dest_root)._load())))
    manifests: List[Tuple[str, ShardManifest]] = []
    dest_manifest = read_manifest(dest_root)
    if dest_manifest is not None:
        manifests.append((dest_root, dest_manifest))
    for root in roots:
        manifest = read_manifest(root)
        if manifest is not None:
            manifests.append((root, manifest))
            if manifest.shard_of is not None and manifest.shard_index is not None:
                seen = stats.coverage.setdefault(manifest.shard_of, [])
                if manifest.shard_index not in seen:
                    seen.append(manifest.shard_index)
                    seen.sort()
        sources.append((root, dict(ResultStore(root)._load())))
    reference = _check_manifests(manifests) if check_manifests else None

    merged: Dict[str, StoredOutcome] = {}
    origin: Dict[str, str] = {}
    for root, records in sources:
        if root != dest_root:
            stats.records += len(records)
        for key, outcome in records.items():
            existing = merged.get(key)
            if existing is None:
                merged[key] = outcome
                origin[key] = root
            elif existing != outcome:
                raise MergeConflict(key, origin[key], root)

    stats.unique = len(merged)
    stats.failures = sum(
        1 for outcome in merged.values() if isinstance(outcome, TrialFailure)
    )

    # Canonical output: sorted keys, canonical encoding, atomic replace.
    os.makedirs(dest_root, exist_ok=True)
    temp_path = dest.path + ".merge"
    with open(temp_path, "w") as handle:
        for key in sorted(merged):
            handle.write(dest._encode_record(key, merged[key]) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp_path, dest.path)
    if reference is not None:
        write_manifest(
            dest_root,
            ShardManifest(
                campaign=reference.campaign,
                spec_digest=reference.spec_digest,
                schema_version=reference.schema_version,
                store_format=reference.store_format,
                repro_version=reference.repro_version,
                shard_index=None,
                shard_of=None,
                trials=stats.unique,
            ),
        )
    return stats

