"""Shard execution: one deterministic slice of a campaign per host.

A shard run is just a :class:`~repro.campaign.runner.CampaignRunner`
bound to a :class:`~repro.campaign.spec.Shard`: it expands the full
grid, keeps only the expansion positions the shard covers, and fills a
perfectly normal checkpointed :class:`~repro.campaign.store.ResultStore`
segment with their outcomes.  Everything the single-host runner earned
-- resume after interruption, structured failure records, retry
policies, torn-checkpoint recovery -- applies to a shard segment
unchanged, because it *is* a store.

The one distributed addition is the **manifest**: a small
``manifest.json`` written into the segment root *before* any trial
runs, naming exactly what the segment slices (campaign, spec digest,
shard arithmetic) and under which schema/store/format versions it was
produced.  :mod:`repro.distrib.merge` uses manifests to refuse merges
that would silently mix incompatible runs; a segment that died before
its first checkpoint still carries one.

A streamed shard adds one telemetry artifact to its segment, the
``stream.jsonl`` spool (:mod:`repro.telemetry.stream`), which is tailed
live, folded into fleet metrics and replayed by ``repro obs``.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import __version__ as REPRO_VERSION
from repro import telemetry
from repro.campaign.report import REPORT_SCHEMA_VERSION
from repro.campaign.runner import CampaignRunner, RunStats
from repro.campaign.spec import CampaignSpec, Shard
from repro.campaign.store import STORE_FORMAT, ResultStore, spec_digest

MANIFEST_NAME = "manifest.json"


def stream_spool_args(root: str, every: int) -> List[str]:
    """The ``campaign shard`` CLI arguments that arm the live spool."""
    from repro.telemetry.stream import stream_spool

    return ["--stream-out", stream_spool(root), "--stream-every", str(every)]


@dataclass(frozen=True)
class ShardManifest:
    """What one store segment sliced, and under which format versions.

    ``shard_index``/``shard_of`` are None for a merged (whole-campaign)
    store -- :func:`repro.distrib.merge.merge_stores` writes such a
    manifest into its destination so merged stores can themselves be
    merged further (tree reductions across racks) under the same
    version fencing.
    """

    campaign: str
    spec_digest: str
    schema_version: int
    store_format: int
    repro_version: str
    shard_index: Optional[int]
    shard_of: Optional[int]
    trials: int

    @classmethod
    def for_shard(
        cls, spec: CampaignSpec, shard: Optional[Shard]
    ) -> "ShardManifest":
        total = spec.trial_count()
        return cls(
            campaign=spec.name,
            spec_digest=spec_digest(spec),
            schema_version=REPORT_SCHEMA_VERSION,
            store_format=STORE_FORMAT,
            repro_version=REPRO_VERSION,
            shard_index=shard.index if shard is not None else None,
            shard_of=shard.of if shard is not None else None,
            trials=shard.size(total) if shard is not None else total,
        )

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"


def manifest_path(root: str) -> str:
    return os.path.join(root, MANIFEST_NAME)


def write_manifest(root: str, manifest: ShardManifest) -> str:
    """Write *manifest* into the segment *root*; returns the path."""
    os.makedirs(root, exist_ok=True)
    path = manifest_path(root)
    with open(path, "w") as handle:
        handle.write(manifest.to_json())
    return path


def read_manifest(root: str) -> Optional[ShardManifest]:
    """The segment's manifest, or None for a bare (pre-distrib) store."""
    path = manifest_path(root)
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        record = json.load(handle)
    return ShardManifest(
        campaign=str(record["campaign"]),
        spec_digest=str(record["spec_digest"]),
        schema_version=int(record["schema_version"]),
        store_format=int(record["store_format"]),
        repro_version=str(record["repro_version"]),
        shard_index=(
            None if record["shard_index"] is None else int(record["shard_index"])
        ),
        shard_of=(
            None if record["shard_of"] is None else int(record["shard_of"])
        ),
        trials=int(record["trials"]),
    )


def segment_root(dest_root: str, shard: Shard) -> str:
    """The conventional segment directory for *shard* under a fleet root."""
    return os.path.join(dest_root, "segments", shard.label)


def shard_spec_positions(spec: CampaignSpec, shard: Shard) -> List[int]:
    """The expansion positions *shard* covers for *spec* (diagnostics)."""
    return list(shard.positions(spec.trial_count()))


def run_shard(
    spec: CampaignSpec,
    shard: Shard,
    store_root: str,
    stream_path: Optional[str] = None,
    stream_every: Optional[int] = None,
    observer: Optional[Callable[[Dict], None]] = None,
    **runner_kwargs,
) -> Tuple[ResultStore, RunStats]:
    """Execute one shard into its segment store; returns (store, stats).

    Writes the manifest first -- a worker killed before its first
    checkpoint still leaves a segment that names what it was doing --
    then runs the shard-filtered campaign with normal per-batch
    checkpointing.  Re-invoking on an existing segment resumes it: only
    the missing outcomes execute.  *runner_kwargs* pass through to
    :class:`~repro.campaign.runner.CampaignRunner` (pool, batch_size,
    trial_fn, ...).

    *stream_path* arms the shard's one telemetry artifact, the live
    spool (``stream.jsonl``): telemetry is enabled for the run, and each
    per-checkpoint update goes first to the caller's *observer*, then to
    a :class:`~repro.telemetry.stream.StreamWriter`, which writes a
    ``heartbeat`` frame every *stream_every* completed trials.  The
    spool is sealed in a ``finally``, with the drained metrics registry
    as its ``end`` snapshot: an aborted or crashed shard still leaves a
    tailable, replayable spool.
    """
    writer = None
    hook = observer
    if stream_path is not None:
        from repro.telemetry.stream import DEFAULT_STREAM_EVERY, StreamWriter

        telemetry.enable(wall_clock=True)
        writer = StreamWriter(
            stream_path,
            shard=shard.label,
            campaign=spec.name,
            total=shard.size(spec.trial_count()),
            every=DEFAULT_STREAM_EVERY if stream_every is None else stream_every,
        )

        def hook(update: Dict) -> None:
            if observer is not None:
                observer(update)
            writer.on_batch(update)

    try:
        write_manifest(store_root, ShardManifest.for_shard(spec, shard))
        store = ResultStore(store_root)
        runner = CampaignRunner(
            spec, store=store, shard=shard, observer=hook, **runner_kwargs
        )
        _, stats = runner.run()
        return store, stats
    finally:
        if writer is not None:
            writer.close(snapshot=telemetry.metrics_registry().drain())
            telemetry.disable()
