"""repro.distrib -- distributed campaign execution over shared-nothing hosts.

Whisper's evaluation is embarrassingly parallel: millions of independent
TET timing trials per environment cell, each a pure function of its
payload.  This package is the step from "one box" to "a fleet", built
entirely on two contracts the campaign layer already enforces:

* the :class:`~repro.campaign.store.ResultStore` is content-addressed
  (a trial's outcome lives under the SHA-256 of its canonical payload),
  so results computed anywhere can be combined by key with no
  coordination; and
* the report artifact is a pure function of ``(spec, outcomes)``, so a
  merged fleet run renders *byte-identical* artifacts to a single-host
  run.

Three moving parts:

* :mod:`repro.distrib.shard` -- deterministic partitioning of a frozen
  :class:`~repro.campaign.spec.CampaignSpec` grid into ``n`` disjoint
  shards (``campaign shard --index i --of n``), each producing a normal
  checkpointed store segment plus a manifest naming what it sliced;
* :mod:`repro.distrib.merge` -- dedup-by-key merge of JSONL store
  segments (``campaign merge``), with hard conflict detection on
  mismatched bodies and schema-version fencing across heterogeneous
  runs; the merged segment is written in sorted-key order, so it is
  byte-identical for any segment order and any completion interleaving;
* :mod:`repro.distrib.coordinator` -- an asyncio coordinator
  (``campaign fleet``) that hands shards to local subprocess or
  remote-stub workers, retries failed shards with the seeded backoff
  from :mod:`repro.faults.resilience` (resume is free: segments are
  checkpointed stores), ingests completed segments as they land, and
  aggregates fleet-wide metrics into the existing ``repro obs`` view.

The load-bearing invariant -- ``merge(shard_0 .. shard_{n-1})`` yields a
report byte-identical to a single-host run for any ``n`` and any
interleaving -- is pinned three ways: golden byte-identity suites
(``tests/test_distrib_identity.py``), property tests that sharding is a
disjoint exact cover and merge is order-insensitive and idempotent
(``tests/test_distrib_properties.py``), and a chaos suite that kills
shard workers mid-run and tears segments
(``tests/test_distrib_chaos.py``).  See ``docs/DISTRIBUTED.md``.
"""

from repro import _exports

__getattr__, __dir__, __all__ = _exports.lazy(__name__, {
    "repro.campaign.spec": ("Shard",),
    ".coordinator": (
        "Coordinator",
        "FleetError",
        "FleetResult",
        "LocalProcessWorker",
        "ShardAttempt",
        "ShardWorkerError",
        "StubWorker",
    ),
    ".merge": (
        "MergeConflict",
        "MergeError",
        "MergeStats",
        "SchemaMismatch",
        "merge_stores",
    ),
    ".shard": (
        "ShardManifest",
        "manifest_path",
        "read_manifest",
        "run_shard",
        "segment_root",
        "shard_spec_positions",
        "stream_spool_args",
        "write_manifest",
    ),
})
