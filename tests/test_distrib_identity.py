"""Golden byte-identity suite for the distributed campaign tier.

The load-bearing invariant of ``repro.distrib``:

    ``merge(shard_0 .. shard_{n-1})`` yields a report *byte-identical*
    to a single-host run, for any ``n`` and any segment order.

Pinned here over the two acceptance campaigns -- ci-smoke with real
trials and the e3-matrix grid at full scale (stub trials, as in
``test_faults_chaos.py``) -- for 1-, 3- and 8-way splits, through both
the library path (``run_shard``/``merge_stores``) and the asyncio
coordinator.  The merged store *file* is also pinned byte-identical
across segment orders, because the merge writes canonical sorted-key
records.

Satellites ride along: the ResultStore merge edge cases (dedup,
divergent-body conflict, empty segment, failure-only segment) and the
schema-version fence (merges across mismatched ``schema_version``
refuse).
"""

import dataclasses
import json
import os

import pytest

from repro.campaign import (
    REPORT_SCHEMA_VERSION,
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    Shard,
    builtin_campaign,
    channel_cell,
)
from repro.distrib import (
    Coordinator,
    MergeConflict,
    SchemaMismatch,
    StubWorker,
    merge_stores,
    read_manifest,
    run_shard,
    segment_root,
)
from repro.faults import payload_fingerprint
from repro.runtime import MachineSpec, TrialFailure, TrialResult

SPLITS = (1, 3, 8)


def _stub_trial(trial):
    """Deterministic stand-in for run_trial (see test_faults_chaos)."""
    fingerprint = payload_fingerprint(trial)
    return TrialResult(
        totes=(fingerprint % 997, (fingerprint >> 16) % 997),
        cycles=fingerprint % 100_000,
    )


def artifact_pair(report):
    return report.to_json(), report.render_text()


def single_host(spec, root, **runner_kwargs):
    report, _ = CampaignRunner(
        spec, store=ResultStore(str(root)), **runner_kwargs
    ).run()
    return artifact_pair(report)


def sharded_then_merged(spec, of, base, order=None, **runner_kwargs):
    """Run every shard into its own segment, merge, collect the report."""
    roots = []
    for index in range(of):
        root = str(base / f"seg{index}")
        run_shard(spec, Shard(index, of), root, **runner_kwargs)
        roots.append(root)
    if order is not None:
        roots = [roots[i] for i in order]
    dest = str(base / "merged")
    stats = merge_stores(roots, dest)
    report = CampaignRunner(spec, store=ResultStore(dest)).collect()
    assert report is not None, "merged store must cover the full grid"
    return artifact_pair(report), stats, dest


class TestGoldenIdentity:
    @pytest.mark.parametrize("of", SPLITS)
    def test_ci_smoke_real_trials(self, tmp_path, of):
        """ci-smoke with REAL trials: n-way merge == single host, bytes."""
        spec = builtin_campaign("ci-smoke")
        golden = single_host(spec, tmp_path / "single")
        merged, stats, _ = sharded_then_merged(spec, of, tmp_path)
        assert merged == golden
        assert stats.unique == spec.trial_count()
        assert stats.coverage == {of: list(range(of))}

    @pytest.mark.parametrize("of", SPLITS)
    def test_e3_matrix_full_grid(self, tmp_path, of):
        """The e3-matrix acceptance grid (5120 trials, stubbed)."""
        spec = builtin_campaign("e3-matrix")
        golden = single_host(spec, tmp_path / "single", trial_fn=_stub_trial)
        merged, stats, _ = sharded_then_merged(
            spec, of, tmp_path, trial_fn=_stub_trial
        )
        assert merged == golden
        assert stats.unique == spec.trial_count()

    def test_merged_store_bytes_order_insensitive(self, tmp_path):
        """The merged results.jsonl is byte-identical for any segment
        order -- canonical sorted-key output, not append order."""
        spec = builtin_campaign("ci-smoke")
        _, _, forward = sharded_then_merged(
            spec, 3, tmp_path / "f", order=[0, 1, 2]
        )
        _, _, backward = sharded_then_merged(
            spec, 3, tmp_path / "b", order=[2, 0, 1]
        )
        with open(os.path.join(forward, "results.jsonl"), "rb") as handle:
            forward_bytes = handle.read()
        with open(os.path.join(backward, "results.jsonl"), "rb") as handle:
            backward_bytes = handle.read()
        assert forward_bytes == backward_bytes

    def test_incremental_ingest_equals_one_shot_merge(self, tmp_path):
        """Coordinator-style one-segment-at-a-time ingest lands on the
        same bytes as a single merge of all segments."""
        spec = builtin_campaign("ci-smoke")
        roots = []
        for index in range(3):
            root = str(tmp_path / f"seg{index}")
            run_shard(spec, Shard(index, 3), root)
            roots.append(root)
        one_shot = str(tmp_path / "oneshot")
        merge_stores(roots, one_shot)
        incremental = str(tmp_path / "incremental")
        for root in reversed(roots):
            merge_stores([root], incremental)
        with open(os.path.join(one_shot, "results.jsonl"), "rb") as handle:
            expected = handle.read()
        with open(os.path.join(incremental, "results.jsonl"), "rb") as handle:
            assert handle.read() == expected

    def test_coordinator_stub_fleet_matches_single_host(self, tmp_path):
        """The asyncio coordinator end to end (in-process stub workers):
        merged store, full report, byte-identical artifacts."""
        spec = builtin_campaign("ci-smoke")
        golden = single_host(spec, tmp_path / "single")
        dest = str(tmp_path / "fleet")
        coordinator = Coordinator(
            spec, dest, shards=3, worker=StubWorker(spec)
        )
        result = coordinator.run()
        assert result.completed == 3 and result.retries == 0
        assert result.report is not None
        assert artifact_pair(result.report) == golden
        assert result.metrics["fleet.shards.of"]["value"] == 3


# -- satellite: ResultStore merge edge cases -----------------------------------


def write_store(root, records):
    store = ResultStore(str(root))
    store.put_many(records)
    return str(root)


class TestMergeEdgeCases:
    def test_duplicate_key_identical_body_dedups(self, tmp_path):
        result = TrialResult(totes=(1, 2), cycles=30)
        a = write_store(tmp_path / "a", [("k1", result), ("k2", result)])
        b = write_store(tmp_path / "b", [("k1", result)])
        stats = merge_stores([a, b], str(tmp_path / "m"))
        assert stats.records == 3
        assert stats.unique == 2
        assert stats.deduped == 1
        assert ResultStore(str(tmp_path / "m")).get("k1") == result

    def test_duplicate_key_divergent_body_is_a_hard_error(self, tmp_path):
        a = write_store(
            tmp_path / "a", [("k1", TrialResult(totes=(1,), cycles=10))]
        )
        b = write_store(
            tmp_path / "b", [("k1", TrialResult(totes=(2,), cycles=10))]
        )
        with pytest.raises(MergeConflict) as info:
            merge_stores([a, b], str(tmp_path / "m"))
        assert info.value.key == "k1"
        assert str(tmp_path / "a") in (info.value.first_root,
                                       info.value.second_root)
        # The refusal left no merged store behind a torn write.
        assert not os.path.exists(os.path.join(tmp_path / "m", "results.jsonl"))

    def test_result_vs_failure_under_one_key_is_a_conflict(self, tmp_path):
        """A success and a failure under the same content address is the
        determinism violation the conflict path exists for."""
        a = write_store(
            tmp_path / "a", [("k1", TrialResult(totes=(1,), cycles=10))]
        )
        b = write_store(
            tmp_path / "b",
            [("k1", TrialFailure(attempts=2, faults=("raise", "raise"),
                                 error="boom"))],
        )
        with pytest.raises(MergeConflict):
            merge_stores([a, b], str(tmp_path / "m"))

    def test_empty_segment_contributes_nothing(self, tmp_path):
        a = write_store(
            tmp_path / "a", [("k1", TrialResult(totes=(1,), cycles=10))]
        )
        empty = tmp_path / "empty"
        empty.mkdir()  # a segment that never reached its first checkpoint
        stats = merge_stores([a, str(empty)], str(tmp_path / "m"))
        assert stats.segments == 2
        assert stats.records == 1
        assert stats.unique == 1

    def test_failure_only_segment_merges_losslessly(self, tmp_path):
        failure = TrialFailure(
            attempts=3, faults=("hang", "timeout", "raise"), error="wedged"
        )
        a = write_store(tmp_path / "a", [("k1", failure), ("k2", failure)])
        stats = merge_stores([a], str(tmp_path / "m"))
        assert stats.unique == 2
        assert stats.failures == 2
        merged = ResultStore(str(tmp_path / "m"))
        assert merged.get("k1") == failure
        assert merged.get("k2") == failure


# -- satellite: schema-version fencing -----------------------------------------


class TestSchemaVersion:
    def _two_segments(self, tmp_path):
        spec = builtin_campaign("ci-smoke")
        roots = []
        for index in range(2):
            root = str(tmp_path / f"seg{index}")
            run_shard(spec, Shard(index, 2), root)
            roots.append(root)
        return roots

    def test_manifests_carry_the_schema_version(self, tmp_path):
        roots = self._two_segments(tmp_path)
        for root in roots:
            manifest = read_manifest(root)
            assert manifest is not None
            assert manifest.schema_version == REPORT_SCHEMA_VERSION

    def test_merge_rejects_mismatched_schema_versions(self, tmp_path):
        roots = self._two_segments(tmp_path)
        path = os.path.join(roots[1], "manifest.json")
        with open(path) as handle:
            record = json.load(handle)
        record["schema_version"] = REPORT_SCHEMA_VERSION + 1
        with open(path, "w") as handle:
            json.dump(record, handle)
        with pytest.raises(SchemaMismatch, match="schema_version"):
            merge_stores(roots, str(tmp_path / "m"))
        # The fence is opt-out for bare pre-distrib stores only.
        merge_stores(roots, str(tmp_path / "m2"), check_manifests=False)

    def test_merge_rejects_cross_campaign_segments(self, tmp_path):
        spec = builtin_campaign("ci-smoke")
        other = CampaignSpec(
            name="other",
            cells=(
                channel_cell(
                    MachineSpec(seed=9), payload=b"\x01", batches=2,
                    values=range(4),
                ),
            ),
        )
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        run_shard(spec, Shard(0, 1), a)
        run_shard(other, Shard(0, 1), b)
        with pytest.raises(Exception, match="different campaigns"):
            merge_stores([a, b], str(tmp_path / "m"))

    def test_campaign_report_artifact_carries_schema_version(self, tmp_path):
        spec = builtin_campaign("ci-smoke")
        report, _ = CampaignRunner(
            spec, store=ResultStore(str(tmp_path)), trial_fn=_stub_trial
        ).run()
        artifact = json.loads(report.to_json())
        assert artifact["schema_version"] == REPORT_SCHEMA_VERSION

    def test_reproduction_report_merge_stamps_schema_version(self, tmp_path):
        from repro.perf import merge_report_metrics

        path = str(tmp_path / "reproduction_report.json")
        merge_report_metrics(path, "section", {"trials_per_second": 1.0})
        with open(path) as handle:
            report = json.load(handle)
        assert report["schema_version"] == REPORT_SCHEMA_VERSION
        assert report["section"]["trials_per_second"] == 1.0

    def test_reproduction_report_refuses_cross_version_merge(self, tmp_path):
        """Sections written under a different schema version are dropped,
        never merged into -- a mixed-version report would be unreadable
        by either schema's consumers."""
        from repro.perf import merge_report_metrics

        path = str(tmp_path / "reproduction_report.json")
        with open(path, "w") as handle:
            json.dump(
                {
                    "schema_version": REPORT_SCHEMA_VERSION + 1,
                    "old_bench": {"stale": True},
                },
                handle,
            )
        merge_report_metrics(path, "section", {"trials_per_second": 2.0})
        with open(path) as handle:
            report = json.load(handle)
        assert report["schema_version"] == REPORT_SCHEMA_VERSION
        assert "old_bench" not in report
        assert report["section"] == {"trials_per_second": 2.0}

        # Same-version sections DO merge and survive.
        merge_report_metrics(path, "runtime_scaling", {"host_cpus": 4})
        with open(path) as handle:
            report = json.load(handle)
        assert report["section"] == {"trials_per_second": 2.0}
        assert report["runtime_scaling"] == {"host_cpus": 4}


# -- satellite: lockstep batching through the distributed tier -----------------


class TestBatchThroughDistrib:
    """``TrialPool(lanes=N)`` on the shard side of a split.

    Two invariants: the merged artifacts stay byte-identical to a scalar
    single-host run (batching is scheduling, so it must be invisible to
    the store and the report), while the lanes the run used *do* survive
    where they belong -- the ``batch_size`` attribute of the
    ``campaign.run`` and ``batch.pack`` telemetry spans.
    """

    def test_batched_shards_merge_to_scalar_bytes(self, tmp_path):
        from repro.runtime import TrialPool

        spec = builtin_campaign("ci-smoke")
        golden = single_host(spec, tmp_path / "single")
        with TrialPool(workers=1, lanes=4) as pool:
            merged, stats, _ = sharded_then_merged(
                spec, 3, tmp_path, pool=pool
            )
        assert merged == golden
        assert stats.unique == spec.trial_count()

    def test_batched_kaslr_shards_merge_to_scalar_bytes(self, tmp_path):
        """The KASLR analogue: a full 512-slot KPTI sweep, 3-way split,
        each shard run through 8-lane translation-shadow packs (with the
        leader trace cache live), merges to the bytes of a scalar
        single-host run."""
        from repro.campaign import kaslr_cell
        from repro.runtime import TrialPool

        spec = CampaignSpec(
            name="kaslr-batch-golden",
            cells=(
                kaslr_cell(
                    MachineSpec("i7-7700", seed=21, kpti=True),
                    strategy="kpti-trampoline",
                ),
            ),
        )
        golden = single_host(spec, tmp_path / "single")
        with TrialPool(workers=1, lanes=8) as pool:
            merged, stats, _ = sharded_then_merged(
                spec, 3, tmp_path, pool=pool
            )
        assert merged == golden
        assert stats.unique == spec.trial_count()

    def test_shard_span_records_batch_size(self, tmp_path):
        from repro import telemetry
        from repro.runtime import TrialPool

        spec = builtin_campaign("ci-smoke")
        telemetry.enable()
        try:
            with TrialPool(workers=1, lanes=4) as pool:
                run_shard(spec, Shard(0, 2), str(tmp_path / "seg"), pool=pool)
            records = telemetry.recorder().drain()
        finally:
            telemetry.disable()
        runs = [
            record
            for record in records
            if record.get("name") == "campaign.run"
        ]
        assert runs, "the shard must open a campaign.run span"
        assert all(
            record.get("attrs", {}).get("batch_size") == 4 for record in runs
        )
        # The pack spans the batch executor opens ride along underneath.
        packs = [
            record
            for record in records
            if record.get("name") == "batch.pack"
        ]
        assert packs
        assert all(
            record.get("attrs", {}).get("batch_size") == 4 for record in packs
        )


# -- shard-local runner behaviour ----------------------------------------------


class TestShardRunner:
    def test_shard_status_counts_only_its_slice(self, tmp_path):
        spec = builtin_campaign("ci-smoke")
        runner = CampaignRunner(
            spec, store=ResultStore(str(tmp_path)), shard=Shard(0, 3)
        )
        status = runner.status()
        assert status.total == Shard(0, 3).size(spec.trial_count())
        assert status.cached == 0

    def test_shard_segments_are_disjoint_and_resume(self, tmp_path):
        spec = builtin_campaign("ci-smoke")
        keys = set()
        for index in range(3):
            root = str(tmp_path / f"seg{index}")
            store, stats = run_shard(spec, Shard(index, 3), root)
            segment_keys = set(store._load())
            assert not keys & segment_keys  # disjoint slices
            keys |= segment_keys
            # A second run replays everything from the segment store.
            _, resumed = run_shard(spec, Shard(index, 3), root)
            assert resumed.executed == 0
            assert resumed.cached == stats.total
        assert len(keys) == spec.trial_count()

    def test_segment_root_convention(self, tmp_path):
        root = segment_root(str(tmp_path), Shard(2, 5))
        assert root == os.path.join(str(tmp_path), "segments", "shard2of5")


def test_shard_validation():
    with pytest.raises(ValueError):
        Shard(0, 0)
    with pytest.raises(ValueError):
        Shard(3, 3)
    with pytest.raises(ValueError):
        Shard(-1, 2)
    assert dataclasses.asdict(Shard(1, 4)) == {"index": 1, "of": 4}
