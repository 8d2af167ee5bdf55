"""The telemetry contract: observe everything, perturb nothing.

Three layers of pinning:

* **Recorder/exporter unit behaviour** -- preorder spans, explicit and
  exception-driven closing, worker-batch draining, ingest re-parenting,
  sidecar-stripped checksums, Chrome ``trace_event`` conversion, cycle
  attribution.
* **Determinism under observation** -- a fixed-seed campaign produces a
  byte-identical :class:`ResultStore` with telemetry on or off, serial
  or pooled, and the deterministic view of the merged metrics is
  identical at any worker count.  Merged pooled traces are themselves
  byte-identical across pooled worker counts, with no orphan spans.
* **Worker lifecycle** -- a dead worker's last stderr lines surface in
  :class:`WorkerLostError` and in ``pool.worker.lost`` trace events,
  while quarantined :class:`TrialFailure` records stay byte-stable
  (host noise never leaks into checkpointed artifacts).
"""

import hashlib
import os

import pytest

from repro import telemetry
from repro.campaign import CampaignRunner, ResultStore, builtin_campaign
from repro.faults import ResiliencePolicy, payload_fingerprint
from repro.runtime import TrialPool, TrialResult, WorkerLostError
from repro.runtime.tasks import TrialFailure
from repro.telemetry.export import (
    chrome_trace,
    cycle_attribution,
    read_jsonl,
    records_checksum,
    render_attribution,
    split_metrics,
    strip_sidecar,
    validate_chrome_trace,
    write_jsonl,
)
from repro.telemetry.metrics import deterministic_view
from repro.telemetry.spans import NULL_SPAN, Recorder, orphan_records


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Telemetry is process-global state: every test starts and ends
    disabled with an empty registry, however it exits."""
    telemetry.disable()
    telemetry.metrics_registry().drain()
    yield
    telemetry.disable()
    telemetry.metrics_registry().drain()


def _store_digest(root: str) -> str:
    """One hash over every byte of a ResultStore directory tree."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _stub_trial(trial):
    """Campaign-shaped grids in seconds (the chaos-suite convention)."""
    fingerprint = payload_fingerprint(trial)
    return TrialResult(
        totes=(fingerprint % 997, (fingerprint >> 16) % 997),
        cycles=fingerprint % 100_000,
    )


def _campaign_run(spec, workers, tmp_path, tag, trial_fn=None, observe=True):
    """One campaign run into a fresh store; drains whatever telemetry
    the run recorded (records + metrics) before disabling."""
    store = ResultStore(str(tmp_path / tag))
    if observe:
        telemetry.enable()
    try:
        kwargs = {"trial_fn": trial_fn} if trial_fn is not None else {}
        with TrialPool(workers=workers) as pool:
            runner = CampaignRunner(spec, store=store, pool=pool, **kwargs)
            report, stats = runner.run()
        records = telemetry.recorder().drain() if observe else []
        metrics = telemetry.metrics_registry().snapshot() if observe else {}
    finally:
        telemetry.disable()
        telemetry.metrics_registry().drain()
    return {
        "digest": _store_digest(str(tmp_path / tag)),
        "records": records,
        "metrics": metrics,
        "artifact": report.to_json(),
        "stats": stats,
    }


# -- disabled path -------------------------------------------------------------


class TestDisabledPath:
    def test_span_is_the_shared_noop(self):
        """Disabled, every span call returns one shared no-op object --
        no allocation on the simulator's hot path."""
        assert telemetry.span("trial", index=3) is NULL_SPAN
        with telemetry.span("outer") as span:
            assert span.set(cycles=9) is span
            assert span.id is None
            span.close()  # explicit close is equally inert

    def test_nothing_is_recorded(self):
        telemetry.event("pool.worker.lost", slot=1)
        telemetry.annotate(cycles=4)
        telemetry.add("campaign.batches")
        telemetry.gauge_set("pool.trials_per_second", 12.0)
        telemetry.observe("campaign.checkpoint.fsync_seconds", 0.01)
        assert telemetry.recorder() is None
        assert not telemetry.enabled()
        assert len(telemetry.metrics_registry()) == 0

    def test_enable_starts_clean(self):
        telemetry.enable()
        telemetry.add("campaign.batches")
        with telemetry.span("campaign.run"):
            pass
        telemetry.enable()  # re-arm: fresh recorder, empty registry
        assert telemetry.recorder().records == []
        assert len(telemetry.metrics_registry()) == 0


# -- recorder ------------------------------------------------------------------


class TestRecorder:
    def test_preorder_records_with_parent_links(self):
        recorder = Recorder()
        with recorder.span("campaign.run", total=4) as outer:
            with recorder.span("cell", cell="a"):
                recorder.event("checkpoint", batch=1)
        names = [r["name"] for r in recorder.records]
        assert names == ["campaign.run", "cell", "checkpoint"]
        campaign, cell, checkpoint = recorder.records
        assert campaign["parent"] is None
        assert cell["parent"] == campaign["id"]
        assert checkpoint["parent"] == cell["id"]
        assert [r["seq"] for r in recorder.records] == [0, 1, 2]
        assert outer.record["attrs"] == {"total": 4}
        assert all("open" not in r for r in recorder.records)

    def test_explicit_close_then_exit_is_safe(self):
        """A span closed inside its own with-block (the campaign-runner
        cell pattern) must not corrupt the stack when __exit__ fires."""
        recorder = Recorder()
        with recorder.span("campaign.run"):
            span = recorder.span("cell", cell="a")
            span.close()
            span.close()  # double explicit close: also a no-op
            with recorder.span("cell", cell="b"):
                pass
        assert all("open" not in r for r in recorder.records)
        cells = [r for r in recorder.records if r["name"] == "cell"]
        assert [c["attrs"]["cell"] for c in cells] == ["a", "b"]
        assert all(c["parent"] == recorder.records[0]["id"] for c in cells)

    def test_exception_closes_dangling_children(self):
        recorder = Recorder()
        with pytest.raises(ValueError):
            with recorder.span("trial"):
                recorder.span("core.run")  # never explicitly closed
                raise ValueError("trial exploded")
        trial, core = recorder.records
        assert "open" not in core
        assert trial["attrs"]["failed"] is True

    def test_drain_keeps_open_spans(self):
        recorder = Recorder()
        with recorder.span("done"):
            pass
        still_open = recorder.span("campaign.run")
        drained = recorder.drain()
        assert [r["name"] for r in drained] == ["done"]
        assert [r["name"] for r in recorder.records] == ["campaign.run"]
        still_open.close()
        assert [r["name"] for r in recorder.drain()] == ["campaign.run"]

    def test_worker_drain_resets_sequence(self):
        """Worker batches restart numbering per task, so a batch's bytes
        depend only on the trial that produced it -- never on what ran
        on that worker before."""
        recorder = Recorder(origin="w")
        with recorder.span("trial", index=0):
            pass
        first = recorder.drain(reset_seq=True)
        with recorder.span("trial", index=1):
            pass
        second = recorder.drain(reset_seq=True)
        assert [r["seq"] for r in first] == [r["seq"] for r in second] == [0]
        assert first[0]["id"] == second[0]["id"] == "w:0"

    def test_ingest_rekeys_and_reparents(self):
        worker = Recorder(origin="w")
        with worker.span("trial", index=7):
            with worker.span("core.run"):
                pass
        batch = worker.drain(reset_seq=True)

        coordinator = Recorder()
        cell = coordinator.span("cell", cell="a")
        coordinator.ingest([("p7.0", batch)])
        cell.close()
        records = coordinator.drain()
        trial = next(r for r in records if r["name"] == "trial")
        core = next(r for r in records if r["name"] == "core.run")
        assert trial["id"] == "p7.0:0"
        assert trial["parent"] == cell.record["id"]
        assert core["parent"] == trial["id"]
        assert orphan_records(records) == []

    def test_wall_clock_is_sidecar_only(self):
        timed = Recorder(wall_clock=True)
        with timed.span("trial"):
            pass
        plain = Recorder(wall_clock=False)
        with plain.span("trial"):
            pass
        assert "wall" in timed.records[0]
        assert records_checksum(timed.records) == records_checksum(plain.records)


# -- exporters -----------------------------------------------------------------


def _sample_records():
    recorder = Recorder()
    with recorder.span("campaign.run", total=2) as run:
        with recorder.span("cell", cell="a"):
            with recorder.span("trial", index=0) as trial:
                with recorder.span("core.run") as core:
                    core.set(cycles=30)
                trial.set(cycles=100)
            recorder.event("checkpoint", batch=1, host={"pid": 4242})
        run.set(cycles=0)
    return recorder.drain()


class TestExport:
    def test_checksum_strips_sidecar_fields(self):
        records = _sample_records()
        baseline = records_checksum(records)
        noisy = [dict(r) for r in records]
        noisy[0]["wall"] = [1.0, 2.0]
        noisy[1]["host"] = {"pid": 999}
        assert records_checksum(noisy) == baseline
        assert strip_sidecar(noisy[0]) == records[0]
        # ...but deterministic coordinates are load-bearing.
        renamed = [dict(r) for r in records]
        renamed[2]["attrs"] = dict(renamed[2]["attrs"], index=1)
        assert records_checksum(renamed) != baseline

    def test_jsonl_round_trip_with_metrics(self, tmp_path):
        records = _sample_records()
        registry = telemetry.metrics_registry()
        telemetry.enable()
        telemetry.add("campaign.batches", 2)
        path = str(tmp_path / "run.jsonl")
        write_jsonl(records, path, metrics=registry.snapshot())
        loaded = read_jsonl(path)
        trace, metrics = split_metrics(loaded)
        assert trace == records
        assert metrics["campaign.batches"]["value"] == 2

    def test_chrome_trace_validates_and_nests(self):
        trace = chrome_trace(_sample_records())
        assert validate_chrome_trace(trace) == []
        spans = {
            event["args"]["id"]: event
            for event in trace["traceEvents"]
            if event.get("ph") == "X"
        }
        # The preorder fallback timeline still nests children inside
        # their parents (no wall clocks were recorded).
        for event in spans.values():
            parent = spans.get(event["args"].get("parent"))
            if parent is None:
                continue
            assert parent["ts"] <= event["ts"]
            assert event["ts"] + event["dur"] <= parent["ts"] + parent["dur"]

    def test_chrome_trace_prefers_wall_clocks(self):
        recorder = Recorder(wall_clock=True)
        with recorder.span("trial"):
            pass
        records = recorder.drain()
        records[0]["wall"] = [10.0, 10.5]
        trace = chrome_trace(records)
        event = trace["traceEvents"][-1]
        assert event["ts"] == 0.0  # microseconds since the epoch record
        assert event["dur"] == pytest.approx(500_000.0)

    def test_validator_names_malformed_events(self):
        problems = validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "name": "x", "pid": 1, "tid": 1}]}
        )
        assert any("ts" in problem for problem in problems)
        assert validate_chrome_trace({}) == ["traceEvents must be a list"]

    def test_cycle_attribution_is_self_cycles(self):
        rows = cycle_attribution(_sample_records())
        by_path = {path: cycles for path, cycles, _ in rows}
        # trial claimed 100, its core.run child claimed 30 of those.
        assert by_path["campaign.run/cell/trial"] == 70
        assert by_path["campaign.run/cell/trial/core.run"] == 30
        text = render_attribution(rows)
        assert "core.run" in text and "%" in text
        assert "no spans" in render_attribution([])


# -- campaign-scale determinism (stub trials, e3-matrix grid) ------------------


class TestStubCampaignDeterminism:
    def test_store_and_metrics_are_worker_count_invariant(self, tmp_path):
        """Satellite contract: a fixed-seed e3-scale campaign observed at
        workers=1 and workers=4 checkpoints byte-identical stores, and
        the deterministic view of the merged metrics is equal; the
        telemetry-off store is byte-identical to both."""
        spec = builtin_campaign("e3-matrix")
        off = _campaign_run(
            spec, 1, tmp_path, "off", trial_fn=_stub_trial, observe=False
        )
        serial = _campaign_run(spec, 1, tmp_path, "w1", trial_fn=_stub_trial)
        pooled = _campaign_run(spec, 4, tmp_path, "w4", trial_fn=_stub_trial)
        assert serial["digest"] == pooled["digest"] == off["digest"]
        assert serial["artifact"] == pooled["artifact"] == off["artifact"]
        assert deterministic_view(serial["metrics"]) == deterministic_view(
            pooled["metrics"]
        )
        # Stub trials record nothing worker-side, so the merged trace is
        # pure coordinator structure -- identical even serial vs pooled.
        assert records_checksum(serial["records"]) == records_checksum(
            pooled["records"]
        )
        executed = serial["metrics"]["campaign.trials.executed"]["value"]
        assert executed == serial["stats"].total


# -- real-campaign telemetry (ci-smoke, pooled) --------------------------------


class TestRealCampaignTelemetry:
    def test_pooled_trace_layers_store_identity_no_orphans(self, tmp_path):
        """The acceptance criterion: a pooled fixed-seed campaign's
        merged trace covers campaign -> cell -> trial -> core.run with
        no orphan spans at workers=4, while the ResultStore is byte-
        identical to a telemetry-disabled serial run -- and the merged
        pooled trace itself is byte-identical across worker counts."""
        spec = builtin_campaign("ci-smoke")
        off = _campaign_run(spec, 1, tmp_path, "off", observe=False)
        w4 = _campaign_run(spec, 4, tmp_path, "w4")
        w2 = _campaign_run(spec, 2, tmp_path, "w2")

        # Observation never perturbs the artifact.
        assert w4["digest"] == off["digest"]
        assert w2["digest"] == off["digest"]
        assert w4["artifact"] == off["artifact"]

        # One causally-ordered tree, all four layers, no orphans.
        records = w4["records"]
        assert orphan_records(records) == []
        spans = [r for r in records if r["kind"] == "span"]
        by_name = {}
        for record in spans:
            by_name.setdefault(record["name"], []).append(record)
        total = w4["stats"].total
        assert len(by_name["campaign.run"]) == 1
        assert len(by_name["cell"]) >= 1
        assert len(by_name["trial"]) == total
        assert len(by_name["core.run"]) == total
        index = {r["id"]: r for r in spans}
        for trial in by_name["trial"]:
            assert index[trial["parent"]]["name"] == "cell"
        for core in by_name["core.run"]:
            assert index[core["parent"]]["name"] == "trial"

        # Pooled merge order depends on payload identity only.
        assert records_checksum(w2["records"]) == records_checksum(records)
        assert deterministic_view(w2["metrics"]) == deterministic_view(
            w4["metrics"]
        )

        # PMU attribution: the core.cycles counter is exactly the sum of
        # per-trial span cycles (each trial resets the uarch first).
        cycles = sum(r["attrs"]["cycles"] for r in by_name["trial"])
        assert w4["metrics"]["core.cycles"]["value"] == cycles
        rows = cycle_attribution(records)
        assert any("core.run" in path for path, _, _ in rows)


# -- worker lifecycle ----------------------------------------------------------


def _die_noisily(payload):
    """A trial whose worker writes a last gasp to stderr, then dies.

    The write targets fd 2 directly: that is where the pool's capture
    redirect points, and where an interpreter crash (or a C extension's
    abort message) would land.  Under pytest, ``sys.stderr`` is a
    capture object detached from fd 2 entirely.
    """
    if payload == "die":
        os.write(2, b"gadget panic: speculative window collapsed\n")
        os._exit(43)
    return len(payload)


class TestWorkerLifecycle:
    def test_worker_lost_error_carries_stderr_tail(self):
        """A casualty's last stderr lines ride in the error instead of
        vanishing with the inherited pipe."""
        with TrialPool(workers=2) as pool:
            with pytest.raises(WorkerLostError) as info:
                pool.map(_die_noisily, ["ab", "die", "c"])
        assert info.value.payload_index == 1
        assert "gadget panic" in info.value.stderr_tail
        assert "last worker stderr" in str(info.value)
        assert "gadget panic" in str(info.value)

    def test_worker_lost_and_respawn_events_recorded(self):
        telemetry.enable()
        with TrialPool(workers=2) as pool:
            with pytest.raises(WorkerLostError):
                pool.map(_die_noisily, ["ab", "die", "c"])
        records = telemetry.recorder().drain()
        events = {r["name"]: r for r in records if r["kind"] == "event"}
        assert "pool.worker.lost" in events
        assert "pool.worker.respawn" in events
        lost = events["pool.worker.lost"]
        assert lost["attrs"]["index"] == 1
        assert "gadget panic" in lost["host"]["stderr_tail"]
        # The tail is sidecar: checksums are blind to it.
        assert strip_sidecar(lost).get("host") is None

    def test_failure_records_never_absorb_host_noise(self):
        """Quarantined TrialFailure values are checkpointed artifacts:
        the stderr tail must never leak into their error text."""
        with TrialPool(
            workers=2,
            policy=ResiliencePolicy(max_retries=1, validate=False),
        ) as pool:
            results = pool.map(_die_noisily, ["ab", "die", "c"])
        failure = results[1]
        assert isinstance(failure, TrialFailure)
        assert "worker-lost" in failure.faults
        assert "gadget panic" not in failure.error
        assert "stderr" not in failure.error
        assert results[0] == 2 and results[2] == 1
