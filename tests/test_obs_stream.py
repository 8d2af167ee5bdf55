"""The live fleet plane: spool framing, tailing, and the fold contract.

Two properties carry this module (see ``repro.telemetry.stream``):

* **prefix** -- the live fold after any frame prefix is a prefix of the
  final fold (cumulative snapshots only ever grow);
* **stable fold** -- folds match digests pinned when each shard still
  wrote a ``telemetry.jsonl`` sidecar beside its spool, at 1/3/8 shards
  and under chaos (killed workers, torn spool tails, duplicated frame
  replays); spool replays match those sidecar traces minus the
  pool's retired heartbeat events (``seq`` and ids renumbered).

Everything runs on stub trials (``payload_fingerprint``) so the suite
stays fast while exercising the real runner/pool/spool machinery.
"""

import hashlib
import io
import json
import os

import pytest

from repro.campaign import ResultStore, Shard, builtin_campaign
from repro.cli import main
from repro.distrib import Coordinator, StubWorker, run_shard
from repro.faults import ResiliencePolicy, payload_fingerprint
from repro.runtime import TrialPool, TrialResult
from repro.telemetry.export import load_trace, records_checksum, split_metrics
from repro.telemetry.live import (
    ProgressRenderer,
    run_obs_flame,
    run_obs_fold,
    run_obs_report,
    run_obs_tail,
    run_obs_top,
    run_obs_trace,
)
from repro.telemetry.metrics import deterministic_view
from repro.telemetry.stream import (
    FleetView,
    StreamCursor,
    StreamWriter,
    discover_spools,
    fold_frames,
    fold_stream,
    fold_streams,
    read_frames,
    stream_spool,
)

#: The ci-smoke fold over N stub-trial shards (batch 4, cadence 2): its
#: ``_digest`` and the ``records_checksum`` of shard 0's replay, by N.
FOLD_DIGESTS = {
    1: "b8f644226718d26adf9cf0a37ca8c938faac045d3c5e913e403e7520a711cdcd",
    3: "1c981e9e3fec333a3575cb29cf7cd731d2ff04d754133bf7210219848229b1f3",
    8: "e19799e1fecb4501f2fda5d4dfcba6db90e67649361f63235dae2cc1547b799d",
}
SHARD0_TRACE_CHECKSUMS = {
    1: "827bcd20d85cfa7aed6795e3182640e2f18deb0e9b08ebffe6ba8074df98afe6",
    3: "4542cd4e3c40704824d8ace085dcccc9234c54e704f40650a3645e9d2bce2e1d",
    8: "155ad0871247374b6e37fe7558d427c29993425fd644bae6790a34fb2e822201",
}


def _stub_trial(trial):
    fingerprint = payload_fingerprint(trial)
    return TrialResult(
        totes=(fingerprint % 997, (fingerprint >> 16) % 997),
        cycles=fingerprint % 100_000,
    )


def _stream_shard(spec, shard, root, every=4, **kwargs):
    kwargs.setdefault("trial_fn", _stub_trial)
    kwargs.setdefault("batch_size", 4)
    spool = stream_spool(str(root))
    return run_shard(
        spec, shard, str(root), stream_path=spool, stream_every=every, **kwargs
    )


def _digest(snapshot):
    text = json.dumps(deterministic_view(snapshot), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _spool_trace_checksum(root):
    trace, _ = split_metrics(load_trace(stream_spool(str(root))))
    return records_checksum(trace)


class TestSpoolFraming:
    def test_writer_emits_well_formed_sealed_stream(self, tmp_path):
        spec = builtin_campaign("ci-smoke")
        _stream_shard(spec, Shard(0, 1), tmp_path / "seg")
        frames, torn = read_frames(stream_spool(str(tmp_path / "seg")))
        assert torn == 0
        kinds = [frame["kind"] for frame in frames]
        assert kinds[0] == "open" and kinds[-1] == "end"
        assert {"spans", "metrics", "heartbeat"} <= set(kinds)
        # One attempt, sequence-numbered gaplessly from zero.
        assert {frame["attempt"] for frame in frames} == {0}
        assert [frame["seq"] for frame in frames] == list(range(len(frames)))

    def test_heartbeats_fire_at_trial_cadence_with_host_quarantine(
        self, tmp_path
    ):
        spec = builtin_campaign("ci-smoke")
        _stream_shard(spec, Shard(0, 1), tmp_path / "seg", every=8)
        frames, _ = read_frames(stream_spool(str(tmp_path / "seg")))
        beats = [f["body"] for f in frames if f["kind"] == "heartbeat"]
        # 32 trials, batch 4, cadence 8: a beat at every second batch.
        assert [beat["done"] for beat in beats] == [8, 16, 24, 32]
        for beat in beats:
            assert set(beat["host"]) == {"wall_seconds", "trials_per_sec"}
            assert all(
                name.startswith(("pool.", "batch.", "campaign.", "defend."))
                for name in beat["counters"]
            )
        assert beats[-1]["counters"]["pool.trials.executed"] == 32

    def test_heartbeat_stream_is_deterministic_across_runs(self, tmp_path):
        """Two runs beat alike, and so do one worker and a crew of two
        under a retry policy: heartbeats count trials, not time."""
        spec = builtin_campaign("ci-smoke")

        def deterministic_beats(root, **kwargs):
            _stream_shard(spec, Shard(0, 1), root, every=8, **kwargs)
            frames, _ = read_frames(stream_spool(str(root)))
            beats = []
            for frame in frames:
                if frame["kind"] != "heartbeat":
                    continue
                body = dict(frame["body"])
                body.pop("host")
                beats.append(body)
            return beats

        first = deterministic_beats(tmp_path / "a")
        second = deterministic_beats(tmp_path / "b")
        assert first == second
        crews = []
        for workers in (1, 2):
            with TrialPool(
                workers=workers, policy=ResiliencePolicy(max_retries=1)
            ) as pool:
                crews.append(
                    deterministic_beats(tmp_path / f"w{workers}", pool=pool)
                )
        assert crews[0] == crews[1]

    def test_spool_spans_mirror_the_sidecar_trace(self, tmp_path):
        """The spool streams span deltas without draining the recorder:
        replayed, it is the whole trace (in seq order) the retired
        end-of-shard sidecar recorded, less the pool's retired heartbeat
        events, sealed by the fold's snapshot."""
        spec = builtin_campaign("ci-smoke")
        _stream_shard(spec, Shard(0, 1), tmp_path / "seg")
        spool = stream_spool(str(tmp_path / "seg"))
        trace, metrics = split_metrics(load_trace(spool))
        assert records_checksum(trace) == (
            "827bcd20d85cfa7aed6795e3182640e2f18deb0e9b08ebffe6ba8074df98afe6"
        )
        assert metrics == fold_stream(spool) and metrics


class TestSpoolDamage:
    def test_torn_tail_is_skipped_and_counted(self, tmp_path):
        spec = builtin_campaign("ci-smoke")
        root = tmp_path / "seg"
        _stream_shard(spec, Shard(0, 1), root)
        spool = stream_spool(str(root))
        whole, _ = read_frames(spool)
        with open(spool, "ab") as handle:
            handle.write(b'{"kind": "heartbeat", "att')  # killed mid-append
        frames, torn = read_frames(spool)
        assert torn == 1
        assert [f["seq"] for f in frames] == [f["seq"] for f in whole]
        # The fold sees through the damage entirely.
        assert fold_frames(frames) == fold_frames(whole)

    def test_cursor_never_consumes_a_partial_line(self, tmp_path):
        spool = str(tmp_path / "stream.jsonl")
        writer = StreamWriter(spool, shard="s", every=1)
        cursor = StreamCursor(spool)
        assert [f["kind"] for f in cursor.poll()] == ["open"]
        with open(spool, "ab") as handle:
            handle.write(b'{"kind": "metrics"')  # no newline yet
        assert cursor.poll() == []  # buffered, not torn
        writer.flush({"done": 1})  # the writer heals the tail first
        kinds = [f["kind"] for f in cursor.poll()]
        assert kinds == ["metrics", "heartbeat"]
        assert cursor.torn == 1  # the healed fragment, skipped once

    def test_duplicate_frames_dedup_first_write_wins(self, tmp_path):
        spec = builtin_campaign("ci-smoke")
        root = tmp_path / "seg"
        _stream_shard(spec, Shard(0, 1), root)
        spool = stream_spool(str(root))
        clean, _ = read_frames(spool)
        with open(spool, "rb") as handle:
            lines = [line for line in handle.read().splitlines() if line]
        # Replay a slice of frames, as a retrying transport would.
        with open(spool, "ab") as handle:
            for line in lines[2:6] + lines[:1]:
                handle.write(line + b"\n")
        replayed, torn = read_frames(spool)
        assert torn == 0
        assert replayed == clean
        assert fold_stream(spool) == fold_frames(clean)

    def test_new_writer_resumes_under_next_attempt(self, tmp_path):
        spool = str(tmp_path / "stream.jsonl")
        first = StreamWriter(spool, shard="s", every=1)
        first.close(snapshot={})
        second = StreamWriter(spool, shard="s", every=1)
        assert (first.attempt, second.attempt) == (0, 1)
        second.close(snapshot={})
        frames, _ = read_frames(spool)
        assert [f["attempt"] for f in frames if f["kind"] == "open"] == [0, 1]


class TestFoldContract:
    @pytest.mark.parametrize("shards", [1, 3, 8])
    def test_fold_matches_merge_telemetry_bytes(self, tmp_path, shards):
        """The headline identity at 1/3/8 shards: the fold (written as a
        recorded run) and shard 0's replayed trace match the pinned
        digests of the retired sidecars."""
        spec = builtin_campaign("ci-smoke")
        segments = []
        for index in range(shards):
            root = tmp_path / f"seg{index}"
            _stream_shard(spec, Shard(index, shards), root, every=2)
            segments.append(str(root))
        fold_path = str(tmp_path / "fold.jsonl")
        folded = fold_streams(map(stream_spool, segments), dest_path=fold_path)
        assert _digest(folded) == FOLD_DIGESTS[shards]
        _, metrics = split_metrics(load_trace(fold_path))
        assert metrics == folded
        assert _spool_trace_checksum(segments[0]) == (
            SHARD0_TRACE_CHECKSUMS[shards]
        )

    def test_fold_identity_survives_killed_worker_retries(self, tmp_path):
        """A shard dies mid-run; the retry resumes under attempt 1 and
        its end frame supersedes the partial attempt in the fold."""
        spec = builtin_campaign("ci-smoke")
        deaths = []

        def chaos(shard, attempt):
            if shard.index == 1 and attempt == 0:
                deaths.append(attempt)
                return 1
            return None

        dest = str(tmp_path / "fleet")
        Coordinator(
            spec,
            dest,
            shards=3,
            worker=StubWorker(
                spec, chaos=chaos, stream=True, stream_every=2,
                trial_fn=_stub_trial, batch_size=4,
            ),
            policy=ResiliencePolicy(max_retries=1, backoff_base=0.0),
        ).run()
        assert deaths == [0]
        spools = sorted(discover_spools(dest).values())
        retried = os.path.join(dest, "segments", "shard1of3")
        frames, _ = read_frames(stream_spool(retried))
        assert max(f["attempt"] for f in frames) == 1  # the retry appended
        assert _digest(fold_streams(spools)) == (
            "acd526aa2f7f152106e958faf12066f17a85e44f0ae46962a1cd2d26421b8f29"
        )
        # The replay is the retry's trace alone, as its sidecar was.
        assert _spool_trace_checksum(retried) == (
            "ee9ebaed983c1c9859bda31588b8c38fab50eb51763b398d0294011e77729a7b"
        )

    def test_fold_identity_survives_torn_spool_and_replay(self, tmp_path):
        """Tear the spool tail AND duplicate frames, then resume the
        shard: the fold still gives the pinned digest."""
        spec = builtin_campaign("ci-smoke")
        root = tmp_path / "seg"
        _stream_shard(spec, Shard(0, 2), root, every=2)
        spool = stream_spool(str(root))
        with open(spool, "rb") as handle:
            lines = [line for line in handle.read().splitlines() if line]
        with open(spool, "wb") as handle:
            # Keep a prefix, replay two frames, tear the last line.
            for line in lines[:-3] + lines[1:3]:
                handle.write(line + b"\n")
            handle.write(lines[-1][: len(lines[-1]) // 2])
        # The re-run heals the tail and seals a fresh attempt.
        _stream_shard(spec, Shard(0, 2), root, every=2)
        other = tmp_path / "seg1"
        _stream_shard(spec, Shard(1, 2), other, every=2)
        assert _digest(fold_streams([spool, stream_spool(str(other))])) == (
            "4fa6b311a6f328a58dad61bf205a05ba1168b1f9668da63f67f9bb2df5f25794"
        )

    def test_live_fold_is_a_prefix_of_the_final_fold(self, tmp_path):
        """Poll mid-stream at every frame boundary: deterministic
        counters only ever grow toward their final values, and no metric
        appears that the final fold lacks."""
        spec = builtin_campaign("ci-smoke")
        root = tmp_path / "seg"
        _stream_shard(spec, Shard(0, 1), root, every=2)
        frames, _ = read_frames(stream_spool(str(root)))
        final = deterministic_view(fold_frames(frames))
        previous = 0
        for cut in range(1, len(frames) + 1):
            live = deterministic_view(fold_frames(frames[:cut]))
            assert set(live) <= set(final)
            for name, entry in live.items():
                if entry["type"] == "counter":
                    assert entry["value"] <= final[name]["value"]
            executed = live.get("pool.trials.executed", {}).get("value", 0)
            assert executed >= previous
            previous = executed
        assert deterministic_view(fold_frames(frames)) == final

    def test_streaming_never_perturbs_campaign_artifacts(self, tmp_path):
        """Telemetry observes, never perturbs: a streamed fleet's report
        and store bytes equal a plain fleet's."""
        spec = builtin_campaign("ci-smoke")
        outputs = {}
        for mode, stream in (("plain", False), ("streamed", True)):
            dest = str(tmp_path / mode)
            result = Coordinator(
                spec,
                dest,
                shards=3,
                worker=StubWorker(
                    spec, stream=stream, stream_every=2,
                    trial_fn=_stub_trial, batch_size=4,
                ),
                stream=stream,
            ).run()
            assert result.report is not None
            with open(ResultStore(dest).path, "rb") as handle:
                outputs[mode] = (
                    result.report.to_json(),
                    result.report.render_text(),
                    handle.read(),
                )
        assert outputs["plain"] == outputs["streamed"]


class TestCoordinatorTailing:
    def test_coordinator_tails_spools_concurrently(self, tmp_path):
        spec = builtin_campaign("ci-smoke")
        seen = []
        coordinator = Coordinator(
            spec,
            str(tmp_path / "fleet"),
            shards=3,
            worker=StubWorker(
                spec, stream=True, stream_every=2,
                trial_fn=_stub_trial, batch_size=4,
            ),
            stream=True,
            stream_interval=0.01,
            on_stream=lambda view: seen.append(view.render()),
        )
        result = coordinator.run()
        assert result.completed == 3
        assert seen  # the tail task observed the fleet
        view = coordinator.stream_view
        assert view is not None and view.all_done()
        # The final tailed state is the complete stream: its merged
        # metrics equal the end-of-shard fold exactly.
        spools = discover_spools(str(tmp_path / "fleet")).values()
        assert view.merged_metrics() == fold_streams(spools)
        assert "3 shards" in seen[-1] and "done" in seen[-1]

    def test_fleet_view_renders_waiting_running_done(self, tmp_path):
        spool = str(tmp_path / "stream.jsonl")
        view = FleetView({"s0": spool}, campaign="demo")
        view.poll()
        assert view.shards["s0"].status == "waiting"
        writer = StreamWriter(spool, shard="s0", total=8, every=2)
        writer.flush({"done": 4, "total": 8, "failures": 1})
        view.poll()
        assert view.shards["s0"].status == "running"
        assert view.shards["s0"].done == 4
        writer.close(snapshot={}, update={"done": 8, "total": 8})
        view.poll()
        assert view.all_done()
        text = view.render()
        assert text.startswith("fleet demo: 1 shards")
        assert "done" in text


class TestObsCli:
    def _record(self, tmp_path):
        # Under segments/ so discover_spools() finds it from the root.
        spec = builtin_campaign("ci-smoke")
        root = tmp_path / "segments" / "seg0"
        _stream_shard(spec, Shard(0, 1), root, every=2)
        return root

    def test_obs_commands_reject_missing_and_empty_files(self, tmp_path):
        lines = []
        missing = str(tmp_path / "nope.jsonl")
        empty = str(tmp_path / "empty.jsonl")
        open(empty, "w").close()
        # JSONL, but no span, event, metrics record or spool frame.
        foreign = str(tmp_path / "results.jsonl")
        with open(foreign, "w") as handle:
            handle.write(json.dumps({"key": "ab12", "seq": 3}) + "\n")
        bodies = (run_obs_report, run_obs_trace, run_obs_tail, run_obs_flame)
        for body in bodies:
            for path in (missing, empty, foreign):
                assert body(path, out=lines.append) == 2
        assert len(lines) == 3 * len(bodies)
        assert all(line.startswith("error: ") for line in lines)
        assert any("no recorded run" in line for line in lines)
        assert any("is empty" in line for line in lines)
        assert any("holds no telemetry records" in line for line in lines)

    def test_obs_commands_replay_a_sealed_spool(self, tmp_path):
        """report, trace --validate and tail read a shard's spool as a
        recorded run (they used to die on its frames with a KeyError);
        a spool whose every line is damaged is a one-line error."""
        spool = stream_spool(str(self._record(tmp_path)))
        lines = []
        assert run_obs_report(spool, out=lines.append) == 0
        assert "trace    : 2 spans, 0 events" in lines
        assert ["pool.trials.executed", "counter", "32"] in [
            line.split() for line in lines
        ]
        lines = []
        target = str(tmp_path / "spool.trace.json")
        assert run_obs_trace(
            spool, output=target, validate=True, out=lines.append
        ) == 0
        assert lines[-1] == "trace_event schema: ok"
        lines = []
        assert run_obs_tail(spool, count=3, out=lines.append) == 0
        assert [line.split()[:3] for line in lines] == [
            ["0", "span", "campaign.run"], ["1", "span", "cell"]
        ]
        with open(spool, "rb") as handle:
            frames = handle.read().splitlines()
        with open(spool, "wb") as handle:
            handle.writelines(line[: len(line) // 2] + b"\n" for line in frames)
        for body in (run_obs_report, run_obs_trace, run_obs_tail):
            lines = []
            assert body(spool, out=lines.append) == 2
            assert [line for line in lines if line.startswith("error: ")] == [
                f"error: {spool}: every record is damaged "
                f"({len(frames)} torn lines)"
            ]

    def test_obs_report_heals_torn_tail_with_warning(self, tmp_path):
        spool = stream_spool(str(self._record(tmp_path)))
        with open(spool, "ab") as handle:
            handle.write(b'{"kind": "spans", "att')
        lines = []
        assert run_obs_report(spool, out=lines.append) == 0
        assert any(
            line.startswith("warning: ") and "torn telemetry record" in line
            for line in lines
        )

    def test_obs_top_once_and_fold(self, tmp_path):
        self._record(tmp_path)
        lines = []
        assert run_obs_top(str(tmp_path), once=True, out=lines.append) == 0
        assert any("1 shards" in line for line in lines)
        lines = []
        target = str(tmp_path / "fold.jsonl")
        assert run_obs_fold(str(tmp_path), output=target, out=lines.append) == 0
        with open(target, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        assert lines[0].startswith("folded 1 spool(s): ")
        assert lines[0].endswith(f"sha256 {digest}")

    def test_obs_fold_rejects_paths_without_spool_frames(self, tmp_path):
        """An empty file or a non-spool JSONL file is one error line,
        not the digest of an empty fold; a live spool (frames but no
        ``end`` frame yet) still folds."""
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        recorded = tmp_path / "run.jsonl"
        recorded.write_text(json.dumps({"kind": "metrics", "snapshot": {}}) + "\n")
        for path in (empty, recorded):
            lines = []
            assert run_obs_fold(str(path), out=lines.append) == 2
            assert lines == [
                f"error: no stream spools under {path} "
                f"(start the fleet with --stream)"
            ]
        spool = stream_spool(str(self._record(tmp_path)))
        frames, _ = read_frames(spool)
        with open(spool, "w") as handle:
            for frame in frames:
                if frame["kind"] != "end":
                    handle.write(json.dumps(frame) + "\n")
        lines = []
        assert run_obs_fold(spool, out=lines.append) == 0
        assert lines[0].startswith("folded 1 spool(s): ")
        assert not lines[0].startswith("folded 1 spool(s): 0 metrics")

    def test_obs_fold_reads_a_spool_under_any_name(self, tmp_path):
        """A spool copied to another name folds its own frames, not the
        (absent) ``stream.jsonl`` beside it."""
        spool = stream_spool(str(self._record(tmp_path)))
        renamed = tmp_path / "other" / "renamed.jsonl"
        renamed.parent.mkdir()
        renamed.write_bytes(open(spool, "rb").read())
        folds = []
        for path in (spool, str(renamed)):
            lines = []
            assert run_obs_fold(path, out=lines.append) == 0
            folds.append(lines[0])
        assert folds[0] == folds[1]
        assert not folds[0].startswith("folded 1 spool(s): 0 metrics")

    def test_obs_flame_exports_collapsed_stacks_from_a_spool(self, tmp_path):
        # Real trials here: only core.run spans carry cycle counts.  The
        # export equals the one the retired sidecar gave (pinned).
        spec = builtin_campaign("ci-smoke")
        spool = stream_spool(str(tmp_path / "seg"))
        run_shard(spec, Shard(0, 1), str(tmp_path / "seg"),
                  stream_path=spool, stream_every=8, batch_size=8)
        target = str(tmp_path / "spool.folded")
        assert run_obs_flame(spool, output=target, out=lambda _: None) == 0
        with open(target, "rb") as handle:
            output = handle.read()
        assert hashlib.sha256(output).hexdigest() == (
            "84369dc37223b711dc5e36c5b33b1411a8d7c8f7cc0da19964c40e589f7eb76d"
        )
        assert b";" in output  # real nesting collapsed

    def test_obs_top_missing_spools_is_one_line_error(self, tmp_path):
        lines = []
        assert run_obs_top(str(tmp_path), once=True, out=lines.append) == 2
        assert lines == [
            f"error: no stream spools under {tmp_path} "
            f"(start the fleet with --stream)"
        ]

    def test_spool_is_the_only_telemetry_artifact(self, tmp_path):
        """The end-of-shard sidecar and its flags are gone: a streamed
        shard's segment holds its manifest, its results and its spool."""
        segment = str(tmp_path / "seg")
        for retired in (
            ["campaign", "shard", "ci-smoke", "--index", "0", "--of", "1",
             "--store", segment, "--trace-out", str(tmp_path / "t.jsonl")],
            ["campaign", "fleet", "ci-smoke", "--store", segment, "--trace"],
            ["obs", "fold", segment, "--check"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(retired)
            assert excinfo.value.code == 2
        assert main(
            ["campaign", "shard", "ci-smoke", "--index", "0", "--of", "8",
             "--store", segment, "--stream-out", stream_spool(segment),
             "--stream-every", "2"]
        ) == 0
        assert sorted(os.listdir(segment)) == [
            "manifest.json", "results.jsonl", "stream.jsonl"
        ]


class TestProgressRenderer:
    def test_progress_line_surfaces_evictions_and_standdowns(self):
        sink = io.StringIO()
        renderer = ProgressRenderer(stream=sink, name="demo")
        renderer.on_batch(
            {
                "done": 8, "pending": 16, "total": 32, "cached": 16,
                "cell": 1, "cells": 2, "failures": 1,
                "evictions": 3,
                "standdowns": {"resilience-policy": 2, "cache-hit": 1},
            }
        )
        line = sink.getvalue()
        assert "3 evicted" in line
        assert "standdown cache-hitx1,resilience-policyx2" in line

    def test_progress_line_stays_quiet_without_batch_counts(self):
        sink = io.StringIO()
        ProgressRenderer(stream=sink, name="demo").on_batch(
            {"done": 4, "pending": 8, "total": 8, "cached": 0,
             "cell": 0, "cells": 1, "failures": 0}
        )
        line = sink.getvalue()
        assert "evicted" not in line and "standdown" not in line
