"""The live fleet telemetry plane: framed, tail-able shard spools.

A shard armed with ``--stream-out`` appends **frames** -- one JSON
object per line -- to a per-shard spool (``stream.jsonl`` in the
segment root).  The spool is the shard's only telemetry artifact:
``repro obs top`` tails it while the shard runs, :func:`fold_streams`
folds sealed spools into one fleet metrics snapshot, and
``repro obs report|trace|tail|flame`` replay it as a recorded run
(:func:`spool_trace`).  Frames are sequence-numbered per attempt and
carry one of five kinds:

* ``open`` -- the attempt started (campaign, shard arithmetic, trial
  counts);
* ``spans`` -- a delta batch of newly closed span/event records;
* ``metrics`` -- a **cumulative** snapshot of the shard's metrics
  registry at a trial-count boundary;
* ``heartbeat`` -- the deterministic progress pulse: done/total/cached/
  failure counts, batch-eviction and stand-down counters, retry and
  detector counters, with host-dependent facts (trials/sec, wall
  seconds) quarantined under the frame body's ``host`` key exactly like
  the ``wall``/``host`` sidecar fields of span records;
* ``end`` -- the attempt completed; its body carries the shard's final
  metrics snapshot.

Everything is emitted at a **deterministic trial-count cadence**
(``--stream-every N``), never on a wall-clock timer: two runs of the
same shard produce frame streams whose deterministic content is
identical, so the stream is as replayable as every other artifact.

The determinism contract (pinned by ``tests/test_obs_stream.py``):

1. **Prefix property** -- metrics frames are cumulative, so the live
   fold after any frame prefix is a *prefix* of the final fold: every
   deterministic counter is ``<=`` its final value and nothing appears
   that the final fold lacks.
2. **Stable fold** -- each spool folds to the snapshot of its highest
   sealed attempt, so the deterministic view of :func:`fold_streams`
   over completed spools is a pure function of what the shards ran;
   torn tails and duplicated frames do not change it.

Chaos-safety falls out of the frame keying: a retried attempt appends
with a higher ``attempt`` number (the spool is append-only across
worker deaths), replayed frames dedup by ``(attempt, seq)`` first-write
wins, and a torn trailing line -- a worker killed mid-append -- is
skipped exactly like the store's torn-tail healing.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro import telemetry
from repro.telemetry.metrics import merge_snapshots

__all__ = [
    "DEFAULT_STREAM_EVERY",
    "STREAM_SPOOL",
    "FleetView",
    "ShardStreamView",
    "StreamCursor",
    "StreamWriter",
    "discover_spools",
    "fold_frames",
    "fold_stream",
    "fold_streams",
    "read_frames",
    "spool_trace",
    "stream_spool",
]

#: The conventional spool filename inside a segment root (next to the
#: segment's ``manifest.json`` and ``results.jsonl``).
STREAM_SPOOL = "stream.jsonl"

#: Default heartbeat/snapshot cadence in completed trials.
DEFAULT_STREAM_EVERY = 32

#: Frame kinds a well-formed spool may contain.
FRAME_KINDS = ("open", "spans", "metrics", "heartbeat", "end")

#: Registry counters a heartbeat frame carries (cumulative values).  The
#: prefixes cover throughput, retries, batch-eviction/stand-down and
#: detector-verdict counters without hard-coding every metric name.
HEARTBEAT_COUNTER_PREFIXES = ("pool.", "batch.", "campaign.", "defend.")


def stream_spool(root: str) -> str:
    """The conventional spool path inside a segment root."""
    return os.path.join(root, STREAM_SPOOL)


# -- writing ---------------------------------------------------------------


class StreamWriter:
    """Append framed telemetry deltas to one shard's spool.

    The writer is armed by the shard process (``campaign shard
    --stream-out``, see :func:`repro.distrib.shard.run_shard`, which
    hands it every update from the runner's ``observer`` hook).
    ``on_batch`` takes that per-checkpoint update: when the
    completed-trial count crosses a cadence boundary it emits a
    ``spans`` delta, a cumulative ``metrics`` snapshot and a
    ``heartbeat``, the product's only heartbeat.  ``close`` seals the attempt with an ``end`` frame
    carrying the shard's final metrics snapshot.

    Resume-safety: a fresh writer on an existing spool (a retried shard
    attempt) heals any torn trailing line and continues under the next
    attempt number -- it never truncates what a dead worker managed to
    append.
    """

    def __init__(
        self,
        path: str,
        shard: Optional[str] = None,
        campaign: str = "",
        total: int = 0,
        every: int = DEFAULT_STREAM_EVERY,
    ) -> None:
        if every < 1:
            raise ValueError("stream cadence must be at least 1 trial")
        self.path = path
        self.shard = shard
        self.campaign = campaign
        self.total = total
        self.every = every
        self.frames_written = 0
        self._seq = 0
        self._next_boundary = every
        self._started = time.perf_counter()
        self._closed = False
        # Span-delta bookkeeping over the live recorder: records are
        # append-only and never reordered, so a scan position plus the
        # still-open stragglers is an O(new) delta.
        self._scan_pos = 0
        self._open_pending: List[dict] = []
        self._last_update: Dict = {}
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self.attempt = self._next_attempt()
        self._emit(
            "open",
            {
                "campaign": campaign,
                "shard": shard,
                "total": total,
                "every": every,
            },
        )

    def _next_attempt(self) -> int:
        """Continue an existing spool under the next attempt number."""
        if not os.path.exists(self.path):
            return 0
        frames, _ = read_frames(self.path, dedup=False)
        if not frames:
            return 0
        return max(frame["attempt"] for frame in frames) + 1

    def _emit(self, kind: str, body: dict) -> None:
        frame = {
            "kind": kind,
            "shard": self.shard,
            "attempt": self.attempt,
            "seq": self._seq,
            "body": body,
        }
        self._seq += 1
        with open(self.path, "a+b") as handle:
            # Torn-tail healing, store-style: terminate a partial
            # trailing record before appending so one torn line never
            # poisons the frames behind it.
            handle.seek(0, os.SEEK_END)
            if handle.tell() > 0:
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    handle.write(b"\n")
            handle.write(
                json.dumps(frame, sort_keys=True).encode() + b"\n"
            )
            handle.flush()
        self.frames_written += 1

    # -- span deltas -------------------------------------------------------

    def _collect_spans(self) -> List[dict]:
        """Newly closed records since the last flush (non-destructive).

        The recorder is read, never drained: records still open at one
        flush are picked up by a later one.
        """
        recorder = telemetry.recorder()
        if recorder is None:
            return []
        fresh: List[dict] = []
        still_open: List[dict] = []
        for record in self._open_pending:
            if "open" in record:
                still_open.append(record)
            else:
                fresh.append(record)
        records = recorder.records
        for record in records[self._scan_pos:]:
            if "open" in record:
                still_open.append(record)
            else:
                fresh.append(record)
        self._scan_pos = len(records)
        self._open_pending = still_open
        fresh.sort(key=lambda record: record["seq"])
        return [dict(record) for record in fresh]

    # -- the runner hook ---------------------------------------------------

    def on_batch(self, update: Dict) -> None:
        """Take one per-checkpoint update: flush at cadence boundaries."""
        if self._closed:
            return
        self._last_update = dict(update)
        done = int(update.get("done", 0))
        if done < self._next_boundary:
            return
        while self._next_boundary <= done:
            self._next_boundary += self.every
        self.flush(update)

    def flush(self, update: Optional[Dict] = None) -> None:
        """Emit a spans delta, a cumulative snapshot and a heartbeat."""
        spans = self._collect_spans()
        if spans:
            self._emit("spans", {"records": spans})
        self._emit(
            "metrics", {"snapshot": telemetry.metrics_registry().snapshot()}
        )
        self._emit("heartbeat", self._heartbeat_body(update or {}))

    def _heartbeat_body(
        self, update: Dict, snapshot: Optional[Dict[str, dict]] = None
    ) -> dict:
        """One deterministic progress pulse.

        Everything outside ``host`` is a pure function of the completed
        trial set; ``host`` quarantines wall-clock facts the same way
        span records quarantine ``wall``/``host`` sidecar fields.
        """
        if snapshot is None:
            snapshot = telemetry.metrics_registry().snapshot()
        counters = {
            name: entry["value"]
            for name, entry in snapshot.items()
            if entry["type"] == "counter"
            and entry.get("det", True)
            and name.startswith(HEARTBEAT_COUNTER_PREFIXES)
        }
        elapsed = time.perf_counter() - self._started
        done = int(update.get("done", 0))
        return {
            "done": done,
            "pending": int(update.get("pending", 0)),
            "total": int(update.get("total", self.total)),
            "cached": int(update.get("cached", 0)),
            "failures": int(update.get("failures", 0)),
            "evictions": int(update.get("evictions", 0)),
            "standdowns": dict(update.get("standdowns", {})),
            "cell": update.get("cell"),
            "cells": int(update.get("cells", 0)),
            "counters": counters,
            "host": {
                "wall_seconds": round(elapsed, 3),
                "trials_per_sec": (
                    round(done / elapsed, 1) if elapsed > 0 else 0.0
                ),
            },
        }

    def close(
        self,
        snapshot: Optional[Dict[str, dict]] = None,
        update: Optional[Dict] = None,
    ) -> None:
        """Seal the attempt: final spans delta plus the ``end`` frame.

        *snapshot* is the shard's final metrics snapshot
        (:func:`~repro.distrib.shard.run_shard` drains the registry and
        hands it over); by default the live registry is snapshotted.
        """
        if self._closed:
            return
        spans = self._collect_spans()
        if spans:
            self._emit("spans", {"records": spans})
        if snapshot is None:
            snapshot = telemetry.metrics_registry().snapshot()
        body = {"snapshot": snapshot}
        final_update = update if update is not None else self._last_update
        if final_update:
            # Counters come from the sealed snapshot: the registry may
            # already be drained at close time.
            body["heartbeat"] = self._heartbeat_body(
                final_update, snapshot=snapshot
            )
        self._emit("end", body)
        self._closed = True
        try:
            with open(self.path, "rb") as handle:
                os.fsync(handle.fileno())
        except OSError:  # pragma: no cover - exotic filesystems
            pass


# -- reading ---------------------------------------------------------------


def is_frame(obj) -> bool:
    """Is *obj* a well-formed spool frame?"""
    return (
        isinstance(obj, dict)
        and obj.get("kind") in FRAME_KINDS
        and isinstance(obj.get("attempt"), int)
        and isinstance(obj.get("seq"), int)
        and isinstance(obj.get("body"), dict)
    )


def _parse_frame(line: str) -> Optional[dict]:
    """One spool line as a validated frame, or None for damage."""
    try:
        frame = json.loads(line)
    except ValueError:
        return None
    return frame if is_frame(frame) else None


def _canonical(frames: Iterable[dict]) -> List[dict]:
    """First write wins per ``(attempt, seq)``, ordered by that key."""
    unique: Dict[Tuple[int, int], dict] = {}
    for frame in frames:
        unique.setdefault((frame["attempt"], frame["seq"]), frame)
    return [unique[key] for key in sorted(unique)]


class StreamCursor:
    """Incremental reader over one spool: hand back new complete frames.

    The coordinator polls cursors while shards run.  Only complete
    (newline-terminated) lines are consumed; a partial tail stays
    buffered until its writer finishes it, so tailing never observes a
    torn frame.  Damaged complete lines (a line the writer healed over)
    count in :attr:`torn` and are skipped -- the reader-side mirror of
    the writer's torn-tail healing.
    """

    def __init__(self, path: str, dedup: bool = True) -> None:
        self.path = path
        self.offset = 0
        self.torn = 0
        self._dedup = dedup
        self._seen: set = set()

    def poll(self) -> List[dict]:
        """Every new complete frame appended since the last poll."""
        try:
            with open(self.path, "rb") as handle:
                handle.seek(self.offset)
                data = handle.read()
        except OSError:
            return []
        if not data:
            return []
        # Consume only through the last newline: a torn tail stays put.
        cut = data.rfind(b"\n")
        if cut < 0:
            return []
        data = data[: cut + 1]
        self.offset += len(data)
        frames: List[dict] = []
        for raw in data.split(b"\n"):
            line = raw.strip()
            if not line:
                continue
            frame = _parse_frame(line.decode(errors="replace"))
            if frame is None:
                self.torn += 1
                continue
            if self._dedup:
                key = (frame["attempt"], frame["seq"])
                if key in self._seen:
                    continue
                self._seen.add(key)
            frames.append(frame)
        return frames


def read_frames(path: str, dedup: bool = True) -> Tuple[List[dict], int]:
    """Load a whole spool; returns ``(frames, torn_line_count)``.

    With *dedup* (the default), replayed frames drop by first-write-wins
    on ``(attempt, seq)`` and frames order by that same key -- the
    canonical view any reader interleaving converges to.
    """
    frames: List[dict] = []
    torn = 0
    with open(path, "rb") as handle:
        data = handle.read()
    lines = data.split(b"\n")
    # A spool without a trailing newline ends in a torn frame.
    if lines and lines[-1].strip():
        torn += 1
    for raw in lines[:-1]:
        line = raw.strip()
        if not line:
            continue
        frame = _parse_frame(line.decode(errors="replace"))
        if frame is None:
            torn += 1
            continue
        frames.append(frame)
    return (_canonical(frames) if dedup else frames), torn


# -- folding (the determinism contract) ------------------------------------


def _selected(frames: Iterable[dict]) -> Tuple[int, Dict[str, dict]]:
    """The attempt :func:`fold_frames` selects, and its snapshot."""
    ends: Dict[int, Dict[str, dict]] = {}
    latest: Dict[int, Dict[str, dict]] = {}
    top = 0
    for frame in frames:
        attempt = frame["attempt"]
        top = max(top, attempt)
        if frame["kind"] == "end":
            ends[attempt] = frame["body"].get("snapshot", {})
        elif frame["kind"] == "metrics":
            latest[attempt] = frame["body"].get("snapshot", {})
    for snapshots in (ends, latest):
        if snapshots:
            attempt = max(snapshots)
            return attempt, snapshots[attempt]
    return top, {}


def fold_frames(frames: Iterable[dict]) -> Dict[str, dict]:
    """The final metrics snapshot one spool's frames resolve to.

    Snapshots are cumulative, so folding is *selection*, not
    accumulation: the ``end`` frame of the highest attempt that has one
    wins outright.  A spool whose every attempt died mid-run falls back
    to the latest ``metrics`` frame of its highest attempt -- the best
    prefix available -- and an empty or span-only spool folds to ``{}``,
    contributing nothing to :func:`fold_streams`.
    """
    return _selected(frames)[1]


def spool_trace(frames: Iterable[dict]) -> List[dict]:
    """One spool as the recorded run ``repro obs`` replays.

    Malformed frames drop and replayed ones dedup as in
    :func:`read_frames`.  The result has the layout of a ``campaign run
    --trace-out`` file: the span and event records of the attempt
    :func:`fold_frames` selects, sorted by ``seq``, then one ``metrics``
    record carrying that attempt's snapshot.
    """
    frames = _canonical(frame for frame in frames if is_frame(frame))
    attempt, snapshot = _selected(frames)
    records = [
        record
        for frame in frames
        if frame["kind"] == "spans" and frame["attempt"] == attempt
        for record in frame["body"].get("records", [])
    ]
    records.sort(key=lambda record: record["seq"])
    return records + [{"kind": "metrics", "snapshot": snapshot}]


def fold_stream(path: str) -> Dict[str, dict]:
    """Fold one spool file (missing file folds to ``{}``)."""
    if not os.path.exists(path):
        return {}
    frames, _ = read_frames(path)
    return fold_frames(frames)


def fold_streams(
    spools: Iterable[str],
    dest_path: Optional[str] = None,
) -> Dict[str, dict]:
    """Fold spool files into one fleet snapshot.

    Snapshot merging is commutative (see :mod:`repro.telemetry.metrics`),
    so the fleet view is independent of completion order; a missing
    spool contributes nothing.  When *dest_path* is given the merged
    snapshot is written as a recorded run that ``repro obs report``
    renders directly.
    """
    from repro.telemetry.export import write_jsonl

    snapshots = []
    for path in spools:
        folded = fold_stream(path)
        if folded:
            snapshots.append(folded)
    merged = merge_snapshots(*snapshots)
    if dest_path is not None:
        write_jsonl([], dest_path, metrics=merged)
    return merged


def discover_spools(root: str) -> Dict[str, str]:
    """Spool paths under a fleet root (or a single segment/spool path).

    Accepts the fleet destination root (spools live under
    ``segments/<label>/stream.jsonl``), a single segment root, or a
    spool file itself; returns ``{label: path}`` sorted by label.
    """
    if os.path.isfile(root):
        return {os.path.basename(os.path.dirname(root)) or root: root}
    spools: Dict[str, str] = {}
    segments = os.path.join(root, "segments")
    if os.path.isdir(segments):
        for label in sorted(os.listdir(segments)):
            path = stream_spool(os.path.join(segments, label))
            if os.path.exists(path):
                spools[label] = path
    direct = stream_spool(root)
    if os.path.exists(direct):
        spools[os.path.basename(os.path.normpath(root))] = direct
    return spools


# -- the live fleet view ---------------------------------------------------


class ShardStreamView:
    """Aggregated live state of one shard's spool."""

    def __init__(self, label: str, path: str) -> None:
        self.label = label
        self.cursor = StreamCursor(path)
        self.status = "waiting"
        self.attempt = 0
        self.total = 0
        self.frames = 0
        self.heartbeat: Optional[dict] = None
        self.snapshot: Dict[str, dict] = {}
        self._snapshot_attempt = -1

    def poll(self) -> int:
        frames = self.cursor.poll()
        for frame in frames:
            self.apply(frame)
        return len(frames)

    def apply(self, frame: dict) -> None:
        self.frames += 1
        attempt = frame["attempt"]
        kind = frame["kind"]
        if attempt > self.attempt:
            self.attempt = attempt
        if kind == "open":
            self.total = int(frame["body"].get("total", self.total))
            if self.status != "done":
                self.status = "running"
        elif kind == "metrics":
            if attempt >= self._snapshot_attempt:
                self.snapshot = frame["body"].get("snapshot", {})
                self._snapshot_attempt = attempt
        elif kind == "heartbeat":
            self.heartbeat = frame["body"]
            if self.status != "done":
                self.status = "running"
        elif kind == "end":
            self.snapshot = frame["body"].get("snapshot", {})
            self._snapshot_attempt = attempt
            if "heartbeat" in frame["body"]:
                self.heartbeat = frame["body"]["heartbeat"]
            self.status = "done"

    @property
    def done(self) -> int:
        if self.status == "done" and self.heartbeat is None:
            return self.total
        return int(self.heartbeat.get("done", 0)) if self.heartbeat else 0

    @property
    def torn(self) -> int:
        return self.cursor.torn

    def row(self) -> str:
        beat = self.heartbeat or {}
        host = beat.get("host", {})
        rate = host.get("trials_per_sec")
        standdowns = beat.get("standdowns") or {}
        standdown_text = (
            ",".join(sorted(standdowns)) if standdowns else "-"
        )
        return (
            f"{self.label:<12} {self.status:<8} a{self.attempt} "
            f"{self.done:>6}/{self.total or '?':<6} "
            f"{(f'{rate:8.1f}/s' if rate is not None else '       -')} "
            f"fail {beat.get('failures', 0):<4} "
            f"evict {beat.get('evictions', 0):<4} "
            f"standdown {standdown_text}"
        )


class FleetView:
    """The ``repro obs top`` model: every shard's spool, one dashboard.

    The coordinator (and the standalone CLI) polls :meth:`poll`; the
    merged metrics of the latest cumulative snapshots are the *live
    fold* -- by the prefix property, always a prefix of the final
    :func:`fold_streams` result.
    """

    def __init__(self, spools: Dict[str, str], campaign: str = "") -> None:
        self.campaign = campaign
        self.shards = {
            label: ShardStreamView(label, path)
            for label, path in sorted(spools.items())
        }

    def poll(self) -> int:
        return sum(view.poll() for view in self.shards.values())

    def merged_metrics(self) -> Dict[str, dict]:
        return merge_snapshots(
            *(view.snapshot for view in self.shards.values() if view.snapshot)
        )

    def all_done(self) -> bool:
        return bool(self.shards) and all(
            view.status == "done" for view in self.shards.values()
        )

    @property
    def torn(self) -> int:
        return sum(view.torn for view in self.shards.values())

    def render(self, name: Optional[str] = None) -> str:
        name = self.campaign if name is None else name
        running = sum(
            1 for view in self.shards.values() if view.status == "running"
        )
        done = sum(1 for view in self.shards.values() if view.status == "done")
        lines = [
            f"fleet{f' {name}' if name else ''}: {len(self.shards)} shards "
            f"({running} running, {done} done)"
        ]
        for label in sorted(self.shards):
            lines.append("  " + self.shards[label].row())
        totals = self.merged_metrics()
        executed = totals.get("pool.trials.executed", {}).get("value", 0)
        evicted = totals.get("batch.lanes.evicted", {}).get("value", 0)
        lines.append(
            f"  {'fleet':<12} {'':8} -- {executed:>6} executed, "
            f"{evicted} lanes evicted, {len(totals)} metrics in live fold"
        )
        if self.torn:
            lines.append(f"  ({self.torn} torn spool lines skipped)")
        return "\n".join(lines)
