"""Exporters: JSONL event logs, Chrome ``trace_event`` JSON, and text
cycle-attribution summaries.

Three consumers, three formats:

* **JSONL** -- the canonical recorded-run artifact (`repro campaign run
  --trace-out run.jsonl`).  One record per line, ending with a single
  ``{"kind": "metrics", ...}`` record carrying the run's merged metrics
  snapshot.  ``repro obs report|trace|tail|flame`` all replay this
  file, and read a shard's stream spool the same way (see
  :func:`load_trace`).
* **Chrome trace JSON** -- load the converted file in
  ``chrome://tracing`` or https://ui.perfetto.dev to see the campaign
  as a flame chart.  When records carry ``wall`` sidecar times those
  drive the timeline; otherwise a deterministic preorder timeline is
  synthesised from sequence numbers (every span still nests correctly).
* **Cycle attribution** -- a flamegraph-style text rollup of simulated
  cycles by span path, the summary ``repro obs report`` prints so a
  slow run names *where* the cycles went.

:func:`records_checksum` hashes a trace with the ``wall``/``host``
sidecar fields stripped: telemetry-on runs of the same seed at the same
worker count produce identical checksums, which is how the determinism
suite pins the trace format.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "TraceUnreadable",
    "chrome_trace",
    "collapsed_stacks",
    "cycle_attribution",
    "load_trace",
    "read_jsonl",
    "records_checksum",
    "render_attribution",
    "split_metrics",
    "strip_sidecar",
    "validate_chrome_trace",
    "write_jsonl",
]

#: Sidecar fields: host-and-wall-clock facts excluded from checksums.
SIDECAR_FIELDS = ("wall", "host")


def strip_sidecar(record: dict) -> dict:
    """A copy of *record* without the nondeterministic sidecar fields."""
    return {key: value for key, value in record.items() if key not in SIDECAR_FIELDS}


def records_checksum(records: Iterable[dict]) -> str:
    """SHA-256 over the sidecar-stripped canonical JSON of *records*."""
    text = json.dumps(
        [strip_sidecar(record) for record in records],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(text.encode()).hexdigest()


# -- JSONL -----------------------------------------------------------------


def write_jsonl(
    records: Sequence[dict],
    path: str,
    metrics: Optional[Dict[str, dict]] = None,
) -> None:
    """Write a recorded run: one record per line, metrics record last."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        if metrics is not None:
            handle.write(
                json.dumps({"kind": "metrics", "snapshot": metrics}, sort_keys=True)
                + "\n"
            )


def read_jsonl(path: str) -> List[dict]:
    """Load every record of a recorded run (metrics record included)."""
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


class TraceUnreadable(RuntimeError):
    """A recorded run the obs CLI cannot replay (missing/empty/garbled).

    Carries the one-line operator-facing explanation; ``repro obs``
    commands print it and exit non-zero instead of dumping a traceback.
    """


def load_trace(path: str, warn=None) -> List[dict]:
    """:func:`read_jsonl` with operator-grade damage handling.

    The obs CLI's loader: a missing, empty or wholly undecodable file,
    or one with no span, event, metrics record or spool frame, raises
    :class:`TraceUnreadable` with a one-line diagnosis, and a
    torn record -- a writer killed mid-append, exactly the damage the
    store's torn-tail healing absorbs -- is skipped with a *warn*
    callback note rather than poisoning the whole replay.

    A stream spool (``campaign shard --stream-out``) loads as the
    recorded run its shard sealed, via
    :func:`~repro.telemetry.stream.spool_trace`: the selected attempt's
    records sorted by ``seq``, then its metrics record.
    """
    from repro.telemetry.stream import is_frame, spool_trace

    if not os.path.exists(path):
        raise TraceUnreadable(
            f"no recorded run at {path} (record one with --trace-out)"
        )
    records: List[dict] = []
    torn = 0
    with open(path) as handle:
        lines = handle.readlines()
    for number, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            record = json.loads(text)
        except ValueError:
            torn += 1
            if warn is not None:
                warn(
                    f"{path}:{number}: skipping torn telemetry record "
                    f"(writer died mid-append?)"
                )
            continue
        if isinstance(record, dict):
            records.append(record)
    if records and is_frame(records[0]):
        records = spool_trace(records)
    elif records and not any(
        record.get("kind") in ("span", "event", "metrics") for record in records
    ):
        raise TraceUnreadable(
            f"{path} holds no telemetry records (not a --trace-out file or spool)"
        )
    if not records:
        if torn:
            raise TraceUnreadable(
                f"{path}: every record is damaged ({torn} torn lines)"
            )
        raise TraceUnreadable(f"{path} is empty (the run recorded nothing)")
    return records


def split_metrics(records: Sequence[dict]) -> Tuple[List[dict], Dict[str, dict]]:
    """Partition a loaded run into (trace records, merged metrics)."""
    from repro.telemetry.metrics import merge_snapshots

    trace = [r for r in records if r.get("kind") != "metrics"]
    snapshots = [r["snapshot"] for r in records if r.get("kind") == "metrics"]
    return trace, merge_snapshots(*snapshots) if snapshots else {}


# -- Chrome trace_event ----------------------------------------------------


def _preorder_extents(records: Sequence[dict]) -> Dict[str, int]:
    """For each span id, the largest seq among it and its descendants.

    Sequence numbers are assigned in preorder, so ``[seq, extent]`` is a
    valid nesting interval: children start after their parent and end at
    or before it.  This synthesises a deterministic timeline for traces
    recorded without wall clocks.
    """
    extents: Dict[str, int] = {}
    parents: Dict[str, Optional[str]] = {}
    for record in records:
        parents[record["id"]] = record.get("parent")
        extents[record["id"]] = record["seq"]
    for record in records:
        seq = record["seq"]
        node = record.get("parent")
        while node is not None:
            if extents.get(node, -1) < seq:
                extents[node] = seq
            node = parents.get(node)
    return extents


def chrome_trace(records: Sequence[dict]) -> dict:
    """Convert trace records to Chrome ``trace_event`` JSON (dict form).

    Spans become complete (``"X"``) events, events become instants
    (``"i"``).  With ``wall`` sidecars present, timestamps are real
    (microseconds since the earliest record); otherwise the preorder
    fallback timeline is used.  Record attributes ride in ``args``.
    """
    records = [r for r in records if r.get("kind") in ("span", "event")]
    walls = [
        r["wall"][0]
        for r in records
        if r.get("wall") and r["wall"][0] is not None
    ]
    epoch = min(walls) if walls else None
    extents = _preorder_extents(records)

    events = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "repro campaign"},
        }
    ]
    for record in records:
        wall = record.get("wall")
        if epoch is not None and wall and wall[0] is not None:
            ts = (wall[0] - epoch) * 1e6
            dur = max(((wall[1] or wall[0]) - wall[0]) * 1e6, 1.0)
        else:
            ts = float(record["seq"])
            dur = float(extents[record["id"]] - record["seq"]) + 1.0
        args = dict(record.get("attrs", {}))
        args["id"] = record["id"]
        if record.get("parent"):
            args["parent"] = record["parent"]
        event = {
            "name": record["name"],
            "cat": record["kind"],
            "pid": 1,
            "tid": 1,
            "ts": round(ts, 3),
            "args": args,
        }
        if record["kind"] == "span":
            event["ph"] = "X"
            event["dur"] = round(dur, 3)
        else:
            event["ph"] = "i"
            event["s"] = "t"
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


#: Phases the validator accepts (the subset this exporter emits, plus
#: the duration pair for hand-written traces).
_VALID_PHASES = {"X", "B", "E", "i", "I", "M", "C"}


def validate_chrome_trace(trace: dict) -> List[str]:
    """Check *trace* against the ``trace_event`` format; return problems.

    An empty list means the trace is loadable by ``chrome://tracing`` /
    Perfetto: a ``traceEvents`` array whose entries carry ``name``,
    ``ph``, ``pid``, ``tid``, a numeric ``ts`` (metadata excepted), and
    a numeric ``dur`` for complete events.  The CI ``obs-smoke`` step
    gates on this.
    """
    problems: List[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    if not events:
        problems.append("traceEvents is empty")
    for position, event in enumerate(events):
        where = f"traceEvents[{position}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _VALID_PHASES:
            problems.append(f"{where}: bad phase {phase!r}")
            continue
        for field in ("name", "pid", "tid"):
            if field not in event:
                problems.append(f"{where}: missing {field!r}")
        if phase != "M":
            if not isinstance(event.get("ts"), (int, float)):
                problems.append(f"{where}: ts must be a number")
        if phase == "X" and not isinstance(event.get("dur"), (int, float)):
            problems.append(f"{where}: complete event needs numeric dur")
    return problems


# -- cycle attribution -----------------------------------------------------


def cycle_attribution(records: Sequence[dict]) -> List[Tuple[str, int, int]]:
    """Aggregate simulated *self*-cycles by span name path.

    Returns ``(path, cycles, spans)`` rows sorted by descending cycles.
    A span's cycles are its ``cycles`` attribute; self-cycles subtract
    whatever its child spans claim, so the rollup attributes each cycle
    exactly once (the flamegraph discipline).
    """
    spans = [r for r in records if r.get("kind") == "span"]
    by_id = {r["id"]: r for r in spans}
    child_cycles: Dict[str, int] = {}
    for record in spans:
        cycles = record.get("attrs", {}).get("cycles")
        parent = record.get("parent")
        if isinstance(cycles, int) and parent in by_id:
            child_cycles[parent] = child_cycles.get(parent, 0) + cycles

    def path_of(record: dict) -> str:
        names = [record["name"]]
        node = record.get("parent")
        while node in by_id:
            names.append(by_id[node]["name"])
            node = by_id[node].get("parent")
        return "/".join(reversed(names))

    buckets: Dict[str, List[int]] = {}
    for record in spans:
        cycles = record.get("attrs", {}).get("cycles")
        if not isinstance(cycles, int):
            continue
        self_cycles = max(cycles - child_cycles.get(record["id"], 0), 0)
        bucket = buckets.setdefault(path_of(record), [0, 0])
        bucket[0] += self_cycles
        bucket[1] += 1
    rows = [(path, cycles, count) for path, (cycles, count) in buckets.items()]
    rows.sort(key=lambda row: (-row[1], row[0]))
    return rows


def collapsed_stacks(records: Sequence[dict]) -> List[str]:
    """Self-cycle attribution as collapsed-stack lines.

    One ``frame;frame;frame count`` line per span path -- the input
    format of ``flamegraph.pl`` and the speedscope importer, so a
    recorded run (or a live spool's span frames) renders as a real
    flamegraph.  Lines sort lexicographically: the export is a pure
    function of the deterministic trace content.
    """
    return sorted(
        f"{path.replace('/', ';')} {cycles}"
        for path, cycles, _ in cycle_attribution(records)
    )


def render_attribution(
    rows: Sequence[Tuple[str, int, int]], limit: int = 10
) -> str:
    """The text cycle-attribution summary (flamegraph-style rollup)."""
    if not rows:
        return "cycle attribution: no spans carried cycle counts"
    total = sum(cycles for _, cycles, _ in rows) or 1
    lines = ["cycle attribution (self-cycles by span path):"]
    for path, cycles, count in rows[:limit]:
        share = cycles / total
        bar = "#" * max(int(share * 40), 1 if cycles else 0)
        lines.append(
            f"  {cycles:>14,}  {share:6.1%}  {count:>6}x  {path}  {bar}"
        )
    if len(rows) > limit:
        lines.append(f"  ... and {len(rows) - limit} more paths")
    return "\n".join(lines)
