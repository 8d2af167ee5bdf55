"""Live campaign introspection and recorded-run replay.

Three consumers:

* ``repro campaign run|shard`` and ``repro defend calibrate|stream``
  install a :class:`ProgressRenderer` as the runner's observer: one
  stderr line per checkpoint with per-cell throughput, ETA, failure
  counts and the batch layer's eviction/stand-down counters, then one
  ``done:`` line (stderr only -- the report artifact stays
  byte-identical).
* ``repro obs report|trace|tail|flame`` replay a run recorded with
  ``--trace-out`` or a shard's stream spool: ``report`` prints the
  span-tree rollup, cycle attribution and metrics table; ``trace``
  converts to Chrome ``trace_event`` JSON for ``chrome://tracing`` /
  Perfetto; ``tail`` prints the last N records (what was the campaign
  doing when it died?); ``flame`` exports collapsed stacks
  (``flamegraph.pl`` / speedscope input).  All four load through the
  tolerant :func:`~repro.telemetry.export.load_trace`: a missing or
  empty file is a one-line error, a torn trailing record a skipped
  warning.  They import :mod:`repro.telemetry.export` when called, so a
  campaign that only renders progress never loads it.
* ``repro obs top|fold`` consume the live plane
  (:mod:`repro.telemetry.stream`): ``top`` tails every shard spool
  under a fleet root into one refreshing dashboard, and ``fold`` folds
  completed spools into one fleet metrics artifact.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

__all__ = [
    "ProgressRenderer",
    "render_metrics",
    "run_obs_flame",
    "run_obs_fold",
    "run_obs_report",
    "run_obs_tail",
    "run_obs_top",
    "run_obs_trace",
]


class ProgressRenderer:
    """Streams per-cell campaign progress from runner observer updates.

    The runner calls :meth:`on_batch` after every checkpointed batch
    with a structured update (see ``CampaignRunner``).  Throughput is
    live trials per wall second over this run; the ETA extrapolates it
    over the remaining pending trials.  Output goes to *stream*
    (default stderr) and never into any artifact.
    """

    def __init__(self, stream=None, name: str = "") -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.name = name
        self._started = time.perf_counter()
        self._done = 0

    def on_batch(self, update: Dict) -> None:
        self._done = update.get("done", self._done)
        pending = update.get("pending", 0)
        elapsed = time.perf_counter() - self._started
        rate = self._done / elapsed if elapsed > 0 else 0.0
        remaining = pending - self._done
        eta = remaining / rate if rate > 0 else float("inf")
        eta_text = f"{eta:6.1f}s" if eta != float("inf") else "    ??s"
        total = update.get("total", 0)
        cached = update.get("cached", 0)
        cell = update.get("cell")
        cells = update.get("cells", 0)
        failures = update.get("failures", 0)
        line = (
            f"[{self.name or update.get('name', 'campaign')}] "
            f"cell {cell if cell is not None else '?'}/{cells} | "
            f"{self._done + cached}/{total} trials "
            f"({cached} cached) | {rate:7.1f} trials/s | "
            f"ETA {eta_text} | {failures} failures"
        )
        # Batch-layer health rides along when the runner observes it
        # (telemetry on): eviction volume and why packs stood down.
        evictions = update.get("evictions", 0)
        if evictions:
            line += f" | {evictions} evicted"
        standdowns = update.get("standdowns") or {}
        if standdowns:
            reasons = ",".join(
                f"{reason}x{count}"
                for reason, count in sorted(standdowns.items())
            )
            line += f" | standdown {reasons}"
        self.stream.write(line + "\n")
        self.stream.flush()

    def close(self) -> None:
        elapsed = time.perf_counter() - self._started
        rate = self._done / elapsed if elapsed > 0 else 0.0
        self.stream.write(
            f"[{self.name}] done: {self._done} live trials in "
            f"{elapsed:.1f}s ({rate:.1f} trials/s)\n"
        )
        self.stream.flush()


def render_metrics(snapshot: Dict[str, dict], out=print) -> None:
    """Print a metrics snapshot as an aligned name/type/value table."""
    if not snapshot:
        out("metrics  : (none recorded)")
        return
    width = max(len(name) for name in snapshot)
    out("metrics:")
    for name in sorted(snapshot):
        entry = snapshot[name]
        kind = entry["type"]
        det = "" if entry.get("det", True) else "  [host-dependent]"
        if kind == "histogram":
            count = entry["count"]
            mean = entry["sum"] / count if count else 0.0
            value = f"n={count} mean={mean:g}"
        else:
            value = f"{entry['value']}"
        out(f"  {name:<{width}}  {kind:<9}  {value}{det}")


def _span_rollup(records: List[dict], out=print) -> None:
    """Per-name span counts (the shape of the recorded tree)."""
    spans = [r for r in records if r.get("kind") == "span"]
    events = [r for r in records if r.get("kind") == "event"]
    by_name: Dict[str, int] = {}
    for record in spans:
        by_name[record["name"]] = by_name.get(record["name"], 0) + 1
    out(f"trace    : {len(spans)} spans, {len(events)} events")
    for name in sorted(by_name):
        out(f"  {by_name[name]:>8}x span {name}")
    for name in sorted({r["name"] for r in events}):
        count = sum(1 for r in events if r["name"] == name)
        out(f"  {count:>8}x event {name}")


def _load_tolerant(path: str, out) -> Optional[Tuple[List[dict], Dict]]:
    """Load a recorded run for an obs command as ``(trace, metrics)``,
    or None after reporting.

    The satellite contract for every replay command: damage becomes a
    one-line diagnosis (the caller exits 2), never a traceback.
    """
    from repro.telemetry.export import TraceUnreadable, load_trace, split_metrics

    try:
        records = load_trace(
            path, warn=lambda message: out(f"warning: {message}")
        )
    except TraceUnreadable as exc:
        out(f"error: {exc}")
        return None
    return split_metrics(records)


def run_obs_report(path: str, limit: int = 10, out=print) -> int:
    """The ``repro obs report`` body: summarise a recorded run."""
    from repro.telemetry.export import cycle_attribution, render_attribution

    loaded = _load_tolerant(path, out)
    if loaded is None:
        return 2
    trace, metrics = loaded
    out(f"recorded run: {path}")
    _span_rollup(trace, out=out)
    out("")
    out(render_attribution(cycle_attribution(trace), limit=limit))
    out("")
    render_metrics(metrics, out=out)
    return 0


def run_obs_trace(
    path: str,
    output: Optional[str] = None,
    validate: bool = False,
    out=print,
) -> int:
    """The ``repro obs trace`` body: convert a recorded run to Chrome
    ``trace_event`` JSON (optionally validating it against the schema)."""
    from repro.telemetry.export import chrome_trace, validate_chrome_trace

    loaded = _load_tolerant(path, out)
    if loaded is None:
        return 2
    trace = chrome_trace(loaded[0])
    target = output or (path.rsplit(".", 1)[0] + ".trace.json")
    with open(target, "w") as handle:
        json.dump(trace, handle, sort_keys=True)
        handle.write("\n")
    out(
        f"wrote {len(trace['traceEvents'])} trace events to {target} "
        f"(load in chrome://tracing or ui.perfetto.dev)"
    )
    if validate:
        problems = validate_chrome_trace(trace)
        if problems:
            for problem in problems[:20]:
                out(f"trace_event schema violation: {problem}")
            return 1
        out("trace_event schema: ok")
    return 0


def run_obs_tail(path: str, count: int = 20, out=print) -> int:
    """The ``repro obs tail`` body: the last *count* records of a run."""
    loaded = _load_tolerant(path, out)
    if loaded is None:
        return 2
    trace = loaded[0]
    for record in trace[-count:]:
        attrs = record.get("attrs", {})
        attr_text = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        out(
            f"{record['seq']:>8}  {record['kind']:<5}  "
            f"{record['name']:<24}  {attr_text}"
        )
    if not trace:
        out("(empty trace)")
    return 0


# -- the live plane (repro obs top|flame|fold) ------------------------------


def run_obs_top(
    root: str,
    once: bool = False,
    interval: float = 0.5,
    timeout: Optional[float] = None,
    out=print,
) -> int:
    """The ``repro obs top`` body: tail a fleet's spools as a dashboard.

    *root* is a fleet destination root, a segment root, or a spool file.
    ``once`` renders the current state and exits (the CI mode); follow
    mode re-renders every *interval* seconds until every shard's spool
    is sealed (or *timeout* elapses -- exit 3, the fleet is still
    running or died without sealing).
    """
    from repro.telemetry.stream import FleetView, discover_spools

    spools = discover_spools(root)
    if not spools:
        out(
            f"error: no stream spools under {root} "
            f"(start the fleet with --stream)"
        )
        return 2
    view = FleetView(spools)
    started = time.perf_counter()
    view.poll()
    out(view.render(name=os.path.basename(os.path.normpath(root))))
    if once:
        return 0
    while not view.all_done():
        if (
            timeout is not None
            and time.perf_counter() - started > timeout
        ):
            out(f"error: fleet not sealed after {timeout:.0f}s")
            return 3
        time.sleep(interval)
        if view.poll():
            out("")
            out(view.render(name=os.path.basename(os.path.normpath(root))))
    return 0


def run_obs_flame(
    path: str, output: Optional[str] = None, out=print
) -> int:
    """The ``repro obs flame`` body: collapsed-stack cycle export.

    Accepts a recorded run or a stream spool; writes one ``frame;frame
    count`` line per span path -- pipe straight into ``flamegraph.pl``
    or import into speedscope.
    """
    from repro.telemetry.export import collapsed_stacks

    loaded = _load_tolerant(path, out)
    if loaded is None:
        return 2
    stacks = collapsed_stacks(loaded[0])
    if not stacks:
        out(f"error: {path} carries no spans with cycle counts")
        return 2
    target = output or (path.rsplit(".", 1)[0] + ".folded")
    with open(target, "w") as handle:
        for line in stacks:
            handle.write(line + "\n")
    total = sum(int(line.rsplit(" ", 1)[1]) for line in stacks)
    out(
        f"wrote {len(stacks)} collapsed stacks ({total:,} self-cycles) "
        f"to {target} (flamegraph.pl/speedscope input)"
    )
    return 0


def run_obs_fold(root: str, output: Optional[str] = None, out=print) -> int:
    """The ``repro obs fold`` body: fold completed spools.

    Folds every segment spool under *root* into one recorded-run
    metrics artifact (written to *output* when given) and prints the
    sha256 of its bytes.  A path without frames (an empty file, a
    ``--trace-out`` file) is no spool: folding it would print the digest
    of an empty fold.
    """
    import hashlib

    from repro.telemetry.stream import discover_spools, fold_streams, read_frames

    spools = {
        label: path
        for label, path in discover_spools(root).items()
        if read_frames(path)[0]
    }
    if not spools:
        out(
            f"error: no stream spools under {root} "
            f"(start the fleet with --stream)"
        )
        return 2
    folded = fold_streams(
        sorted(spools.values(), key=os.path.dirname), dest_path=output
    )
    fold_bytes = (
        json.dumps({"kind": "metrics", "snapshot": folded}, sort_keys=True)
        + "\n"
    ).encode()
    out(
        f"folded {len(spools)} spool(s): {len(folded)} metrics, "
        f"sha256 {hashlib.sha256(fold_bytes).hexdigest()}"
    )
    if output:
        out(f"wrote fold to {output}")
    return 0
