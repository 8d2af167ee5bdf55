"""repro.telemetry -- structured spans, metrics, live introspection.

The reproduction system's own prepare->collect->filter->analyse loop:
the PMU toolset observes the *simulated* CPU, this package observes the
*reproduction stack* -- campaigns, cells, trials, workers, the core's
hot path -- with the same discipline the paper applies to its own
measurements (a timing result is only as good as the instrumentation
around it).

Five modules:

* :mod:`repro.telemetry.spans` -- the span/event recorder and the
  worker-batch ingest that merges pooled traces;
* :mod:`repro.telemetry.metrics` -- the typed registry (counters,
  gauges, fixed-bucket histograms) with mergeable snapshots;
* :mod:`repro.telemetry.export` -- JSONL logs, Chrome ``trace_event``
  JSON, text cycle attribution, collapsed flamegraph stacks,
  sidecar-stripped checksums;
* :mod:`repro.telemetry.stream` -- the live fleet plane: framed
  per-shard spools (each shard's only telemetry artifact), whose
  ``heartbeat`` frames are the one deterministic heartbeat, and the
  tail-then-fold contract;
* :mod:`repro.telemetry.live` -- the per-checkpoint progress renderer
  and the ``repro obs report|trace|tail|top|flame|fold|overhead`` CLI
  bodies.

This module owns the *process-global* switch.  Telemetry is **off by
default** and the disabled path is near-free: every hook in the
runtime/campaign/fault layers is an ``is None`` check (`enabled()`)
or a call that returns the shared no-op span.  ``enable()`` installs a
:class:`~repro.telemetry.spans.Recorder` and arms the global
:class:`~repro.telemetry.metrics.MetricsRegistry`; worker processes are
armed per task by the pool (see ``repro.runtime.pool``) and ship their
records back over the existing result pipes.

Hard invariant: telemetry observes, never perturbs.  Seeds, trial
payloads, store keys and report bytes are identical with telemetry on
or off, at any worker count (``tests/test_telemetry.py`` pins it).
See ``docs/OBSERVABILITY.md`` for the span taxonomy and metric names.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    deterministic_view,
    merge_snapshots,
)
from repro.telemetry.spans import NULL_SPAN, Recorder, Span, orphan_records

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Recorder",
    "Span",
    "add",
    "annotate",
    "deterministic_view",
    "disable",
    "drain_worker_batch",
    "enable",
    "enable_in_worker",
    "enabled",
    "event",
    "gauge_set",
    "ingest_batches",
    "merge_snapshots",
    "merge_worker_metrics",
    "metrics_registry",
    "observe",
    "orphan_records",
    "recorder",
    "span",
]

#: The active recorder, or None (telemetry off -- the default).
_RECORDER: Optional[Recorder] = None

#: The process-global registry.  Always importable; hook sites only
#: touch it when a recorder is active, so a disabled run never pays for
#: metric lookups.
_METRICS = MetricsRegistry()


def enable(wall_clock: bool = False, origin: str = "m") -> Recorder:
    """Arm telemetry in this process; returns the fresh recorder.

    Re-enabling replaces the recorder and clears the registry -- each
    enable starts a clean recorded run.
    """
    global _RECORDER
    _RECORDER = Recorder(origin=origin, wall_clock=wall_clock)
    _METRICS.drain()
    return _RECORDER


def disable() -> None:
    """Disarm telemetry (the recorder and its records are dropped)."""
    global _RECORDER
    _RECORDER = None


def enabled() -> bool:
    """Is a recorder active in this process?  The disabled-path hook."""
    return _RECORDER is not None


def recorder() -> Optional[Recorder]:
    """The active recorder, or None."""
    return _RECORDER


def metrics_registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _METRICS


# -- recording conveniences (all no-ops when disabled) ---------------------


def span(name: str, **attrs):
    """Open a span on the active recorder, or the shared no-op span."""
    if _RECORDER is None:
        return NULL_SPAN
    return _RECORDER.span(name, **attrs)


def event(name: str, host: Optional[dict] = None, **attrs) -> None:
    """Record a point event (no-op when disabled)."""
    if _RECORDER is not None:
        _RECORDER.event(name, host=host, **attrs)


def annotate(**attrs) -> None:
    """Attach attributes to the innermost open span (no-op when disabled)."""
    if _RECORDER is not None:
        _RECORDER.annotate(**attrs)


def add(name: str, amount: int = 1, det: bool = True) -> None:
    """Increment a counter (no-op when disabled)."""
    if _RECORDER is not None:
        _METRICS.counter(name, det=det).add(amount)


def gauge_set(name: str, value: float, det: bool = True) -> None:
    """Set a gauge (no-op when disabled)."""
    if _RECORDER is not None:
        _METRICS.gauge(name, det=det).set(value)


def observe(
    name: str,
    value: float,
    buckets: Sequence[float] = DEFAULT_BUCKETS,
    det: bool = True,
) -> None:
    """Observe a histogram sample (no-op when disabled)."""
    if _RECORDER is not None:
        _METRICS.histogram(name, buckets=buckets, det=det).observe(value)


# -- worker-side shipping (used by repro.runtime.pool) ---------------------


def enable_in_worker() -> None:
    """Arm telemetry inside a worker process (idempotent).

    Worker recorders never carry wall clocks: their records are merged
    into the coordinator's trace, whose ordering must depend only on
    payload identity.
    """
    if _RECORDER is None:
        enable(wall_clock=False, origin="w")


def drain_worker_batch() -> Optional[dict]:
    """The telemetry a worker ships after one task, or None if empty.

    Records drain with sequence reset (each batch is a self-contained
    stream keyed only by the trial that produced it) and the worker's
    metrics drain alongside; the coordinator merges both.
    """
    if _RECORDER is None:
        return None
    records = _RECORDER.drain(reset_seq=True)
    metrics = _METRICS.drain()
    if not records and not metrics:
        return None
    return {"records": records, "metrics": metrics}


def merge_worker_metrics(batch: Optional[dict]) -> None:
    """Fold one worker batch's metrics into the coordinator registry."""
    if batch and batch.get("metrics"):
        _METRICS.merge(batch["metrics"])


def ingest_batches(batches: Iterable[Tuple[str, List[dict]]]) -> None:
    """Merge worker record batches (pre-sorted by the caller) into the
    coordinator's trace under the currently open span."""
    if _RECORDER is not None:
        _RECORDER.ingest(list(batches))
