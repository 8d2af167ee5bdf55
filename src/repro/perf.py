"""The ``repro perf`` harness: profile the trial hot path and gate
telemetry's cost on it.

Two entry points, both driven from the CLI:

``profile`` (``repro perf profile``)
    Wraps a slice of a built-in campaign cell's trials in ``cProfile``
    and prints the hottest functions.  This is the tool that found the
    hot spots the decode cache, the COW snapshots and the PMU fast paths
    now cover; keeping it a one-liner keeps them found.

``overhead`` (``repro obs overhead``)
    Times the same trial slice with telemetry off, armed, and armed with
    a live stream spool, and fails when either armed path exceeds its
    ceiling (:data:`ENABLED_OVERHEAD_CEILING`,
    :data:`STREAMING_OVERHEAD_CEILING`) or the dormant hooks exceed
    :data:`DISABLED_OVERHEAD_CEILING`.  The ratios merge into the
    ``telemetry_overhead`` section of
    ``benchmarks/reports/reproduction_report.json``.

End-to-end throughput is the campaign ledger's job (``ledger/``); this
module measures no trials/second of its own.
"""

from __future__ import annotations

import cProfile
import io
import json
import os
import pstats
import time
from typing import Dict, List, Optional

__all__ = [
    "DISABLED_OVERHEAD_CEILING",
    "ENABLED_OVERHEAD_CEILING",
    "STREAMING_OVERHEAD_CEILING",
    "cell_payloads",
    "merge_report_metrics",
    "profile_cell",
    "run_overhead",
    "run_profile",
]

#: Where overhead metrics merge into the reproduction artefact set.
DEFAULT_REPORT_PATH = os.path.join(
    "benchmarks", "reports", "reproduction_report.json"
)

#: Default (campaign, cell): the e3 environment-matrix channel cell on the
#: i7-7700.
DEFAULT_CAMPAIGN = "e3-matrix"
DEFAULT_CELL = 0

#: Telemetry overhead gates (``repro obs overhead`` / CI obs-smoke):
#: the disabled path must cost under 2% of trial time, the fully
#: enabled path under 15%, and the streaming path (telemetry armed
#: *plus* live spool appends at the default cadence) under 15% too.
DISABLED_OVERHEAD_CEILING = 0.02
ENABLED_OVERHEAD_CEILING = 0.15
STREAMING_OVERHEAD_CEILING = 0.15


def cell_payloads(campaign: str, cell: int, limit: Optional[int] = None) -> List:
    """The trial payloads of one cell of a built-in campaign, in
    expansion order (optionally the first *limit* of them)."""
    from repro.campaign.builtin import builtin_campaign

    spec = builtin_campaign(campaign)
    if not 0 <= cell < len(spec.cells):
        raise ValueError(
            f"campaign {campaign!r} has cells 0..{len(spec.cells) - 1}, "
            f"not {cell}"
        )
    payloads = [ref.trial for ref in spec.expand() if ref.cell == cell]
    if limit is not None:
        payloads = payloads[:limit]
    return payloads


def _write_json(path: str, payload: Dict) -> None:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def merge_report_metrics(path: str, section: str, metrics: Dict) -> None:
    """Merge *metrics* into the ``{section: {metric: value}}`` report map
    the paper benchmarks also write, preserving other sections."""
    from repro.campaign.report import REPORT_SCHEMA_VERSION

    report: Dict = {}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                report = json.load(handle)
        except (OSError, ValueError):
            report = {}
        if report.get("schema_version") != REPORT_SCHEMA_VERSION:
            # Never merge sections produced under a different schema --
            # a mixed-version report would be unreadable by either
            # schema's consumers.  Stale sections are dropped; the next
            # run of their writer regenerates them under the current
            # version.
            report = {}
    report["schema_version"] = REPORT_SCHEMA_VERSION
    report.setdefault(section, {}).update(metrics)
    _write_json(path, report)


def run_overhead(
    campaign: str = DEFAULT_CAMPAIGN,
    cell: int = DEFAULT_CELL,
    trials: int = 16,
    repeats: int = 3,
    quick: bool = False,
    report_path: Optional[str] = DEFAULT_REPORT_PATH,
    out=print,
) -> int:
    """The ``repro obs overhead`` body: gate telemetry's cost.

    Three measurements, three ceilings:

    * **disabled** -- the per-trial cost of the dormant hooks (one
      ``telemetry.enabled()`` check in ``run_trial`` plus the pool's
      per-map checks), measured directly with a micro-benchmark and
      expressed as a fraction of best-of-N trial time.  A/B timing of
      the same binary cannot isolate a sub-0.1% effect from host noise,
      so the hook cost is measured where it is visible and scaled.
      Ceiling: :data:`DISABLED_OVERHEAD_CEILING`.
    * **enabled** -- best-of-N A/B of the same trial slice with
      telemetry off vs fully armed (spans, counters, PMU reads, drains).
      Ceiling: :data:`ENABLED_OVERHEAD_CEILING`.
    * **streaming** -- telemetry armed *plus* a live
      :class:`~repro.telemetry.stream.StreamWriter` fed at the default
      cadence, spool appends and all -- the full ``--stream-out`` path.
      Ceiling: :data:`STREAMING_OVERHEAD_CEILING`.

    The enabled overhead and the streaming on/off ratio merge into the
    ``telemetry_overhead`` section of the reproduction report.
    Returns 0 when all gates pass, 1 otherwise.
    """
    import shutil
    import tempfile

    from repro import telemetry
    from repro.runtime.tasks import run_trial
    from repro.telemetry.stream import StreamWriter

    if quick:
        trials = min(trials, 12)
        repeats = min(repeats, 3)
    payloads = cell_payloads(campaign, cell, limit=trials)
    if not payloads:
        raise ValueError(f"cell {cell} of {campaign!r} expands to no trials")
    for payload in payloads[: min(3, len(payloads))]:
        run_trial(payload)  # warm-up: contexts, caches, code paths

    def best_seconds(armed: bool) -> float:
        best = float("inf")
        for _ in range(repeats):
            if armed:
                telemetry.enable()
            start = time.perf_counter()
            for payload in payloads:
                run_trial(payload)
            elapsed = time.perf_counter() - start
            if armed:
                telemetry.recorder().drain()
                telemetry.metrics_registry().drain()
                telemetry.disable()
            if 0 < elapsed < best:
                best = elapsed
        return best

    def best_seconds_streaming() -> float:
        """The full live-plane arm: armed telemetry, spool appends at a
        cadence that flushes several times over the slice."""
        best = float("inf")
        every = max(1, len(payloads) // 4)
        total = len(payloads)
        for _ in range(repeats):
            spool_dir = tempfile.mkdtemp(prefix="repro-obs-stream-")
            try:
                telemetry.enable()
                writer = StreamWriter(
                    os.path.join(spool_dir, "stream.jsonl"),
                    shard="bench",
                    campaign=campaign,
                    total=total,
                    every=every,
                )
                start = time.perf_counter()
                done = 0
                for payload in payloads:
                    run_trial(payload)
                    done += 1
                    writer.on_batch(
                        {"done": done, "pending": total, "total": total}
                    )
                elapsed = time.perf_counter() - start
                writer.close(snapshot=telemetry.metrics_registry().drain())
                telemetry.recorder().drain()
                telemetry.disable()
            finally:
                shutil.rmtree(spool_dir, ignore_errors=True)
            if 0 < elapsed < best:
                best = elapsed
        return best

    # Interleave off/on/stream/off and keep the best disabled time, so
    # one-sided host interference cannot masquerade as telemetry overhead.
    off = best_seconds(False)
    on = best_seconds(True)
    streaming = best_seconds_streaming()
    off = min(off, best_seconds(False))
    per_trial = off / len(payloads)
    enabled_overhead = on / off - 1.0
    streaming_overhead = streaming / off - 1.0

    # The dormant hook, measured where it is visible: the exact check the
    # disabled run_trial performs, amortised over a large loop.
    telemetry.disable()
    hook_rounds = 100_000
    start = time.perf_counter()
    for _ in range(hook_rounds):
        telemetry.enabled()
    hook_seconds = (time.perf_counter() - start) / hook_rounds
    #: run_trial's check plus the pool/runner per-trial-amortised checks.
    hooks_per_trial = 4
    disabled_overhead = (hook_seconds * hooks_per_trial) / per_trial

    out(f"telemetry overhead: {campaign} cell {cell} "
        f"({len(payloads)} trials, best of {repeats})")
    out(f"  trial time (off)  : {per_trial * 1e3:8.3f} ms")
    out(f"  disabled overhead : {disabled_overhead:8.4%} "
        f"(ceiling {DISABLED_OVERHEAD_CEILING:.0%})")
    out(f"  enabled overhead  : {enabled_overhead:8.2%} "
        f"(ceiling {ENABLED_OVERHEAD_CEILING:.0%})")
    out(f"  streaming overhead: {streaming_overhead:8.2%} "
        f"(ceiling {STREAMING_OVERHEAD_CEILING:.0%}; "
        f"on/off ratio {streaming / off:.3f})")
    if report_path:
        merge_report_metrics(
            report_path,
            "telemetry_overhead",
            {
                "streaming_overhead_ratio": round(streaming / off, 4),
                "telemetry_enabled_overhead": round(enabled_overhead, 4),
            },
        )
        out(f"  overhead merged   : {report_path}")
    failed = False
    if disabled_overhead >= DISABLED_OVERHEAD_CEILING:
        out("OVERHEAD: disabled-path telemetry cost exceeds its ceiling")
        failed = True
    if enabled_overhead >= ENABLED_OVERHEAD_CEILING:
        out("OVERHEAD: enabled-path telemetry cost exceeds its ceiling")
        failed = True
    if streaming_overhead >= STREAMING_OVERHEAD_CEILING:
        out("OVERHEAD: streaming-path telemetry cost exceeds its ceiling")
        failed = True
    return 1 if failed else 0


def profile_cell(
    campaign: str = DEFAULT_CAMPAIGN,
    cell: int = DEFAULT_CELL,
    trials: int = 24,
) -> cProfile.Profile:
    """cProfile one campaign cell's first *trials* trials (post warm-up)."""
    from repro.runtime.tasks import run_trial

    payloads = cell_payloads(campaign, cell, limit=trials)
    if not payloads:
        raise ValueError(f"cell {cell} of {campaign!r} expands to no trials")
    run_trial(payloads[0])  # warm-up outside the profile window
    profiler = cProfile.Profile()
    profiler.enable()
    for payload in payloads:
        run_trial(payload)
    profiler.disable()
    return profiler


def run_profile(
    campaign: str = DEFAULT_CAMPAIGN,
    cell: int = DEFAULT_CELL,
    trials: int = 24,
    sort: str = "tottime",
    limit: int = 25,
    out=print,
) -> None:
    """The ``repro perf profile`` body: print the hottest functions."""
    profiler = profile_cell(campaign, cell, trials=trials)
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats(sort).print_stats(limit)
    out(f"perf profile: {campaign} cell {cell} ({trials} trials, "
        f"sorted by {sort})")
    out(buffer.getvalue().rstrip())
