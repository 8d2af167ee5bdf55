"""The campaign runner: replay what is cached, execute only the delta.

``CampaignRunner.run()`` expands the spec into its deterministic trial
list, partitions it against the content-addressed store, fans the
pending trials across a :class:`~repro.runtime.TrialPool` in fixed-size
batches, and **checkpoints after every completed batch** by appending the
batch's results to the store.  Interrupt it anywhere -- Ctrl-C, a killed
CI job, a crashed host -- and the next ``run()`` picks up from the last
completed batch; the finished report is bit-identical to an
uninterrupted run because every trial's result is a pure function of its
payload.

The runner never writes wall-clock or provenance into the report; those
live in :class:`RunStats` (``executed`` counts live trials via
``TrialPool.trials_executed``, ``cached`` counts store replays).

When its pool runs under a
:class:`~repro.faults.resilience.ResiliencePolicy` the runner degrades
gracefully instead of dying: trials that fail every retry are
checkpointed as :class:`~repro.runtime.tasks.TrialFailure` records under
the same content address their success would have used -- so resume
replays failures rather than re-poisoning itself -- and the report grows
a failures section.  ``max_failures`` bounds the damage: once the
running failure count exceeds it, the runner checkpoints what it has and
raises :class:`CampaignAborted`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import telemetry
from repro.campaign.report import CampaignReport, build_report
from repro.campaign.spec import CampaignSpec, Shard, TrialRef
from repro.campaign.store import ResultStore, StoredOutcome, trial_key
from repro.runtime.tasks import TrialFailure, run_trial

DEFAULT_BATCH_SIZE = 128


class CampaignAborted(RuntimeError):
    """Too many trials failed (see ``max_failures``).

    Raised *after* the current batch's checkpoint, so everything
    completed -- successes and structured failures alike -- is durable
    and a later run resumes from it.
    """

    def __init__(self, message: str, failures: int) -> None:
        super().__init__(message)
        self.failures = failures


@dataclass
class CampaignStatus:
    """How much of a campaign the store already holds."""

    name: str
    total: int
    cached: int

    @property
    def pending(self) -> int:
        return self.total - self.cached

    @property
    def hit_rate(self) -> float:
        return self.cached / self.total if self.total else 1.0

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.cached}/{self.total} trials cached "
            f"({self.hit_rate:.1%}), {self.pending} pending"
        )


@dataclass
class RunStats:
    """Execution provenance for one ``run()`` (never part of the artifact)."""

    total: int
    cached: int
    executed: int
    batches: int
    wall_seconds: float
    #: Trials whose outcome is a :class:`TrialFailure` (replayed or fresh).
    failures: int = 0

    @property
    def hit_rate(self) -> float:
        return self.cached / self.total if self.total else 1.0

    def __str__(self) -> str:
        text = (
            f"{self.total} trials: {self.cached} cached ({self.hit_rate:.1%}), "
            f"{self.executed} executed in {self.batches} batches, "
            f"{self.wall_seconds:.2f} s wall"
        )
        if self.failures:
            text += f", {self.failures} failures quarantined"
        return text


def _live_batch_counts() -> Dict:
    """Live lockstep-batching counts for the observer's update.

    Read from the coordinator registry after the checkpoint, so the
    worker batches of the map that just finished are already merged.
    Cumulative over the run (the registry is), which is exactly what the
    progress line and the spool heartbeat want.
    """
    registry = telemetry.metrics_registry()
    snapshot = registry.snapshot()
    standdowns = {
        name[len("batch.standdown."):]: entry["value"]
        for name, entry in snapshot.items()
        if name.startswith("batch.standdown.")
    }
    evictions = snapshot.get("batch.lanes.evicted", {}).get("value", 0)
    return {"evictions": evictions, "standdowns": standdowns}


class CampaignRunner:
    """Bind a spec to a store and an executor."""

    def __init__(
        self,
        spec: CampaignSpec,
        store: Optional[ResultStore] = None,
        pool: Optional["TrialPool"] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        max_failures: Optional[int] = None,
        trial_fn: Callable = run_trial,
        observer: Optional[Callable[[Dict], None]] = None,
        shard: Optional[Shard] = None,
        sink: Optional[Callable[[TrialRef, StoredOutcome], None]] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if max_failures is not None and max_failures < 0:
            raise ValueError("max_failures must be non-negative (or None)")
        self.spec = spec
        #: Restrict execution to one deterministic slice of the grid
        #: (``repro.distrib``): only the expansion positions the shard
        #: covers are considered, so ``run()`` fills exactly this
        #: shard's store segment and ``status()`` counts only its
        #: trials.  A sharded runner's report is *shard-local* (the
        #: uncovered coordinates look like missing data); the real
        #: artifact comes from merging every segment and collecting
        #: over the full spec.
        self.shard = shard
        self.store = store if store is not None else ResultStore()
        self.pool = pool
        self.batch_size = batch_size
        self.max_failures = max_failures
        #: The worker-side trial function; overridable so chaos tests can
        #: sweep campaign-sized grids with a cheap stub.
        self.trial_fn = trial_fn
        #: The one per-checkpoint hook, called after every checkpointed
        #: batch with a dict of counts.  The CLI installs a
        #: :class:`~repro.telemetry.live.ProgressRenderer` here, and
        #: :func:`~repro.distrib.shard.run_shard` also hands the update
        #: to its spool writer.  Purely observational -- never touches
        #: results or the store.
        self._observer = observer or (lambda update: None)
        #: Per-trial outcome hook (the streaming-detector ingest path):
        #: called exactly once per ``(ref, outcome)`` -- for cached
        #: results in expansion order at the start of ``run()``, then for
        #: fresh outcomes in batch order after each checkpoint.  Like the
        #: observer it must never mutate results; consumers that need
        #: order-independent conclusions (detectors do) must make each
        #: ingestion a pure function of the single ``(ref, outcome)``.
        self._sink = sink or (lambda ref, outcome: None)

    # -- queries ---------------------------------------------------------------

    def _expand(self) -> Tuple[List[TrialRef], List[str]]:
        refs = self.spec.expand()
        if self.shard is not None:
            refs = [
                ref
                for position, ref in enumerate(refs)
                if self.shard.covers(position)
            ]
        keys = [trial_key(ref.trial) for ref in refs]
        return refs, keys

    def status(self) -> CampaignStatus:
        """Cached/pending accounting without executing anything."""
        refs, keys = self._expand()
        cached = self.store.get_many(keys)
        return CampaignStatus(
            name=self.spec.name, total=len(refs), cached=len(cached)
        )

    def collect(self) -> Optional[CampaignReport]:
        """The report, purely from the store; None if any trial is missing."""
        refs, keys = self._expand()
        cached = self.store.get_many(keys)
        if len(cached) < len(refs):
            return None
        return build_report(self.spec, refs, [cached[key] for key in keys])

    # -- execution -------------------------------------------------------------

    def _batches(self, pending: List[int], refs: List[TrialRef]):
        """Slice *pending* result indices into dispatch batches.

        Batches never straddle a cell boundary: every trial in a batch
        shares one (machine, attack, parameters) cell, so a worker keeps
        a single cached machine context hot for the whole batch and the
        pool's adaptive chunk estimate averages over homogeneous trials.
        Batch composition has no effect on results -- each trial is a
        pure function of its payload -- only on scheduling.
        """
        count = len(pending)
        start = 0
        for position in range(1, count + 1):
            if (
                position == count
                or position - start == self.batch_size
                or refs[pending[position]].cell != refs[pending[start]].cell
            ):
                yield pending[start:position]
                start = position

    def _run_pending(
        self,
        refs: List[TrialRef],
        keys: List[str],
        results: List[Optional[StoredOutcome]],
        pending: List[int],
        cells_total: int,
        executed_before: int,
    ) -> Tuple[int, int]:
        """Execute the pending delta; returns ``(executed, batches)``.

        Telemetry cell spans are opened when the batch stream enters a
        new cell and closed when it leaves (batches never straddle cell
        boundaries, so cells are contiguous runs of batches); worker
        trial spans ingest under the open cell span inside ``pool.map``.
        The structured observer fires after every checkpoint.
        """
        if not pending:
            return 0, 0
        pool = self.pool
        if pool is None:
            from repro.runtime.pool import TrialPool

            pool = TrialPool(workers=1)
        observing = telemetry.enabled()
        failures = sum(
            1 for result in results if isinstance(result, TrialFailure)
        )
        batches = 0
        done = 0
        cell_span = None
        current_cell = None
        try:
            for batch in self._batches(pending, refs):
                cell = refs[batch[0]].cell
                if cell != current_cell:
                    if cell_span is not None:
                        cell_span.close()
                        telemetry.add("campaign.cells_done")
                    cell_span = telemetry.span("cell", cell=cell)
                    current_cell = cell
                outcomes = pool.map(
                    self.trial_fn, [refs[i].trial for i in batch]
                )
                # The checkpoint: a batch is durable before the next starts.
                checkpoint_start = time.perf_counter() if observing else None
                self.store.put_many(
                    (keys[i], outcome) for i, outcome in zip(batch, outcomes)
                )
                if checkpoint_start is not None:
                    telemetry.observe(
                        "campaign.checkpoint.fsync_seconds",
                        time.perf_counter() - checkpoint_start,
                        det=False,
                    )
                for i, outcome in zip(batch, outcomes):
                    results[i] = outcome
                    if isinstance(outcome, TrialFailure):
                        failures += 1
                    self._sink(refs[i], outcome)
                batches += 1
                done += len(batch)
                if observing:
                    telemetry.add("campaign.batches")
                    telemetry.add("campaign.trials.executed", len(batch))
                update = {
                    "name": self.spec.name,
                    "done": done,
                    "pending": len(pending),
                    "total": len(refs),
                    "cached": len(refs) - len(pending),
                    "cell": cell,
                    "cells": cells_total,
                    "failures": failures,
                }
                if observing:
                    update.update(_live_batch_counts())
                self._observer(update)
                if (
                    self.max_failures is not None
                    and failures > self.max_failures
                ):
                    # Checkpointed above: the abort loses nothing.
                    raise CampaignAborted(
                        f"{self.spec.name}: {failures} trial failures "
                        f"exceed --max-failures {self.max_failures} "
                        f"(progress checkpointed; rerun to resume)",
                        failures=failures,
                    )
        finally:
            if cell_span is not None:
                cell_span.close()
                telemetry.add("campaign.cells_done")
            if self.pool is None:
                pool.close()
        executed = pool.trials_executed - (
            executed_before if self.pool is not None else 0
        )
        return executed, batches

    def run(self) -> Tuple[CampaignReport, RunStats]:
        """Execute the delta, checkpointing per batch; return the report.

        Results are assembled in expansion order regardless of which
        trials came from the store and which ran live, so the report is
        identical to a cold serial run of the same spec.
        """
        start = time.perf_counter()
        refs, keys = self._expand()
        cached = self.store.get_many(keys)
        results: List[Optional[StoredOutcome]] = [cached.get(key) for key in keys]
        pending = [index for index, result in enumerate(results) if result is None]
        # Replayed outcomes reach the sink before any fresh execution, in
        # expansion order -- a resumed run streams every trial exactly once.
        for ref, result in zip(refs, results):
            if result is not None:
                self._sink(ref, result)
        executed_before = self.pool.trials_executed if self.pool else 0
        cells_total = len({ref.cell for ref in refs})
        if telemetry.enabled():
            telemetry.add("campaign.trials.cached", len(refs) - len(pending))
            total = len(refs)
            telemetry.gauge_set(
                "campaign.cache_hit_ratio",
                round((total - len(pending)) / total, 6) if total else 1.0,
            )
        with telemetry.span(
            "campaign.run",
            campaign=self.spec.name,
            total=len(refs),
            cached=len(refs) - len(pending),
            cells=cells_total,
            # Lockstep lanes per pack (1 = scalar dispatch).  Span-only:
            # batching is scheduling, so it must never reach the report
            # artifacts -- batched and scalar runs checksum identically.
            batch_size=getattr(self.pool, "lanes", None) or 1,
        ):
            executed, batches = self._run_pending(
                refs, keys, results, pending, cells_total, executed_before
            )
        failures = sum(
            1 for result in results if isinstance(result, TrialFailure)
        )
        stats = RunStats(
            total=len(refs),
            cached=len(refs) - len(pending),
            executed=executed,
            batches=batches,
            wall_seconds=time.perf_counter() - start,
            failures=failures,
        )
        report = build_report(self.spec, refs, results)
        return report, stats
