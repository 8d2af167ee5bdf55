"""The fleet coordinator: hand out shards, survive workers, ingest segments.

An asyncio loop in the ``repro.serve`` style: the coordinator owns the
campaign's shard arithmetic and a destination store; workers own
nothing but the shard they were handed.  Because every shard writes a
checkpointed, content-addressed segment, the coordinator's failure
handling is deliberately dumb -- a failed worker is simply *re-handed
the same shard* after the seeded backoff from
:mod:`repro.faults.resilience`, and the retried run resumes from the
segment's last checkpoint.  No work tracking, no partial-result
protocol, no idempotence bookkeeping: the store's keys are the
bookkeeping.

Two worker shapes ship here:

* :class:`LocalProcessWorker` -- spawns ``python -m repro campaign
  shard`` subprocesses, the one-box fleet (and the shape a real
  multi-host dispatcher would wrap with ssh/k8s);
* :class:`StubWorker` -- an in-process stand-in for a remote host, with
  scriptable mid-run deaths, used by the chaos suite and the ``faults``
  style demos.

Completed segments are ingested (merged into the destination) the
moment they land; merge order cannot matter because the merged bytes
are canonical (see :mod:`repro.distrib.merge`).  Fleet-wide metrics --
shard attempts, retries, merged record counts, per-shard wall times,
plus the fold of every segment's stream spool -- aggregate into one
recorded run that the existing ``repro obs report`` view renders.
"""

from __future__ import annotations

import asyncio
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.campaign.report import CampaignReport
from repro.campaign.runner import CampaignRunner, RunStats
from repro.campaign.spec import CampaignSpec, Shard
from repro.campaign.store import ResultStore
from repro.distrib.merge import MergeStats, merge_stores
from repro.distrib.shard import run_shard, segment_root, stream_spool_args
from repro.faults.resilience import ResiliencePolicy

FLEET_TELEMETRY = "fleet_telemetry.jsonl"


class ShardWorkerError(RuntimeError):
    """A worker failed (or died) before completing its shard."""

    def __init__(self, shard: Shard, attempt: int, detail: str) -> None:
        super().__init__(f"{shard} attempt {attempt} failed: {detail}")
        self.shard = shard
        self.attempt = attempt
        self.detail = detail


class FleetError(RuntimeError):
    """Some shard exhausted every retry.

    Everything completed -- including the failing shard's checkpointed
    prefix -- is durable in the destination and segment stores; a later
    ``fleet`` or ``shard`` run resumes from it.
    """

    def __init__(self, failed: List["ShardAttempt"]) -> None:
        shards = ", ".join(str(a.shard) for a in failed)
        super().__init__(
            f"{len(failed)} shard(s) failed every retry: {shards} "
            f"(segments are checkpointed; rerun to resume)"
        )
        self.failed = failed


@dataclass
class ShardAttempt:
    """One worker attempt at one shard (fleet provenance)."""

    shard: Shard
    attempt: int
    ok: bool
    wall_seconds: float
    detail: str = ""


@dataclass
class FleetResult:
    """What a coordinator run produced."""

    name: str
    shards: int
    attempts: List[ShardAttempt] = field(default_factory=list)
    merge: Optional[MergeStats] = None
    #: The whole-campaign report collected from the merged store, or
    #: None if the merged store does not yet cover the full grid.
    report: Optional[CampaignReport] = None
    #: The aggregated fleet metrics snapshot (``repro obs`` shape).
    metrics: Dict[str, dict] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return sum(1 for a in self.attempts if a.ok)

    @property
    def retries(self) -> int:
        return sum(1 for a in self.attempts if not a.ok)

    def __str__(self) -> str:
        text = (
            f"fleet {self.name}: {self.completed}/{self.shards} shards "
            f"({self.retries} failed attempts)"
        )
        if self.merge is not None:
            text += f"; merged {self.merge.unique} unique records"
        return text


# -- workers -------------------------------------------------------------------


class LocalProcessWorker:
    """Run each shard as a ``python -m repro campaign shard`` subprocess.

    The subprocess is a completely ordinary shard run: it resolves the
    builtin campaign by name, fills its segment store with per-batch
    checkpoints, and exits non-zero on failure.  A killed or crashed
    subprocess therefore costs at most one batch, and the coordinator's
    retry resumes the rest.
    """

    def __init__(
        self,
        campaign: str,
        workers: int = 0,
        batch_size: Optional[int] = None,
        retry: int = 0,
        stream: bool = False,
        stream_every: Optional[int] = None,
        python: str = sys.executable,
        env: Optional[Dict[str, str]] = None,
    ) -> None:
        self.campaign = campaign
        self.workers = workers
        self.batch_size = batch_size
        self.retry = retry
        self.stream = stream
        self.stream_every = stream_every
        self.python = python
        self.env = env

    def _environment(self) -> Dict[str, str]:
        if self.env is not None:
            return dict(self.env)
        env = dict(os.environ)
        # The worker must resolve the same `repro` this process runs.
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        existing = env.get("PYTHONPATH", "")
        if src not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                src + (os.pathsep + existing if existing else "")
            )
        return env

    def command(self, shard: Shard, segment: str) -> List[str]:
        cmd = [
            self.python, "-m", "repro", "campaign", "shard", self.campaign,
            "--index", str(shard.index), "--of", str(shard.of),
            "--store", segment,
        ]
        if self.workers > 0:
            cmd += ["--workers", str(self.workers)]
        if self.batch_size is not None:
            cmd += ["--checkpoint-every", str(self.batch_size)]
        if self.retry > 0:
            cmd += ["--retry", str(self.retry)]
        if self.stream:
            from repro.telemetry.stream import DEFAULT_STREAM_EVERY

            every = self.stream_every or DEFAULT_STREAM_EVERY
            cmd += stream_spool_args(segment, every)
        return cmd

    async def __call__(self, shard: Shard, segment: str, attempt: int) -> None:
        process = await asyncio.create_subprocess_exec(
            *self.command(shard, segment),
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.PIPE,
            env=self._environment(),
        )
        _, stderr = await process.communicate()
        if process.returncode != 0:
            tail = stderr.decode(errors="replace").strip().splitlines()[-6:]
            raise ShardWorkerError(
                shard,
                attempt,
                f"exit code {process.returncode}: " + " | ".join(tail),
            )


class StubWorker:
    """An in-process stand-in for a remote host (tests, chaos, demos).

    Runs the shard through :func:`~repro.distrib.shard.run_shard` in
    this interpreter.  ``chaos(shard, attempt)`` scripts failures: None
    means run to completion; an integer ``k`` means the worker "dies"
    after ``k`` checkpointed batches -- the segment keeps those batches,
    exactly like a real host losing power mid-run, and the retried
    attempt resumes past them.

    ``stream=True`` arms the segment's spool, so chaos suites can
    exercise its attempt/dedup machinery without subprocesses: a
    scripted death still seals the partial attempt, and the retry
    appends a fresh (higher) attempt whose end frame supersedes it in
    the fold.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        chaos: Optional[Callable[[Shard, int], Optional[int]]] = None,
        stream: bool = False,
        stream_every: Optional[int] = None,
        **runner_kwargs,
    ) -> None:
        self.spec = spec
        self.chaos = chaos
        self.stream = stream
        self.stream_every = stream_every
        self.runner_kwargs = runner_kwargs

    async def __call__(self, shard: Shard, segment: str, attempt: int) -> None:
        surviving = self.chaos(shard, attempt) if self.chaos else None
        kwargs = dict(self.runner_kwargs)
        if surviving is not None:
            seen = {"batches": 0}
            inner = kwargs.get("observer")

            def _killer(update: dict) -> None:
                if inner is not None:
                    inner(update)
                seen["batches"] += 1
                if seen["batches"] > surviving:
                    raise _WorkerDied(
                        f"batch {seen['batches']}: {update['done']}"
                        f"/{update['pending']} pending trials done"
                    )

            kwargs["observer"] = _killer
        from repro.telemetry.stream import stream_spool

        try:
            run_shard(
                self.spec,
                shard,
                segment,
                stream_path=stream_spool(segment) if self.stream else None,
                stream_every=self.stream_every,
                **kwargs,
            )
        except _WorkerDied as died:
            raise ShardWorkerError(
                shard, attempt, f"worker died mid-run ({died})"
            ) from None


class _WorkerDied(BaseException):
    """The stub worker's scripted mid-run death (never absorbable)."""


# -- the coordinator -----------------------------------------------------------


class Coordinator:
    """Fan a campaign's shards across workers and merge what lands.

    *worker* is any async callable ``(shard, segment_root, attempt)``
    that raises :class:`ShardWorkerError` (or any ``Exception``) on
    failure.  *policy* governs shard-level retry and backoff --
    ``max_retries`` re-hands a failed shard that many times, with
    :func:`~repro.faults.resilience.backoff_delay` seconds between
    attempts.  *parallel* bounds in-flight shards (default: shard
    count, capped at 8).

    ``stream=True`` arms the live plane: the coordinator builds a
    :class:`~repro.telemetry.stream.FleetView` over every shard's
    conventional spool path and tails all of them *concurrently with
    shard execution* -- an asyncio task polls the spools every
    *stream_interval* seconds and hands the refreshed view to
    *on_stream* (the ``repro obs top`` renderer, a test probe, ...).
    Tailing is read-only and purely additive: the merge/ingest path and
    every final artifact are byte-identical with streaming on or off.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        dest_root: str,
        shards: int,
        worker: Callable,
        policy: Optional[ResiliencePolicy] = None,
        parallel: Optional[int] = None,
        progress: Optional[Callable[[str], None]] = None,
        stream: bool = False,
        stream_interval: float = 0.2,
        on_stream: Optional[Callable] = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be at least 1")
        self.spec = spec
        self.dest_root = dest_root
        self.shards = [Shard(index, shards) for index in range(shards)]
        self.worker = worker
        self.policy = policy if policy is not None else ResiliencePolicy(
            max_retries=1, backoff_base=0.0
        )
        self.parallel = parallel if parallel else min(shards, 8)
        self.stream = stream
        self.stream_interval = stream_interval
        #: The live fleet view (populated only for streaming runs); kept
        #: on the instance so callers can inspect the final tailed state
        #: after :meth:`run` returns.
        self.stream_view = None
        self._on_stream = on_stream or (lambda view: None)
        self._progress = progress or (lambda message: None)
        self._lock: Optional[asyncio.Lock] = None
        self._semaphore: Optional[asyncio.Semaphore] = None

    # -- driving one shard -----------------------------------------------------

    async def _drive(
        self, shard: Shard, result: FleetResult
    ) -> Optional[ShardAttempt]:
        segment = segment_root(self.dest_root, shard)
        assert self._semaphore is not None and self._lock is not None
        async with self._semaphore:
            last: Optional[ShardAttempt] = None
            for attempt in range(self.policy.attempts):
                started = time.perf_counter()
                try:
                    await self.worker(shard, segment, attempt)
                except Exception as exc:  # worker failed; shard survives
                    wall = time.perf_counter() - started
                    last = ShardAttempt(shard, attempt, False, wall, str(exc))
                    result.attempts.append(last)
                    self._progress(
                        f"{shard} attempt {attempt} failed: {exc}"
                    )
                    if attempt + 1 < self.policy.attempts:
                        delay = self.policy.delay(attempt)
                        if delay > 0:
                            await asyncio.sleep(delay)
                    continue
                wall = time.perf_counter() - started
                async with self._lock:
                    result.merge = merge_stores([segment], self.dest_root)
                attempt_record = ShardAttempt(shard, attempt, True, wall)
                result.attempts.append(attempt_record)
                self._progress(
                    f"{shard} completed on attempt {attempt} "
                    f"({result.merge.unique} records merged so far)"
                )
                return attempt_record
            return last

    # -- the fleet run ---------------------------------------------------------

    async def run_async(self) -> FleetResult:
        self._lock = asyncio.Lock()
        self._semaphore = asyncio.Semaphore(self.parallel)
        result = FleetResult(name=self.spec.name, shards=len(self.shards))
        tail_task = None
        tail_done: Optional[asyncio.Event] = None
        if self.stream:
            from repro.telemetry.stream import FleetView, stream_spool

            self.stream_view = FleetView(
                {
                    shard.label: stream_spool(
                        segment_root(self.dest_root, shard)
                    )
                    for shard in self.shards
                },
                campaign=self.spec.name,
            )
            tail_done = asyncio.Event()
            tail_task = asyncio.create_task(
                self._tail_spools(self.stream_view, tail_done)
            )
        try:
            outcomes = await asyncio.gather(
                *(self._drive(shard, result) for shard in self.shards)
            )
        finally:
            if tail_task is not None and tail_done is not None:
                tail_done.set()
                await tail_task
        failed = [a for a in outcomes if a is not None and not a.ok]
        self._aggregate_metrics(result)
        if failed:
            raise FleetError(failed)
        result.report = CampaignRunner(
            self.spec, store=ResultStore(self.dest_root)
        ).collect()
        return result

    async def _tail_spools(self, view, done: asyncio.Event) -> None:
        """Tail every shard spool until the fleet finishes.

        Runs concurrently with ``_drive``: each tick polls the spools
        (cheap incremental reads from the persisted cursor offsets) and
        hands the refreshed view to the ``on_stream`` consumer.  A final
        poll after ``done`` fires guarantees the consumer sees the
        sealed end frames, so the last rendered state is the complete
        stream -- the prefix property ends at the full fold.
        """
        while not done.is_set():
            if view.poll():
                self._on_stream(view)
            try:
                await asyncio.wait_for(
                    done.wait(), timeout=self.stream_interval
                )
            except asyncio.TimeoutError:
                continue
        view.poll()
        self._on_stream(view)

    def run(self) -> FleetResult:
        return asyncio.run(self.run_async())

    def _aggregate_metrics(self, result: FleetResult) -> None:
        """Fold fleet counters and segment spools into one obs view."""
        from repro.telemetry.export import write_jsonl
        from repro.telemetry.metrics import MetricsRegistry, merge_snapshots
        from repro.telemetry.stream import fold_streams, stream_spool

        registry = MetricsRegistry()
        registry.gauge("fleet.shards.of").set(len(self.shards))
        for attempt in result.attempts:
            registry.counter("fleet.attempts", det=False).add()
            if attempt.ok:
                registry.counter("fleet.shards.completed", det=False).add()
            else:
                registry.counter("fleet.shards.retried", det=False).add()
            registry.histogram("fleet.shard.wall_seconds", det=False).observe(
                attempt.wall_seconds
            )
        if result.merge is not None:
            registry.gauge("fleet.records.merged").set(result.merge.unique)
            registry.gauge("fleet.records.failures").set(result.merge.failures)
        spools = fold_streams(
            stream_spool(segment_root(self.dest_root, shard))
            for shard in self.shards
        )
        result.metrics = merge_snapshots(registry.snapshot(), spools)
        write_jsonl(
            [],
            os.path.join(self.dest_root, FLEET_TELEMETRY),
            metrics=result.metrics,
        )
