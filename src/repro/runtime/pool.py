"""The trial pool: fan independent gadget trials across worker processes.

Every Whisper attack is a statistical sampling campaign -- thousands of
independent gadget trials whose results are aggregated by a decoder or a
classifier.  :class:`TrialPool` runs those trials either in-process
(:class:`SerialExecutor`) or across its own crew of worker processes
(:class:`ProcessExecutor`), behind one interface:

* trial functions are module-level callables taking one picklable
  payload (see :mod:`repro.runtime.tasks`);
* results come back in payload order, regardless of scheduling;
* each worker builds its machines from :class:`~repro.runtime.MachineSpec`
  recipes, caches them, and calls :meth:`Machine.reset_uarch` at the top
  of every trial -- so a trial's outcome depends only on its payload,
  never on which worker ran it or what ran there before.

That last property is the determinism contract: ``TrialPool(workers=1)``
and ``TrialPool(workers=8)`` produce bit-identical results.

The pool is also the resilience boundary (see ``docs/FAULTS.md``).  A
worker that dies mid-trial surfaces as :class:`WorkerLostError` naming
the payload it took down -- never an opaque hang.  With a
:class:`~repro.faults.resilience.ResiliencePolicy` installed, the pool
instead retries failing trials with seeded exponential backoff, enforces
per-trial deadlines, respawns dead workers, and quarantines payloads
that fail every retry as :class:`~repro.runtime.tasks.TrialFailure`
values.  The determinism contract extends to failure: under a
deterministic fault source, retry counts, quarantine lists and failure
records are byte-identical at any worker count.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import tempfile
import time
from collections import deque
from typing import Callable, Iterable, List, Optional, Sequence

from repro import telemetry
from repro.runtime.tasks import TrialFailure

__all__ = [
    "TrialPool",
    "SerialExecutor",
    "ProcessExecutor",
    "WorkerCrew",
    "WorkerLostError",
    "default_workers",
]

#: How often the coordinator checks for dead workers and blown deadlines.
_POLL_SECONDS = 0.05

#: Adaptive chunking aims for at least this much simulated work per pipe
#: message; below it the queue/pickle round-trip starts to show up on
#: campaign profiles.
TARGET_CHUNK_SECONDS = 0.05

#: Ceiling on the adaptive chunk size -- bounds both the work lost when a
#: chunk's worker dies and the latency before the first result lands.
MAX_CHUNK = 64

#: Histogram bounds for the adaptive chunk-size metric (powers of two up
#: to :data:`MAX_CHUNK`).
CHUNK_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: How many trailing stderr lines a dead worker leaves behind in its
#: :class:`WorkerLostError` payload and lifecycle trace events.
STDERR_TAIL_LINES = 10


def default_workers() -> int:
    """A sensible worker count for this host (``os.cpu_count``)."""
    return os.cpu_count() or 1


def _emit_heartbeats(
    emitted_through: int, completed: int, dispatched: int, started: float
) -> int:
    """Emit ``pool.heartbeat`` events for every cadence boundary crossed.

    The cadence (``telemetry.set_heartbeat_cadence``) is a completed
    *trial count*, never a timer: the number of heartbeats and their
    deterministic attributes (the boundary, the dispatch size) depend
    only on the work, at any worker count.  Wall-derived throughput
    rides in the ``host`` sidecar like every other host fact.  Returns
    the highest boundary emitted so far.
    """
    cadence = telemetry.heartbeat_cadence()
    if not cadence or not telemetry.enabled():
        return emitted_through
    while emitted_through + cadence <= completed:
        emitted_through += cadence
        elapsed = time.monotonic() - started
        telemetry.event(
            "pool.heartbeat",
            completed=emitted_through,
            dispatched=dispatched,
            host={
                "trials_per_sec": (
                    round(completed / elapsed, 1) if elapsed > 0 else 0.0
                ),
            },
        )
    return emitted_through


class WorkerLostError(RuntimeError):
    """A worker process died mid-batch.

    Raised by the unprotected path so callers see *which* payload took
    the worker down instead of an opaque hang; the resilient path turns
    the same event into a ``worker-lost`` retry.
    """

    def __init__(
        self, payload_index: int, message: str = "", stderr_tail: str = ""
    ) -> None:
        text = message or f"worker died while running payload {payload_index}"
        if stderr_tail:
            text += f"\nlast worker stderr:\n{stderr_tail}"
        super().__init__(text)
        self.payload_index = payload_index
        #: The dead worker's final stderr lines (diagnostics only -- never
        #: serialised into trial results, which must stay deterministic).
        self.stderr_tail = stderr_tail


def _call_trial(fn: Callable, payload, attempt: int):
    """Dispatch one attempt, passing the attempt number through only to
    wrappers that ask for it (fault injectors)."""
    if getattr(fn, "wants_attempt", False):
        return fn(payload, attempt)
    return fn(payload)


def _classify_ok(value, policy):
    """Why a returned *value* is unacceptable, or None if it is fine."""
    if getattr(value, "is_hang_token", False):
        describe = getattr(value, "describe", None)
        return ("hang", describe() if describe else "trial returned a hang token")
    if policy.validate:
        from repro.faults.resilience import trial_result_validator

        if not trial_result_validator(value):
            return ("garbage", f"garbage result: {value!r}")
    return None


class _RetryLedger:
    """Attempt bookkeeping shared by the serial and pooled resilient
    paths, so failure handling (and therefore report bytes) cannot
    diverge between them."""

    def __init__(self, payloads: Sequence, policy, stats) -> None:
        from repro.faults.resilience import QuarantineEntry

        self._entry_type = QuarantineEntry
        self.payloads = payloads
        self.policy = policy
        self.stats = stats
        self.results: List = [None] * len(payloads)
        self.done = [False] * len(payloads)
        self.completed = 0
        self.faults = {}
        self.quarantine: List = []

    def accept(self, index: int, value) -> None:
        if self.done[index]:
            return
        self.results[index] = value
        self.done[index] = True
        self.completed += 1

    def fail(self, index: int, attempt: int, category: str, message: str):
        """Record a failed attempt; the next attempt number, or None if
        the payload is now quarantined."""
        if self.done[index]:
            return None
        history = self.faults.setdefault(index, [])
        history.append(category)
        self.stats.note(category, message)
        if attempt + 1 < self.policy.attempts:
            self.stats.retries += 1
            return attempt + 1
        self.results[index] = TrialFailure(
            attempts=attempt + 1, faults=tuple(history), error=message
        )
        self.quarantine.append(
            self._entry_type(
                index=index,
                payload=self.payloads[index],
                attempts=attempt + 1,
                faults=tuple(history),
                error=message,
            )
        )
        self.stats.quarantined += 1
        self.done[index] = True
        self.completed += 1
        return None

    def finish(self) -> List:
        # Quarantine in payload order, whatever order trials completed in
        # -- part of the byte-identity contract across worker counts.
        self.quarantine.sort(key=lambda entry: entry.index)
        return self.results


def _map_serial_resilient(fn: Callable, payloads: Sequence, policy, stats):
    """The in-process resilient loop (reference semantics for the crew)."""
    from repro.faults.inject import SimulatedWorkerDeath, lost_worker_message

    ledger = _RetryLedger(payloads, policy, stats)
    pending = deque((index, 0) for index in range(len(payloads)))
    while pending:
        index, attempt = pending.popleft()
        failed = None
        value = None
        try:
            value = _call_trial(fn, payloads[index], attempt)
        except SimulatedWorkerDeath:
            failed = ("worker-lost", lost_worker_message(payloads[index], attempt))
        except Exception as exc:
            failed = ("raise", f"{type(exc).__name__}: {exc}")
        else:
            failed = _classify_ok(value, policy)
        if failed is None:
            ledger.accept(index, value)
            continue
        next_attempt = ledger.fail(index, attempt, *failed)
        if next_attempt is not None:
            delay = policy.delay(attempt)
            if delay > 0:
                time.sleep(delay)
            # Depth-first: finish a payload's retries before moving on,
            # mirroring how a human would re-run a flaky experiment.
            pending.appendleft((index, next_attempt))
    return ledger


class SerialExecutor:
    """Runs trials in the calling process.  The reference executor: the
    parallel path must match its output bit for bit."""

    workers = 1

    def map(self, fn: Callable, payloads: Iterable) -> List:
        if not telemetry.heartbeat_cadence():
            return [fn(payload) for payload in payloads]
        payloads = list(payloads)
        started = time.monotonic()
        results: List = []
        beats = 0
        for payload in payloads:
            results.append(fn(payload))
            beats = _emit_heartbeats(
                beats, len(results), len(payloads), started
            )
        return results

    def run_resilient(self, fn: Callable, payloads: Sequence, policy, stats):
        return _map_serial_resilient(fn, payloads, policy, stats)

    def close(self) -> None:
        pass


# -- chunked dispatch ----------------------------------------------------------


class _ChunkError:
    """Picklable marker a :class:`_ChunkCall` returns when one payload of
    its slice raised, carrying enough to re-attribute the failure to the
    original payload index on the coordinator side."""

    __slots__ = ("offset", "message")

    def __init__(self, offset: int, message: str) -> None:
        self.offset = offset
        self.message = message


class _ChunkCall:
    """Run a contiguous slice of payloads in one worker round-trip.

    Used only on the unprotected (no-policy) path: the resilient path
    keeps per-payload dispatch so retries, deadlines and quarantine stay
    attributable to single trials.  Results come back as a list in slice
    order, so flattening chunk results preserves payload order -- the
    byte-identity contract does not care how payloads were grouped.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable) -> None:
        self.fn = fn

    def __call__(self, payloads):
        fn = self.fn
        results = []
        for offset, payload in enumerate(payloads):
            try:
                results.append(fn(payload))
            except Exception as exc:
                return _ChunkError(offset, f"{type(exc).__name__}: {exc}")
        return results


# -- the worker crew -----------------------------------------------------------


def _crew_worker(task_queue, result_conn, stderr_path=None) -> None:
    """Worker main loop: pull ``(task_id, fn, payload, attempt, observe)``
    tasks, send ``(task_id, status, value, telemetry_batch)`` outcomes
    down the private result pipe.  An injected kill fault ``os._exit``\\ s
    between the pull and the send -- exactly the silence a crashed worker
    leaves behind.

    stderr is redirected to a per-worker file so a casualty's last words
    survive it (the coordinator reads the tail back into the
    :class:`WorkerLostError` and the trace -- previously they were
    silently dropped with the inherited pipe).  When *observe* is set the
    worker arms a fresh telemetry recorder (never the one a ``fork``
    inherited from the coordinator, whose buffered records would be
    duplicated) and ships a drained batch with every result.
    """
    if stderr_path is not None:
        try:
            fd = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o600)
            os.dup2(fd, 2)
            os.close(fd)
        except OSError:  # pragma: no cover - tmpdir raced away
            pass
    telemetry.disable()  # drop any fork-inherited coordinator recorder
    while True:
        task = task_queue.get()
        if task is None:
            return
        task_id, fn, payload, attempt, observe = task
        if observe:
            telemetry.enable_in_worker()
        try:
            value = _call_trial(fn, payload, attempt)
        except Exception as exc:
            batch = telemetry.drain_worker_batch() if observe else None
            result_conn.send(
                (task_id, "error", f"{type(exc).__name__}: {exc}", batch)
            )
        else:
            batch = telemetry.drain_worker_batch() if observe else None
            result_conn.send((task_id, "ok", value, batch))


class _CrewWorker:
    """One worker process plus its private task queue, private result
    pipe, and in-flight slot.

    The result path is a one-way pipe with a *single* writer on purpose.
    A shared result queue would multiplex workers over one pipe behind a
    shared lock held during the write -- and a worker dying mid-write
    (a kill fault, an OOM-kill, a hard crash) would take that lock to
    its grave and wedge every other worker's sends forever.  With one
    pipe per worker a casualty can only ever corrupt its own channel,
    which dies (and is replaced) with it.
    """

    def __init__(self, context, slot: int) -> None:
        self.slot = slot
        self.task_queue = context.SimpleQueue()
        self.result_conn, worker_conn = context.Pipe(duplex=False)
        fd, self.stderr_path = tempfile.mkstemp(
            prefix=f"repro-worker-{slot}-", suffix=".stderr"
        )
        os.close(fd)
        self.process = context.Process(
            target=_crew_worker,
            args=(self.task_queue, worker_conn, self.stderr_path),
            daemon=True,
        )
        self.process.start()
        worker_conn.close()  # the child's end lives in the child now
        #: ``(task_id, payload_index, attempt, deadline)`` or None when idle.
        self.task = None

    def send(
        self, task_id: int, fn: Callable, payload, attempt: int,
        index: int, timeout: Optional[float], observe: bool = False,
    ) -> None:
        deadline = time.monotonic() + timeout if timeout is not None else None
        # Record before sending: a worker that dies the instant it picks
        # the task up must still be attributable to this payload.
        self.task = (task_id, index, attempt, deadline)
        self.task_queue.put((task_id, fn, payload, attempt, observe))

    def stderr_tail(
        self, lines: int = STDERR_TAIL_LINES, max_bytes: int = 8192
    ) -> str:
        """The worker's last stderr lines (what a crash left behind)."""
        try:
            with open(self.stderr_path, "rb") as handle:
                handle.seek(0, os.SEEK_END)
                size = handle.tell()
                handle.seek(max(0, size - max_bytes))
                data = handle.read().decode("utf-8", "replace")
        except OSError:
            return ""
        return "\n".join(data.strip().splitlines()[-lines:])

    def cleanup(self) -> None:
        """Remove the worker's stderr capture file."""
        try:
            os.unlink(self.stderr_path)
        except OSError:
            pass

    def stop(self) -> None:
        if self.process.is_alive():
            try:
                self.task_queue.put(None)
            except Exception:  # pragma: no cover - broken pipe on a dead child
                pass
            self.process.join(timeout=0.5)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=2.0)
        self.cleanup()


class WorkerCrew:
    """A persistent set of worker processes the coordinator can watch.

    Unlike ``multiprocessing.Pool`` -- which replaces dead workers
    silently and leaves their in-flight task lost forever (the map call
    hangs) -- the crew tracks which payload each worker holds, polls
    liveness and deadlines, and respawns casualties.  That bookkeeping
    is what makes :class:`WorkerLostError` attribution, per-trial
    timeouts and dead-worker retry possible.
    """

    def __init__(self, workers: int, context=None) -> None:
        if context is None:
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX hosts
                context = multiprocessing.get_context()
        self.context = context
        self.workers = workers
        self._task_counter = 0
        self.members = [_CrewWorker(context, slot) for slot in range(workers)]

    def _respawn(self, slot: int) -> None:
        member = self.members[slot]
        if member.process.is_alive():
            member.process.terminate()
        member.process.join(timeout=2.0)
        member.result_conn.close()  # anything still in it is untrusted
        member.cleanup()
        self.members[slot] = _CrewWorker(self.context, slot)
        telemetry.event(
            "pool.worker.respawn",
            slot=slot,
            host={"pid": self.members[slot].process.pid},
        )

    def run(self, fn: Callable, payloads: Sequence, policy=None, stats=None):
        """Run *payloads* through the crew.

        Without a policy: returns results in payload order; a worker
        exception re-raises as ``RuntimeError`` and a worker death as
        :class:`WorkerLostError` (after respawning, so the crew stays
        usable).  With a policy: returns the :class:`_RetryLedger` after
        retrying/timing-out/quarantining per the policy.
        """
        payloads = list(payloads)
        count = len(payloads)
        ledger = _RetryLedger(payloads, policy, stats) if policy is not None else None
        results: List = [None] * count
        completed = 0
        pending = deque((index, 0) for index in range(count))
        # Workers abandoned mid-map by a previous exception finish their
        # stale task eventually; new tasks queue up behind it and stale
        # results are dropped below by task-id mismatch.
        for member in self.members:
            member.task = None
        observe = telemetry.enabled()
        # Worker telemetry batches, keyed ``(payload_index, attempt)`` so
        # the merged trace order depends only on payload identity -- never
        # on which worker ran a trial or when its pipe delivered.
        batches: List = []
        map_started = time.monotonic()
        beats = 0

        def fail(index: int, attempt: int, category: str, message: str) -> None:
            next_attempt = ledger.fail(index, attempt, category, message)
            if next_attempt is not None:
                delay = policy.delay(attempt)
                if delay > 0:
                    time.sleep(delay)
                pending.append((index, next_attempt))

        def sweep() -> None:
            """Detect dead workers and blown deadlines between results."""
            now = time.monotonic()
            for slot, member in enumerate(self.members):
                if member.task is None:
                    if not member.process.is_alive():
                        self._respawn(slot)
                    continue
                task_id, index, attempt, deadline = member.task
                if not member.process.is_alive():
                    member.task = None
                    tail = member.stderr_tail()
                    telemetry.event(
                        "pool.worker.lost",
                        slot=slot,
                        index=index,
                        attempt=attempt,
                        host={"pid": member.process.pid, "stderr_tail": tail},
                    )
                    self._respawn(slot)
                    if policy is None:
                        raise WorkerLostError(index, stderr_tail=tail)
                    from repro.faults.inject import lost_worker_message

                    # The tail stays out of the failure message: retry and
                    # quarantine records are part of the byte-identity
                    # contract, and stderr content is host noise.
                    fail(index, attempt, "worker-lost",
                         lost_worker_message(payloads[index], attempt))
                elif deadline is not None and now > deadline:
                    member.task = None
                    telemetry.event(
                        "pool.worker.timeout",
                        slot=slot,
                        index=index,
                        attempt=attempt,
                        host={"pid": member.process.pid},
                    )
                    self._respawn(slot)  # the worker is wedged; replace it
                    fail(index, attempt, "timeout",
                         f"trial exceeded {policy.timeout:g}s deadline "
                         f"(attempt {attempt})")

        try:
            while (ledger.completed if ledger else completed) < count:
                for member in self.members:
                    if not pending:
                        break
                    if member.task is None and member.process.is_alive():
                        index, attempt = pending.popleft()
                        self._task_counter += 1
                        member.send(
                            self._task_counter, fn, payloads[index], attempt,
                            index,
                            policy.timeout if policy is not None else None,
                            observe,
                        )
                by_conn = {member.result_conn: member for member in self.members}
                ready = multiprocessing.connection.wait(
                    by_conn.keys(), timeout=_POLL_SECONDS
                )
                if not ready:
                    sweep()
                    continue
                for conn in ready:
                    member = by_conn[conn]
                    try:
                        task_id, status, value, batch = conn.recv()
                    except (EOFError, OSError):
                        # The writer died; sweep attributes and respawns.
                        continue
                    if member.task is None or member.task[0] != task_id:
                        continue  # stale: a task we already timed out or abandoned
                    _, index, attempt, _ = member.task
                    member.task = None
                    if observe and batch is not None:
                        telemetry.merge_worker_metrics(batch)
                        if batch.get("records"):
                            batches.append(((index, attempt), batch["records"]))
                    if status == "ok":
                        if policy is None:
                            results[index] = value
                            completed += 1
                            continue
                        failed = _classify_ok(value, policy)
                        if failed is None:
                            ledger.accept(index, value)
                        else:
                            fail(index, attempt, *failed)
                    else:  # status == "error"
                        if policy is None:
                            raise RuntimeError(
                                f"trial payload {index} failed in worker: {value}"
                            )
                        fail(index, attempt, "raise", value)
                beats = _emit_heartbeats(
                    beats,
                    ledger.completed if ledger else completed,
                    count,
                    map_started,
                )
                sweep()
        finally:
            if observe and batches:
                # Sort by (payload, attempt), never by arrival: the merged
                # trace is identical at any worker count.
                batches.sort(key=lambda item: item[0])
                telemetry.ingest_batches(
                    (f"p{index}.{attempt}", records)
                    for (index, attempt), records in batches
                )
        return ledger if ledger is not None else results

    def close(self) -> None:
        for member in self.members:
            member.stop()
            member.result_conn.close()
        self.members = []


class ProcessExecutor:
    """Runs trials across a persistent :class:`WorkerCrew`.

    The crew is created lazily on first :meth:`map` and reused across
    calls, so a multi-byte transmission pays the worker start-up cost
    once.  ``fork`` is preferred (workers inherit loaded modules and any
    already-built machine contexts); where it is unavailable the default
    start method is used and workers rebuild their contexts on demand.

    Dispatch granularity adapts to the workload.  The first :meth:`map`
    on a fresh executor goes per payload (there is no timing estimate
    yet, and per-payload attribution keeps :class:`WorkerLostError`
    exact); each map feeds an EWMA of per-payload wall time, and once a
    payload is cheap enough that queue round-trips matter, later maps
    group payloads into contiguous chunks targeting
    :data:`TARGET_CHUNK_SECONDS` of work per message.  An explicit
    ``chunk_size`` pins the granularity instead.  Chunking never reorders
    or alters results -- flattened chunk results are byte-identical to
    per-payload dispatch.
    """

    def __init__(self, workers: int, chunk_size: Optional[int] = None) -> None:
        if workers < 2:
            raise ValueError("ProcessExecutor needs at least 2 workers")
        self.workers = workers
        #: Explicit dispatch granularity; ``None`` selects the adaptive
        #: heuristic (see class docstring).
        self.chunk_size = chunk_size
        #: EWMA of seconds of worker compute per payload (None = no data).
        self._per_payload_est: Optional[float] = None
        self._pool: Optional[WorkerCrew] = None

    def _ensure_pool(self) -> WorkerCrew:
        if self._pool is None:
            self._pool = WorkerCrew(self.workers)
        return self._pool

    def _pick_chunk(self, count: int) -> int:
        """Chunk size for a *count*-payload map (1 = per-payload)."""
        if self.chunk_size is not None:
            return max(1, int(self.chunk_size))
        estimate = self._per_payload_est
        if estimate is None:
            return 1  # first map: measure before grouping
        if estimate <= 0:
            chunk = MAX_CHUNK
        else:
            chunk = int(TARGET_CHUNK_SECONDS / estimate)
        if chunk > MAX_CHUNK:
            chunk = MAX_CHUNK
        # Never produce fewer chunks than workers: idle workers cost more
        # than the round-trips chunking saves.
        fair_share = count // self.workers
        if chunk > fair_share:
            chunk = fair_share
        return chunk if chunk > 1 else 1

    def _note_wall(self, wall: float, count: int) -> None:
        # Wall time is parallel time; scale by the workers that could
        # have been busy to approximate per-payload compute cost.
        per_payload = wall * min(self.workers, count) / count
        previous = self._per_payload_est
        self._per_payload_est = (
            per_payload if previous is None else 0.5 * previous + 0.5 * per_payload
        )

    def map(self, fn: Callable, payloads: Iterable) -> List:
        payloads = list(payloads)
        count = len(payloads)
        if not count:
            return []
        crew = self._ensure_pool()
        chunk = self._pick_chunk(count)
        if telemetry.enabled():
            # Record what the adaptive heuristic chose, then dispatch per
            # payload anyway: worker telemetry batches are keyed by trial,
            # and chunked dispatch would blur per-trial attribution.
            telemetry.observe(
                "pool.chunk.size", chunk, buckets=CHUNK_BUCKETS, det=False
            )
            chunk = 1
        if chunk <= 1 or getattr(fn, "wants_attempt", False):
            # Per-payload dispatch (also for fault-injecting wrappers,
            # whose plans are keyed to individual dispatches).
            started = time.monotonic()
            results = crew.run(fn, payloads)
            self._note_wall(time.monotonic() - started, count)
            return results
        chunks = [payloads[start : start + chunk] for start in range(0, count, chunk)]
        started = time.monotonic()
        try:
            chunk_results = crew.run(_ChunkCall(fn), chunks)
        except WorkerLostError as error:
            # Attribute the loss to the chunk's first payload -- the
            # worker died somewhere in that contiguous slice.
            raise WorkerLostError(error.payload_index * chunk) from None
        self._note_wall(time.monotonic() - started, count)
        results = []
        for chunk_index, value in enumerate(chunk_results):
            if isinstance(value, _ChunkError):
                raise RuntimeError(
                    f"trial payload {chunk_index * chunk + value.offset} "
                    f"failed in worker: {value.message}"
                )
            results.extend(value)
        return results

    def run_resilient(self, fn: Callable, payloads: Sequence, policy, stats):
        return self._ensure_pool().run(fn, payloads, policy=policy, stats=stats)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __del__(self):  # pragma: no cover - GC-timing dependent
        try:
            self.close()
        except Exception:
            pass


class TrialPool:
    """The public face: pick an executor by worker count.

    ``workers <= 1`` (or unpicklable hosts) selects the serial executor;
    anything above fans out across processes.  Usable as a context
    manager; :meth:`close` is idempotent.

    With a :class:`~repro.faults.resilience.ResiliencePolicy` as
    ``policy``, :meth:`map` runs the resilient path: failed trials retry
    with seeded backoff, payloads that fail every retry land in
    :attr:`quarantine` and come back as
    :class:`~repro.runtime.tasks.TrialFailure` results, and
    :attr:`fault_stats` counts what went wrong.  ``install_faults``
    (testing only) arms the dispatcher with a deterministic
    :class:`~repro.faults.plan.FaultPlan`.

    ``batch_size > 1`` turns on the lockstep batch executor
    (:mod:`repro.runtime.batch`): pack-eligible ``run_trial`` payloads
    are grouped into packs of up to that many lanes and stepped in
    lockstep over one shared leader execution, with divergent lanes
    falling back to the scalar path.  Results stay byte-identical to
    scalar dispatch -- batching, like chunking, is scheduling, not
    semantics.  The resilient path and fault injection keep per-trial
    dispatch (their attribution is per payload), so batching stands
    down whenever either is armed; under telemetry each stand-down
    emits a ``batch.standdown`` event carrying the structured reason
    (``resilience-policy``, ``fault-injection``, ``wrapped-fn`` or
    ``ineligible-trial-kind``).
    """

    def __init__(
        self,
        workers: int = 1,
        chunk_size: Optional[int] = None,
        policy=None,
        batch_size: Optional[int] = None,
    ) -> None:
        from repro.faults.resilience import FaultStats

        self.workers = max(1, int(workers))
        if self.workers == 1:
            self.executor = SerialExecutor()
        else:
            self.executor = ProcessExecutor(self.workers, chunk_size=chunk_size)
        #: Trials dispatched through this pool over its lifetime.  Campaign
        #: reports read it to tell freshly executed trials from store hits
        #: (a cache replay never touches the pool).  Retries count: each
        #: re-dispatch is a real execution.
        self.trials_executed = 0
        #: The resilience policy; None = the classic fail-fast path.
        self.policy = policy
        #: Lockstep lanes per pack (None/1 = scalar dispatch).  Read by
        #: the campaign runner for span attribution; the value never
        #: reaches trial results or reports (batching is invisible there).
        self.batch_size = int(batch_size) if batch_size else None
        #: Payloads that failed every retry, in payload order per map call.
        self.quarantine: List = []
        #: Counters over this pool's lifetime (deterministic under a plan).
        self.fault_stats = FaultStats()
        self._fault_plan = None

    def install_faults(self, plan) -> None:
        """Arm the dispatcher with a :class:`~repro.faults.plan.FaultPlan`
        (testing only): every subsequent trial consults the plan first."""
        self._fault_plan = plan

    def map(self, fn: Callable, payloads: Sequence) -> List:
        """Run *fn* over *payloads*; results in payload order.

        Under a policy, entries whose payload exhausted its retries are
        :class:`~repro.runtime.tasks.TrialFailure` values instead of
        results -- callers that cannot digest failures should check
        :attr:`quarantine` afterwards.
        """
        payloads = list(payloads)
        if self._fault_plan is not None:
            from repro.faults.inject import FaultingFn

            fn = FaultingFn(fn, self._fault_plan, os.getpid())
        observing = telemetry.enabled()
        started = time.perf_counter() if observing else None
        if observing:
            telemetry.add("pool.trials.dispatched", len(payloads))
        if self.policy is None:
            if self._batchable(fn):
                from repro.runtime.batch import plan_packs, run_trial_group

                groups = plan_packs(payloads, self.batch_size)
                packed = self.executor.map(run_trial_group, groups)
                results = [result for group in packed for result in group]
            else:
                if observing and self.batch_size and self.batch_size > 1:
                    reason = self._standdown_reason(fn)
                    telemetry.event(
                        "batch.standdown",
                        reason=reason,
                        payloads=len(payloads),
                    )
                    telemetry.add(
                        f"batch.standdown.{reason}", len(payloads)
                    )
                results = self.executor.map(fn, payloads)
            self.trials_executed += len(payloads)
            self._note_metrics(started, len(payloads))
            return results
        if observing and self.batch_size and self.batch_size > 1:
            telemetry.event(
                "batch.standdown",
                reason="resilience-policy",
                payloads=len(payloads),
            )
            telemetry.add(
                "batch.standdown.resilience-policy", len(payloads)
            )
        retries_before = self.fault_stats.retries
        quarantined_before = self.fault_stats.quarantined
        ledger = self.executor.run_resilient(
            fn, payloads, self.policy, self.fault_stats
        )
        results = ledger.finish()
        self.quarantine.extend(ledger.quarantine)
        executed = len(payloads) + (self.fault_stats.retries - retries_before)
        self.trials_executed += executed
        if observing:
            telemetry.add(
                "pool.retries", self.fault_stats.retries - retries_before
            )
            telemetry.add(
                "pool.quarantined",
                self.fault_stats.quarantined - quarantined_before,
            )
        self._note_metrics(started, executed)
        return results

    def _batchable(self, fn: Callable) -> bool:
        """Whether this map may go through the lockstep batch executor.

        Only the stock trial dispatchers qualify (``run_trial``, or the
        kind-specific ``run_channel_trial`` / ``run_kaslr_trial`` that
        ``run_trial`` reduces to): a wrapped callable (fault injector,
        stub trial function) has per-dispatch semantics a pack would
        blur.
        """
        if not self.batch_size or self.batch_size <= 1:
            return False
        from repro.runtime.tasks import (
            run_channel_trial,
            run_kaslr_trial,
            run_trial,
        )

        return fn in (run_trial, run_channel_trial, run_kaslr_trial)

    def _standdown_reason(self, fn: Callable) -> str:
        """Why batching stood down for this map (a ``batch.standdown``
        telemetry attribute; the batch executor itself never sees the
        payloads)."""
        if self._fault_plan is not None:
            return "fault-injection"
        from repro.runtime.tasks import run_detect_trial

        if fn is run_detect_trial:
            return "ineligible-trial-kind"
        return "wrapped-fn"

    def _note_metrics(self, started: Optional[float], executed: int) -> None:
        """Post-map metric updates (no-ops when telemetry is off)."""
        if started is None:
            return
        telemetry.add("pool.trials.executed", executed)
        wall = time.perf_counter() - started
        if wall > 0:
            telemetry.gauge_set(
                "pool.trials_per_second", round(executed / wall, 3), det=False
            )

    def close(self) -> None:
        self.executor.close()

    def __enter__(self) -> "TrialPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        if self.batch_size:
            return (
                f"TrialPool(workers={self.workers}, "
                f"batch_size={self.batch_size})"
            )
        return f"TrialPool(workers={self.workers})"
