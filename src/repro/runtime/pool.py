"""The trial pool: fan independent gadget trials across worker processes.

Every Whisper attack is a statistical sampling campaign -- thousands of
independent gadget trials whose results are aggregated by a decoder or a
classifier.  :class:`TrialPool` runs those trials in one of two places,
behind one interface: in the calling process (``workers=1``) or across
its own lazily spawned :class:`WorkerCrew` of worker processes.

* trial functions are module-level callables taking one picklable
  payload (see :mod:`repro.runtime.tasks`);
* results come back in payload order, regardless of scheduling;
* each worker builds its machines from :class:`~repro.runtime.MachineSpec`
  recipes, caches them, and loads a saved timing state at the top of
  every trial -- the boot state, or the post-warm-up state the first
  trial with the same warm key saved -- so a trial's outcome depends
  only on its payload, never on which worker ran it or what ran there
  before.

That last property is the determinism contract: ``TrialPool(workers=1)``
and ``TrialPool(workers=8)`` produce bit-identical results.  Both places
run one attempt loop against the same :class:`_RetryLedger`, so they
cannot drift apart.

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

import os
import time
from collections import deque
from itertools import accumulate
from typing import Callable, List, Optional, Sequence

from repro import telemetry
from repro.runtime.tasks import TrialFailure

__all__ = [
    "TrialPool",
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


class _RetryLedger:
    """Attempt bookkeeping for one map, shared by both dispatch loops
    (in-process and :meth:`WorkerCrew.run`), so failure handling -- and
    therefore report bytes -- cannot diverge between them.

    Without a policy the ledger is fail-fast: one attempt per payload,
    no result validation, and the first failure raises the error the
    loop hands it.  Under a policy a failed attempt is retried after its
    seeded backoff, and a payload that fails every attempt comes back as
    a :class:`~repro.runtime.tasks.TrialFailure` and a quarantine entry.
    """

    def __init__(self, payloads: Sequence, policy, stats, firsts=None) -> None:
        self.payloads = payloads
        #: The caller's index of each payload's first trial, which
        #: fail-fast errors name: a lockstep pack or a chunk holds several
        #: (None: each payload is one trial, its own index).
        self.firsts = range(len(payloads)) if firsts is None else firsts
        self.policy = policy
        self.stats = stats
        #: The per-trial deadline the crew enforces (None = none).
        self.timeout = policy.timeout if policy is not None else None
        #: ``(payload_index, attempt)`` pairs still to dispatch.
        self.pending = deque((index, 0) for index in range(len(payloads)))
        self.results: List = [None] * len(payloads)
        self.done = [False] * len(payloads)
        self.completed = 0
        self.faults = {}
        self.quarantine: List = []

    def settle(self, index: int, attempt: int, value) -> None:
        """Record an attempt that returned *value*: accepted, unless the
        policy rejects it as a hang or as garbage."""
        if self.done[index]:
            return
        if self.policy is not None:
            rejected = self._reject(value)
            if rejected is not None:
                self.fail(index, attempt, *rejected)
                return
        self.results[index] = value
        self.done[index] = True
        self.completed += 1

    def _reject(self, value):
        """``(category, message)`` if the policy rejects *value*."""
        if getattr(value, "is_hang_token", False):
            describe = getattr(value, "describe", None)
            return ("hang", describe() if describe else "trial returned a hang token")
        if self.policy.validate:
            from repro.faults.resilience import trial_result_validator

            if not trial_result_validator(value):
                return ("garbage", f"garbage result: {value!r}")
        return None

    def fail(
        self, index: int, attempt: int, category: str, message: str,
        error: Optional[BaseException] = None,
    ) -> None:
        """Record a failed attempt.  Fail-fast: raise *error*.  Under a
        policy: queue the next attempt after its backoff, or quarantine
        the payload once its attempts are spent."""
        if self.policy is None:
            raise error
        if self.done[index]:
            return
        history = self.faults.setdefault(index, [])
        history.append(category)
        self.stats.note(category, message)
        if attempt + 1 < self.policy.attempts:
            self.stats.retries += 1
            delay = self.policy.delay(attempt)
            if delay > 0:
                time.sleep(delay)
            # Depth-first: a payload's retry runs before the payloads
            # queued behind it, mirroring how a human would re-run a
            # flaky experiment.
            self.pending.appendleft((index, attempt + 1))
            return
        from repro.faults.resilience import QuarantineEntry

        self.results[index] = TrialFailure(
            attempts=attempt + 1, faults=tuple(history), error=message
        )
        self.quarantine.append(
            QuarantineEntry(
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

    def finish(self) -> List:
        # Quarantine in payload order, whatever order trials completed in
        # -- part of the byte-identity contract across worker counts.
        self.quarantine.sort(key=lambda entry: entry.index)
        return self.results


def _run_in_process(fn: Callable, ledger: _RetryLedger) -> None:
    """The in-process attempt loop (``workers=1``).

    Trials record their telemetry inline.  A simulated worker death (a
    ``kill`` fault with no process to kill) is recorded exactly like the
    crew records a real one.
    """
    from repro.faults.inject import SimulatedWorkerDeath, lost_worker_message

    payloads, pending = ledger.payloads, ledger.pending
    while pending:
        index, attempt = pending.popleft()
        try:
            value = _call_trial(fn, payloads[index], attempt)
        except SimulatedWorkerDeath as exc:
            ledger.fail(index, attempt, "worker-lost",
                        lost_worker_message(payloads[index], attempt), exc)
        except Exception as exc:
            ledger.fail(index, attempt, "raise",
                        f"{type(exc).__name__}: {exc}", exc)
        else:
            ledger.settle(index, attempt, value)


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

    Used only on the fail-fast path: the resilient path keeps
    per-payload dispatch so retries, deadlines and quarantine stay
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
        import tempfile

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
            import multiprocessing

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

    def run(self, fn: Callable, ledger: _RetryLedger) -> None:
        """The crew's attempt loop: run the ledger's payloads and hand
        every outcome to *ledger*.

        Fail-fast (no policy), a worker exception raises
        ``RuntimeError`` and a worker death :class:`WorkerLostError`
        (after respawning, so the crew stays usable).  Under a policy
        the ledger retries, times out and quarantines instead.
        """
        from multiprocessing.connection import wait

        from repro.faults.inject import lost_worker_message

        payloads = ledger.payloads
        count = len(payloads)
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
                    # The tail stays out of the failure message: retry and
                    # quarantine records are part of the byte-identity
                    # contract, and stderr content is host noise.
                    ledger.fail(index, attempt, "worker-lost",
                                lost_worker_message(payloads[index], attempt),
                                WorkerLostError(ledger.firsts[index], stderr_tail=tail))
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
                    ledger.fail(index, attempt, "timeout",
                                f"trial exceeded {ledger.timeout:g}s deadline "
                                f"(attempt {attempt})")

        try:
            while ledger.completed < count:
                for member in self.members:
                    if not ledger.pending:
                        break
                    if member.task is None and member.process.is_alive():
                        index, attempt = ledger.pending.popleft()
                        self._task_counter += 1
                        member.send(
                            self._task_counter, fn, payloads[index], attempt,
                            index, ledger.timeout, observe,
                        )
                by_conn = {member.result_conn: member for member in self.members}
                ready = wait(by_conn.keys(), timeout=_POLL_SECONDS)
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
                        ledger.settle(index, attempt, value)
                    else:  # status == "error"
                        ledger.fail(index, attempt, "raise", value, RuntimeError(
                            f"trial payload {ledger.firsts[index]} failed in worker: "
                            f"{value}"
                        ))
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

    def close(self) -> None:
        for member in self.members:
            member.stop()
            member.result_conn.close()
        self.members = []


class TrialPool:
    """The public face: run trials in-process or across a worker crew.

    ``workers <= 1`` runs trials in the calling process; anything above
    fans them out across a :class:`WorkerCrew`, spawned on the first
    map that has payloads and reused until :meth:`close` (so a
    multi-byte transmission pays the worker start-up cost once).  Usable
    as a context manager; :meth:`close` is idempotent.

    Fail-fast maps on the crew adapt their dispatch granularity (see
    :meth:`_run_crew`).

    With a :class:`~repro.faults.resilience.ResiliencePolicy` as
    ``policy``, failed trials retry with seeded backoff, payloads that
    fail every retry land in :attr:`quarantine` and come back as
    :class:`~repro.runtime.tasks.TrialFailure` results, and
    :attr:`fault_stats` counts what went wrong.  ``install_faults``
    (testing only) arms the dispatcher with a deterministic
    :class:`~repro.faults.plan.FaultPlan`.

    ``lanes > 1`` turns on the lockstep batch executor
    (:mod:`repro.runtime.batch`): pack-eligible ``run_trial`` payloads
    are grouped into packs of up to that many lanes and stepped in
    lockstep over one shared leader execution, with divergent lanes
    falling back to the scalar path.  Results stay byte-identical to
    scalar dispatch -- batching is scheduling, not semantics.  The
    resilient path and fault injection keep per-trial dispatch (their
    attribution is per payload), so batching stands down whenever
    either is armed; under telemetry each stand-down emits a
    ``batch.standdown`` event carrying the structured reason
    (``resilience-policy``, ``fault-injection``, ``wrapped-fn`` or
    ``ineligible-trial-kind``).
    """

    def __init__(
        self,
        workers: int = 1,
        policy=None,
        lanes: Optional[int] = None,
    ) -> None:
        from repro.faults.resilience import FaultStats

        self.workers = max(1, int(workers))
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
        self.lanes = int(lanes) if lanes else None
        #: Payloads that failed every retry, in payload order per map call.
        self.quarantine: List = []
        #: Counters over this pool's lifetime (deterministic under a plan).
        self.fault_stats = FaultStats()
        self._fault_plan = None
        self._crew: Optional[WorkerCrew] = None
        #: EWMA of seconds of worker compute per payload (None = no data).
        self._per_payload_est: Optional[float] = None

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
        work, trial_fn, firsts = payloads, fn, None
        packed = self._batchable(fn)
        if packed:
            from repro.runtime.batch import plan_packs, run_trial_group

            work, trial_fn = plan_packs(payloads, self.lanes), run_trial_group
            firsts = list(accumulate(map(len, work[:-1]), initial=0))
        elif observing and self.lanes and self.lanes > 1:
            reason = self._standdown_reason(fn)
            telemetry.event(
                "batch.standdown", reason=reason, payloads=len(payloads)
            )
            telemetry.add(f"batch.standdown.{reason}", len(payloads))
        retries_before = self.fault_stats.retries
        quarantined_before = self.fault_stats.quarantined
        ledger = _RetryLedger(work, self.policy, self.fault_stats, firsts)
        if self.workers > 1 and work:
            self._run_crew(trial_fn, ledger)
        else:
            _run_in_process(trial_fn, ledger)
        results = ledger.finish()
        if packed:
            results = [result for group in results for result in group]
        self.quarantine.extend(ledger.quarantine)
        retried = self.fault_stats.retries - retries_before
        executed = len(payloads) + retried
        self.trials_executed += executed
        if observing and self.policy is not None:
            telemetry.add("pool.retries", retried)
            telemetry.add(
                "pool.quarantined",
                self.fault_stats.quarantined - quarantined_before,
            )
        self._note_metrics(started, executed)
        return results

    def _run_crew(self, fn: Callable, ledger: _RetryLedger) -> None:
        """Run *ledger*'s payloads on the crew, spawning it on first use.

        Fail-fast maps adapt their dispatch granularity.  The first map
        on a fresh pool goes per payload (there is no timing estimate
        yet, and per-payload attribution keeps :class:`WorkerLostError`
        exact); each map feeds an EWMA of per-payload wall time, and once
        a payload is cheap enough that pipe round-trips matter, later
        maps group payloads into contiguous chunks targeting
        :data:`TARGET_CHUNK_SECONDS` of work per message.  A policy,
        fault injection and telemetry keep per-payload dispatch: their
        attribution is per trial.  Chunking never reorders or alters
        results -- flattened chunk results are byte-identical to
        per-payload dispatch.
        """
        if self._crew is None:
            self._crew = WorkerCrew(self.workers)
        if ledger.policy is not None:
            self._crew.run(fn, ledger)
            return
        payloads = ledger.payloads
        count = len(payloads)
        chunk = self._pick_chunk(count)
        if telemetry.enabled():
            # Record what the adaptive heuristic chose, then dispatch per
            # payload anyway: worker telemetry batches are keyed by trial,
            # and chunked dispatch would blur per-trial attribution.
            telemetry.observe(
                "pool.chunk.size", chunk, buckets=CHUNK_BUCKETS, det=False
            )
            chunk = 1
        started = time.monotonic()
        if chunk <= 1 or getattr(fn, "wants_attempt", False):
            self._crew.run(fn, ledger)
            self._note_wall(time.monotonic() - started, count)
            return
        # A lost worker is attributed to its chunk's first trial -- it
        # died somewhere in that contiguous slice.
        chunks = _RetryLedger(
            [payloads[start : start + chunk] for start in range(0, count, chunk)],
            None, ledger.stats, ledger.firsts[::chunk],
        )
        self._crew.run(_ChunkCall(fn), chunks)
        self._note_wall(time.monotonic() - started, count)
        for chunk_index, values in enumerate(chunks.finish()):
            if isinstance(values, _ChunkError):
                first = ledger.firsts[chunk_index * chunk + values.offset]
                raise RuntimeError(
                    f"trial payload {first} failed in worker: {values.message}"
                )
            for offset, value in enumerate(values):
                ledger.settle(chunk_index * chunk + offset, 0, value)

    def _pick_chunk(self, count: int) -> int:
        """Chunk size for a *count*-payload map (1 = per-payload)."""
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

    def _batchable(self, fn: Callable) -> bool:
        """Whether this map may go through the lockstep batch executor.

        Only the stock trial dispatchers qualify: ``run_trial``, or the
        scalar trial function of a kind with a pack schedule, as
        ``runtime.tasks`` binds it.  A wrapped callable (fault injector,
        stub trial function) has per-dispatch semantics a pack would
        blur.  A policy keeps per-trial dispatch, so it stands batching
        down too.
        """
        if not self.lanes or self.lanes <= 1 or self.policy is not None:
            return False
        from repro.runtime.tasks import kind_of_runner, run_trial

        if fn is run_trial:
            return True
        kind = kind_of_runner(fn)
        return kind is not None and kind.schedule is not None

    def _standdown_reason(self, fn: Callable) -> str:
        """Why batching stood down for this map (a ``batch.standdown``
        telemetry attribute; the batch executor itself never sees the
        payloads)."""
        if self.policy is not None:
            return "resilience-policy"
        if self._fault_plan is not None:
            return "fault-injection"
        from repro.runtime.tasks import kind_of_runner

        if kind_of_runner(fn) is not None:
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
        if self._crew is not None:
            self._crew.close()
            self._crew = None

    def __del__(self):  # pragma: no cover - GC-timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __enter__(self) -> "TrialPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        if self.lanes:
            return f"TrialPool(workers={self.workers}, lanes={self.lanes})"
        return f"TrialPool(workers={self.workers})"
