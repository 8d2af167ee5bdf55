"""The event-driven out-of-order core.

Instead of stepping every pipeline stage every cycle, the engine dispatches
instructions in fetch order, stamping each with the cycles at which it was
delivered, issued, completed and retired; speculation is tracked as a stack
of *contexts* that later squash the uops dispatched under them.  The model
is event-accurate where it matters to Whisper:

* a fault is raised when the faulting uop reaches the ROB head plus an
  exception-entry delay, and the flush must **drain** the transient uops in
  flight and any **in-progress mispredict recovery** -- the two mechanisms
  whose balance gives TET its sign (longer for the Figure 1a gadget,
  shorter for the ZombieLoad gadget);
* branch mispredicts (conditional or RSB) redirect fetch after a resteer
  penalty, even when the branch itself is transient, and speculatively
  train the predictor;
* transient loads keep their real microarchitectural side effects (cache
  fills, TLB fills, LFB entries) while their architectural effects are
  rolled back.

Every timing side effect lands in the :class:`~repro.uarch.pmu.PmuCounters`
bank so the PMU toolset sees the same picture the paper's Table 3 reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.isa.opcodes import Op
from repro.isa.program import INSTRUCTION_SIZE, Program
from repro.isa.registers import ALU_FLAGS, RegisterFile
from repro.memory.mmu import Fault, FaultKind, Mmu
from repro.uarch.bpu import BranchPredictor
from repro.uarch.config import CpuModel
from repro.uarch.frontend import Frontend
from repro.uarch.plan import plan_for
from repro.uarch.pmu import PmuCounters
from repro.uarch.uop import (
    FlushEvent,
    RedirectEvent,
    ResolutionEvent,
    RunEvents,
    UopRecord,
)

MASK64 = (1 << 64) - 1

#: Sentinel for "key was absent" in readiness undo entries.
_ABSENT = object()

#: Kinds of the run engine's own ``(kind, key, old)`` undo entries,
#: numbered above the register file's in the one journal both append to:
#: a ``reg_ready`` or ``store_ready`` stamp (*old* may be ``_ABSENT``), a
#: TSX push (undone by a pop), a TSX pop (undone by re-appending *old*)
#: and the 8 bytes a store or call overwrote at *key*.
_REG_READY, _STORE_READY, _TSX_PUSH, _TSX_POP, _MEMORY = range(
    ALU_FLAGS + 1, ALU_FLAGS + 6
)

#: Key for picking the oldest unresolved speculation context (hoisted so
#: the main loop does not rebuild a lambda per instruction).
_CTX_RESOLVE_CYCLE = attrgetter("resolve_cycle")

#: Enum members the dispatch path tests, bound once: on CPython 3.11 an
#: ``Op.X`` read goes through ``EnumType.__getattr__`` (~120-180 ns,
#: against ~10-30 ns for a module global).
_LOAD, _LOAD_BYTE = Op.LOAD, Op.LOAD_BYTE
_PROTECTION, _WRITE_PROTECT = FaultKind.PROTECTION, FaultKind.WRITE_PROTECT


class SimulationError(RuntimeError):
    """The simulated program did something the model cannot continue from
    (unhandled fault, fetch off the program, malformed TSX nesting...)."""


class _TsxContext:
    """An open hardware transaction."""

    __slots__ = ("xbegin_seq", "fallback_pc", "mark")

    def __init__(self, xbegin_seq: int, fallback_pc: int, mark: int) -> None:
        self.xbegin_seq = xbegin_seq
        self.fallback_pc = fallback_pc
        #: Journal mark before ``xbegin``'s push (an abort rolls back here,
        #: which also pops this transaction off the stack).
        self.mark = mark


class _SpecContext:
    """An unresolved speculation: a mispredicted branch or a pending fault.

    Its *snapshot* is the state to squash back to, in O(1): a journal
    mark plus the three readiness scalars, ``(mark, flag_ready,
    serialize_until, max_ready)`` (see :meth:`_RunEngine._snapshot`).
    """

    __slots__ = (
        "kind",
        "trigger_seq",
        "resolve_cycle",
        "resume_pc",
        "snapshot",
        "branch_kind",
        "suppression",
        "fault",
        "tsx",
        "nested_clears",
    )

    def __init__(
        self,
        kind: str,  # "branch" | "fault"
        trigger_seq: int,
        resolve_cycle: int,
        resume_pc: int,
        snapshot: tuple,
        branch_kind: str = "",  # conditional | return | underflow
        suppression: str = "",  # fault contexts: tsx | signal
        fault: Optional[Fault] = None,
        tsx: Optional[_TsxContext] = None,
    ) -> None:
        self.kind = kind
        self.trigger_seq = trigger_seq
        self.resolve_cycle = resolve_cycle
        self.resume_pc = resume_pc
        self.snapshot = snapshot
        self.branch_kind = branch_kind
        self.suppression = suppression
        self.fault = fault
        self.tsx = tsx
        self.nested_clears = 0


@dataclass
class RunResult:
    """Everything one :meth:`Core.run` produced."""

    start_cycle: int
    end_cycle: int
    instructions_retired: int
    uops_issued: int
    regs: RegisterFile
    halted: bool
    events: RunEvents
    faults: List[Fault] = field(default_factory=list)
    records: Optional[List[UopRecord]] = None

    @property
    def cycles(self) -> int:
        return self.end_cycle - self.start_cycle


class Core:
    """One logical processor of a simulated CPU."""

    def __init__(
        self,
        model: CpuModel,
        mmu: Mmu,
        pmu: Optional[PmuCounters] = None,
        bpu: Optional[BranchPredictor] = None,
        thread_id: int = 0,
    ) -> None:
        self.model = model
        self.mmu = mmu
        self.pmu = pmu or PmuCounters()
        self.bpu = bpu or BranchPredictor()
        self.frontend = Frontend(model, mmu, self.pmu)
        self.thread_id = thread_id
        self.global_cycle = 0
        #: PC of the registered SIGSEGV handler (None = faults are fatal
        #: unless a transaction is open).  Set by the kernel substrate.
        self.signal_handler_pc: Optional[int] = None
        #: Optional syscall hook: called with the speculative register
        #: file; may mutate it (the kernel substrate installs this).
        self.syscall_handler: Optional[Callable[[RegisterFile], None]] = None
        #: Disruption windows (start, end) this core inflicted on shared
        #: SMT resources: flushes, recoveries, signal dispatches (§4.4).
        self.disruptions: List[Tuple[int, int]] = []

    def snapshot(self) -> tuple:
        """The core's timing state as a value: cycle counter, signal
        handler, disruption windows, then the PMU bank's, predictor's and
        frontend's snapshots.  The MMU is shared with SMT siblings and
        snapshots on its own (:meth:`Machine.save_uarch` takes both)."""
        return (
            self.global_cycle,
            self.signal_handler_pc,
            tuple(self.disruptions),
            self.pmu.snapshot(),
            self.bpu.snapshot(),
            self.frontend.snapshot(),
        )

    def restore(self, state: tuple) -> None:
        """Put back a :meth:`snapshot`, which stays reusable."""
        (
            self.global_cycle,
            self.signal_handler_pc,
            disruptions,
            pmu,
            bpu,
            frontend,
        ) = state
        self.disruptions = list(disruptions)
        self.pmu.restore(pmu)
        self.bpu.restore(bpu)
        self.frontend.restore(frontend)

    def run(
        self,
        program: Program,
        regs: Optional[Dict[str, int]] = None,
        entry: Optional[int] = None,
        user: bool = True,
        max_instructions: int = 200_000,
        record_trace: bool = False,
        decode_plan: bool = True,
    ) -> RunResult:
        """Run *program* until ``hlt`` retires or *max_instructions*.

        *regs* seeds the architectural register file.  The core's cycle
        counter continues across calls, so ``rdtsc`` values from repeated
        runs form one timeline (the covert-channel receivers rely on it).

        ``decode_plan=True`` (the default) dispatches through the cached
        :class:`~repro.uarch.plan.DecodedPlan` for this program/model;
        ``decode_plan=False`` keeps the legacy per-fetch decode path.
        Both paths produce bit-identical results (the decode-plan
        property suite asserts it).
        """
        plan = plan_for(program, self.model, _OP_HANDLERS) if decode_plan else None
        engine = _RunEngine(self, program, regs or {}, entry, user, max_instructions, plan)
        if record_trace:
            # Arm the MMU's translation breadcrumbs alongside the uop
            # trace: the batch executor's page-table shadow replays both
            # streams in lockstep.  try/finally so a faulting run cannot
            # leave the hot path paying for logging.
            mmu = self.mmu
            mmu.translation_log = engine.events.translations
            mmu.walker.record_details = True
            try:
                result = engine.execute()
            finally:
                mmu.translation_log = None
                mmu.walker.record_details = False
            result.records = engine.records
        else:
            result = engine.execute()
        self.global_cycle = result.end_cycle + 1
        return result

    def telemetry_counters(self) -> Dict[str, int]:
        """Per-trial counters for the telemetry layer (read-only).

        Every trial starts from the boot state (``Machine.reset_uarch``
        zeroes the PMU bank and the cycle counter) or from a saved
        post-warm-up state that carries exactly the counts its warm-up
        would have added, so the current values *are* this trial's
        deltas -- no before-snapshot, no new branches on the hot path.
        Every value here is deterministic for a fixed trial payload
        (part of the telemetry determinism contract); process-cumulative
        statistics like the decode-plan cache live elsewhere
        (:data:`repro.uarch.plan.PLAN_STATS`).
        """
        counts = self.pmu.counts
        return {
            "cycles": self.global_cycle,
            "uops_issued": counts["UOPS_ISSUED.ANY"],
            "uops_retired": counts["UOPS_RETIRED.RETIRE_SLOTS"],
            "machine_clears": counts["MACHINE_CLEARS.COUNT"],
            "recovery_cycles": counts["INT_MISC.RECOVERY_CYCLES"],
            "resteer_cycles": counts["INT_MISC.CLEAR_RESTEER_CYCLES"],
            "dtlb_walks": counts["DTLB_LOAD_MISSES.MISS_CAUSES_A_WALK"],
            "llc_misses": counts["LONGEST_LAT_CACHE.MISS"],
            "l1_misses": counts["MEM_LOAD_RETIRED.L1_MISS"],
            # Not a PMU event: the cache hierarchy counts clflush traffic
            # directly (and snapshots it alongside the PMU bank), so
            # the detection layer sees flush activity through the same
            # snapshot as everything else instead of poking the machine.
            "clflushes": self.mmu.hierarchy.clflush_count,
        }


class _RunEngine:
    """The per-run state machine (split out of Core to keep state explicit).

    Slotted: with more attributes than CPython shares dict keys for (30),
    every ``self.x`` on the dispatch path would be a dict probe.
    """

    __slots__ = (
        "core", "model", "mmu", "pmu", "bpu", "frontend", "program", "user",
        "max_instructions", "plan", "start_cycle", "pc", "spec", "reg_ready",
        "flag_ready", "serialize_until", "max_ready", "recovery_busy_until",
        "records", "contexts", "tsx_stack", "store_ready", "journal",
        "journal_live", "events", "faults", "retire_cursor",
        "retire_slots", "retired_instructions", "dispatched_uops",
        "squashed_uops", "freed_retired_uops", "retire_ptr", "alu_pool",
        "load_pool", "store_pool", "branch_pool", "system_pool", "halted",
        "end_cycle", "force_resolve", "iside_walk_base",
    )

    def __init__(
        self,
        core: Core,
        program: Program,
        regs: Dict[str, int],
        entry: Optional[int],
        user: bool,
        max_instructions: int,
        plan=None,
    ) -> None:
        self.core = core
        self.model = core.model
        self.mmu = core.mmu
        self.pmu = core.pmu
        self.bpu = core.bpu
        self.frontend = core.frontend
        self.program = program
        self.user = user
        self.max_instructions = max_instructions
        self.plan = plan

        self.start_cycle = core.global_cycle
        self.frontend.reset_clock(self.start_cycle)
        self.pc = entry if entry is not None else program.base

        self.spec = RegisterFile()
        for name, value in regs.items():
            self.spec.write(name, value)

        self.reg_ready: Dict[str, int] = {}
        self.flag_ready = self.start_cycle
        self.serialize_until = self.start_cycle
        self.max_ready = self.start_cycle
        self.recovery_busy_until = self.start_cycle

        self.records: List[UopRecord] = []
        self.contexts: List[_SpecContext] = []
        self.tsx_stack: List[_TsxContext] = []
        self.store_ready: Dict[int, int] = {}
        #: The run's one undo journal of ``(kind, key, old)`` entries,
        #: appended before each mutation while speculation is live: the
        #: register file's (registers, flags), readiness stamps, TSX
        #: pushes and pops, and the bytes under stores and calls.  A
        #: snapshot is a mark into it; :meth:`_rollback` undoes to one.
        self.journal: List[tuple] = []
        #: Whether the journal is recording.  Off on the straight path
        #: (zero overhead); switched on at the first snapshot or
        #: ``xbegin`` and back off, emptied, once no speculation or
        #: transaction remains open.
        self.journal_live = False
        self.events = RunEvents()
        self.faults: List[Fault] = []

        self.retire_cursor = self.start_cycle
        self.retire_slots = 0
        self.retired_instructions = 0
        self.dispatched_uops = 0
        self.squashed_uops = 0
        self.freed_retired_uops = 0
        self.retire_ptr = 0  # occupancy scan cursor into self.records

        # Each pool books the discrete cycles its ports issue in, as
        # cycle -> ports busy (see _port_start): an older uop stalled on
        # operands must not block a younger, ready one (the scheduler is
        # out of order).  One pool per issuing uop class; NOP and FENCE
        # uops need no execution port.
        self.alu_pool: Dict[int, int] = {}
        self.load_pool: Dict[int, int] = {}
        self.store_pool: Dict[int, int] = {}
        self.branch_pool: Dict[int, int] = {}
        self.system_pool: Dict[int, int] = {}

        self.halted = False
        self.end_cycle = self.start_cycle
        self.force_resolve = False
        self.iside_walk_base = self.mmu.iside_walk_cycles

    # -- small helpers ---------------------------------------------------------

    def _reg_time(self, name: Optional[str]) -> int:
        if name is None:
            return self.start_cycle
        return self.reg_ready.get(name, self.start_cycle)

    def _journal_on(self) -> None:
        """Arm the journal (idempotent)."""
        if not self.journal_live:
            self.journal_live = True
            self.spec.begin_journal(self.journal)

    def _snapshot(self) -> tuple:
        """The state a squash rolls back to: a journal mark plus the three
        readiness scalars."""
        self._journal_on()
        return len(self.journal), self.flag_ready, self.serialize_until, self.max_ready

    def _restore(self, snapshot: tuple) -> None:
        mark, self.flag_ready, self.serialize_until, self.max_ready = snapshot
        self._rollback(mark)

    def _rollback(self, mark: int) -> None:
        """Undo every journaled mutation since *mark*, newest first."""
        journal = self.journal
        undo_register = self.spec.undo
        tsx_stack = self.tsx_stack
        while len(journal) > mark:
            kind, key, old = journal.pop()
            if kind <= ALU_FLAGS:
                undo_register(kind, key, old)
            elif kind <= _STORE_READY:
                ready = self.reg_ready if kind == _REG_READY else self.store_ready
                if old is _ABSENT:
                    ready.pop(key, None)
                else:
                    ready[key] = old
            elif kind == _MEMORY:
                self.mmu.poke_raw_bytes(key, old)
            elif kind == _TSX_PUSH:
                tsx_stack.pop()
            else:  # _TSX_POP
                tsx_stack.append(old)

    def _squash_after(self, trigger_seq: int) -> int:
        """Mark every record younger than *trigger_seq* squashed; return
        the number of uops freed (the live transient uops the resolution
        drains)."""
        squashed = 0
        for record in reversed(self.records):
            if record.seq <= trigger_seq:
                break
            if not record.squashed:
                record.squashed = True
                squashed += record.uop_count
        self.squashed_uops += squashed
        return squashed

    def _rob_full_until(self, upcoming_cycle: int) -> Optional[int]:
        """With the ROB full at *upcoming_cycle*: the cycle after its oldest
        live record retires, or ``None`` when that record is speculative
        and only a squash can free room (the caller resolves a context)."""
        records = self.records
        for index in range(self.retire_ptr, len(records)):
            record = records[index]
            if record.squashed:
                continue
            if record.retire_cycle is None:
                return None
            return record.retire_cycle + 1
        return upcoming_cycle

    # -- context resolution ------------------------------------------------------

    def _resolve(self, ctx: _SpecContext) -> None:
        if ctx.kind == "branch":
            self._resolve_branch(ctx)
        else:
            self._resolve_fault(ctx)

    def _resolve_branch(self, ctx: _SpecContext) -> None:
        model = self.model
        counts = self.pmu.counts
        trigger_seq = ctx.trigger_seq
        # The branch's snapshot was taken after its own writes (a
        # mispredicted ret keeps its rsp update), so the rollback target
        # is the state at the start of the *next* record.
        self.events.resolutions.append(
            ResolutionEvent("branch", trigger_seq, len(self.records), trigger_seq + 1)
        )
        wrong_uops = self._squash_after(trigger_seq)
        self._restore(ctx.snapshot)
        redirect_cycle = ctx.resolve_cycle + model.mispredict_resteer
        recovery_end = redirect_cycle + model.recovery_tail + int(
            model.branch_drain_per_uop * wrong_uops
        )
        recovery = recovery_end - redirect_cycle
        nested = any(c is not ctx for c in self.contexts)
        self.frontend.block_until(redirect_cycle, resteer=True)
        counts["INT_MISC.CLEAR_RESTEER_CYCLES"] += model.mispredict_resteer
        self.recovery_busy_until = max(self.recovery_busy_until, recovery_end)
        counts["INT_MISC.RECOVERY_CYCLES"] += recovery
        counts["INT_MISC.RECOVERY_CYCLES_ANY"] += recovery
        counts["RESOURCE_STALLS.ANY"] += recovery
        counts["de_dis_dispatch_token_stalls2.retire_token_stall"] += recovery
        self.core.disruptions.append((ctx.resolve_cycle, recovery_end))
        self.events.redirects.append(
            RedirectEvent(
                trigger_seq,
                self.records[trigger_seq].pc,
                ctx.resolve_cycle,
                redirect_cycle,
                recovery_end,
                wrong_uops,
                nested,
                ctx.branch_kind,
            )
        )
        self.contexts = [c for c in self.contexts if c.trigger_seq < trigger_seq]
        for enclosing in self.contexts:
            if enclosing.kind == "fault":
                enclosing.nested_clears += 1
        if nested:
            # The undocumented Skylake event BR_MISP_EXEC.INDIRECT counts
            # up exactly when a clear happens *inside* a transient window
            # (Table 3's 0 -> 1 rows); we model the observed behaviour.
            counts["BR_MISP_EXEC.INDIRECT"] += 1
        self.pc = ctx.resume_pc
        self.force_resolve = False

    def _resolve_fault(self, ctx: _SpecContext) -> None:
        model = self.model
        counts = self.pmu.counts
        fault = ctx.fault
        assert fault is not None
        trigger_seq = ctx.trigger_seq
        tsx_abort = ctx.suppression == "tsx"
        transient_uops = self._squash_after(trigger_seq)
        flush_start = max(ctx.resolve_cycle, self.recovery_busy_until)
        drain = model.fault_flush_base + int(model.flush_drain_per_uop * transient_uops)
        drain += model.nested_clear_flush_penalty * ctx.nested_clears
        flush_end = flush_start + drain

        # A TSX abort rolls back to its xbegin mark; a signal-suppressed
        # fault restores the snapshot taken before the faulting record's
        # forwarded write.
        self.events.resolutions.append(
            ResolutionEvent(
                ctx.suppression,
                trigger_seq,
                len(self.records),
                ctx.tsx.xbegin_seq if tsx_abort else trigger_seq,
            )
        )
        if tsx_abort:
            assert ctx.tsx is not None
            resume_cycle = flush_end + model.tsx_abort_latency
            # One rollback, past the fault's mark to the xbegin's, undoes
            # registers, memory, readiness stamps and the TSX pushes and
            # pops since then, the xbegin's own push included: the stack
            # ends just below the aborted transaction, and no entry is
            # left for work that is gone, so an enclosing abort can roll
            # back past this one.  Undoing the readiness stamps too
            # changes nothing: reg_ready and store_ready are cleared below.
            self._rollback(ctx.tsx.mark)
            resume_pc = ctx.tsx.fallback_pc
        else:
            resume_cycle = flush_end + model.signal_dispatch_latency
            self._restore(ctx.snapshot)
            resume_pc = ctx.resume_pc

        self.reg_ready.clear()
        self.store_ready.clear()
        self.flag_ready = resume_cycle
        self.serialize_until = resume_cycle
        self.max_ready = resume_cycle
        self.retire_cursor = max(self.retire_cursor, resume_cycle)
        self.retire_slots = 0
        self.recovery_busy_until = flush_end
        self.frontend.block_until(resume_cycle, resteer=True)
        # The post-flush refetch is one resteer's worth of frontend stall.
        counts["INT_MISC.CLEAR_RESTEER_CYCLES"] += model.mispredict_resteer
        counts["MACHINE_CLEARS.COUNT"] += 1
        counts["INT_MISC.RECOVERY_CYCLES"] += drain
        counts["INT_MISC.RECOVERY_CYCLES_ANY"] += drain
        stalled = max(0, flush_end - ctx.resolve_cycle)
        counts["RESOURCE_STALLS.ANY"] += stalled
        counts["de_dis_dispatch_token_stalls2.retire_token_stall"] += stalled
        self.core.disruptions.append((flush_start, resume_cycle))
        self.events.flushes.append(
            FlushEvent(
                trigger_seq,
                self.records[trigger_seq].pc,
                fault.kind.value,
                ctx.resolve_cycle,
                flush_start,
                flush_end,
                transient_uops,
                ctx.nested_clears,
                ctx.suppression,
                resume_pc,
            )
        )
        self.contexts = []
        self.pc = resume_pc
        self.force_resolve = False

    # -- the main loop -------------------------------------------------------------

    def execute(self) -> RunResult:
        instruction_budget = self.max_instructions
        plan_map = self.plan.by_pc if self.plan is not None else None
        # Loop-invariant aliases: the main loop runs once per dispatched
        # instruction, so every attribute fetch it avoids is paid back
        # thousands of times per trial.
        frontend = self.frontend
        counts = self.pmu.counts
        records = self.records
        records_append = records.append
        deliver = frontend.deliver
        user = self.user
        tsx_stack = self.tsx_stack
        retire_width = self.model.retire_width
        rob_size = self.model.rob_size
        _resolve_cycle_of = _CTX_RESOLVE_CYCLE
        while not self.halted:
            instruction_budget -= 1
            if instruction_budget < 0:
                raise SimulationError(
                    f"instruction budget exhausted at pc={self.pc:#x} "
                    f"(possible runaway program)"
                )
            contexts = self.contexts
            if self.journal_live and not contexts and not tsx_stack:
                # Speculation fully resolved: stop journaling and drop the
                # recorded undo entries (no live mark references them).
                self.journal_live = False
                self.spec.end_journal()
                self.journal.clear()
            if contexts:
                ctx = (
                    contexts[0]
                    if len(contexts) == 1
                    else min(contexts, key=_resolve_cycle_of)
                )
            else:
                ctx = None
            # Allocation cannot proceed while the recovery state machine is
            # busy (INT_MISC.RECOVERY_CYCLES is exactly this stall) -- the
            # mechanism that makes a wrong-path drain visible in the ToTE.
            # (delivery_floor, unrolled: max of frontend clock and block.)
            fetch_floor = frontend._clock
            if frontend._block_until > fetch_floor:
                fetch_floor = frontend._block_until
            if self.serialize_until > fetch_floor:
                fetch_floor = self.serialize_until
            if self.recovery_busy_until > fetch_floor:
                fetch_floor = self.recovery_busy_until
            pc = self.pc
            if plan_map is not None:
                entry = plan_map.get(pc)
                off_program = entry is None
            else:
                entry = None
                off_program = not self.program.contains_address(pc)
            if ctx is not None and (
                self.force_resolve or off_program or fetch_floor >= ctx.resolve_cycle
            ):
                self._resolve(ctx)
                continue
            if off_program:
                raise SimulationError(f"fetch left the program at {pc:#x}")

            if entry is not None:
                instruction = entry.instruction
                uop_count = entry.uop_count
                info = entry.info
                line = entry.line
                handler = entry.handler
                fall_through = entry.fall_through
            else:
                instruction = self.program.fetch(pc)
                info = instruction.info
                uop_count = info.uop_count
                line = -1
                handler = _OP_HANDLERS.get(instruction.op)
                fall_through = pc + INSTRUCTION_SIZE

            earliest = fetch_floor
            # ROB capacity: a cursor frees the uops of the records retired
            # (or squashed) by `earliest`; when the new uops still do not
            # fit, allocation waits for the oldest live record to retire.
            retire_ptr = self.retire_ptr
            while retire_ptr < len(records):
                oldest = records[retire_ptr]
                if not oldest.squashed:
                    retired = oldest.retire_cycle
                    if retired is None or retired > earliest:
                        break
                    self.freed_retired_uops += oldest.uop_count
                retire_ptr += 1
            self.retire_ptr = retire_ptr
            live = self.dispatched_uops - self.freed_retired_uops - self.squashed_uops
            if live + uop_count > rob_size:
                occupancy_earliest = self._rob_full_until(earliest)
                if occupancy_earliest is None:
                    if ctx is not None:
                        self._resolve(ctx)
                        continue
                    raise SimulationError("ROB deadlock outside speculation")
                if occupancy_earliest > earliest:
                    stall = occupancy_earliest - earliest
                    counts["RESOURCE_STALLS.ANY"] += stall
                    counts["de_dis_dispatch_token_stalls2.retire_token_stall"] += stall
                    earliest = occupancy_earliest
            if ctx is not None and earliest >= ctx.resolve_cycle:
                self._resolve(ctx)
                continue

            transient = ctx is not None  # dispatched under a live speculation
            dispatch_cycle, source = deliver(pc, instruction, earliest, user, info, line)
            if ctx is not None and dispatch_cycle >= ctx.resolve_cycle:
                # The flush kills the frontend before this delivery lands.
                self._resolve(ctx)
                continue

            record = UopRecord(
                len(records), pc, instruction, dispatch_cycle, source, transient, uop_count
            )
            records_append(record)
            self.dispatched_uops += uop_count
            counts["UOPS_ISSUED.ANY"] += uop_count

            if handler is None:
                raise SimulationError(f"no handler for {instruction.op}")
            self.pc = fall_through  # fall-through default;
            #                         branch handlers override
            handler(self, record, instruction, dispatch_cycle)
            ready = record.ready_cycle
            if ready > self.max_ready:
                self.max_ready = ready
            if transient or record.fault is not None:
                continue
            # Commit: in order, retire_width uops per cycle.  A transient
            # or faulting record never retires (a resolution squashes it).
            retire = ready + 1
            cursor = self.retire_cursor
            if retire > cursor:
                slots = uop_count
            else:
                retire = cursor
                slots = self.retire_slots + uop_count
                if slots > retire_width:
                    retire += 1
                    slots = uop_count
            self.retire_cursor = retire
            self.retire_slots = slots
            record.retire_cycle = retire
            self.retired_instructions += 1
            counts["UOPS_RETIRED.RETIRE_SLOTS"] += uop_count
            if self.halted:
                self.end_cycle = retire

        self._pmu_epilogue(self.end_cycle)
        spec = self.spec
        if self.journal_live:
            spec.end_journal()
        # The engine is done with its register file: it becomes the result's.
        return RunResult(
            self.start_cycle,
            self.end_cycle,
            self.retired_instructions,
            self.dispatched_uops,
            spec,
            self.halted,
            self.events,
            self.faults,
        )

    # -- per-instruction semantics ---------------------------------------------

    def _write_dest(self, record: UopRecord, name: str, value: int) -> None:
        # _set_reg_ready, inlined (one call per register-writing uop); the
        # journal append is what lets a squash roll the readiness back.
        record.dest_value = value
        self.spec.write(name, value)
        reg_ready = self.reg_ready
        if self.journal_live:
            self.journal.append((_REG_READY, name, reg_ready.get(name, _ABSENT)))
        reg_ready[name] = record.ready_cycle

    def _set_reg_ready(self, name: str, cycle: int) -> None:
        if self.journal_live:
            self.journal.append((_REG_READY, name, self.reg_ready.get(name, _ABSENT)))
        self.reg_ready[name] = cycle

    def _store_done(self, va: int, old: Optional[bytes], cycle: int) -> None:
        """A store or call wrote 8 bytes at *va*, ready at *cycle*; while
        the journal is live, *old* holds the bytes it overwrote."""
        if self.journal_live:
            journal = self.journal
            journal.append((_MEMORY, va, old))
            journal.append((_STORE_READY, va, self.store_ready.get(va, _ABSENT)))
        self.store_ready[va] = cycle

    def _op_mov_ri(self, record, instruction, dispatch):
        start = _port_start(self.alu_pool, self.model.alu_ports, dispatch)
        record.start_cycle = start
        record.ready_cycle = start + 1
        value = instruction.imm if instruction.imm is not None else instruction.target_addr
        self._write_dest(record, instruction.dst, value & MASK64)

    def _op_mov_rr(self, record, instruction, dispatch):
        src_ready = self.reg_ready.get(instruction.src, self.start_cycle)
        start = _port_start(
            self.alu_pool,
            self.model.alu_ports,
            src_ready if src_ready > dispatch else dispatch,
        )
        record.start_cycle = start
        record.ready_cycle = start + 1
        self._write_dest(record, instruction.dst, self.spec.read(instruction.src))

    def _op_lea(self, record, instruction, dispatch):
        mem = instruction.mem
        reg_ready = self.reg_ready
        start_cycle = self.start_cycle
        deps = max(
            dispatch,
            reg_ready.get(mem.base, start_cycle),
            reg_ready.get(mem.index, start_cycle),
        )
        start = _port_start(self.alu_pool, self.model.alu_ports, deps)
        record.start_cycle = start
        record.ready_cycle = start + 1
        self._write_dest(record, instruction.dst, mem.effective_address(self.spec.read))

    def _op_alu(self, record, instruction, dispatch):
        info = instruction.info
        left = self.spec.read(instruction.dst)
        right = (
            self.spec.read(instruction.src)
            if instruction.src is not None
            else (instruction.imm & MASK64)
        )
        reg_ready = self.reg_ready
        start_cycle = self.start_cycle
        deps = max(
            dispatch,
            reg_ready.get(instruction.dst, start_cycle),
            reg_ready.get(instruction.src, start_cycle) if instruction.src else dispatch,
        )
        start = _port_start(self.alu_pool, self.model.alu_ports, deps)
        record.start_cycle = start
        record.ready_cycle = start + 1

        result, carry = info.alu(left, right)
        self.spec.set_alu_flags(result, carry)
        self.flag_ready = record.ready_cycle
        if not info.flags_only:
            self._write_dest(record, instruction.dst, result)

    def _op_nop(self, record, instruction, dispatch):
        record.start_cycle = dispatch
        record.ready_cycle = dispatch

    def _op_fence(self, record, instruction, dispatch):
        start = self.max_ready if self.max_ready > dispatch else dispatch
        record.start_cycle = start
        record.ready_cycle = start + instruction.info.base_latency
        if self.contexts:
            # A fence inside an unresolved speculation can never complete:
            # it orders against *retirement* of older operations, and the
            # faulting/mispredicted op ahead of it will never retire.
            # Issue stays plugged until the window resolves -- the paper's
            # Figure 4 mechanism ("the not-trigger path will encounter a
            # fence, which hinders the issuance of subsequent uops").
            self.serialize_until = max(
                self.serialize_until,
                max(ctx.resolve_cycle for ctx in self.contexts) + 1,
            )
        else:
            self.serialize_until = record.ready_cycle

    def _op_rdtsc(self, record, instruction, dispatch):
        floor = self.max_ready if self.max_ready > dispatch else dispatch
        start = _port_start(self.system_pool, 1, floor)
        record.start_cycle = start
        record.ready_cycle = start + instruction.info.base_latency
        self.serialize_until = record.ready_cycle
        self._write_dest(record, "rax", start)
        self.spec.write("rdx", 0)
        self._set_reg_ready("rdx", record.ready_cycle)

    def _op_syscall(self, record, instruction, dispatch):
        start = max(dispatch, self.max_ready, self.serialize_until)
        record.start_cycle = start
        record.ready_cycle = start + instruction.info.base_latency
        self.serialize_until = record.ready_cycle
        if self.core.syscall_handler is not None:
            self.core.syscall_handler(self.spec)
            for name in ("rax", "rbx", "rcx", "rdx", "rsi", "rdi"):
                self._set_reg_ready(name, record.ready_cycle)

    def _op_hlt(self, record, instruction, dispatch):
        record.start_cycle = dispatch
        record.ready_cycle = dispatch + 1
        if self.contexts:
            # A transient hlt cannot stop the machine; dispatch just has
            # nothing more to do until the window resolves.
            self.force_resolve = True
            return
        # The run ends when this record retires (the dispatch loop's
        # commit sets end_cycle).
        self.halted = True

    def _op_prefetch(self, record, instruction, dispatch):
        mem = instruction.mem
        reg_ready = self.reg_ready
        start_cycle = self.start_cycle
        deps = max(
            dispatch,
            reg_ready.get(mem.base, start_cycle),
            reg_ready.get(mem.index, start_cycle),
        )
        start = _port_start(self.load_pool, self.model.load_ports, deps)
        va = mem.effective_address(self.spec.read)
        latency = self.mmu.prefetch(
            va, user=self.user, now=start, thread_id=self.core.thread_id
        )
        record.start_cycle = start
        record.ready_cycle = start + max(1, latency)
        record.memory_va = va
        record.memory_latency = latency

    def _op_clflush(self, record, instruction, dispatch):
        mem = instruction.mem
        reg_ready = self.reg_ready
        start_cycle = self.start_cycle
        deps = max(
            dispatch,
            reg_ready.get(mem.base, start_cycle),
            reg_ready.get(mem.index, start_cycle),
        )
        start = _port_start(self.store_pool, self.model.store_ports, deps)
        va = mem.effective_address(self.spec.read)
        self.mmu.clflush(va, user=self.user)
        record.start_cycle = start
        record.ready_cycle = start + instruction.info.base_latency
        record.memory_va = va

    def _op_load(self, record, instruction, dispatch):
        mem = instruction.mem
        reg_ready = self.reg_ready
        start_cycle = self.start_cycle
        deps = max(
            dispatch,
            reg_ready.get(mem.base, start_cycle),
            reg_ready.get(mem.index, start_cycle),
        )
        start = _port_start(self.load_pool, self.model.load_ports, deps)
        va = mem.effective_address(self.spec.read)
        forwarded = self.store_ready.get(va, start_cycle)
        if forwarded > start:
            start = forwarded
        access = self.mmu.data_access(
            va,
            write=False,
            size=1 if instruction.op is _LOAD_BYTE else 8,
            user=self.user,
            now=start,
            thread_id=self.core.thread_id,
        )
        record.start_cycle = start
        record.ready_cycle = start + max(1, access.latency)
        record.memory_va = va
        record.memory_latency = access.latency
        record.cache_hit_level = access.hit_level
        counts = self.pmu.counts
        if not access.tlb_hit:
            counts["DTLB_LOAD_MISSES.MISS_CAUSES_A_WALK"] += 1
        if access.walk is not None:
            counts["DTLB_LOAD_MISSES.WALK_ACTIVE"] += access.walk.latency
        if access.fault is not None:
            self._handle_fault(record, access.fault, access)
            return
        if access.hit_level != "L1":
            counts["MEM_LOAD_RETIRED.L1_MISS"] += 1
        if access.hit_level == "DRAM":
            counts["LONGEST_LAT_CACHE.MISS"] += 1
        self._write_dest(record, instruction.dst, access.value)

    def _op_store(self, record, instruction, dispatch):
        mem = instruction.mem
        value = (
            self.spec.read(instruction.src)
            if instruction.src is not None
            else (instruction.imm & MASK64)
        )
        deps = max(
            dispatch,
            self._reg_time(mem.base),
            self._reg_time(mem.index),
            self._reg_time(instruction.src) if instruction.src else dispatch,
        )
        start = _port_start(self.store_pool, self.model.store_ports, deps)
        va = mem.effective_address(self.spec.read)
        # Only a live journal can roll the write back.
        old = self.mmu.peek_raw_bytes(va, 8) if self.journal_live else None
        access = self.mmu.data_access(
            va,
            write=True,
            value=value,
            size=8,
            user=self.user,
            now=start,
            thread_id=self.core.thread_id,
        )
        record.start_cycle = start
        record.ready_cycle = start + max(1, access.latency)
        record.memory_va = va
        record.memory_latency = access.latency
        if access.fault is not None:
            self._handle_fault(record, access.fault, access)
            return
        self._store_done(va, old, record.ready_cycle)

    def _op_jmp(self, record, instruction, dispatch):
        start = _port_start(self.branch_pool, self.model.branch_ports, dispatch)
        record.start_cycle = start
        record.ready_cycle = start + 1
        record.is_branch = True
        record.actual_target = instruction.target_addr
        self.bpu.btb.update(record.pc, instruction.target_addr)
        self.pmu.counts["bp_l1_btb_correct"] += 1
        self.pc = instruction.target_addr

    def _op_jcc(self, record, instruction, dispatch):
        taken_target = instruction.target_addr
        fallthrough = record.pc + INSTRUCTION_SIZE
        predicted_taken, _ = self.bpu.predict_conditional(record.pc, taken_target)
        start = _port_start(
            self.branch_pool, self.model.branch_ports, max(dispatch, self.flag_ready)
        )
        record.start_cycle = start
        record.ready_cycle = start + 1
        record.is_branch = True
        actual_taken = instruction.cond_eval(
            self.spec.read_flag("zf"),
            self.spec.read_flag("cf"),
            self.spec.read_flag("sf"),
            self.spec.read_flag("of"),
        )
        record.predicted_taken = predicted_taken
        record.actual_taken = actual_taken
        record.predicted_target = taken_target if predicted_taken else fallthrough
        record.actual_target = taken_target if actual_taken else fallthrough
        record.mispredicted = self.bpu.resolve_conditional(
            record.pc, predicted_taken, actual_taken
        )
        if actual_taken:
            self.bpu.btb.update(record.pc, taken_target)
        if record.mispredicted:
            self.pmu.counts["BR_MISP_EXEC.ALL_BRANCHES"] += 1
            self.contexts.append(
                _SpecContext(
                    "branch",
                    record.seq,
                    record.ready_cycle,
                    record.actual_target,
                    self._snapshot(),
                    "conditional",
                )
            )
            self.pc = record.predicted_target
        else:
            self.pc = record.actual_target

    def _op_call(self, record, instruction, dispatch):
        return_address = record.pc + INSTRUCTION_SIZE
        rsp = (self.spec.read("rsp") - 8) & MASK64
        deps = max(dispatch, self._reg_time("rsp"))
        start = _port_start(self.branch_pool, self.model.branch_ports, deps)
        old = self.mmu.peek_raw_bytes(rsp, 8) if self.journal_live else None
        access = self.mmu.data_access(
            rsp,
            write=True,
            value=return_address,
            size=8,
            user=self.user,
            now=start,
            thread_id=self.core.thread_id,
        )
        record.start_cycle = start
        record.ready_cycle = start + max(1, access.latency)
        record.is_branch = True
        record.actual_target = instruction.target_addr
        record.memory_va = rsp
        if access.fault is not None:
            self._handle_fault(record, access.fault, access)
            return
        self._store_done(rsp, old, record.ready_cycle)
        self.spec.write("rsp", rsp)
        self._set_reg_ready("rsp", record.ready_cycle)
        self.bpu.on_call(return_address, instruction.target_addr, record.pc)
        self.pc = instruction.target_addr

    def _op_ret(self, record, instruction, dispatch):
        rsp = self.spec.read("rsp")
        deps = max(dispatch, self._reg_time("rsp"))
        start = _port_start(self.load_pool, self.model.load_ports, deps)
        start = max(start, self.store_ready.get(rsp, self.start_cycle))
        access = self.mmu.data_access(
            rsp, write=False, user=self.user, now=start, thread_id=self.core.thread_id
        )
        record.start_cycle = start
        record.ready_cycle = start + max(1, access.latency)
        record.is_branch = True
        record.memory_va = rsp
        record.memory_latency = access.latency
        if access.fault is not None:
            self._handle_fault(record, access.fault, access)
            return
        actual_target = access.value
        predicted = self.bpu.predict_return()
        record.actual_target = actual_target
        record.predicted_target = predicted
        self.spec.write("rsp", (rsp + 8) & MASK64)
        self._set_reg_ready("rsp", record.ready_cycle)
        if predicted == actual_target:
            self.pmu.counts["bp_l1_btb_correct"] += 1
            self.pc = actual_target
            return
        record.mispredicted = True
        counts = self.pmu.counts
        counts["BR_MISP_EXEC.ALL_BRANCHES"] += 1
        counts["BR_MISP_EXEC.INDIRECT"] += 1
        self.contexts.append(
            _SpecContext(
                "branch",
                record.seq,
                record.ready_cycle,
                actual_target,
                self._snapshot(),
                "return" if predicted is not None else "underflow",
            )
        )
        if predicted is not None:
            self.pc = predicted  # transient fetch down the stale RSB path
        else:
            # Underflow: nothing to fetch down; stall until the redirect.
            self.pc = record.pc
            self.force_resolve = True

    def _op_xbegin(self, record, instruction, dispatch):
        start = max(dispatch, self.serialize_until)
        record.start_cycle = start
        record.ready_cycle = start + instruction.info.base_latency
        if not self.model.has_tsx:
            raise SimulationError(
                f"{self.model.name} has no TSX; use signal-handler suppression"
            )
        # An open transaction must be abortable, so journaling starts here
        # (an abort rolls back to the mark before this push).
        self._journal_on()
        journal = self.journal
        self.tsx_stack.append(_TsxContext(record.seq, instruction.target_addr, len(journal)))
        journal.append((_TSX_PUSH, None, None))

    def _op_xend(self, record, instruction, dispatch):
        start = max(dispatch, self.serialize_until)
        record.start_cycle = start
        record.ready_cycle = start + instruction.info.base_latency
        if not self.tsx_stack:
            raise SimulationError("xend outside a transaction")
        popped = self.tsx_stack.pop()
        if self.journal_live:
            self.journal.append((_TSX_POP, None, popped))

    # -- fault plumbing -----------------------------------------------------------

    def _handle_fault(self, record: UopRecord, fault: Fault, access) -> None:
        record.fault = fault
        self.faults.append(fault)
        snapshot_pre_fault = self._snapshot()
        forwarded = self._transient_forward(fault, access)
        record.transient_value = forwarded
        instruction = record.instruction
        if (instruction.op is _LOAD or instruction.op is _LOAD_BYTE) and (
            instruction.dst is not None
        ):
            self._write_dest(record, instruction.dst, forwarded)
        if self.contexts:
            # Fault inside an unresolved speculation: it can never retire,
            # so it never raises; the enclosing squash disposes of it.
            return
        if self.tsx_stack:
            suppression = "tsx"
            tsx = self.tsx_stack[-1]
            resume_pc = tsx.fallback_pc
        elif self.core.signal_handler_pc is not None:
            suppression = "signal"
            resume_pc = self.core.signal_handler_pc
            tsx = None
        else:
            raise SimulationError(
                f"unhandled fault {fault.kind.value} at {fault.va:#x} "
                f"(no transaction, no signal handler)"
            )
        fault_cycle = (
            max(record.ready_cycle + 1, self.retire_cursor) + self.model.fault_raise_delay
        )
        self.contexts.append(
            _SpecContext(
                "fault",
                record.seq,
                fault_cycle,
                resume_pc,
                snapshot_pre_fault,
                "",
                suppression,
                fault,
                tsx,
            )
        )

    def _transient_forward(self, fault: Fault, access) -> int:
        """What a vulnerable pipeline forwards to dependents of a faulting
        access: the real data (Meltdown), a stale LFB byte (MDS), or zero
        on fixed silicon."""
        if (
            self.model.meltdown_vulnerable
            and (fault.kind is _PROTECTION or fault.kind is _WRITE_PROTECT)
            and access.paddr is not None
            and access.was_cached
        ):
            value = self.mmu.peek_physical(fault.va)
            return value if value is not None else 0
        if self.model.mds_vulnerable:
            stale = self.mmu.lfb.sample_stale(fault.va & 63)
            if stale is not None:
                return stale
        return 0

    # -- PMU epilogue ----------------------------------------------------------------

    def _pmu_epilogue(self, end_cycle: int) -> None:
        lo = self.start_cycle
        hi = end_cycle
        span = max(1, hi - lo)
        # Clip to [lo, hi] while scanning, then merge each list once.
        # Records are in dispatch order and the frontend clock never runs
        # backwards within a run, so the in-flight intervals arrive sorted
        # by start and merge as they come, and each distinct dispatch
        # cycle is a change from the last.
        exec_intervals = []
        mem_intervals = []
        inflight = 0
        merge_start = merge_end = lo
        dispatch_cycles = 0
        last_dispatch = None
        for record in self.records:
            start = record.start_cycle
            ready = record.ready_cycle
            dispatch = record.dispatch_cycle
            if dispatch != last_dispatch:
                dispatch_cycles += 1
                last_dispatch = dispatch
            if ready > start and ready > lo and start < hi:
                exec_intervals.append(
                    (start if start > lo else lo, ready if ready < hi else hi)
                )
            infl_end = ready if ready > dispatch + 1 else dispatch + 1
            if infl_end > lo and dispatch < hi:
                if infl_end > hi:
                    infl_end = hi
                if dispatch <= merge_end:
                    if infl_end > merge_end:
                        merge_end = infl_end
                else:
                    inflight += merge_end - merge_start
                    merge_start, merge_end = dispatch, infl_end
            if (
                record.memory_va is not None
                and record.instruction.info.is_load
                and ready > lo
                and start < hi
            ):
                mem_intervals.append(
                    (start if start > lo else lo, ready if ready < hi else hi)
                )
        inflight += merge_end - merge_start
        counts = self.pmu.counts
        idle = max(0, span - _merged_length(exec_intervals))
        counts["UOPS_EXECUTED.CORE_CYCLES_NONE"] += idle
        counts["UOPS_EXECUTED.STALL_CYCLES"] += idle
        counts["CYCLE_ACTIVITY.STALLS_TOTAL"] += idle
        counts["CYCLE_ACTIVITY.CYCLES_MEM_ANY"] += _merged_length(mem_intervals)
        counts["RS_EVENTS.EMPTY_CYCLES"] += max(0, span - inflight)
        issue_idle = max(0, span - dispatch_cycles)
        counts["UOPS_ISSUED.STALL_CYCLES"] += issue_idle
        counts["de_dis_uop_queue_empty_di0"] += issue_idle
        counts["ITLB_MISSES.WALK_ACTIVE"] += self.mmu.iside_walk_cycles - self.iside_walk_base


def _port_start(pool: Dict[int, int], ports: int, earliest: int) -> int:
    """Claim the earliest free issue slot among *ports* pipelined ports at
    or after *earliest* (one issue slot per port per cycle).

    *pool* counts the ports busy in each booked cycle.  A count is all
    the choice needs: the earliest cycle some port is free in is the
    earliest cycle fewer than *ports* are busy, whichever port takes it.
    """
    busy = pool.get(earliest, 0)
    while busy >= ports:
        earliest += 1
        busy = pool.get(earliest, 0)
    pool[earliest] = busy + 1
    return earliest


def _merged_length(intervals: List[Tuple[int, int]]) -> int:
    """Total length of the union of already-clipped *intervals*."""
    if not intervals:
        return 0
    intervals.sort()
    iterator = iter(intervals)
    current_start, current_end = next(iterator)
    total = 0
    for start, end in iterator:
        if start <= current_end:
            if end > current_end:
                current_end = end
        else:
            total += current_end - current_start
            current_start, current_end = start, end
    return total + (current_end - current_start)


_OP_HANDLERS: Dict[Op, Callable] = {
    Op.MOV_RI: _RunEngine._op_mov_ri,
    Op.MOV_RR: _RunEngine._op_mov_rr,
    Op.LEA: _RunEngine._op_lea,
    Op.ADD: _RunEngine._op_alu,
    Op.SUB: _RunEngine._op_alu,
    Op.AND: _RunEngine._op_alu,
    Op.OR: _RunEngine._op_alu,
    Op.XOR: _RunEngine._op_alu,
    Op.SHL: _RunEngine._op_alu,
    Op.SHR: _RunEngine._op_alu,
    Op.CMP: _RunEngine._op_alu,
    Op.TEST: _RunEngine._op_alu,
    Op.NOP: _RunEngine._op_nop,
    Op.PREFETCH: _RunEngine._op_prefetch,
    Op.MFENCE: _RunEngine._op_fence,
    Op.LFENCE: _RunEngine._op_fence,
    Op.SFENCE: _RunEngine._op_fence,
    Op.RDTSC: _RunEngine._op_rdtsc,
    Op.RDTSCP: _RunEngine._op_rdtsc,
    Op.SYSCALL: _RunEngine._op_syscall,
    Op.HLT: _RunEngine._op_hlt,
    Op.CLFLUSH: _RunEngine._op_clflush,
    Op.LOAD: _RunEngine._op_load,
    Op.LOAD_BYTE: _RunEngine._op_load,
    Op.STORE: _RunEngine._op_store,
    Op.JMP: _RunEngine._op_jmp,
    Op.JCC: _RunEngine._op_jcc,
    Op.CALL: _RunEngine._op_call,
    Op.RET: _RunEngine._op_ret,
    Op.XBEGIN: _RunEngine._op_xbegin,
    Op.XEND: _RunEngine._op_xend,
}
