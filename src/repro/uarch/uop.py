"""In-flight uop records and the pipeline events the tracer collects."""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.isa.instructions import Instruction
from repro.memory.mmu import Fault, TranslationEvent

__all__ = [
    "UopRecord",
    "RedirectEvent",
    "FlushEvent",
    "ResolutionEvent",
    "TranslationEvent",  # re-export: emitted by the MMU, consumed here
    "RunEvents",
]


class UopRecord:
    """One dispatched instruction (its uops are accounted as a group).

    Timestamps are simulator cycles: ``dispatch_cycle`` is allocation into
    the backend, ``start_cycle`` is issue to a port, ``ready_cycle`` is
    completion, ``retire_cycle`` is commitment (``None`` for uops that were
    squashed and never retired -- the transient ones).

    A hand-written ``__slots__`` class rather than a dataclass: one record
    is allocated per simulated instruction, so per-instance ``__dict__``
    churn was a measurable slice of campaign profiles.  ``uop_count`` is a
    plain attribute (the decode plan supplies it pre-resolved; the default
    falls back to the opcode table).
    """

    __slots__ = (
        "seq",
        "pc",
        "instruction",
        "dispatch_cycle",
        "source",
        "uop_count",
        "start_cycle",
        "ready_cycle",
        "retire_cycle",
        "transient",
        "squashed",
        "fault",
        "transient_value",
        "is_branch",
        "predicted_taken",
        "predicted_target",
        "actual_taken",
        "actual_target",
        "mispredicted",
        "memory_va",
        "memory_latency",
        "cache_hit_level",
        "dest_value",
    )

    def __init__(
        self,
        seq: int,
        pc: int,
        instruction: Instruction,
        dispatch_cycle: int,
        source: str = "dsb",  # frontend delivery path: dsb | mite | ms
        transient: bool = False,  # dispatched under an unresolved speculation
        uop_count: Optional[int] = None,
    ) -> None:
        self.seq = seq
        self.pc = pc
        self.instruction = instruction
        self.dispatch_cycle = dispatch_cycle
        self.source = source
        self.uop_count = instruction.uop_count if uop_count is None else uop_count
        self.start_cycle = 0
        self.ready_cycle = 0
        self.retire_cycle: Optional[int] = None
        self.transient = transient
        self.squashed = False
        self.fault: Optional[Fault] = None
        #: the value a vulnerable pipeline forwarded despite the fault
        self.transient_value: Optional[int] = None
        # Branch bookkeeping
        self.is_branch = False
        self.predicted_taken: Optional[bool] = None
        self.predicted_target: Optional[int] = None
        self.actual_taken: Optional[bool] = None
        self.actual_target: Optional[int] = None
        self.mispredicted = False
        # Memory bookkeeping
        self.memory_va: Optional[int] = None
        self.memory_latency = 0
        self.cache_hit_level = ""
        #: The value the destination register received (set by
        #: ``_write_dest``); ``None`` for ops without a journaled dest
        #: write.  The batch executor's shadow replay reads it.
        self.dest_value: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"UopRecord(seq={self.seq}, pc={self.pc:#x}, "
            f"{self.instruction}, dispatch={self.dispatch_cycle})"
        )


# The events are NamedTuples: the core builds one per squash, and a
# frozen dataclass ``__init__`` (one ``object.__setattr__`` per field)
# costs 2-4x as much.  They are immutable, and no caller compares one
# with a plain tuple.


class RedirectEvent(NamedTuple):
    """A branch-mispredict redirect (possibly nested in a transient window)."""

    branch_seq: int
    branch_pc: int
    resolve_cycle: int
    redirect_cycle: int
    recovery_end: int
    wrong_path_uops: int
    nested_in_transient: bool
    kind: str  # "conditional" | "return" | "underflow"


class FlushEvent(NamedTuple):
    """A retired-fault pipeline flush (the transient window's end)."""

    fault_seq: int
    fault_pc: int
    fault_kind: str
    fault_cycle: int
    flush_start: int
    flush_end: int
    drained_uops: int
    nested_clears: int
    suppression: str  # "tsx" | "signal"
    resume_pc: int


class ResolutionEvent(NamedTuple):
    """One squash applied to the record stream, in resolution order.

    ``boundary`` is ``len(records)`` at the moment the rollback ran:
    every record with ``seq < boundary`` had already executed, and the
    records from ``boundary`` on saw post-rollback state.  ``target_seq``
    names the architectural state the rollback restored: the mark taken
    at the *start* of that record's shadow processing (a mispredicted
    branch keeps its trigger's own writes, so its target is
    ``trigger_seq + 1``; a signal-suppressed fault drops them,
    ``trigger_seq``; a TSX abort unwinds to its ``xbegin``).  The batch
    executor replays these between records to keep its per-lane shadow
    state aligned with the engine's undo journal.
    """

    kind: str  # "branch" | "tsx" | "signal"
    trigger_seq: int
    boundary: int
    target_seq: int


class RunEvents:
    """All pipeline events of one run, for Figures 3 and 4 (slotted: one
    is built per run)."""

    __slots__ = ("redirects", "flushes", "resolutions", "translations")

    def __init__(self) -> None:
        self.redirects: list = []
        self.flushes: list = []
        #: Chronological squash breadcrumbs (:class:`ResolutionEvent`) --
        #: the rollback schedule the batch executor's shadow replay follows.
        self.resolutions: list = []
        #: Chronological MMU breadcrumbs (:class:`TranslationEvent`) -- the
        #: translation timeline the batch executor's page-table shadow
        #: verifies follower lanes against.  Populated only under
        #: ``record_trace`` (the MMU log is armed by ``Core.run``).
        self.translations: list = []
