"""Lockstep batch trial execution: N machine lanes per interpreter step.

Profiling shows the campaign hot path is per-uop Python dispatch in the
out-of-order core.  Trials within a campaign cell are structurally
identical -- same gadget, same decoded-uop plan, same warm/probe shape --
and differ only in operand values (the ``r9`` test byte of a TET-CC
scan).  This module exploits that: one *leader* runs the pack's schedule
for real on the scalar :class:`~repro.uarch.core.Core`, recording every
run (:func:`record_leader`), and every lane is reconstructed from that
recording by a taint-directed shadow replay instead of a full
simulation.  Lane 0 of a pack is the recorded leader; the pack's trials
ride lanes 1..N.

The shadow holds follower state in structure-of-arrays form: for each
register (and each divergent memory byte) that differs across lanes, a
per-lane value vector.  Everything *not* tainted is known to be equal in
every lane, so the leader's journals, PMU counts, and cycle timeline
stand in for all lanes at zero cost.  Per-record processing applies the
scalar core's exact value semantics (the same ``OpInfo.alu`` functions,
little-endian memory) to the tainted vectors -- plain-int lists,
one entry per lane -- and follows the engine's squash schedule via the
:class:`~repro.uarch.uop.ResolutionEvent` breadcrumbs so rolled-back
transient writes are rolled back in the shadow too.

A lane is *evicted* the moment its execution would stop being
cycle-identical to the leader's: a memory access whose effective address
diverges, a conditional branch whose tainted flags resolve differently,
a tainted value reaching a syscall, or a fault that could forward
lane-divergent data (stale LFB lines survive architectural rollback, so
any fault after memory has ever been tainted evicts).  Evicted lanes are
re-run through the ordinary scalar trial function, which the trial
purity contract (see ``runtime/pool.py``) makes exact.  The scalar
``decode_plan=False`` core therefore remains the bit-identity oracle:
every lane's bytes either *are* the leader's trace or come from the
scalar path directly.

Two further layers extend the engine to KASLR probe sweeps, whose lanes
diverge by *address* rather than by register value:

- **Page-table-aware shadow replay.**  Address-divergent loads are not
  automatic evictions: each pack carries a :class:`TranslationShadow`
  that consumes the leader's :class:`~repro.memory.mmu.TranslationEvent`
  breadcrumbs and proves, per lane, that the lane's own translation --
  TLB state, page-walk step shape, paging-structure-cache keys, walk-line
  cache residency, and terminal PTE disposition -- is *isomorphic* to the
  leader's, so the leader's latencies and fault behaviour transfer
  byte-exactly.  Lanes that cannot be proven isomorphic (the one mapped
  candidate in a KPTI sweep, TLB window overflow, cache-set pressure)
  evict to scalar as usual; identity holds by construction.

- **Cross-pack leader reuse.**  Packs from the same sweep share one
  structural identity (the pack key,
  :func:`~repro.runtime.tasks.warm_key`), so one recorded
  :class:`LeaderTrace` serves every same-structure pack: after the
  first, a pack runs no machine at all.  The recording lives in the
  key's entry of the worker's warm memo (``runtime/tasks.py``), beside
  the post-warm-up state its scalar trials load; the key never holds
  the probed value.  ``REPRO_BATCH_LEADER_CACHE=0`` makes every pack
  record its own leader and store none -- results are byte-identical
  either way.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from operator import methodcaller
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro import telemetry
from repro.isa.opcodes import Op
from repro.isa.registers import GPRS, MASK64
from repro.runtime.tasks import (
    TRIAL_KINDS,
    PackSchedule,
    TrialResult,
    run_trial,
    warm_get,
    warm_key,
    warm_put,
)

#: Sentinel for "the leader's value of this register is not tracked"
#: (only ever true after a syscall handler may have rewritten it).
_UNKNOWN = object()
#: Sentinel distinguishing "key absent" from "stored None" in journals.
_ABSENT = object()


@dataclass
class BatchStats:
    """Mutable counters a caller may pass to observe batching behaviour."""

    packs: int = 0
    packed_trials: int = 0
    scalar_trials: int = 0
    evicted_lanes: int = 0
    #: Eviction counts per reason (the taxonomy in ``_SHADOW`` handlers
    #: plus the translation shadow's); keys are reason strings.
    evictions: Dict[str, int] = field(default_factory=dict)
    #: Cross-pack leader trace cache outcomes (see ``LeaderTrace``).
    leader_cache_hits: int = 0
    leader_cache_misses: int = 0

    def merge_pack(self, batch: "LockstepBatch") -> None:
        """Fold one finished pack's trial lanes (1..N) into the counters."""
        alive = sum(batch.alive[1:])
        evicted = batch.lanes - 1 - alive
        self.packs += 1
        self.packed_trials += alive
        self.evicted_lanes += evicted
        self.scalar_trials += evicted
        for reason in batch.evict_reasons.values():
            self.evictions[reason] = self.evictions.get(reason, 0) + 1


# -- one lockstep run ----------------------------------------------------------


class LeaderRun(NamedTuple):
    """One recorded leader ``machine.run``: its initial registers and its
    result (records, resolution/translation events, final register
    file)."""

    regs: Dict[str, int]
    result: object


class LockstepRun:
    """One leader run viewed through every lane of a batch.

    ``result`` is the leader's :class:`~repro.uarch.core.RunResult`;
    :meth:`lane_reg` reads a register as lane *lane* would have left it.
    Values for evicted lanes are meaningless -- callers must consult the
    batch's ``alive`` list first.
    """

    __slots__ = ("result", "_taint")

    def __init__(self, result, taint: Dict[str, List[int]]) -> None:
        self.result = result
        self._taint = taint

    def lane_reg(self, lane: int, name: str) -> int:
        vector = self._taint.get(name)
        if vector is not None:
            return vector[lane]
        return self.result.regs.read(name)


class LockstepBatch:
    """Step *lanes* virtual machines in lockstep over one recorded leader.

    Lane 0 is the leader: each :meth:`run` is handed one of its recorded
    runs (a :class:`LeaderRun`).  Lanes 1..N-1 exist only as taint
    vectors over that trace; no machine runs here.  Divergent-memory
    taint (``mem_taint``, byte-granular) persists across runs within the
    batch; register/flag taint is reseeded per run from the per-lane
    initial registers, matching the fresh
    :class:`~repro.isa.registers.RegisterFile` each ``run`` gets.
    """

    def __init__(self, lanes: int) -> None:
        if lanes < 1:
            raise ValueError("a batch needs at least the leader lane")
        self.lanes = lanes
        #: Lane liveness; evictions are permanent for the batch's lifetime
        #: (an evicted lane's trial re-runs scalar, never partially).
        self.alive: List[bool] = [True] * lanes
        #: lane -> first eviction reason (debugging / stats).
        self.evict_reasons: Dict[int, str] = {}
        self.live_followers = lanes - 1
        #: Divergent architectural memory: va -> per-lane byte vector.
        self.mem_taint: Dict[int, List[int]] = {}
        #: Monotone: memory held lane-divergent bytes at *some* point.
        #: Deliberately never rolled back -- LFB line snapshots taken while
        #: the divergent bytes were live survive architectural rollback, so
        #: any later fault could MDS-forward lane-divergent data.
        self.mem_ever_tainted = False
        #: Armed for KASLR-style packs: per-lane page-table/TLB models
        #: that prove a follower's *divergent faulting* translation is
        #: cycle-isomorphic to the leader's instead of evicting it.
        self.translation_shadow: Optional["TranslationShadow"] = None
        # Per-run shadow state (reset by run()).
        self._leader: Dict[str, object] = {}
        self._reg_taint: Dict[str, List[int]] = {}
        self._flag_taint: Optional[List[Tuple[bool, bool, bool, bool]]] = None
        self._journal: List[tuple] = []
        self._marks: Dict[int, int] = {}
        #: TranslationEvent correlated with the record being replayed
        #: (None while replaying ops that never consult the MMU).
        self._current_translation = None

    # -- public API -------------------------------------------------------------

    def run(
        self, leader: LeaderRun, lane_regs: Sequence[Dict[str, int]]
    ) -> LockstepRun:
        """Replay *leader* once per lane, in lockstep.

        *lane_regs* gives lanes 1..N-1 their initial registers; lane 0's
        are the leader's own, and taint is computed against them.
        Returns a :class:`LockstepRun`; check ``self.alive`` before
        trusting a follower lane's values.
        """
        if len(lane_regs) != self.lanes - 1:
            raise ValueError(
                f"expected {self.lanes - 1} follower register sets, "
                f"got {len(lane_regs)}"
            )
        lane_regs = [leader.regs, *lane_regs]
        result = leader.result
        self._leader = {name: 0 for name in GPRS}
        for name, value in lane_regs[0].items():
            self._leader[name] = value & MASK64
        self._reg_taint = {}
        names = set()
        for regs in lane_regs:
            names.update(regs)
        for name in sorted(names):
            values = [regs.get(name, 0) & MASK64 for regs in lane_regs]
            if any(value != values[0] for value in values[1:]):
                self._reg_taint[name] = values
        self._flag_taint = None
        # Fast path: with no divergent state anywhere, every lane IS the
        # leader -- the bulk of a channel pack's runs (the warm-ups) skip
        # the replay entirely.
        if self.live_followers and (
            self._reg_taint or self.mem_taint or self.mem_ever_tainted
        ):
            self._replay(result)
        elif self.live_followers and self.translation_shadow is not None:
            # Lane-invariant run (e.g. a KASLR warm probe): no replay is
            # needed, but the per-lane translation models must still see
            # the leader's uniform TLB fills and touched walk lines.
            self.translation_shadow.observe_leader(result)
        if not self.live_followers:
            # Leader-only from here on: any taint state is stale (the
            # replay stops the moment the last follower dies) and lane 0
            # must read the leader's own registers.
            self._reg_taint = {}
            self._flag_taint = None
            self.mem_taint.clear()
        return LockstepRun(
            result, {name: list(vec) for name, vec in self._reg_taint.items()}
        )

    # -- eviction ---------------------------------------------------------------

    def _evict(self, lane: int, reason: str) -> None:
        if self.alive[lane]:
            self.alive[lane] = False
            self.evict_reasons[lane] = reason
            self.live_followers -= 1

    def _evict_followers(self, reason: str) -> None:
        for lane in range(1, self.lanes):
            self._evict(lane, reason)

    def _taint_or_none(self, vector: Sequence) -> Optional[list]:
        """Drop a vector that is degenerate over the live lanes."""
        head = vector[0]
        alive = self.alive
        for lane in range(1, self.lanes):
            if alive[lane] and vector[lane] != head:
                return list(vector)
        return None

    # -- journaled shadow-state mutation ----------------------------------------

    def _jset_reg(self, name: str, leader_value, taint: Optional[list]) -> None:
        self._journal.append(
            ("r", name, self._reg_taint.get(name, _ABSENT), self._leader[name])
        )
        self._leader[name] = leader_value
        if taint is None:
            self._reg_taint.pop(name, None)
        else:
            self._reg_taint[name] = taint

    def _jset_flags(self, taint) -> None:
        self._journal.append(("f", self._flag_taint))
        self._flag_taint = taint

    def _jset_mem(self, va: int, vector: Optional[list]) -> None:
        self._journal.append(("m", va, self.mem_taint.get(va, _ABSENT)))
        if vector is None:
            self.mem_taint.pop(va, None)
        else:
            self.mem_taint[va] = vector
            self.mem_ever_tainted = True

    def _rollback(self, mark: int) -> None:
        journal = self._journal
        while len(journal) > mark:
            entry = journal.pop()
            tag = entry[0]
            if tag == "r":
                _, name, old_taint, old_leader = entry
                self._leader[name] = old_leader
                if old_taint is _ABSENT:
                    self._reg_taint.pop(name, None)
                else:
                    self._reg_taint[name] = old_taint
            elif tag == "f":
                self._flag_taint = entry[1]
            else:
                _, va, old = entry
                if old is _ABSENT:
                    self.mem_taint.pop(va, None)
                else:
                    self.mem_taint[va] = old

    # -- the replay loop --------------------------------------------------------

    def _replay(self, result) -> None:
        """Walk the leader's records, mirroring the engine's squashes.

        Every record is processed (transient ones included -- they wrote
        state the engine later rolled back, and the shadow must do the
        same).  The engine's :class:`ResolutionEvent` breadcrumbs say
        exactly when each rollback happened (``boundary``) and which
        record's entry state it restored (``target_seq``), so the shadow
        journal replays the squash schedule mark-for-mark.
        """
        resolutions = result.events.resolutions
        res_idx = 0
        n_res = len(resolutions)
        self._journal = []
        self._marks = {}
        dispatch = _SHADOW
        tshadow = self.translation_shadow
        translations = result.events.translations if tshadow is not None else ()
        t_idx = 0
        t_n = len(translations)
        for record in result.records:
            seq = record.seq
            while res_idx < n_res and resolutions[res_idx].boundary <= seq:
                self._apply_resolution(resolutions[res_idx])
                res_idx += 1
            if not self.live_followers:
                return
            self._marks[seq] = len(self._journal)
            op = record.instruction.op
            if tshadow is not None:
                # Correlate the MMU's translation timeline with the record
                # stream: each MMU-consulting op consumes exactly one
                # TranslationEvent, in dispatch order.  Any disagreement
                # means the correlation model is wrong for this program --
                # scalar for everyone.
                if op in _TRANSLATION_OPS:
                    if t_idx >= t_n or translations[t_idx].va != record.memory_va:
                        self._evict_followers("shadow-mismatch")
                        return
                    self._current_translation = translations[t_idx]
                    t_idx += 1
                else:
                    self._current_translation = None
            handler = dispatch.get(op)
            if handler is None:
                # Future ISA growth: an op the shadow has no model for
                # falls back to scalar for every follower.
                self._evict_followers("unmodelled-op")
                return
            handler(self, record, record.instruction)
        if tshadow is not None and t_idx != t_n:
            # Leftover MMU events no record claimed: correlation broke.
            self._evict_followers("shadow-mismatch")
            return
        while res_idx < n_res:
            self._apply_resolution(resolutions[res_idx])
            res_idx += 1

    def _apply_resolution(self, resolution) -> None:
        # A target record dispatched at (or after) the rollback boundary
        # has no mark yet; the rollback is then a no-op for the shadow
        # (nothing newer was processed either).
        mark = self._marks.get(resolution.target_seq)
        if mark is not None:
            self._rollback(mark)

    # -- per-op shadow semantics -------------------------------------------------

    def _shadow_nop(self, record, ins) -> None:
        return None

    def _shadow_mov_ri(self, record, ins) -> None:
        self._jset_reg(ins.dst, record.dest_value, None)

    def _shadow_mov_rr(self, record, ins) -> None:
        taint = self._reg_taint.get(ins.src)
        self._jset_reg(
            ins.dst, record.dest_value, list(taint) if taint is not None else None
        )

    def _shadow_lea(self, record, ins) -> None:
        mem = ins.mem
        base_t = self._reg_taint.get(mem.base) if mem.base else None
        index_t = self._reg_taint.get(mem.index) if mem.index else None
        value = record.dest_value
        if base_t is None and index_t is None:
            self._jset_reg(ins.dst, value, None)
            return
        vector = []
        for lane in range(self.lanes):
            delta = 0
            if base_t is not None:
                delta += base_t[lane] - base_t[0]
            if index_t is not None:
                delta += (index_t[lane] - index_t[0]) * mem.scale
            vector.append((value + delta) & MASK64)
        self._jset_reg(ins.dst, value, self._taint_or_none(vector))

    def _shadow_alu(self, record, ins) -> None:
        info = ins.info
        writes = not info.flags_only
        left_t = self._reg_taint.get(ins.dst)
        right_t = self._reg_taint.get(ins.src) if ins.src is not None else None
        if left_t is None and right_t is None:
            # Untainted inputs: every lane computes the leader's result
            # and the leader's flags.
            self._jset_flags(None)
            if writes:
                self._jset_reg(ins.dst, record.dest_value, None)
            return
        if left_t is not None:
            lefts = left_t
        else:
            leader_left = self._leader[ins.dst]
            if leader_left is _UNKNOWN:
                self._evict_followers("alu-on-unknown-leader-value")
                self._jset_flags(None)
                if writes:
                    self._jset_reg(ins.dst, record.dest_value, None)
                return
            lefts = [leader_left] * self.lanes
        if right_t is not None:
            rights = right_t
        elif ins.src is not None:
            leader_right = self._leader[ins.src]
            if leader_right is _UNKNOWN:
                self._evict_followers("alu-on-unknown-leader-value")
                self._jset_flags(None)
                if writes:
                    self._jset_reg(ins.dst, record.dest_value, None)
                return
            rights = [leader_right] * self.lanes
        else:
            rights = [ins.imm & MASK64] * self.lanes
        # The scalar core's own ALU function (``OpInfo.alu``), per lane.
        alu = info.alu
        outcomes = [alu(left, right) for left, right in zip(lefts, rights)]
        if writes and record.dest_value is not None and outcomes[0][0] != record.dest_value:
            # Shadow/engine disagreement on the leader lane can only be a
            # shadow bug; degrade to scalar rather than corrupt a lane.
            self._evict_followers("shadow-mismatch")
            self._jset_flags(None)
            self._jset_reg(ins.dst, record.dest_value, None)
            return
        flags = [
            (result == 0, carry, bool(result >> 63), False) for result, carry in outcomes
        ]
        self._jset_flags(self._taint_or_none(flags))
        if writes:
            results = [result for result, _ in outcomes]
            self._jset_reg(ins.dst, results[0], self._taint_or_none(results))

    def _shadow_jcc(self, record, ins) -> None:
        flags = self._flag_taint
        if flags is None:
            return
        cond_eval = ins.cond_eval
        actual = record.actual_taken
        alive = self.alive
        for lane in range(1, self.lanes):
            if alive[lane] and cond_eval(*flags[lane]) != actual:
                # This lane's branch goes the other way: different fetch
                # path, different timing -- scalar from here on.
                self._evict(lane, "branch-divergence")

    def _address_deltas(self, base, index, scale: int) -> Optional[List[int]]:
        """Per-lane effective-address deltas vs the leader.

        None means the address is lane-uniform (no tainted component, or
        the taint vectors cancel); otherwise a per-lane list of deltas
        (lane 0 is always 0).
        """
        base_t = self._reg_taint.get(base) if base else None
        index_t = self._reg_taint.get(index) if index else None
        if base_t is None and index_t is None:
            return None
        deltas = []
        for lane in range(self.lanes):
            delta = 0
            if base_t is not None:
                delta += base_t[lane] - base_t[0]
            if index_t is not None:
                delta += (index_t[lane] - index_t[0]) * scale
            deltas.append(delta)
        if not any(delta & MASK64 for delta in deltas):
            return None
        return deltas

    def _evict_lanes_with_deltas(self, deltas: Sequence[int], reason: str) -> None:
        alive = self.alive
        for lane in range(1, self.lanes):
            if alive[lane] and (deltas[lane] & MASK64):
                self._evict(lane, reason)

    def _evict_address_mismatch(self, base, index, scale: int) -> None:
        deltas = self._address_deltas(base, index, scale)
        if deltas is not None:
            self._evict_lanes_with_deltas(deltas, "address-divergence")
        self._apply_translation_uniform()

    def _apply_translation_uniform(self) -> None:
        """Feed the current (lane-uniform) MMU event to the lane models.

        After address-divergent lanes are evicted, every surviving lane
        performed the leader's exact translation -- its model follows the
        leader's fills and touched lines verbatim.  No-op for ops without
        an MMU event (e.g. CLFLUSH) or without a shadow armed.
        """
        shadow = self.translation_shadow
        ev = self._current_translation
        if shadow is not None and ev is not None:
            shadow.apply_uniform(ev)

    def _shadow_load(self, record, ins) -> None:
        mem = ins.mem
        shadow = self.translation_shadow
        ev = self._current_translation
        deltas = self._address_deltas(mem.base, mem.index, mem.scale)
        if deltas is None:
            self._apply_translation_uniform()
        elif shadow is not None and ev is not None and record.fault is not None:
            # The KASLR probe shape: a faulting load whose address
            # diverges per lane.  The page-table shadow proves (or
            # refutes) each lane's translation is cycle-isomorphic to
            # the leader's instead of evicting wholesale.
            shadow.process_divergent(self, ev, deltas)
        else:
            self._evict_lanes_with_deltas(deltas, "address-divergence")
            self._apply_translation_uniform()
        if record.fault is not None:
            if self.mem_ever_tainted:
                # The forwarded value may come from a stale LFB line (MDS)
                # or from bytes the lanes disagree on (Meltdown); once
                # memory has ever been divergent, neither is lane-safe.
                self._evict_followers("fault-after-memory-taint")
            if ins.dst is not None:
                self._jset_reg(ins.dst, record.dest_value, None)
            return
        size = 1 if ins.op is Op.LOAD_BYTE else 8
        value = record.dest_value
        overlap = None
        if self.mem_taint:
            va = record.memory_va
            overlap = [self.mem_taint.get(va + i) for i in range(size)]
            if not any(vec is not None for vec in overlap):
                overlap = None
        if overlap is None:
            self._jset_reg(ins.dst, value, None)
            return
        leader_bytes = value.to_bytes(size, "little")
        vector = []
        for lane in range(self.lanes):
            raw = bytearray(leader_bytes)
            for i, vec in enumerate(overlap):
                if vec is not None:
                    raw[i] = vec[lane]
            vector.append(int.from_bytes(raw, "little"))
        self._jset_reg(ins.dst, value, self._taint_or_none(vector))

    def _shadow_store(self, record, ins) -> None:
        mem = ins.mem
        self._evict_address_mismatch(mem.base, mem.index, mem.scale)
        if record.fault is not None:
            return  # the faulting store committed nothing
        va = record.memory_va
        value_t = self._reg_taint.get(ins.src) if ins.src is not None else None
        if value_t is None:
            # All lanes stored the same bytes: strong update, clearing any
            # taint the 8 bytes carried.
            if self.mem_taint:
                for i in range(8):
                    if va + i in self.mem_taint:
                        self._jset_mem(va + i, None)
            return
        for i in range(8):
            shift = 8 * i
            byte_vec = [(value >> shift) & 0xFF for value in value_t]
            self._jset_mem(va + i, self._taint_or_none(byte_vec))

    def _shadow_prefetch(self, record, ins) -> None:
        # Address-only side effects (cache/TLB fills, flushes): timing
        # stays lane-identical iff the address does.
        mem = ins.mem
        self._evict_address_mismatch(mem.base, mem.index, mem.scale)

    def _shadow_call(self, record, ins) -> None:
        # record.memory_va is the decremented rsp the return address went
        # to; lane deltas on rsp translate 1:1.
        self._evict_address_mismatch("rsp", None, 1)
        if record.fault is not None:
            return
        va = record.memory_va
        if self.mem_taint:
            for i in range(8):
                if va + i in self.mem_taint:
                    self._jset_mem(va + i, None)  # return address: lane-invariant
        rsp_t = self._reg_taint.get("rsp")
        taint = (
            [(value - 8) & MASK64 for value in rsp_t] if rsp_t is not None else None
        )
        self._jset_reg("rsp", va, taint)

    def _shadow_ret(self, record, ins) -> None:
        self._evict_address_mismatch("rsp", None, 1)
        if record.fault is not None:
            return
        va = record.memory_va
        target = record.actual_target
        if self.mem_taint:
            overlap = [self.mem_taint.get(va + i) for i in range(8)]
            if any(vec is not None for vec in overlap):
                leader_bytes = target.to_bytes(8, "little")
                alive = self.alive
                for lane in range(1, self.lanes):
                    if not alive[lane]:
                        continue
                    raw = bytearray(leader_bytes)
                    for i, vec in enumerate(overlap):
                        if vec is not None:
                            raw[i] = vec[lane]
                    if int.from_bytes(raw, "little") != target:
                        self._evict(lane, "return-target-divergence")
        rsp_t = self._reg_taint.get("rsp")
        taint = (
            [(value + 8) & MASK64 for value in rsp_t] if rsp_t is not None else None
        )
        self._jset_reg("rsp", (va + 8) & MASK64, taint)

    def _shadow_rdtsc(self, record, ins) -> None:
        # rax gets the (lane-invariant) timestamp; rdx is zeroed directly.
        self._jset_reg("rax", record.dest_value, None)
        self._jset_reg("rdx", 0, None)

    def _shadow_syscall(self, record, ins) -> None:
        if self.translation_shadow is not None:
            # A mid-program CR3 switch invalidates the address space the
            # per-lane walk checks run against; the shadow cannot follow.
            self._evict_followers("translation-divergence")
            return
        if self._reg_taint or self._flag_taint is not None or self.mem_taint:
            # The kernel handler reads/writes the architectural file and
            # memory; tainted inputs make its effects lane-divergent in
            # ways the shadow cannot model.
            self._evict_followers("syscall-with-taint")
            return
        for name in ("rax", "rbx", "rcx", "rdx", "rsi", "rdi"):
            self._jset_reg(name, _UNKNOWN, None)


#: Op -> shadow handler.  Ops absent here (none today) evict followers.
_SHADOW = {
    Op.MOV_RI: LockstepBatch._shadow_mov_ri,
    Op.MOV_RR: LockstepBatch._shadow_mov_rr,
    Op.LOAD: LockstepBatch._shadow_load,
    Op.LOAD_BYTE: LockstepBatch._shadow_load,
    Op.STORE: LockstepBatch._shadow_store,
    Op.LEA: LockstepBatch._shadow_lea,
    Op.ADD: LockstepBatch._shadow_alu,
    Op.SUB: LockstepBatch._shadow_alu,
    Op.AND: LockstepBatch._shadow_alu,
    Op.OR: LockstepBatch._shadow_alu,
    Op.XOR: LockstepBatch._shadow_alu,
    Op.SHL: LockstepBatch._shadow_alu,
    Op.SHR: LockstepBatch._shadow_alu,
    Op.CMP: LockstepBatch._shadow_alu,
    Op.TEST: LockstepBatch._shadow_alu,
    Op.JMP: LockstepBatch._shadow_nop,
    Op.JCC: LockstepBatch._shadow_jcc,
    Op.CALL: LockstepBatch._shadow_call,
    Op.RET: LockstepBatch._shadow_ret,
    Op.NOP: LockstepBatch._shadow_nop,
    Op.PREFETCH: LockstepBatch._shadow_prefetch,
    Op.MFENCE: LockstepBatch._shadow_nop,
    Op.LFENCE: LockstepBatch._shadow_nop,
    Op.SFENCE: LockstepBatch._shadow_nop,
    Op.CLFLUSH: LockstepBatch._shadow_prefetch,
    Op.RDTSC: LockstepBatch._shadow_rdtsc,
    Op.RDTSCP: LockstepBatch._shadow_rdtsc,
    Op.XBEGIN: LockstepBatch._shadow_nop,
    Op.XEND: LockstepBatch._shadow_nop,
    Op.HLT: LockstepBatch._shadow_nop,
    Op.SYSCALL: LockstepBatch._shadow_syscall,
}

#: Ops whose dispatch consults the MMU exactly once, in program order --
#: the correlation contract between ``UopRecord.memory_va`` and the
#: :class:`~repro.memory.mmu.TranslationEvent` log.  CLFLUSH is absent
#: deliberately: it sets ``memory_va`` but resolves the line via the
#: address-space lookup, never ``Mmu.data_access``.
_TRANSLATION_OPS = frozenset(
    {Op.LOAD, Op.LOAD_BYTE, Op.STORE, Op.CALL, Op.RET, Op.PREFETCH}
)


# -- page-table-aware shadow replay (KASLR packs) ------------------------------


class TranslationShadow:
    """Per-lane address-translation models for KASLR-style packs.

    A KASLR probe is a *faulting load at a lane-divergent address* -- the
    one shape the taint replay must otherwise evict.  This shadow keeps,
    per follower lane, the translation state its hypothetical machine
    would hold (a TLB model, the set of page-walk cache lines it has
    touched) and checks each divergent faulting load step-by-step against
    the leader's recorded :class:`~repro.memory.mmu.TranslationEvent`:

    * same walk structure (levels, present/leaf shape),
    * same paging-structure-cache keys at every non-leaf step (which
      makes the lane's PSC state *identical* to the leader's, LRU and
      all, so PSC hits/misses agree by construction),
    * same predicted cache hit level for every entry fetch (touched
      lines hit L1, untouched lines come from DRAM -- valid only while
      nothing is ever evicted, see :meth:`finish`),
    * same terminal PTE disposition (present/permissions/page size, pfn
      excluded), hence the same fault kind and TLB fill-on-fault
      behaviour -- the paper's mapped/unmapped oracle,
    * the same line offset (an MDS-forwarded stale line would otherwise
      supply a lane-divergent byte) and no cached Meltdown forwarding.

    A lane that passes every check has a translation timeline
    cycle-identical to the leader's, so the leader's ToTE/PMU/cycle
    bytes are the lane's.  A lane that fails any check is evicted to the
    scalar path -- byte identity holds by construction either way.
    """

    def __init__(self, mmu, lanes: int) -> None:
        self.mmu = mmu
        self.lanes = lanes
        #: Smallest TLB associativity: more fills than this between
        #: flushes could evict an entry, breaking the no-eviction
        #: assumption behind the per-lane TLB dict model.
        self.tlb_window = min(mmu.dtlb.tlb_4k.ways, mmu.dtlb.tlb_2m.ways)
        #: Page-walk cache lines each lane's hypothetical machine has
        #: touched since reset (leader-shared lines plus its own).
        self.lane_lines: List[set] = [set() for _ in range(lanes)]
        #: Lane-private walk lines (not the leader's) -- cache-pressure
        #: guard input for :meth:`finish`.
        self.lane_extra: List[set] = [set() for _ in range(lanes)]
        #: Per-lane TLB model: (page_size, vpn) -> disposition tuple
        #: (present, writable, user, global, nx, page_size).
        self.lane_tlb: List[dict] = [{} for _ in range(lanes)]
        #: TLB fills since the last flush (all lanes fill in lockstep).
        self.window_fills = 0
        #: Sticky: a guard tripped that invalidates *every* lane's model.
        self.overflow = False

    # -- orchestration notifications (the pack driver's hooks) -----------------

    def on_tlb_flush(self) -> None:
        """The pack driver flushed the TLB (lane-invariant)."""
        for tlb in self.lane_tlb:
            tlb.clear()
        self.window_fills = 0

    def on_cr3_switch(self) -> None:
        """A syscall round-trip happened between runs: non-global TLB
        entries are gone (in every lane, identically)."""
        for tlb in self.lane_tlb:
            stale = [key for key, disp in tlb.items() if not disp[3]]
            for key in stale:
                del tlb[key]

    # -- leader-event ingestion -------------------------------------------------

    def observe_leader(self, result) -> None:
        """Apply a lane-invariant run's whole translation timeline."""
        for ev in result.events.translations:
            self.apply_uniform(ev)

    def apply_uniform(self, ev) -> None:
        """The leader's translation happened identically in every lane."""
        for step in ev.steps:
            if not step[4]:  # not a PSC hit: an entry line was fetched
                line = step[1] >> 6
                for lines in self.lane_lines:
                    lines.add(line)
        if ev.tlb_filled and ev.pte is not None:
            self._count_fill()
            disp = ev.pte[1:]
            psize = int(disp[5])
            key = (psize, ev.va // psize)
            for tlb in self.lane_tlb:
                tlb[key] = disp

    def _count_fill(self) -> None:
        self.window_fills += 1
        if self.window_fills > self.tlb_window:
            self.overflow = True

    # -- the per-lane divergent-load check --------------------------------------

    def process_divergent(self, batch: LockstepBatch, ev, deltas) -> None:
        """Check a divergent faulting load lane by lane, evicting any
        lane whose translation the models cannot prove isomorphic."""
        if ev.tlb_filled:
            self._count_fill()
        alive = batch.alive
        for lane in range(1, batch.lanes):
            if not alive[lane]:
                continue
            lane_va = (ev.va + deltas[lane]) & MASK64
            if self.overflow or not self._check_lane(lane, ev, lane_va):
                batch._evict(lane, "translation-divergence")

    def _tlb_get(self, lane: int, va: int):
        for (psize, vpn), disp in self.lane_tlb[lane].items():
            if va // psize == vpn:
                return disp
        return None

    def _check_lane(self, lane: int, ev, lane_va: int) -> bool:
        if (lane_va & 63) != (ev.va & 63):
            # An MDS-forwarded stale line would supply a different byte.
            return False
        if ev.fault_kind in ("protection", "write_protect") and ev.was_cached:
            # The leader Meltdown-forwarded real cached data; the lane's
            # line holds different bytes.
            return False
        hit = self._tlb_get(lane, lane_va)
        if ev.tlb_hit:
            # Leader hit its TLB: the lane must hold its own page with
            # the identical disposition for the same 1-cycle lookup and
            # the same downstream fault decision.
            return hit is not None and ev.pte is not None and hit == ev.pte[1:]
        if hit is not None:
            return False  # lane would have hit where the leader walked
        steps, pte = self.mmu.space.walk_path(lane_va)
        details = ev.steps
        if len(steps) != len(details):
            return False
        lines = self.lane_lines[lane]
        for step, detail in zip(steps, details):
            dlevel, dpaddr, dpresent, dleaf, dpsc, dhit = detail
            if (
                step.level != dlevel
                or step.present != dpresent
                or step.is_leaf != dleaf
            ):
                return False
            if not step.is_leaf:
                # PSC isomorphism: every lookup/fill the lane's walker
                # performs must use the leader's exact key, or the two
                # PSC states (contents *and* LRU order) drift apart.
                lane_key = (lane_va >> 12) >> (9 * (3 - step.level))
                leader_key = (ev.va >> 12) >> (9 * (3 - dlevel))
                if lane_key != leader_key:
                    return False
            if dpsc:
                continue  # PSC hit: no cache access to model
            line = step.entry_paddr >> 6
            if line in lines:
                predicted = "L1"
            else:
                predicted = "DRAM"
                lines.add(line)
                if line != (dpaddr >> 6):
                    self.lane_extra[lane].add(line)
            if predicted != dhit:
                return False
        if (pte is None) != (ev.pte is None):
            return False
        if pte is not None:
            disp = (
                pte.present,
                pte.writable,
                pte.user,
                pte.global_,
                pte.nx,
                pte.page_size,
            )
            if disp != ev.pte[1:]:
                return False
            if ev.fault_kind in ("protection", "write_protect"):
                # Leader's line was not cached (checked above); the
                # lane's must not be either, or the lane would
                # Meltdown-forward data the leader did not.
                if self.mmu.hierarchy.data_resident(pte.physical_address(lane_va)):
                    return False
            if ev.tlb_filled:
                self.lane_tlb[lane][
                    (int(pte.page_size), lane_va // int(pte.page_size))
                ] = disp
        return True

    # -- end-of-pack validation -------------------------------------------------

    def finish(self, batch: LockstepBatch) -> None:
        """Evict any lane whose private walk lines could have caused a
        cache eviction the leader never saw.

        The hit-level prediction (touched lines hit L1) is only sound
        while the lane's hypothetical machine never evicts a line.  The
        leader's own evictions would surface as observation mismatches,
        but a lane-private line silently displacing a shared one would
        not -- so every lane's full touched-line set must fit its cache
        sets with headroom (the margin covers instruction-side walk
        lines the event log does not carry).
        """
        hierarchy = self.mmu.hierarchy
        levels = (hierarchy.l1d, hierarchy.l2, hierarchy.llc)
        for lane in range(1, batch.lanes):
            if not batch.alive[lane]:
                continue
            if self.overflow:
                batch._evict(lane, "translation-divergence")
                continue
            if not self.lane_extra[lane]:
                continue  # no private lines: the lane IS the leader
            for cache in levels:
                sets: Dict[int, int] = {}
                pressure = False
                set_count = cache.geometry.sets
                ways = cache.geometry.ways
                for line in self.lane_lines[lane]:
                    index = line % set_count
                    count = sets.get(index, 0) + 1
                    sets[index] = count
                    if count + _PRESSURE_MARGIN > ways:
                        pressure = True
                        break
                if pressure:
                    batch._evict(lane, "translation-divergence")
                    break


#: Set-occupancy headroom required by ``TranslationShadow.finish`` --
#: covers the handful of instruction-side walk lines that are touched
#: lane-invariantly but never appear in the d-side event log.
_PRESSURE_MARGIN = 2


# -- the recorded leader ------------------------------------------------------


@dataclass
class LeaderTrace:
    """One pack leader's recorded schedule: every run, then the cycle
    count the schedule ends on.

    Packs are structurally identical within a sweep (same spec, same
    warm/probe schedule; only the probed values differ), so one
    recording is lane 0 of its own pack and of every later pack with
    its :func:`~repro.runtime.tasks.warm_key`.
    """

    runs: List[LeaderRun]
    cycles: int


def leader_cache_enabled() -> bool:
    """Whether packs reuse a recorded leader across packs (env-overridable).

    ``REPRO_BATCH_LEADER_CACHE=0`` makes every pack record its own and
    store none; results are byte-identical either way (reuse only skips
    re-recording an identical leader).
    """
    flag = os.environ.get("REPRO_BATCH_LEADER_CACHE")
    if flag is not None and flag.strip().lower() in ("0", "false", "no", "off"):
        return False
    return True


#: Pre-run hooks of a :class:`~repro.runtime.tasks.PackStep`: what the
#: recording does to its machine, and the lane models' matching
#: notification in the replay.
_HOOKS = {
    "tlb-flush": (methodcaller("flush_tlb"), TranslationShadow.on_tlb_flush),
    "cr3-switch": (methodcaller("syscall_roundtrip"), TranslationShadow.on_cr3_switch),
}


def record_leader(
    lead, schedule: PackSchedule, regs: Dict[str, int]
) -> LeaderTrace:
    """Run *lead*'s pack *schedule* on its machine from the boot state,
    with *regs* in the per-lane steps, recording every run.

    The only place the batch engine drives a machine: every pack replays
    such a recording as its lane 0.
    """
    machine = schedule.machine
    machine.reset_uarch(noise_seed=lead.spec.trial_seed(lead.trial_index))
    if schedule.setup is not None:
        schedule.setup()
    runs = []
    for step in schedule.steps:
        if step.hook is not None:
            _HOOKS[step.hook][0](machine)
        step_regs = regs if step.lane else schedule.shared
        result = machine.run(
            schedule.program, regs=dict(step_regs), record_trace=True
        )
        runs.append(LeaderRun(step_regs, result))
    return LeaderTrace(runs, machine.core.global_cycle)


# -- one pack driver -----------------------------------------------------------


def pack_eligible(trial) -> bool:
    """Whether *trial* may ride a lockstep pack: its kind has a pack
    schedule and admits it, and its ambient noise is zero -- the
    per-trial noise seed is inert at amplitude 0, which is what lets one
    leader reset stand in for every lane's."""
    kind = TRIAL_KINDS.get(type(trial))
    return (
        kind is not None
        and kind.schedule is not None
        and trial.spec.noise_amplitude == 0
        and (kind.eligible is None or kind.eligible(trial))
    )


def plan_packs(payloads: Sequence, batch_size: int) -> List[list]:
    """Split *payloads* into order-preserving executable groups.

    Consecutive pack-eligible trials sharing a pack key (the scalar
    path's :func:`~repro.runtime.tasks.warm_key`) form groups of up to
    *batch_size* lanes; everything else becomes a scalar singleton.
    Grouping depends only on the payload sequence and *batch_size*, so
    serial and pooled runs form identical packs (the determinism
    contract's requirement).
    """
    groups: List[list] = []
    i = 0
    n = len(payloads)
    while i < n:
        trial = payloads[i]
        if pack_eligible(trial) and batch_size > 1:
            key = warm_key(trial)
            j = i + 1
            while (
                j < n
                and j - i < batch_size
                and pack_eligible(payloads[j])
                and warm_key(payloads[j]) == key
            ):
                j += 1
            groups.append(list(payloads[i:j]))
            i = j
        else:
            groups.append([trial])
            i += 1
    return groups


def run_pack(trials: Sequence, stats: Optional[BatchStats] = None) -> List:
    """Run a pack of structurally identical trials in lockstep.

    The one pack driver: the kind's
    :class:`~repro.runtime.tasks.PackSchedule` says what to run, and
    this owns the rest.  Lane 0 replays a recorded leader -- the warm
    memo's for this pack key, or else ``trials[0]``'s, recorded now --
    and the trials ride lanes 1..N, each the same trial with a different
    probed value, reconstructed from the leader's trace.  Lanes the
    shadow evicts (a channel test byte whose Jcc really does go the
    other way, a mapped KASLR candidate) re-run through the ordinary
    scalar path, so every returned
    :class:`~repro.runtime.tasks.TrialResult` is byte-identical to a
    scalar run of its payload.
    """
    lead = trials[0]
    kind = TRIAL_KINDS[type(lead)]
    schedule = kind.schedule(lead)
    lane_set = [
        {**schedule.shared, kind.register: getattr(trial, kind.probe)}
        for trial in trials
    ]
    # The pack key names the pack's *structure* (the kind and its other
    # fields), never the leader's own probed value -- which is exactly
    # why one recorded leader serves every same-structure pack.
    key = warm_key(lead)
    cache = leader_cache_enabled()
    leader = warm_get(key).leader if cache else None
    hit = leader is not None
    if not hit:
        leader = record_leader(lead, schedule, lane_set[0])
        if cache:
            warm_put(key, leader=leader)
    batch = LockstepBatch(len(trials) + 1)
    # Per-lane translation models follow the schedule's flushes and CR3
    # switches; a schedule without pre-hooks (the channel's) has nothing
    # for them to follow, and its address-divergent lanes simply evict.
    shadow = None
    if any(step.hook for step in schedule.steps):
        shadow = batch.translation_shadow = TranslationShadow(
            schedule.machine.mmu, batch.lanes
        )
    shared_set = [schedule.shared] * len(trials)
    totes: List[List[int]] = [[] for _ in trials]
    for step, recorded in zip(schedule.steps, leader.runs):
        if step.hook is not None:
            _HOOKS[step.hook][1](shadow)
        run = batch.run(recorded, lane_set if step.lane else shared_set)
        if step.timed:
            for lane, samples in enumerate(totes, start=1):
                if batch.alive[lane]:
                    samples.append(
                        run.lane_reg(lane, "r15") - run.lane_reg(lane, "r14")
                    )
    if shadow is not None:
        shadow.finish(batch)
    if stats is not None:
        if cache:
            stats.leader_cache_hits += hit
            stats.leader_cache_misses += not hit
        stats.merge_pack(batch)
    # The leader ran exactly one trial's worth of runs on one continuing
    # cycle timeline, so its cycle count is every live lane's.  Evicted
    # lanes re-run scalar on the same cached context: purity makes that
    # exactly the result a scalar-only campaign computes.
    return [
        TrialResult(totes=tuple(samples), cycles=leader.cycles)
        if alive
        else run_trial(trial)
        for trial, samples, alive in zip(trials, totes, batch.alive[1:])
    ]


def run_trial_group(group: Sequence) -> List:
    """Execute one ``plan_packs`` group (module-level: pool-picklable)."""
    if len(group) > 1:
        if not telemetry.enabled():
            return run_pack(group)
        stats = BatchStats()
        with telemetry.span(
            "batch.pack", batch_size=len(group), kind=type(group[0]).__name__
        ) as span:
            results = run_pack(group, stats)
            span.set(
                evicted=stats.evicted_lanes,
                leader_cache_hits=stats.leader_cache_hits,
                leader_cache_misses=stats.leader_cache_misses,
                **{
                    f"evicted_{reason.replace('-', '_')}": count
                    for reason, count in sorted(stats.evictions.items())
                },
            )
        # Counters beside the span attrs: spans answer "which pack",
        # counters feed the live plane (spool heartbeats, the progress
        # line, ``repro obs top``) without a trace walk.
        telemetry.add("batch.packs", 1)
        telemetry.add("batch.lanes.packed", len(group))
        if stats.evicted_lanes:
            telemetry.add("batch.lanes.evicted", stats.evicted_lanes)
            for reason, evicted in sorted(stats.evictions.items()):
                telemetry.add(f"batch.evicted.{reason}", evicted)
        if stats.leader_cache_hits:
            telemetry.add("batch.leader_cache.hits", stats.leader_cache_hits)
        if stats.leader_cache_misses:
            telemetry.add(
                "batch.leader_cache.misses", stats.leader_cache_misses
            )
        return results
    return [run_trial(group[0])]


def run_trials_batched(
    payloads: Sequence, batch_size: int, stats: Optional[BatchStats] = None
) -> List:
    """Run *payloads* in order, packing eligible neighbours up to
    *batch_size* lanes; returns results positionally like ``map``."""
    results: List = []
    for group in plan_packs(list(payloads), batch_size):
        if len(group) > 1:
            results.extend(run_pack(group, stats))
        else:
            if stats is not None:
                stats.scalar_trials += 1
            results.append(run_trial(group[0]))
    return results
