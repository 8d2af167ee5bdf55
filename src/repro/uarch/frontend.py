"""The frontend: uop delivery from DSB, MITE or the microcode sequencer.

The paper's Table 3 shows the IDQ picture changing when a transient Jcc
triggers: fewer uops from the DSB, more from MITE, fewer from the MS, and
extra resteer cycles.  Those effects come from this model: a resteer
redirects fetch to a line that has usually fallen out of the DSB, forcing
the slower MITE path, and a blocked frontend delivers fewer microcoded
uops before the flush.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Tuple

from repro.isa.instructions import Instruction
from repro.memory.mmu import Mmu
from repro.uarch.config import CpuModel
from repro.uarch.pmu import PmuCounters

#: Instruction-fetch line size in bytes (matches ICACHE_16B granularity).
FETCH_LINE = 16


class Frontend:
    """Delivers decoded uops to the allocator with cycle accounting."""

    def __init__(self, model: CpuModel, mmu: Mmu, pmu: PmuCounters) -> None:
        self.model = model
        self.mmu = mmu
        self.pmu = pmu
        self._dsb: OrderedDict = OrderedDict()  # line -> True, LRU
        self._clock = 0
        self._slots_used = 0
        self._block_until = 0
        self._last_line = -1
        self._last_source = "dsb"
        # Distinct-cycle sets are too heavy for long runs; we count
        # transitions instead (each new allocation cycle counts once).
        self._counted_cycle = -1
        # Model constants hoisted out of the per-delivery path.
        self._issue_width = model.issue_width
        self._l1i_latency = model.l1i.latency
        self._mite_line_penalty = model.mite_line_penalty
        self._ms_switch_penalty = model.ms_switch_penalty
        self._dsb_lines = model.dsb_lines

    @property
    def delivery_floor(self) -> int:
        """Soonest cycle the next delivery could land (lower bound)."""
        return max(self._clock, self._block_until)

    def reset_clock(self, cycle: int = 0) -> None:
        """Reset delivery timing (new program run)."""
        self._clock = cycle
        self._slots_used = 0
        self._block_until = cycle
        self._last_line = -1
        self._counted_cycle = -1

    def block_until(self, cycle: int, resteer: bool = False) -> None:
        """Stall delivery until *cycle* (redirect, flush, serialisation).

        With ``resteer=True`` the *target* line is treated as a fresh
        fetch (the DSB read pointer was clobbered).  Resteer-cycle PMU
        accounting is done by the core at the resolution site, where the
        resteer penalty is known.
        """
        if cycle > self._block_until:
            self._block_until = cycle
        if resteer:
            self._last_line = -1

    def snapshot(self) -> tuple:
        """The frontend's timing state as a value: the DSB's lines in LRU
        order (least recent first) and the delivery clock."""
        return (
            tuple(self._dsb),
            self._clock,
            self._slots_used,
            self._block_until,
            self._last_line,
            self._last_source,
            self._counted_cycle,
        )

    def restore(self, state: tuple) -> None:
        """Put back a :meth:`snapshot`, which stays reusable."""
        (
            dsb,
            self._clock,
            self._slots_used,
            self._block_until,
            self._last_line,
            self._last_source,
            self._counted_cycle,
        ) = state
        self._dsb = OrderedDict.fromkeys(dsb, True)

    def dsb_contains(self, pc: int) -> bool:
        """Whether the fetch line holding *pc* is in the uop cache."""
        return (pc // FETCH_LINE) in self._dsb

    def prime_dsb(self, pc: int) -> None:
        """Pre-insert *pc*'s line (warmed-up loop assumption in tests)."""
        self._dsb_insert(pc // FETCH_LINE)

    def _dsb_insert(self, line: int) -> None:
        if line in self._dsb:
            self._dsb.move_to_end(line)
            return
        if len(self._dsb) >= self._dsb_lines:
            self._dsb.popitem(last=False)
        self._dsb[line] = True

    def deliver(
        self,
        pc: int,
        instruction: Instruction,
        earliest: int,
        user: bool = True,
        info=None,
        line: int = -1,
    ) -> Tuple[int, str]:
        """Deliver *instruction*'s uops; returns ``(cycle, source)``: the
        allocation cycle and the path that delivered them (``"dsb"``,
        ``"mite"`` or ``"ms"``).  A bare tuple, not a record object: the
        core unpacks one per dispatched instruction.

        *earliest* is the soonest the allocator could accept them (resource
        stalls computed by the core).  Delivery is in program-fetch order,
        so the internal clock only moves forward.

        *info*/*line* accept the pre-resolved decode metadata and fetch
        line from a :class:`~repro.uarch.plan.PlanEntry`; when omitted
        they are derived here (the legacy decode path).
        """
        clock = self._clock
        block = self._block_until
        start = clock if clock > block else block
        if earliest > start:
            start = earliest
        counts = self.pmu.counts
        if info is None:
            info = instruction.info
        if line < 0:
            line = pc // FETCH_LINE
        if line != self._last_line:
            fetch = self.mmu.instruction_fetch(pc, user=user, now=start)
            l1i_latency = self._l1i_latency
            if fetch.latency > l1i_latency:
                fetch_stall = fetch.latency - l1i_latency
                counts["ICACHE_16B.IFDATA_STALL"] += fetch_stall
                start += fetch_stall
            if fetch.tlb_hit:
                counts["bp_l1_tlb_fetch_hit"] += 1
            counts["ic_fw32"] += 1
            dsb = self._dsb
            if line in dsb:
                dsb.move_to_end(line)
                source = "dsb"
            else:
                source = "mite"
                start += self._mite_line_penalty
                self._dsb_insert(line)
            self._last_line = line
            self._last_source = source
        else:
            source = self._last_source

        uop_count = info.uop_count
        if info.microcoded:
            if source != "ms":
                start += self._ms_switch_penalty
            counts["IDQ.MS_UOPS"] += uop_count
            if self._last_source == "dsb":
                counts["IDQ.MS_DSB_CYCLES"] += 1
            else:
                counts["IDQ.MS_MITE_UOPS"] += uop_count
            source = "ms"
        elif source == "dsb":
            counts["IDQ.DSB_UOPS"] += uop_count
        # (plain MITE uop counts are visible through the cycle counters)

        # Width-limited allocation: issue_width uops per cycle.  The
        # one-uop-at-a-time loop reduces to one division: starting at
        # ``slots_used`` slots consumed, placing ``uop_count`` more uops
        # advances the clock by ``(slots_used + uop_count - 1) // width``
        # and leaves ``(slots_used + uop_count - 1) % width + 1`` consumed.
        clock = self._clock
        slots_used = self._slots_used
        if start > clock:
            clock = start
            slots_used = 0
        if uop_count:
            placed = slots_used + uop_count - 1
            width = self._issue_width
            clock += placed // width
            slots_used = placed % width + 1
        self._clock = clock
        self._slots_used = slots_used

        if clock != self._counted_cycle:
            self._counted_cycle = clock
            if source == "dsb":
                counts["IDQ.DSB_CYCLES_ANY"] += 1
                if uop_count >= self._issue_width:
                    counts["IDQ.DSB_CYCLES_OK"] += 1
            elif source == "mite":
                counts["IDQ.ALL_MITE_CYCLES_ANY_UOPS"] += 1

        return clock, source
