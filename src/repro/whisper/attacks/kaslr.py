"""TET-KASLR (§4.5): breaking KASLR with the mapped-address ToTE oracle.

The primitive: flush the TLB, probe a candidate kernel address with a
faulting load twice, and time the second probe.  On the vulnerable Intel
parts, a *mapped* candidate's first faulting probe still loads a TLB
entry, so the second probe skips the page walk and the ToTE is short; an
*unmapped* candidate walks every time and stays slow (Table 3's
``DTLB_LOAD_MISSES.WALK_ACTIVE`` row).  On parts that check permissions
before filling the TLB (AMD Zen 3), both probes walk and the oracle is
blind -- Table 2's ✗.

Three scan strategies, matching the paper's three scenarios:

* plain KASLR: probe the 512 slot bases; the kernel image is the run of
  fast slots, its first slot the KASLR base;
* KPTI: probe ``slot + 0xe00000`` -- the single fast candidate is the
  KPTI trampoline remnant (the paper finds it "within 1s");
* KPTI+FLARE: every candidate is mapped (dummy pages), so insert a
  syscall round-trip between the TLB-filling probe and the timed probe.
  The trampoline's *global* entry survives the CR3 switches, the dummy
  entries do not -- the timed probe stays fast only at the real
  trampoline.  (The global/non-global asymmetry is our modelling of the
  paper's claim that TET's TLB behaviour defeats FLARE; see DESIGN.md.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.kernel.layout import KASLR_SLOTS, KASLR_UNMAPPED_REFERENCE, slot_base
from repro.runtime.tasks import (
    KASLR_SCANS,
    kaslr_eviction,
    kaslr_schedule,
    kaslr_strategy,
    run_steps,
    timed_totes,
)
from repro.whisper.analysis import kaslr_decision
from repro.whisper.gadgets import GadgetBuilder, Suppression


@dataclass
class KaslrBreakResult:
    """Outcome of one KASLR break attempt."""

    found_base: Optional[int]
    true_base: int
    strategy: str
    probes: int
    cycles: int
    seconds: float
    threshold: float
    totes_by_slot: Dict[int, int] = field(default_factory=dict)
    mapped_slots: List[int] = field(default_factory=list)

    @property
    def success(self) -> bool:
        return self.found_base == self.true_base

    def __str__(self) -> str:
        status = "BROKEN" if self.success else "failed"
        found = f"{self.found_base:#x}" if self.found_base is not None else "none"
        return (
            f"KASLR {status} via {self.strategy}: found {found} "
            f"(true {self.true_base:#x}) in {self.seconds:.6f} s simulated "
            f"({self.probes} probes)"
        )


class TetKaslr:
    """The TET-KASLR attack bound to one machine.

    ``eviction="direct"`` uses the harness's one-call TLB flush (cheap,
    the default); ``eviction="sets"`` evicts the TLBs the way a real
    unprivileged attacker must -- by walking an eviction working set --
    and pays its full simulated cost, which is where the paper's 0.88 s
    break time mostly goes.
    """

    def __init__(
        self,
        machine,
        suppression: Optional[Suppression] = None,
        eviction: str = "direct",
        pool=None,
    ) -> None:
        kaslr_eviction(eviction)
        self.machine = machine
        self.eviction = eviction
        self.builder = GadgetBuilder(machine, suppression=suppression)
        self.program = self.builder.kaslr_probe()
        self.pool = pool
        self._trial_counter = 0
        self._spec = None

    # -- the probe primitive ------------------------------------------------------

    def probe_tote(self, va: int, cr3_switch: bool = False) -> int:
        """The timed double-probe of one candidate address: a KASLR
        trial's two lane steps (``runtime.tasks.kaslr_schedule``).

        Returns the ToTE of the second (timed) probe.  ``cr3_switch``
        inserts the syscall round-trip of the FLARE bypass between the
        fill probe and the timed probe.
        """
        probe = kaslr_schedule(self.machine, self.program, self.eviction, cr3_switch)
        runs = run_steps(probe, {**probe.shared, "r13": va})
        return timed_totes(probe.steps, runs)[0]

    def detect_mapped(self, va: int, reference_unmapped: Optional[int] = None) -> bool:
        """The boolean oracle: is *va* mapped?

        Compares the candidate's double-probe ToTE against a known
        unmapped reference address (default: the slot just below the
        KASLR range, which no kernel maps)."""
        if reference_unmapped is None:
            reference_unmapped = KASLR_UNMAPPED_REFERENCE
        candidate = self.probe_tote(va)
        reference = self.probe_tote(reference_unmapped)
        return candidate + 4 < reference

    # -- full breaks ---------------------------------------------------------------

    def break_kaslr(self) -> KaslrBreakResult:
        """Scan the 512 slot bases (no KPTI): first fast slot = base."""
        return self._scan("slot-scan")

    def break_kaslr_kpti(self) -> KaslrBreakResult:
        """Scan the 512 candidate trampolines (KPTI enabled)."""
        return self._scan("kpti-trampoline")

    def break_kaslr_flare(self) -> KaslrBreakResult:
        """Scan candidate trampolines under FLARE (CR3-switch variant)."""
        return self._scan("flare-bypass")

    def break_auto(self) -> KaslrBreakResult:
        """Pick the right strategy for the machine's defenses."""
        return self._scan(kaslr_strategy(self.machine.kernel))

    def _scan(self, strategy: str) -> KaslrBreakResult:
        offset, cr3_switch = KASLR_SCANS[strategy]
        start_cycle = self.machine.core.global_cycle
        if self.pool is not None:
            totes = self._sweep_pooled(offset, cr3_switch)
        else:
            # Warm the gadget's code paths so slot 0 is not an outlier.
            for _ in range(3):
                self.probe_tote(KASLR_UNMAPPED_REFERENCE, cr3_switch=cr3_switch)
            totes = {}
            for slot in range(KASLR_SLOTS):
                va = slot_base(slot) + offset
                totes[slot] = self.probe_tote(va, cr3_switch=cr3_switch)
        threshold, mapped, found = kaslr_decision(totes)
        cycles = self.machine.core.global_cycle - start_cycle
        return KaslrBreakResult(
            found_base=found,
            true_base=self.machine.kernel.layout.base,
            strategy=strategy,
            probes=2 * KASLR_SLOTS,
            cycles=cycles,
            seconds=self.machine.seconds(cycles),
            threshold=threshold,
            totes_by_slot=totes,
            mapped_slots=mapped,
        )

    def _sweep_pooled(self, offset: int, cr3_switch: bool) -> Dict[int, int]:
        """Fan the 512-slot sweep across the trial pool, one slot per trial.

        Each trial warms its worker machine with a probe of a known
        unmapped reference before the timed double-probe, so the first
        trial on a fresh worker behaves like the thousandth.  Summed
        per-trial cycles are charged to this machine's timeline.  A
        machine built with ``seed=None`` raises ``ValueError``: workers
        could not rebuild its KASLR layout (:meth:`MachineSpec.of`).
        """
        from repro.runtime.spec import MachineSpec
        from repro.runtime.tasks import kaslr_trials, run_kaslr_trial

        if self._spec is None:
            self._spec = MachineSpec.of(self.machine)
        pairs, self._trial_counter = kaslr_trials(
            self._spec,
            offset,
            cr3_switch,
            eviction=self.eviction,
            suppression=self.builder.suppression.value,
            start_index=self._trial_counter,
        )
        trials = [trial for _, trial in pairs]
        outcomes = self.pool.map(run_kaslr_trial, trials)
        self.machine.core.global_cycle += sum(o.cycles for o in outcomes)
        return {slot: outcome.totes[0] for slot, outcome in enumerate(outcomes)}
