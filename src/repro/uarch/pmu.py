"""Performance-monitoring counters.

Every event named in the paper's Table 3 is implemented; the pipeline and
memory subsystem increment them as a side effect of simulation, and the
PMU toolset (:mod:`repro.pmutools`) reads them exactly the way the paper's
toolset reads MSRs.  Events carry a vendor so the toolset only collects
what a given CPU model exposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

INTEL = "intel"
AMD = "amd"


@dataclass(frozen=True)
class PmuEvent:
    """One countable event."""

    name: str
    vendor: str
    description: str
    #: Event domain, used by the toolset's offline stage to group findings
    #: into frontend / backend / memory, mirroring §5.2's RQ1-RQ3 split.
    domain: str


#: The full event catalogue.  Table 3's rows all appear here; a few extra
#: events are included so the toolset's differential filter has something
#: to discard (the paper stresses most of the hundreds of events are
#: irrelevant and must be filtered out).
EVENTS: List[PmuEvent] = [
    # -- frontend (RQ1) ----------------------------------------------------
    PmuEvent("BR_MISP_EXEC.INDIRECT", INTEL, "mispredicted indirect branches executed", "frontend"),
    PmuEvent("BR_MISP_EXEC.ALL_BRANCHES", INTEL, "mispredicted branches executed", "frontend"),
    PmuEvent("IDQ.DSB_UOPS", INTEL, "uops delivered from the DSB (uop cache)", "frontend"),
    PmuEvent("IDQ.MS_DSB_CYCLES", INTEL, "cycles MS delivering while DSB active", "frontend"),
    PmuEvent("IDQ.DSB_CYCLES_OK", INTEL, "cycles DSB delivered full width", "frontend"),
    PmuEvent("IDQ.DSB_CYCLES_ANY", INTEL, "cycles DSB delivered any uops", "frontend"),
    PmuEvent("IDQ.MS_MITE_UOPS", INTEL, "uops from MITE while MS busy", "frontend"),
    PmuEvent("IDQ.ALL_MITE_CYCLES_ANY_UOPS", INTEL, "cycles MITE delivered any uops", "frontend"),
    PmuEvent("IDQ.MS_UOPS", INTEL, "uops delivered by the microcode sequencer", "frontend"),
    PmuEvent("ICACHE_16B.IFDATA_STALL", INTEL, "cycles stalled on L1I fetch data", "frontend"),
    PmuEvent("INT_MISC.CLEAR_RESTEER_CYCLES", INTEL, "cycles frontend resteers after clears", "frontend"),
    # -- backend / pipeline (RQ2) ------------------------------------------
    PmuEvent("RESOURCE_STALLS.ANY", INTEL, "allocation stalls on backend resources", "backend"),
    PmuEvent("CYCLE_ACTIVITY.STALLS_TOTAL", INTEL, "total execution stall cycles", "backend"),
    PmuEvent("UOPS_EXECUTED.STALL_CYCLES", INTEL, "cycles with no uop executed", "backend"),
    PmuEvent("UOPS_EXECUTED.CORE_CYCLES_NONE", INTEL, "core cycles with no uop executed", "backend"),
    PmuEvent("INT_MISC.RECOVERY_CYCLES", INTEL, "cycles allocator stalled for recovery", "backend"),
    PmuEvent("INT_MISC.RECOVERY_CYCLES_ANY", INTEL, "recovery cycles, any thread", "backend"),
    PmuEvent("UOPS_ISSUED.ANY", INTEL, "uops issued by the allocator", "backend"),
    PmuEvent("UOPS_ISSUED.STALL_CYCLES", INTEL, "cycles the allocator issued nothing", "backend"),
    PmuEvent("RS_EVENTS.EMPTY_CYCLES", INTEL, "cycles the reservation station was empty", "backend"),
    PmuEvent("UOPS_RETIRED.RETIRE_SLOTS", INTEL, "retirement slots used", "backend"),
    PmuEvent("MACHINE_CLEARS.COUNT", INTEL, "machine clears (any cause)", "backend"),
    # -- memory subsystem (RQ3) --------------------------------------------
    PmuEvent("CYCLE_ACTIVITY.CYCLES_MEM_ANY", INTEL, "cycles with in-flight memory uops", "memory"),
    PmuEvent("DTLB_LOAD_MISSES.MISS_CAUSES_A_WALK", INTEL, "DTLB load misses starting a walk", "memory"),
    PmuEvent("DTLB_LOAD_MISSES.WALK_ACTIVE", INTEL, "cycles a D-side page walk was active", "memory"),
    PmuEvent("ITLB_MISSES.WALK_ACTIVE", INTEL, "cycles an I-side page walk was active", "memory"),
    PmuEvent("MEM_LOAD_RETIRED.L1_MISS", INTEL, "retired loads that missed L1D", "memory"),
    PmuEvent("LONGEST_LAT_CACHE.MISS", INTEL, "LLC misses", "memory"),
    # -- AMD Zen 3 equivalents (Table 3's Ryzen rows) -----------------------
    PmuEvent("bp_l1_btb_correct", AMD, "L1 BTB corrections / correct predicts", "frontend"),
    PmuEvent("bp_l1_tlb_fetch_hit", AMD, "instruction fetches hitting the L1 ITLB", "frontend"),
    PmuEvent("de_dis_uop_queue_empty_di0", AMD, "cycles the dispatch uop queue was empty", "frontend"),
    PmuEvent(
        "de_dis_dispatch_token_stalls2.retire_token_stall",
        AMD,
        "dispatch stalls waiting on retire tokens",
        "backend",
    ),
    PmuEvent("ic_fw32", AMD, "32-byte instruction fetch windows", "frontend"),
]

EVENTS_BY_NAME: Dict[str, PmuEvent] = {event.name: event for event in EVENTS}


def events_for_vendor(vendor: str) -> List[PmuEvent]:
    """Events a CPU of *vendor* exposes (the toolset's preparation stage)."""
    return [event for event in EVENTS if event.vendor == vendor]


class PmuCounters:
    """A bank of counters, one per catalogue event.

    Supports the read/snapshot/restore/delta operations the PMU toolset's
    online collection stage needs.  Unknown event names raise so typos in
    the pipeline's instrumentation fail loudly.
    """

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {event.name: 0 for event in EVENTS}
        #: Fast-path alias for pipeline-internal incrementers: hot sites
        #: (the frontend and the core's dispatch loop) bump
        #: ``counts[name] += n`` directly, skipping a method call per
        #: event.  Same dict, same unknown-name behaviour (KeyError).
        self.counts = self._counts

    def add(self, name: str, amount: int = 1) -> None:
        """Increment *name* by *amount*."""
        try:
            self._counts[name] += amount
        except KeyError:
            raise KeyError(f"unknown PMU event {name!r}") from None

    def read(self, name: str) -> int:
        """Current value of *name*."""
        return self._counts[name]

    def snapshot(self) -> Dict[str, int]:
        """Copy of all current values."""
        return dict(self._counts)

    def restore(self, snapshot: Dict[str, int]) -> None:
        """Overwrite every counter with a prior :meth:`snapshot`.

        Lets a caller run throwaway work (warm-up trials) without the
        counters remembering it: snapshot, run, restore.  A snapshot
        holds every event, so one dict update puts the whole bank back.
        """
        self._counts.update(snapshot)

    def delta(self, baseline: Dict[str, int]) -> Dict[str, int]:
        """Per-event difference against a prior :meth:`snapshot`."""
        return {name: value - baseline.get(name, 0) for name, value in self._counts.items()}

    def nonzero(self) -> Dict[str, int]:
        """All events with a nonzero count (for quick inspection)."""
        return {name: value for name, value in self._counts.items() if value}
