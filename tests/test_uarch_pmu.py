"""Unit tests for the PMU counter bank and event catalogue."""

import pytest

from repro.uarch.pmu import (
    AMD,
    EVENTS,
    EVENTS_BY_NAME,
    INTEL,
    PmuCounters,
    events_for_vendor,
)

#: Every event the paper's Table 3 lists must exist in the catalogue.
TABLE3_EVENTS = [
    "BR_MISP_EXEC.INDIRECT",
    "BR_MISP_EXEC.ALL_BRANCHES",
    "RESOURCE_STALLS.ANY",
    "IDQ.DSB_UOPS",
    "IDQ.MS_DSB_CYCLES",
    "IDQ.DSB_CYCLES_OK",
    "IDQ.DSB_CYCLES_ANY",
    "IDQ.MS_MITE_UOPS",
    "IDQ.ALL_MITE_CYCLES_ANY_UOPS",
    "IDQ.MS_UOPS",
    "UOPS_EXECUTED.CORE_CYCLES_NONE",
    "CYCLE_ACTIVITY.STALLS_TOTAL",
    "UOPS_EXECUTED.STALL_CYCLES",
    "CYCLE_ACTIVITY.CYCLES_MEM_ANY",
    "INT_MISC.RECOVERY_CYCLES_ANY",
    "INT_MISC.RECOVERY_CYCLES",
    "INT_MISC.CLEAR_RESTEER_CYCLES",
    "UOPS_ISSUED.ANY",
    "UOPS_ISSUED.STALL_CYCLES",
    "RS_EVENTS.EMPTY_CYCLES",
    "ICACHE_16B.IFDATA_STALL",
    "DTLB_LOAD_MISSES.MISS_CAUSES_A_WALK",
    "DTLB_LOAD_MISSES.WALK_ACTIVE",
    "ITLB_MISSES.WALK_ACTIVE",
    "bp_l1_btb_correct",
    "bp_l1_tlb_fetch_hit",
    "de_dis_uop_queue_empty_di0",
    "de_dis_dispatch_token_stalls2.retire_token_stall",
    "ic_fw32",
]


class TestCatalogue:
    @pytest.mark.parametrize("name", TABLE3_EVENTS)
    def test_table3_event_exists(self, name):
        assert name in EVENTS_BY_NAME

    def test_no_duplicate_names(self):
        names = [event.name for event in EVENTS]
        assert len(names) == len(set(names))

    def test_every_event_has_domain(self):
        for event in EVENTS:
            assert event.domain in ("frontend", "backend", "memory")

    def test_vendor_split(self):
        intel = events_for_vendor(INTEL)
        amd = events_for_vendor(AMD)
        assert all(event.vendor == INTEL for event in intel)
        assert all(event.vendor == AMD for event in amd)
        assert len(intel) + len(amd) == len(EVENTS)

    def test_amd_events_are_lowercase_convention(self):
        for event in events_for_vendor(AMD):
            assert event.name == event.name.lower()


class TestCounters:
    def test_counters_start_zero(self):
        pmu = PmuCounters()
        for event in EVENTS:
            assert pmu.read(event.name) == 0

    def test_add_and_read(self):
        pmu = PmuCounters()
        pmu.add("UOPS_ISSUED.ANY", 5)
        pmu.add("UOPS_ISSUED.ANY")
        assert pmu.read("UOPS_ISSUED.ANY") == 6

    def test_unknown_event_raises(self):
        pmu = PmuCounters()
        with pytest.raises(KeyError):
            pmu.add("MADE_UP.EVENT")
        with pytest.raises(KeyError):
            pmu.read("MADE_UP.EVENT")

    def test_snapshot_delta(self):
        pmu = PmuCounters()
        pmu.add("UOPS_ISSUED.ANY", 3)
        snap = pmu.snapshot()
        pmu.add("UOPS_ISSUED.ANY", 4)
        delta = pmu.delta(snap)
        assert delta["UOPS_ISSUED.ANY"] == 4
        assert delta["IDQ.MS_UOPS"] == 0

    def test_nonzero_view(self):
        pmu = PmuCounters()
        pmu.add("ic_fw32", 7)
        assert pmu.nonzero() == {"ic_fw32": 7}
