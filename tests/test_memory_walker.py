"""Unit tests for the hardware page walker."""

from repro.memory.paging import AddressSpace, PageSize
from repro.memory.walker import PageWalker
from tests.conftest import small_hierarchy

KERNEL_VA = 0xFFFF_FFFF_8100_0000


def make_walker():
    hierarchy = small_hierarchy()
    space = AddressSpace("w")
    space.map_page(0x5000, 0x9000, user=True)
    space.map_page(KERNEL_VA, 0x4000_0000, size=PageSize.SIZE_2M)
    return PageWalker(hierarchy), space


class TestWalks:
    def test_mapped_walk_returns_pte(self):
        walker, space = make_walker()
        result = walker.walk(space, 0x5000)
        assert result.present
        assert result.levels_touched == 4

    def test_huge_page_walk_is_shallower(self):
        walker, space = make_walker()
        result = walker.walk(space, KERNEL_VA)
        assert result.present
        assert result.levels_touched == 3

    def test_unmapped_walk_not_present(self):
        walker, space = make_walker()
        result = walker.walk(space, 0xDEAD_0000_0000)
        assert not result.present

    def test_second_walk_is_cheaper_via_psc_and_caches(self):
        walker, space = make_walker()
        first = walker.walk(space, 0x5000, now=0)
        second = walker.walk(space, 0x5000, now=10_000)
        assert second.latency < first.latency
        assert second.psc_hits > 0

    def test_psc_flush_restores_cost(self):
        walker, space = make_walker()
        walker.walk(space, 0x5000)
        cheap = walker.walk(space, 0x5000).latency
        walker.flush_psc()
        walker.hierarchy.flush_all()
        expensive = walker.walk(space, 0x5000).latency
        assert expensive > cheap

    def test_walk_counters(self):
        walker, space = make_walker()
        walker.walk(space, 0x5000)
        walker.walk(space, KERNEL_VA)
        assert walker.walks == 2
        assert walker.walk_cycles > 0


class TestQueueing:
    def test_back_to_back_walks_queue(self):
        walker, space = make_walker()
        first = walker.walk(space, 0x5000, now=0)
        # A request arriving while the first walk is in flight waits.
        second = walker.walk(space, KERNEL_VA, now=0)
        assert second.queue_delay > 0
        assert second.queue_delay >= first.latency - 1

    def test_request_after_idle_has_no_delay(self):
        walker, space = make_walker()
        first = walker.walk(space, 0x5000, now=0)
        second = walker.walk(space, KERNEL_VA, now=first.latency + 100)
        assert second.queue_delay == 0

    def test_busy_until_advances(self):
        walker, space = make_walker()
        walker.walk(space, 0x5000, now=50)
        assert walker.busy_until > 50


class TestNotPresentCost:
    def test_default_no_extra_cost_for_not_present(self):
        walker, space = make_walker()
        # Same termination level, same table entries -> equal latency.
        space.map_page(KERNEL_VA + 0x20_0000, 0x4100_0000, size=PageSize.SIZE_2M)
        walker.walk(space, KERNEL_VA, now=0)  # warm shared upper levels
        mapped = walker.walk(space, KERNEL_VA + 0x20_0000, now=10_000)
        unmapped = walker.walk(space, KERNEL_VA + 0x40_0000, now=20_000)
        assert mapped.levels_touched == unmapped.levels_touched
        assert abs(mapped.latency - unmapped.latency) <= walker.hierarchy.l1d.geometry.latency

    def test_configurable_not_present_cost(self):
        hierarchy = small_hierarchy()
        walker = PageWalker(hierarchy, not_present_cost=25)
        space = AddressSpace("c")
        result = walker.walk(space, 0x1000)
        assert not result.present
        assert result.latency >= 25


class TestPagingStructureCache:
    def test_psc_hit_refreshes_lru_order(self):
        """A PSC hit moves its entry to the most-recent end: after walks of
        A, B, A (different 2 MiB regions, shared upper levels) A's PD
        entry is the newest key, so B's is the next to be evicted."""
        walker = PageWalker(small_hierarchy())
        space = AddressSpace("lru")
        a, b = 0x5000, 0x20_5000
        space.map_page(a, 0x9000, user=True)
        space.map_page(b, 0xA000, user=True)
        for va in (a, b, a):
            walker.walk(space, va)
        keys = walker.snapshot()[0]
        assert keys[-1] == (2, a >> 21)
        assert keys[-2] == (1, a >> 30)
        assert (2, b >> 21) in keys
