"""Unit and property tests for the cache hierarchy."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache import Cache, CacheGeometry, CacheHierarchy, LINE_SIZE
from tests.conftest import small_hierarchy


class TestCacheLevel:
    def make(self, size=1024, ways=2):
        return Cache(CacheGeometry("T", size, ways, 4))

    def test_miss_then_hit(self):
        cache = self.make()
        assert cache.access(0x1000) is False  # a miss fills the line
        assert cache.access(0x1000) is True

    def test_same_line_different_bytes_hit(self):
        cache = self.make()
        cache.fill(0x1000)
        assert cache.probe(0x1000 + LINE_SIZE - 1)

    def test_flush_line(self):
        cache = self.make()
        cache.fill(0x1000)
        assert cache.flush_line(0x1000) is True
        assert cache.probe(0x1000) is False
        assert cache.flush_line(0x1000) is False

    def test_lru_eviction(self):
        cache = self.make(size=2 * LINE_SIZE * 8, ways=2)  # 8 sets, 2 ways
        sets = cache.geometry.sets
        base = 0x0
        conflict = sets * LINE_SIZE
        conflict2 = 2 * sets * LINE_SIZE
        cache.fill(base)
        cache.fill(conflict)
        cache.access(base)  # a hit refreshes LRU: base is now MRU
        evicted = cache.fill(conflict2)
        assert evicted is not None
        assert cache.probe(base)  # survived
        assert not cache.probe(conflict)  # evicted

    def test_capacity_never_exceeded(self):
        cache = self.make(size=4 * LINE_SIZE, ways=2)
        for index in range(64):
            cache.fill(index * LINE_SIZE)
        assert cache.resident_lines <= cache.geometry.sets * cache.geometry.ways

    def test_evict_set_of(self):
        cache = self.make()
        cache.fill(0x40)
        cache.evict_set_of(0x40)
        assert not cache.probe(0x40)

    def test_hit_miss_counters(self):
        cache = self.make()
        cache.access(0)
        cache.access(0)
        cache.fill(0)  # an insert is not a lookup
        assert cache.misses == 1 and cache.hits == 1


class TestHierarchy:
    def test_first_access_is_dram(self):
        hierarchy = small_hierarchy()
        outcome = hierarchy.data_access(0x1000)
        assert outcome.hit_level == "DRAM"
        assert outcome.latency == hierarchy.dram_latency

    def test_second_access_hits_l1(self):
        hierarchy = small_hierarchy()
        hierarchy.data_access(0x1000)
        outcome = hierarchy.data_access(0x1000)
        assert outcome.hit_level == "L1"
        assert outcome.latency == hierarchy.l1d.geometry.latency

    def test_clflush_evicts_everywhere(self):
        hierarchy = small_hierarchy()
        hierarchy.data_access(0x1000)
        hierarchy.clflush(0x1000)
        assert hierarchy.data_access(0x1000).hit_level == "DRAM"

    def test_clflush_counted(self):
        hierarchy = small_hierarchy()
        before = hierarchy.clflush_count
        hierarchy.clflush(0x1000)
        assert hierarchy.clflush_count == before + 1

    def test_inclusive_fill_after_l1_eviction_hits_l2(self):
        hierarchy = small_hierarchy()
        hierarchy.data_access(0x1000)
        # Conflict-evict 0x1000 from tiny L1 but not from L2.
        sets = hierarchy.l1d.geometry.sets
        for way in range(hierarchy.l1d.geometry.ways + 1):
            hierarchy.data_access(0x1000 + (way + 1) * sets * LINE_SIZE)
        outcome = hierarchy.data_access(0x1000)
        assert outcome.hit_level in ("L2", "LLC")

    def test_inst_and_data_sides_are_split_at_l1(self):
        hierarchy = small_hierarchy()
        hierarchy.inst_access(0x2000)
        # Data side sees L2 (filled inclusively), not L1D.
        outcome = hierarchy.data_access(0x2000)
        assert outcome.hit_level == "L2"

    def test_flush_all(self):
        hierarchy = small_hierarchy()
        hierarchy.data_access(0x3000)
        hierarchy.flush_all()
        assert hierarchy.data_access(0x3000).hit_level == "DRAM"

    def test_data_resident(self):
        hierarchy = small_hierarchy()
        assert not hierarchy.data_resident(0x4000)
        hierarchy.data_access(0x4000)
        assert hierarchy.data_resident(0x4000)

    def test_latencies_are_monotone_up_the_hierarchy(self):
        hierarchy = small_hierarchy()
        latencies = [
            hierarchy.l1d.geometry.latency,
            hierarchy.l2.geometry.latency,
            hierarchy.llc.geometry.latency,
            hierarchy.dram_latency,
        ]
        assert latencies == sorted(latencies)
        assert len(set(latencies)) == len(latencies)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 2**20), min_size=1, max_size=200))
def test_hierarchy_latency_always_valid(addresses):
    hierarchy = small_hierarchy()
    valid = {
        hierarchy.l1d.geometry.latency,
        hierarchy.l2.geometry.latency,
        hierarchy.llc.geometry.latency,
        hierarchy.dram_latency,
    }
    for addr in addresses:
        assert hierarchy.data_access(addr).latency in valid


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 2**16), min_size=1, max_size=100), st.integers(0, 2**16))
def test_repeat_access_never_slower(addresses, target):
    hierarchy = small_hierarchy()
    first = hierarchy.data_access(target).latency
    for addr in addresses:
        hierarchy.data_access(addr)
    hierarchy.data_access(target)
    second = hierarchy.data_access(target).latency
    assert second <= hierarchy.dram_latency
    assert first >= second or first == hierarchy.dram_latency
