"""Set-associative cache hierarchy with ``clflush`` support.

Caches track line *presence and recency* (hit/miss timing, flush, evict);
data values always come from :class:`~repro.memory.physical.PhysicalMemory`
so coherence bugs are impossible by construction.  That is all the paper's
experiments need: Flush+Reload (the baseline covert channel) and the
transient-window-length effects both depend only on hit/miss latency.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

LINE_SHIFT = 6
LINE_SIZE = 1 << LINE_SHIFT


@dataclass(frozen=True)
class CacheGeometry:
    """Size/shape/latency of one cache level."""

    name: str
    size_bytes: int
    ways: int
    latency: int

    @property
    def sets(self) -> int:
        return max(1, self.size_bytes // (LINE_SIZE * self.ways))


class Cache:
    """One set-associative, LRU cache level (presence only)."""

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self._sets: Dict[int, OrderedDict] = {}
        self.hits = 0
        self.misses = 0
        # Geometry constants and the (immutable) hit outcome, hoisted off
        # the per-access path.
        self._set_count = geometry.sets
        self._way_count = geometry.ways
        self.hit_outcome = MemoryAccessOutcome(geometry.latency, geometry.name)

    def _set_for(self, paddr: int) -> Tuple[int, int]:
        line = paddr >> LINE_SHIFT
        return line % self._set_count, line

    def probe(self, paddr: int) -> bool:
        """Whether the line holding *paddr* is present (no state change)."""
        line = paddr >> LINE_SHIFT
        return line in self._sets.get(line % self._set_count, ())

    def access(self, paddr: int) -> bool:
        """Look up *paddr*: on a hit refresh its LRU position, on a miss
        insert it (evicting the set's LRU line).  Returns hit/miss."""
        line = paddr >> LINE_SHIFT
        index = line % self._set_count
        ways = self._sets.get(index)
        if ways is None:
            ways = self._sets[index] = OrderedDict()
        elif line in ways:
            ways.move_to_end(line)
            self.hits += 1
            return True
        elif len(ways) >= self._way_count:
            ways.popitem(last=False)
        ways[line] = True
        self.misses += 1
        return False

    def fill(self, paddr: int) -> Optional[int]:
        """Insert the line holding *paddr*; return evicted line or None."""
        line = paddr >> LINE_SHIFT
        index = line % self._set_count
        ways = self._sets.get(index)
        if ways is None:
            ways = self._sets[index] = OrderedDict()
        elif line in ways:
            ways.move_to_end(line)
            return None
        evicted = None
        if len(ways) >= self._way_count:
            evicted, _ = ways.popitem(last=False)
        ways[line] = True
        return evicted

    def flush_line(self, paddr: int) -> bool:
        """Remove the line holding *paddr*; return whether it was present."""
        line = paddr >> LINE_SHIFT
        ways = self._sets.get(line % self._set_count)
        if ways is not None and line in ways:
            del ways[line]
            return True
        return False

    def flush_all(self) -> None:
        """Empty the cache."""
        self._sets.clear()

    def evict_set_of(self, paddr: int) -> None:
        """Empty the set that *paddr* maps to (Prime+Probe-style eviction)."""
        set_index, _ = self._set_for(paddr)
        self._sets.pop(set_index, None)

    @property
    def resident_lines(self) -> int:
        return sum(len(ways) for ways in self._sets.values())

    def snapshot(self) -> tuple:
        """This level's timing state as a value: each set's lines in LRU
        order (least recent first), then the hit and miss counts."""
        return (
            tuple((index, tuple(ways)) for index, ways in self._sets.items()),
            self.hits,
            self.misses,
        )

    def restore(self, state: tuple) -> None:
        """Put back a :meth:`snapshot`, which stays reusable."""
        sets, self.hits, self.misses = state
        self._sets = {index: OrderedDict.fromkeys(lines, True) for index, lines in sets}


@dataclass(frozen=True)
class MemoryAccessOutcome:
    """Result of a hierarchy access: latency and the level that hit."""

    latency: int
    hit_level: str  # "L1", "L2", "LLC" or "DRAM"


class CacheHierarchy:
    """L1D + L1I + unified L2 + LLC with inclusive fills.

    ``data_access``/``inst_access`` return the latency of the access and
    fill all levels on the way in.  ``clflush`` removes a line everywhere,
    exactly what the paper's gadgets use to lengthen transient windows.
    """

    def __init__(
        self,
        l1d: CacheGeometry,
        l1i: CacheGeometry,
        l2: CacheGeometry,
        llc: CacheGeometry,
        dram_latency: int = 200,
    ) -> None:
        self.l1d = Cache(l1d)
        self.l1i = Cache(l1i)
        self.l2 = Cache(l2)
        self.llc = Cache(llc)
        self.dram_latency = dram_latency
        #: Total clflush operations (the cache-attack detector's feature).
        self.clflush_count = 0
        # Outcomes are immutable and fully determined by the hit level, so
        # one instance per level serves every access.
        self._l2_outcome = MemoryAccessOutcome(l2.latency, "L2")
        self._llc_outcome = MemoryAccessOutcome(llc.latency, "LLC")
        self._dram_outcome = MemoryAccessOutcome(dram_latency, "DRAM")

    def _access(self, first_level: Cache, paddr: int) -> MemoryAccessOutcome:
        # Every level that misses takes the line (inclusive fills); the
        # levels are independent, so each one's lookup and fill are one
        # Cache.access.
        if first_level.access(paddr):
            return first_level.hit_outcome
        if self.l2.access(paddr):
            return self._l2_outcome
        if self.llc.access(paddr):
            return self._llc_outcome
        return self._dram_outcome

    def data_access(self, paddr: int) -> MemoryAccessOutcome:
        """Access *paddr* through the data side (L1D -> L2 -> LLC -> DRAM)."""
        return self._access(self.l1d, paddr)

    def inst_access(self, paddr: int) -> MemoryAccessOutcome:
        """Access *paddr* through the instruction side."""
        return self._access(self.l1i, paddr)

    def clflush(self, paddr: int) -> None:
        """Flush the line holding *paddr* from every level."""
        self.clflush_count += 1
        self.l1d.flush_line(paddr)
        self.l1i.flush_line(paddr)
        self.l2.flush_line(paddr)
        self.llc.flush_line(paddr)

    def flush_all(self) -> None:
        """Empty the entire hierarchy (cold-cache experiment setup)."""
        for cache in (self.l1d, self.l1i, self.l2, self.llc):
            cache.flush_all()

    def snapshot(self) -> tuple:
        """Every level's :meth:`Cache.snapshot`, then the clflush count."""
        return (
            self.l1d.snapshot(),
            self.l1i.snapshot(),
            self.l2.snapshot(),
            self.llc.snapshot(),
            self.clflush_count,
        )

    def restore(self, state: tuple) -> None:
        """Put back a :meth:`snapshot`."""
        l1d, l1i, l2, llc, self.clflush_count = state
        self.l1d.restore(l1d)
        self.l1i.restore(l1i)
        self.l2.restore(l2)
        self.llc.restore(llc)

    def data_resident(self, paddr: int) -> bool:
        """Whether *paddr*'s line is in L1D (Flush+Reload's question)."""
        return self.l1d.probe(paddr) or self.l2.probe(paddr) or self.llc.probe(paddr)
