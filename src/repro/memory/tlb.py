"""Set-associative translation lookaside buffers.

The heart of TET-KASLR: on the vulnerable Intel parts the paper tests,
*faulting* accesses to mapped supervisor pages still allocate a TLB entry
("Intel's CPUs will trigger the loading of TLB entries for mapped
addresses, even for illegal access without permission", §4.5).  Unmapped
addresses can never be cached, so repeated probes keep paying full page
walks.  The :class:`Tlb` here supports exactly that asymmetry, plus the
flush/evict operations the attacker uses between probes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, NamedTuple, Optional

from repro.memory.paging import PageSize, Pte

#: Bound once: ``PageSize.SIZE_4K`` read from its class goes through
#: ``EnumType.__getattr__`` on every TLB fill.
_SIZE_4K = PageSize.SIZE_4K


class TlbEntry(NamedTuple):
    """A cached translation (a NamedTuple: one is built per TLB fill)."""

    vpn: int
    pte: Pte
    page_size: PageSize


class Tlb:
    """One set-associative TLB array for a single page size."""

    def __init__(self, name: str, entries: int, ways: int, page_size: PageSize) -> None:
        self.name = name
        self.page_size = page_size
        self.ways = ways
        self.sets = max(1, entries // ways)
        self._sets: Dict[int, OrderedDict] = {}
        self.hits = 0
        self.misses = 0
        #: Page size in bytes, pre-converted (enum coercion off the hot path).
        self._page_bytes = int(page_size)

    def _vpn(self, va: int) -> int:
        return va // self._page_bytes

    def _set_index(self, vpn: int) -> int:
        return vpn % self.sets

    def lookup(self, va: int) -> Optional[TlbEntry]:
        """Return the entry translating *va*, refreshing LRU, or ``None``."""
        vpn = va // self._page_bytes
        ways = self._sets.get(vpn % self.sets)
        if ways is not None and vpn in ways:
            ways.move_to_end(vpn)
            self.hits += 1
            return ways[vpn]
        self.misses += 1
        return None

    def fill(self, va: int, pte: Pte) -> None:
        """Install the translation for *va* (evicting LRU if needed)."""
        vpn = va // self._page_bytes
        index = vpn % self.sets
        ways = self._sets.get(index)
        if ways is None:
            ways = self._sets[index] = OrderedDict()
        elif vpn in ways:
            ways.move_to_end(vpn)
        elif len(ways) >= self.ways:
            ways.popitem(last=False)
        ways[vpn] = TlbEntry(vpn, pte, self.page_size)

    def invalidate(self, va: int) -> bool:
        """Drop the entry covering *va* (``invlpg``); return if present."""
        vpn = self._vpn(va)
        ways = self._sets.get(self._set_index(vpn))
        if ways is not None and vpn in ways:
            del ways[vpn]
            return True
        return False

    def flush(self, keep_global: bool = False) -> None:
        """Flush the TLB; optionally keep global entries (CR3 reload)."""
        if not keep_global:
            self._sets.clear()
            return
        for set_index in list(self._sets):
            ways = self._sets[set_index]
            survivors = OrderedDict(
                (vpn, entry) for vpn, entry in ways.items() if entry.pte.global_
            )
            if survivors:
                self._sets[set_index] = survivors
            else:
                del self._sets[set_index]

    @property
    def resident_entries(self) -> int:
        return sum(len(ways) for ways in self._sets.values())

    def snapshot(self) -> tuple:
        """This array's timing state as a value: each set's entries in LRU
        order (least recent first), then the hit and miss counts."""
        return (
            tuple((index, tuple(ways.items())) for index, ways in self._sets.items()),
            self.hits,
            self.misses,
        )

    def restore(self, state: tuple) -> None:
        """Put back a :meth:`snapshot`, which stays reusable."""
        sets, self.hits, self.misses = state
        self._sets = {index: OrderedDict(entries) for index, entries in sets}


class SplitTlb:
    """A 4 KiB array plus a 2 MiB array, as on real Intel D-side TLBs."""

    def __init__(
        self,
        name: str,
        entries_4k: int = 64,
        ways_4k: int = 4,
        entries_2m: int = 32,
        ways_2m: int = 4,
    ) -> None:
        self.name = name
        self.tlb_4k = Tlb(f"{name}-4K", entries_4k, ways_4k, PageSize.SIZE_4K)
        self.tlb_2m = Tlb(f"{name}-2M", entries_2m, ways_2m, PageSize.SIZE_2M)

    def _array_for(self, size: PageSize) -> Tlb:
        return self.tlb_4k if size == _SIZE_4K else self.tlb_2m

    def lookup(self, va: int) -> Optional[TlbEntry]:
        """Probe both arrays (2 MiB first, as the bigger pages win)."""
        entry = self.tlb_2m.lookup(va)
        if entry is not None:
            return entry
        return self.tlb_4k.lookup(va)

    def fill(self, va: int, pte: Pte) -> None:
        """Install *pte* into the array matching its page size."""
        self._array_for(pte.page_size).fill(va, pte)

    def invalidate(self, va: int) -> None:
        """Drop any entry covering *va* from both arrays."""
        self.tlb_2m.invalidate(va)
        self.tlb_4k.invalidate(va)

    def flush(self, keep_global: bool = False) -> None:
        """Flush both arrays."""
        self.tlb_2m.flush(keep_global=keep_global)
        self.tlb_4k.flush(keep_global=keep_global)

    def snapshot(self) -> tuple:
        """Both arrays' :meth:`Tlb.snapshot`."""
        return self.tlb_4k.snapshot(), self.tlb_2m.snapshot()

    def restore(self, state: tuple) -> None:
        """Put back a :meth:`snapshot`."""
        self.tlb_4k.restore(state[0])
        self.tlb_2m.restore(state[1])

    @property
    def hits(self) -> int:
        return self.tlb_2m.hits + self.tlb_4k.hits

    @property
    def misses(self) -> int:
        # A miss in the split TLB shows as a miss in both arrays; count the
        # 4K array only so one logical lookup is one logical miss.
        return self.tlb_4k.misses

    @property
    def resident_entries(self) -> int:
        return self.tlb_2m.resident_entries + self.tlb_4k.resident_entries
