"""Four-level x86-64 page tables with 4 KiB and 2 MiB pages.

The table tree is an explicit radix structure; every table node also gets a
synthetic *physical* address so the hardware page walker can fetch entries
through the cache hierarchy, which is where "unmapped addresses make the
walk longer" (the paper's RQ3 answer) comes from mechanistically.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, NamedTuple, Optional, Tuple

VA_BITS = 48
CANONICAL_MASK = (1 << VA_BITS) - 1

#: Radix levels, leaf-first names follow the x86 convention.
LEVEL_NAMES = ("PML4", "PDPT", "PD", "PT")
LEVEL_SHIFTS = (39, 30, 21, 12)

#: Physical region where synthetic page-table frames live (above 4 GiB so
#: they never collide with mapped data frames in our experiments).
TABLE_FRAME_BASE = 0x1_0000_0000


class PageSize(enum.IntEnum):
    """Supported translation granularities."""

    SIZE_4K = 1 << 12
    SIZE_2M = 1 << 21


@dataclass
class Pte:
    """A leaf page-table entry (what the TLB caches).

    ``global_`` entries survive address-space switches (kernel pages and
    the KPTI trampoline); ``user`` distinguishes supervisor-only mappings
    whose *presence* TET-KASLR detects.
    """

    pfn: int
    present: bool = True
    writable: bool = True
    user: bool = False
    global_: bool = False
    nx: bool = False
    page_size: PageSize = PageSize.SIZE_4K
    #: Free-form tag, e.g. "kernel-text", "flare-dummy"; used by tests.
    tag: str = ""

    def physical_address(self, va: int) -> int:
        """Translate *va* through this entry."""
        # IntEnum arithmetic yields plain ints; no coercion needed here.
        return (self.pfn << 12) + (va & (self.page_size - 1))


@dataclass
class _TableNode:
    """One table page in the radix tree."""

    level: int
    table_paddr: int
    entries: Dict[int, object] = field(default_factory=dict)  # index -> _TableNode | Pte


class WalkStep(NamedTuple):
    """One level touched during a hardware walk (a NamedTuple: about four
    are built per walk)."""

    level: int
    level_name: str
    entry_paddr: int
    present: bool
    is_leaf: bool


class AddressSpace:
    """A 4-level page-table tree plus the software operations the kernel
    substrate uses to build address spaces (map, unmap, protect, fork-lite).

    *frames* numbers the space's table frames.  A kernel hands one counter
    to every space it builds (clones share their source's), so a
    machine's page-table addresses depend on nothing built before it.
    """

    def __init__(self, name: str = "", frames: Optional[Iterator[int]] = None) -> None:
        self.name = name
        self._frames = itertools.count() if frames is None else frames
        self.root = self._new_node(0)
        #: The walk down to each page table reached so far, by the 2 MiB
        #: region the table maps: ``(PML4, PDPT and PD steps, table)``.
        #: A walk in the region reads its last entry from the table, so
        #: the leaf's presence is always read live; every table write
        #: (:meth:`map_page`, :meth:`unmap`) clears it.  It holds one
        #: entry per page table, so the tree bounds its size.
        self._tables: Dict[int, tuple] = {}

    def _new_node(self, level: int) -> _TableNode:
        paddr = TABLE_FRAME_BASE + next(self._frames) * int(PageSize.SIZE_4K)
        return _TableNode(level=level, table_paddr=paddr)

    @staticmethod
    def _index(va: int, level: int) -> int:
        return (va >> LEVEL_SHIFTS[level]) & 0x1FF

    @staticmethod
    def _leaf_level(size: PageSize) -> int:
        return 3 if size == PageSize.SIZE_4K else 2

    def map_page(
        self,
        va: int,
        paddr: int,
        size: PageSize = PageSize.SIZE_4K,
        writable: bool = True,
        user: bool = False,
        global_: bool = False,
        nx: bool = False,
        tag: str = "",
    ) -> Pte:
        """Map virtual page containing *va* to physical *paddr*.

        *va* and *paddr* are truncated to the page boundary of *size*.
        Intermediate table nodes are created on demand.  Returns the leaf
        :class:`Pte`.
        """
        va &= CANONICAL_MASK
        page_mask = int(size) - 1
        if va & page_mask:
            va &= ~page_mask
        self._tables.clear()
        leaf_level = self._leaf_level(size)
        node = self.root
        for level in range(leaf_level):
            index = self._index(va, level)
            child = node.entries.get(index)
            if not isinstance(child, _TableNode):
                child = self._new_node(level + 1)
                node.entries[index] = child
            node = child
        pte = Pte(
            pfn=(paddr & ~page_mask) >> 12,
            writable=writable,
            user=user,
            global_=global_,
            nx=nx,
            page_size=size,
            tag=tag,
        )
        node.entries[self._index(va, leaf_level)] = pte
        return pte

    def unmap(self, va: int) -> bool:
        """Remove the mapping covering *va*; return whether one existed."""
        va &= CANONICAL_MASK
        self._tables.clear()
        node = self.root
        for level in range(4):
            index = self._index(va, level)
            child = node.entries.get(index)
            if child is None:
                return False
            if isinstance(child, Pte):
                del node.entries[index]
                return True
            node = child
        return False

    def lookup(self, va: int) -> Optional[Pte]:
        """Software walk: return the leaf PTE covering *va*, or ``None``."""
        va &= CANONICAL_MASK
        reached = self._tables.get(va >> 21)
        if reached is None:
            return self.walk_path(va)[1]
        leaf = reached[1].entries.get((va >> 12) & 0x1FF)
        return leaf if leaf is not None and leaf.present else None

    def walk_path(self, va: int) -> Tuple[Tuple[WalkStep, ...], Optional[Pte]]:
        """Describe the hardware walk for *va*.

        Returns the ordered :class:`WalkStep` tuple the walker performs
        and the leaf PTE (``None`` for a not-present termination).  A walk
        for an unmapped address still touches every level down to the one
        where it terminates -- on a populated kernel range that is usually
        the full depth, which is why unmapped probes are slow.
        """
        va &= CANONICAL_MASK
        reached = self._tables.get(va >> 21)
        if reached is None:
            steps, table, leaf = self._walk_to_table(va)
            if table is None:
                return steps, (leaf if leaf is not None and leaf.present else None)
        else:
            steps, table = reached
        index = (va >> 12) & 0x1FF
        leaf = table.entries.get(index)
        present = leaf is not None and leaf.present
        step = WalkStep(3, LEVEL_NAMES[3], table.table_paddr + index * 8, present, True)
        return steps + (step,), (leaf if present else None)

    def _walk_to_table(self, va: int) -> tuple:
        """Walk canonical *va* from the root down to its page table, or to
        an earlier end: ``(steps, table, None)`` with the table's steps
        memoized, or ``(steps, None, leaf)`` for a walk that ends above
        the PT level at a 2 MiB leaf or a hole (``leaf`` None)."""
        steps = []
        node = self.root
        for level in range(3):
            index = self._index(va, level)
            entry_paddr = node.table_paddr + index * 8
            child = node.entries.get(index)
            if not isinstance(child, _TableNode):
                present = child is not None and child.present
                steps.append(WalkStep(level, LEVEL_NAMES[level], entry_paddr, present, True))
                return tuple(steps), None, child
            steps.append(WalkStep(level, LEVEL_NAMES[level], entry_paddr, True, False))
            node = child
        upper = tuple(steps)
        self._tables[va >> 21] = upper, node
        return upper, node, None

    def mapped_ranges_count(self) -> int:
        """Total number of leaf PTEs (for tests)."""

        def count(node: _TableNode) -> int:
            total = 0
            for child in node.entries.values():
                if isinstance(child, Pte):
                    total += 1
                else:
                    total += count(child)
            return total

        return count(self.root)

    def clone_shared(self, name: str = "") -> "AddressSpace":
        """Return a new address space sharing no structure (deep copy of
        the mapping set).  Used to derive KPTI user-side tables."""
        clone = AddressSpace(name or f"{self.name}-clone", self._frames)

        def copy(node: _TableNode, target: _TableNode) -> None:
            for index, child in node.entries.items():
                if isinstance(child, Pte):
                    target.entries[index] = Pte(
                        pfn=child.pfn,
                        present=child.present,
                        writable=child.writable,
                        user=child.user,
                        global_=child.global_,
                        nx=child.nx,
                        page_size=child.page_size,
                        tag=child.tag,
                    )
                else:
                    new_child = self._new_node(child.level)
                    target.entries[index] = new_child
                    copy(child, new_child)

        copy(self.root, clone.root)
        return clone
