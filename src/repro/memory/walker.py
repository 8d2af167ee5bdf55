"""The hardware page walker.

A walk fetches one entry per level through the *data cache hierarchy* and
keeps paging-structure caches (PSCs) for the non-leaf levels.  Two
properties matter for the paper:

* A walk for an **unmapped** address cannot be short-circuited by the TLB,
  so every probe repeats the multi-level traversal --
  ``DTLB_LOAD_MISSES.WALK_ACTIVE`` grows (Table 3).
* The walker is a single shared resource; a concurrent request (e.g. an
  instruction-side translation after the TLB flush) queues behind an
  in-flight walk, which is how ``ITLB_MISSES.WALK_ACTIVE`` becomes nonzero
  only in the unmapped case.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.memory.cache import CacheHierarchy
from repro.memory.paging import AddressSpace, Pte, WalkStep


@dataclass
class WalkResult:
    """Outcome of one hardware page walk."""

    pte: Optional[Pte]
    steps: Tuple[WalkStep, ...]
    latency: int
    queue_delay: int
    psc_hits: int
    entry_fetches: int
    #: Per-step ``(level, entry_paddr, present, is_leaf, psc_hit,
    #: hit_level)`` tuples, recorded only while the walker's
    #: ``record_details`` flag is armed (trace capture); ``hit_level`` is
    #: None on a PSC hit (no cache access happened).
    step_details: Optional[tuple] = None

    @property
    def present(self) -> bool:
        return self.pte is not None

    @property
    def levels_touched(self) -> int:
        return len(self.steps)


class PageWalker:
    """Walks page tables, caching upper-level entries in a PSC.

    ``busy_until`` implements the shared-resource queueing: callers pass
    the current cycle and receive the queue delay as part of the walk
    latency.
    """

    def __init__(
        self,
        hierarchy: CacheHierarchy,
        psc_entries: int = 32,
        setup_cost: int = 3,
        not_present_cost: int = 0,
    ) -> None:
        self.hierarchy = hierarchy
        self.psc_entries = psc_entries
        self.setup_cost = setup_cost
        #: Extra cycles to signal a terminal not-present entry.  Zero by
        #: default: a mapped-but-forbidden and an unmapped walk that
        #: terminate at the same level cost the same, so the *only*
        #: mapped-address oracle is the TLB fill-on-fault behaviour --
        #: which is exactly the paper's root-cause claim (§5.2.4), and
        #: why TET-KASLR fails on parts that check permissions first.
        self.not_present_cost = not_present_cost
        self._psc: OrderedDict = OrderedDict()
        self.busy_until = 0
        self.walks = 0
        self.walk_cycles = 0
        #: Armed by the MMU while a trace is being recorded: walks then
        #: carry ``step_details`` for the batch executor's translation
        #: shadow.  Off by default -- the detail tuples cost allocations
        #: on the hot path.
        self.record_details = False

    def snapshot(self) -> tuple:
        """The walker's timing state as a value: the PSC keys in LRU order,
        the ``busy_until`` stamp and the walk accounting.  The stamp is an
        absolute cycle: a load that kept the old one would queue its first
        walk behind whatever ran before."""
        return tuple(self._psc), self.busy_until, self.walks, self.walk_cycles

    def restore(self, state: tuple) -> None:
        """Put back a :meth:`snapshot`, which stays reusable."""
        psc, self.busy_until, self.walks, self.walk_cycles = state
        self._psc = OrderedDict.fromkeys(psc, True)

    def flush_psc(self) -> None:
        """Drop all cached paging-structure entries (full TLB flush)."""
        self._psc.clear()

    def walk(self, space: AddressSpace, va: int, now: int = 0) -> WalkResult:
        """Perform a hardware walk of *space* for *va* starting at cycle *now*."""
        steps, pte = space.walk_path(va)
        queue_delay = max(0, self.busy_until - now)
        latency = self.setup_cost
        psc_hits = 0
        entry_fetches = 0
        details = [] if self.record_details else None
        psc = self._psc
        data_access = self.hierarchy.data_access
        vpn = va >> 12
        for level, _, entry_paddr, present, is_leaf in steps:
            if not is_leaf:
                # A non-leaf step is present, and its paging-structure
                # cache key is the VA bits above the level's index.
                key = (level, vpn >> (9 * (3 - level)))
                if key in psc:
                    psc.move_to_end(key)
                    psc_hits += 1
                    latency += 1
                    if details is not None:
                        details.append((level, entry_paddr, present, is_leaf, True, None))
                    continue
            outcome = data_access(entry_paddr)
            entry_fetches += 1
            latency += outcome.latency
            if details is not None:
                details.append(
                    (level, entry_paddr, present, is_leaf, False, outcome.hit_level)
                )
            if not is_leaf:
                if len(psc) >= self.psc_entries:
                    psc.popitem(last=False)
                psc[key] = True
        if pte is None:
            latency += self.not_present_cost
        self.walks += 1
        self.walk_cycles += latency
        self.busy_until = now + queue_delay + latency
        return WalkResult(
            pte,
            steps,
            queue_delay + latency,
            queue_delay,
            psc_hits,
            entry_fetches,
            tuple(details) if details is not None else None,
        )
