"""The MMU facade the core talks to: TLBs + walker + caches + physical RAM.

This is where the paper's TET-KASLR root cause is implemented as policy:

* mapped-but-forbidden access -> permission fault, and on parts with
  ``fill_tlb_on_faulting_access`` the translation is *still cached*, so the
  next probe of the same address skips the walk entirely;
* unmapped access -> not-present fault that can never be cached, so every
  probe pays the full walk (plus the walker's not-present confirmation).

The MMU is deliberately policy-free about *transient data forwarding*
(Meltdown/MDS): it reports what happened and exposes peeks; the core
decides what a vulnerable pipeline forwards.
"""

from __future__ import annotations

import enum
import random
from typing import NamedTuple, Optional

from repro.memory.cache import CacheHierarchy, LINE_SIZE
from repro.memory.lfb import LineFillBuffer
from repro.memory.paging import AddressSpace, Pte
from repro.memory.physical import PhysicalMemory
from repro.memory.tlb import SplitTlb
from repro.memory.walker import PageWalker, WalkResult


class FaultKind(enum.Enum):
    """Why a memory access faulted."""

    NOT_PRESENT = "not_present"  # #PF, P=0 -- the address is unmapped
    PROTECTION = "protection"  # #PF, U/S violation -- mapped, supervisor-only
    WRITE_PROTECT = "write_protect"  # #PF, W=0 on a write
    NX = "nx"  # instruction fetch from NX page


#: Members bound once: the data and fetch paths build a :class:`Fault` per
#: faulting access, and ``FaultKind.X`` read from its class goes through
#: ``EnumType.__getattr__``.
_NOT_PRESENT, _PROTECTION = FaultKind.NOT_PRESENT, FaultKind.PROTECTION
_WRITE_PROTECT, _NX = FaultKind.WRITE_PROTECT, FaultKind.NX


class Fault(NamedTuple):
    """A page fault with the detail the kernel (and the attacker) can see
    (a NamedTuple: one is built per faulting access)."""

    kind: FaultKind
    va: int

    @property
    def address_is_mapped(self) -> bool:
        """Whether a translation exists (the secret TET-KASLR extracts)."""
        return self.kind is not _NOT_PRESENT


class TranslationEvent(NamedTuple):
    """One data-side MMU translation, in consumption (dispatch) order.

    The translation sibling of ``ResolutionEvent``: while the core
    records a trace it arms ``Mmu.translation_log``, and the MMU appends
    one of these per ``data_access``/``prefetch`` call.  The batch
    executor's page-table-aware shadow replays a follower lane's
    translation against the leader's breadcrumb to prove (or refuse to
    prove) that the lane's translation timeline is cycle-isomorphic.

    ``steps`` carries the page walk actually performed -- one
    ``(level, entry_paddr, present, is_leaf, psc_hit, hit_level)`` tuple
    per visited level (``hit_level`` ``None`` on a PSC hit), empty on a
    TLB hit -- and ``pte`` the leaf disposition snapshot
    ``(pfn, present, writable, user, global_, nx, page_size)``
    (``None`` for a hole).
    """

    side: str  # "d" | "prefetch"
    va: int
    write: bool
    tlb_hit: bool
    tlb_filled: bool
    latency: int
    queue_delay: int
    fault_kind: Optional[str]  # FaultKind.value, or None
    was_cached: bool
    pte: Optional[tuple]
    steps: tuple


def pte_snapshot(pte: Optional[Pte]) -> Optional[tuple]:
    """The disposition tuple a :class:`TranslationEvent` records."""
    if pte is None:
        return None
    return (
        pte.pfn,
        pte.present,
        pte.writable,
        pte.user,
        pte.global_,
        pte.nx,
        pte.page_size,
    )


class AccessResult:
    """Everything one data access produced.

    A ``__slots__`` class rather than a dataclass: one is allocated per
    data access, squarely on the simulator's hot path (and built
    positionally: by keyword it costs ~2.5x as much).
    """

    __slots__ = (
        "va",
        "paddr",
        "value",
        "fault",
        "latency",
        "tlb_hit",
        "hit_level",
        "was_cached",
        "walk",
    )

    def __init__(
        self,
        va: int,
        paddr: Optional[int],
        value: Optional[int],
        fault: Optional[Fault],
        latency: int,
        tlb_hit: bool,
        hit_level: str,
        was_cached: bool,
        walk: Optional[WalkResult] = None,
    ) -> None:
        self.va = va
        self.paddr = paddr
        self.value = value
        self.fault = fault
        self.latency = latency
        self.tlb_hit = tlb_hit
        self.hit_level = hit_level  # cache level that served the data ("" if faulted)
        self.was_cached = was_cached  # line presence *before* this access
        self.walk = walk

    @property
    def ok(self) -> bool:
        return self.fault is None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AccessResult(va={self.va:#x}, paddr={self.paddr}, fault={self.fault}, "
            f"latency={self.latency}, tlb_hit={self.tlb_hit}, hit_level={self.hit_level!r})"
        )


class FetchResult:
    """Outcome of one instruction-fetch translation + line access."""

    __slots__ = ("va", "fault", "latency", "tlb_hit", "walk")

    def __init__(
        self,
        va: int,
        fault: Optional[Fault],
        latency: int,
        tlb_hit: bool,
        walk: Optional[WalkResult] = None,
    ) -> None:
        self.va = va
        self.fault = fault
        self.latency = latency
        self.tlb_hit = tlb_hit
        self.walk = walk

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FetchResult(va={self.va:#x}, fault={self.fault}, "
            f"latency={self.latency}, tlb_hit={self.tlb_hit})"
        )


class Mmu:
    """Memory-management unit for one core (shared by SMT siblings)."""

    def __init__(
        self,
        physical: PhysicalMemory,
        hierarchy: CacheHierarchy,
        fill_tlb_on_faulting_access: bool = True,
        dtlb: Optional[SplitTlb] = None,
        itlb: Optional[SplitTlb] = None,
        lfb: Optional[LineFillBuffer] = None,
        fault_determination_cost: int = 4,
    ) -> None:
        self.physical = physical
        self.hierarchy = hierarchy
        self.fill_tlb_on_faulting_access = fill_tlb_on_faulting_access
        self.dtlb = dtlb or SplitTlb("DTLB")
        self.itlb = itlb or SplitTlb("ITLB", entries_4k=64, ways_4k=8)
        self.walker = PageWalker(hierarchy)
        # `is not None`, not truthiness: an empty shared LineFillBuffer is
        # falsy (it defines __len__) but must still be shared.
        self.lfb = lfb if lfb is not None else LineFillBuffer()
        self.fault_determination_cost = fault_determination_cost
        self.space: Optional[AddressSpace] = None
        #: Armed (to a list) by ``Core.run`` while recording a trace:
        #: each data-side translation appends a :class:`TranslationEvent`
        #: breadcrumb for the batch executor's page-table shadow.  ``None``
        #: (the default) keeps the hot path to a single attribute test.
        self.translation_log: Optional[list] = None
        # Optional ambient-noise model: a seeded jitter added to every
        # memory-side latency, standing in for co-running OS activity.
        # Deterministic given the seed, so noisy runs still replay.
        self._noise_rng: Optional[random.Random] = None
        self._noise_amplitude = 0
        # Walk-cycle accounting split by requester, feeding Table 3's
        # DTLB_LOAD_MISSES.* / ITLB_MISSES.WALK_ACTIVE counters.
        self.dside_walks = 0
        self.dside_walk_cycles = 0
        self.iside_walks = 0
        self.iside_walk_cycles = 0

    def set_noise(self, amplitude: int, seed: int = 0) -> None:
        """Enable ambient latency noise: each memory-side access gains a
        uniform 0..*amplitude* cycle jitter.  ``amplitude=0`` disables."""
        if amplitude < 0:
            raise ValueError("noise amplitude must be >= 0")
        self._noise_amplitude = amplitude
        self._noise_rng = random.Random(seed) if amplitude else None

    def _jitter(self) -> int:
        if self._noise_rng is None:
            return 0
        return self._noise_rng.randint(0, self._noise_amplitude)

    def set_address_space(self, space: AddressSpace, flush_global: bool = False) -> None:
        """CR3 write: switch tables, flushing non-global TLB entries."""
        self.space = space
        self.dtlb.flush(keep_global=not flush_global)
        self.itlb.flush(keep_global=not flush_global)
        self.walker.flush_psc()

    def flush_tlb(self, keep_global: bool = False) -> None:
        """Full TLB + paging-structure-cache flush (attacker primitive)."""
        self.dtlb.flush(keep_global=keep_global)
        self.itlb.flush(keep_global=keep_global)
        self.walker.flush_psc()

    def invalidate_page(self, va: int) -> None:
        """``invlpg``-style single-address invalidation."""
        self.dtlb.invalidate(va)
        self.itlb.invalidate(va)

    def snapshot(self) -> tuple:
        """The memory side's timing state as a value.

        The caches, both TLBs, the walker (paging-structure cache and
        ``busy_until`` included), the line fill buffers, the walk
        accounting and the noise stream's position.  Architectural state
        (the installed address space, page tables, memory contents) and
        the noise amplitude are not timing state and stay out.
        """
        rng = self._noise_rng
        return (
            self.hierarchy.snapshot(),
            self.dtlb.snapshot(),
            self.itlb.snapshot(),
            self.walker.snapshot(),
            self.lfb.snapshot(),
            self.dside_walks,
            self.dside_walk_cycles,
            self.iside_walks,
            self.iside_walk_cycles,
            None if rng is None else rng.getstate(),
        )

    def restore(self, state: tuple) -> None:
        """Put back a :meth:`snapshot` taken at the same noise amplitude."""
        (
            hierarchy, dtlb, itlb, walker, lfb,
            self.dside_walks, self.dside_walk_cycles,
            self.iside_walks, self.iside_walk_cycles,
            noise,
        ) = state
        self.hierarchy.restore(hierarchy)
        self.dtlb.restore(dtlb)
        self.itlb.restore(itlb)
        self.walker.restore(walker)
        self.lfb.restore(lfb)
        if noise is not None:
            self._noise_rng.setstate(noise)

    def reseed_noise(self, seed: int) -> None:
        """Restart the ambient-noise stream from *seed* (no-op when noise is
        off), so a trial's jitter depends on the trial, not on what ran
        before it on this machine."""
        if self._noise_rng is not None:
            self._noise_rng.seed(seed)

    # -- translation breadcrumbs ---------------------------------------------

    def _log_translation(
        self,
        side: str,
        va: int,
        write: bool,
        tlb_hit: bool,
        tlb_filled: bool,
        latency: int,
        walk: Optional[WalkResult],
        fault: Optional[Fault],
        was_cached: bool,
        pte: Optional[Pte],
    ) -> None:
        """Append one :class:`TranslationEvent` (call only while armed)."""
        self.translation_log.append(
            TranslationEvent(
                side=side,
                va=va,
                write=write,
                tlb_hit=tlb_hit,
                tlb_filled=tlb_filled,
                latency=latency,
                queue_delay=walk.queue_delay if walk is not None else 0,
                fault_kind=fault.kind.value if fault is not None else None,
                was_cached=was_cached,
                pte=pte_snapshot(pte),
                steps=(walk.step_details or ()) if walk is not None else (),
            )
        )

    # -- permission checking -------------------------------------------------

    @staticmethod
    def _check_permissions(pte: Pte, write: bool, user: bool, fetch: bool, va: int) -> Optional[Fault]:
        if user and not pte.user:
            return Fault(_PROTECTION, va)
        if write and not pte.writable:
            return Fault(_WRITE_PROTECT, va)
        if fetch and pte.nx:
            return Fault(_NX, va)
        return None

    # -- data side -----------------------------------------------------------

    def data_access(
        self,
        va: int,
        write: bool = False,
        value: Optional[int] = None,
        size: int = 8,
        user: bool = True,
        now: int = 0,
        thread_id: int = 0,
    ) -> AccessResult:
        """Perform one data load or store at *va*.

        On success the value is read from / written to physical memory and
        the cache hierarchy is updated (fills recorded into the LFB).  On a
        fault nothing architectural happens; the result captures the fault
        kind, the translation latency actually spent, and (via ``paddr``)
        where the data would have been -- the core uses that for transient
        forwarding decisions.
        """
        if self.space is None:
            raise RuntimeError("MMU has no address space installed")

        walk = None
        tlb_filled = False
        rng = self._noise_rng
        entry = self.dtlb.lookup(va)
        if entry is not None:
            pte = entry.pte
            latency = 1 if rng is None else 1 + rng.randint(0, self._noise_amplitude)
            tlb_hit = True
        else:
            walk = self.walker.walk(self.space, va, now=now)
            self.dside_walks += 1
            self.dside_walk_cycles += walk.latency
            latency = walk.latency
            if rng is not None:
                latency += rng.randint(0, self._noise_amplitude)
            tlb_hit = False
            pte = walk.pte
            if pte is None:
                latency += self.fault_determination_cost
                fault = Fault(_NOT_PRESENT, va)
                if self.translation_log is not None:
                    self._log_translation(
                        "d", va, write, False, False, latency, walk,
                        fault, False, None,
                    )
                return AccessResult(va, None, None, fault, latency, False, "", False, walk)

        paddr = pte.physical_address(va)
        # _check_permissions, inlined (data side is the hot path).
        if user and not pte.user:
            fault = Fault(_PROTECTION, va)
        elif write and not pte.writable:
            fault = Fault(_WRITE_PROTECT, va)
        else:
            fault = None
        if walk is not None and (fault is None or self.fill_tlb_on_faulting_access):
            self.dtlb.fill(va, pte)
            tlb_filled = True
        if fault is not None:
            latency += self.fault_determination_cost
            was_cached = self.hierarchy.data_resident(paddr)
            if self.translation_log is not None:
                self._log_translation(
                    "d", va, write, tlb_hit, tlb_filled, latency, walk,
                    fault, was_cached, pte,
                )
            return AccessResult(
                va, paddr, None, fault, latency, tlb_hit, "", was_cached, walk
            )

        outcome = self.hierarchy.data_access(paddr)
        # The line was resident before this access iff some level hit.
        was_cached = outcome.hit_level != "DRAM"
        latency += outcome.latency
        if outcome.hit_level != "L1":
            # The fill buffers sit between L1D and the rest of the
            # hierarchy: every L1 miss is serviced through one.
            line_paddr = paddr & ~(LINE_SIZE - 1)
            self.lfb.record_fill(
                line_paddr, self.physical.read_bytes(line_paddr, LINE_SIZE), thread_id
            )
        if write:
            if value is None:
                raise ValueError("store needs a value")
            self.physical.write_bytes(paddr, value.to_bytes(size, "little", signed=False))
            line_paddr = paddr & ~(LINE_SIZE - 1)
            self.lfb.record_fill(
                line_paddr, self.physical.read_bytes(line_paddr, LINE_SIZE), thread_id
            )
            data = value
        else:
            data = int.from_bytes(self.physical.read_bytes(paddr, size), "little")
        if self.translation_log is not None:
            self._log_translation(
                "d", va, write, tlb_hit, tlb_filled, latency, walk,
                None, was_cached, pte,
            )
        return AccessResult(
            va, paddr, data, None, latency, tlb_hit, outcome.hit_level, was_cached, walk
        )

    def prefetch(self, va: int, user: bool = True, now: int = 0, thread_id: int = 0) -> int:
        """Software prefetch: translate and fill, never fault.

        Returns the latency.  This is EntryBleed's primitive: on parts
        that load translations regardless of the permission outcome, a
        user-mode prefetch of a *mapped kernel* address still fills the
        TLB (and its latency reveals the translation state); on
        permission-checked parts it does not.
        """
        if self.space is None:
            raise RuntimeError("MMU has no address space installed")
        walk = None
        tlb_filled = False
        tlb_hit = False
        entry = self.dtlb.lookup(va)
        if entry is not None:
            pte = entry.pte
            latency = 1
            tlb_hit = True
        else:
            walk = self.walker.walk(self.space, va, now=now)
            self.dside_walks += 1
            self.dside_walk_cycles += walk.latency
            latency = walk.latency
            if walk.pte is None:
                if self.translation_log is not None:
                    self._log_translation(
                        "prefetch", va, False, False, False, latency, walk,
                        None, False, None,
                    )
                return latency  # unmapped: nothing to fill, nothing fetched
            pte = walk.pte
            permitted = self._check_permissions(pte, False, user, False, va) is None
            if permitted or self.fill_tlb_on_faulting_access:
                self.dtlb.fill(va, pte)
                tlb_filled = True
        if self._check_permissions(pte, False, user, False, va) is None:
            outcome = self.hierarchy.data_access(pte.physical_address(va))
            latency += outcome.latency
        if self.translation_log is not None:
            self._log_translation(
                "prefetch", va, False, tlb_hit, tlb_filled, latency, walk,
                None, False, pte,
            )
        return latency

    # -- instruction side ----------------------------------------------------

    def instruction_fetch(self, va: int, user: bool = True, now: int = 0) -> FetchResult:
        """Translate and fetch the instruction line at *va*."""
        if self.space is None:
            raise RuntimeError("MMU has no address space installed")
        walk = None
        rng = self._noise_rng
        entry = self.itlb.lookup(va)
        if entry is not None:
            pte = entry.pte
            latency = 1 if rng is None else 1 + rng.randint(0, self._noise_amplitude)
            tlb_hit = True
        else:
            walk = self.walker.walk(self.space, va, now=now)
            self.iside_walks += 1
            self.iside_walk_cycles += walk.latency
            latency = walk.latency
            tlb_hit = False
            if walk.pte is None:
                return FetchResult(va, Fault(_NOT_PRESENT, va), latency, False, walk)
            pte = walk.pte
            self.itlb.fill(va, pte)
        # _check_permissions, inlined (instruction fetches dominate).
        if user and not pte.user:
            fault = Fault(_PROTECTION, va)
        elif pte.nx:
            fault = Fault(_NX, va)
        else:
            fault = None
        if fault is not None:
            return FetchResult(va, fault, latency + self.fault_determination_cost, tlb_hit, walk)
        outcome = self.hierarchy.inst_access(pte.physical_address(va))
        return FetchResult(va, None, latency + outcome.latency, tlb_hit, walk)

    # -- attacker-visible helpers ---------------------------------------------

    def clflush(self, va: int, user: bool = True) -> bool:
        """Flush the line at *va* from the whole hierarchy.

        Returns ``False`` (no-op) when the address does not translate --
        ``clflush`` on a bad address raises #PF on real hardware, but the
        gadgets only flush their own memory, so a boolean is sufficient.
        """
        pte = self.space.lookup(va) if self.space else None
        if pte is None:
            return False
        self.hierarchy.clflush(pte.physical_address(va))
        return True

    def translate_peek(self, va: int) -> Optional[int]:
        """Translate *va* with no side effects; ``None`` if unmapped."""
        pte = self.space.lookup(va) if self.space else None
        if pte is None:
            return None
        return pte.physical_address(va)

    def peek_raw_bytes(self, va: int, size: int) -> Optional[bytes]:
        """Read *size* bytes at *va* with no side effects (undo logging)."""
        paddr = self.translate_peek(va)
        if paddr is None:
            return None
        return self.physical.read_bytes(paddr, size)

    def poke_raw_bytes(self, va: int, data: bytes) -> None:
        """Write bytes at *va* with no side effects (store rollback)."""
        paddr = self.translate_peek(va)
        if paddr is None:
            raise ValueError(f"poke of unmapped address {va:#x}")
        self.physical.write_bytes(paddr, data)

    def peek_physical(self, va: int) -> Optional[int]:
        """Read the byte at *va*'s translation ignoring permissions.

        This is the *simulator-internal* peek the core uses to model
        Meltdown's transient forwarding; it never touches the caches.
        """
        pte = self.space.lookup(va) if self.space else None
        if pte is None:
            return None
        return self.physical.read_u8(pte.physical_address(va))

