"""Memory-subsystem substrate: physical memory, paging, TLBs and caches.

The TET-KASLR half of the paper lives here: whether a faulting probe's
virtual address is *mapped* (supervisor-only, permission fault) or
*unmapped* (not-present fault) changes how the page walker and TLBs behave,
which changes the time of the transient window.  Table 3's
``DTLB_LOAD_MISSES.*`` / ``ITLB_MISSES.WALK_ACTIVE`` rows are produced by
these models.

* :mod:`repro.memory.physical` -- sparse byte-addressable physical memory.
* :mod:`repro.memory.paging` -- 4-level x86-64 page tables with 4 KiB and
  2 MiB pages.
* :mod:`repro.memory.walker` -- the hardware page walker with
  paging-structure caches and a busy/queueing model.
* :mod:`repro.memory.tlb` -- set-associative split TLBs with the
  fill-on-faulting-access behaviour the paper exploits.
* :mod:`repro.memory.cache` -- L1D/L1I/L2/LLC hierarchy with ``clflush``.
* :mod:`repro.memory.lfb` -- line fill buffers (ZombieLoad's stale data).
* :mod:`repro.memory.mmu` -- the facade the core talks to.
"""

from repro import _exports

__getattr__, __dir__, __all__ = _exports.lazy(__name__, {
    ".cache": ("Cache", "CacheHierarchy"),
    ".lfb": ("LineFillBuffer",),
    ".mmu": ("AccessResult", "Fault", "FaultKind", "Mmu"),
    ".paging": ("AddressSpace", "PageSize", "Pte"),
    ".physical": ("PhysicalMemory",),
    ".tlb": ("Tlb", "TlbEntry"),
    ".walker": ("PageWalker", "WalkResult"),
})
