"""Physical frame allocation for the kernel substrate."""

from __future__ import annotations

from repro.memory.paging import PageSize


class FrameAllocator:
    """A bump allocator handing out physical frames.

    Simulated physical memory is sparse, so a bump allocator is all the
    substrate needs; alignment is honoured for 2 MiB pages.
    """

    def __init__(self, start: int = 0x0100_0000, limit: int = 0x8000_0000) -> None:
        self._next = start
        self._limit = limit

    def alloc(self, size: PageSize = PageSize.SIZE_4K, count: int = 1) -> int:
        """Allocate *count* contiguous pages of *size*; return base paddr."""
        alignment = int(size)
        base = (self._next + alignment - 1) & ~(alignment - 1)
        end = base + alignment * count
        if end > self._limit:
            raise MemoryError("simulated physical memory exhausted")
        self._next = end
        return base
