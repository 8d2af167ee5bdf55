"""Sparse byte-addressable physical memory."""

from __future__ import annotations

from typing import Dict

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1


class PhysicalMemory:
    """Physical memory backed by lazily-allocated 4 KiB frames.

    The simulator's address space is huge (the kernel image lives near the
    top of the canonical range), so frames are allocated on first touch.
    Reads from never-written frames return zeros, like fresh RAM after the
    kernel scrubs it.
    """

    def __init__(self) -> None:
        self._frames: Dict[int, bytearray] = {}

    def _frame(self, paddr: int) -> bytearray:
        frame_number = paddr >> PAGE_SHIFT
        frame = self._frames.get(frame_number)
        if frame is None:
            frame = bytearray(PAGE_SIZE)
            self._frames[frame_number] = frame
        return frame

    def read_bytes(self, paddr: int, length: int) -> bytes:
        """Read *length* bytes starting at physical address *paddr*."""
        offset = paddr & PAGE_MASK
        if 0 < length <= PAGE_SIZE - offset:
            # Within one frame: every cache line and aligned word is.
            return bytes(self._frame(paddr)[offset : offset + length])
        out = bytearray()
        while length > 0:
            frame = self._frame(paddr)
            offset = paddr & PAGE_MASK
            chunk = min(length, PAGE_SIZE - offset)
            out += frame[offset : offset + chunk]
            paddr += chunk
            length -= chunk
        return bytes(out)

    def write_bytes(self, paddr: int, data: bytes) -> None:
        """Write *data* starting at physical address *paddr*."""
        position = 0
        while position < len(data):
            frame = self._frame(paddr)
            offset = paddr & PAGE_MASK
            chunk = min(len(data) - position, PAGE_SIZE - offset)
            frame[offset : offset + chunk] = data[position : position + chunk]
            paddr += chunk
            position += chunk

    def read_u64(self, paddr: int) -> int:
        """Read a little-endian 64-bit value at *paddr*."""
        return int.from_bytes(self.read_bytes(paddr, 8), "little")

    def write_u64(self, paddr: int, value: int) -> None:
        """Write a little-endian 64-bit value at *paddr*."""
        self.write_bytes(paddr, (value & ((1 << 64) - 1)).to_bytes(8, "little"))

    def read_u8(self, paddr: int) -> int:
        """Read one byte at *paddr*."""
        return self.read_bytes(paddr, 1)[0]

    def write_u8(self, paddr: int, value: int) -> None:
        """Write one byte at *paddr*."""
        self.write_bytes(paddr, bytes([value & 0xFF]))

    @property
    def allocated_frames(self) -> int:
        """Number of frames that have been touched (for tests/inspection)."""
        return len(self._frames)
