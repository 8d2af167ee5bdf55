"""Kernel address-space constants and the image layout description.

Linux maps its text into ``0xffffffff80000000 .. 0xffffffffc0000000`` with
2 MiB (CONFIG_PHYSICAL_ALIGN) granularity, giving the 512 possible KASLR
offsets the paper's KPTI experiment scans (§4.5).  The paper's prose
quotes the upper bound as ``0xfffffffffc000000`` with 4 KiB alignment but
then speaks of "the 512 possible offsets of KASLR"; we implement the
512-slot/2 MiB reading, which matches Linux and the experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

KERNEL_TEXT_RANGE_START = 0xFFFF_FFFF_8000_0000
KERNEL_TEXT_RANGE_END = 0xFFFF_FFFF_C000_0000
KASLR_ALIGN = 2 * 1024 * 1024  # one slot per 2 MiB
KASLR_SLOTS = (KERNEL_TEXT_RANGE_END - KERNEL_TEXT_RANGE_START) // KASLR_ALIGN  # 512

#: The known-unmapped reference every KASLR prober warms on and compares
#: against: one slot below the text range, which no kernel maps.
KASLR_UNMAPPED_REFERENCE = KERNEL_TEXT_RANGE_START - KASLR_ALIGN

#: The paper's faulting address for window-opening loads: ``*(char*)0``.
NULL_POINTER = 0x0

#: KPTI keeps the entry trampoline mapped in the user page table at this
#: fixed offset from the (randomised) kernel base (§4.5).
KPTI_TRAMPOLINE_OFFSET = 0xE0_0000

#: Size of the mapped kernel image (text+rodata+data) in our substrate.
KERNEL_IMAGE_SIZE = 32 * 1024 * 1024  # 16 huge pages

#: Offset of the kernel data page holding the simulated secrets.
KERNEL_SECRET_OFFSET = 0x120_0000

#: A few named kernel symbols at fixed offsets from base -- what a code
#: reuse attack needs once KASLR is broken (and what FGKASLR scrambles).
DEFAULT_SYMBOL_OFFSETS: Dict[str, int] = {
    "startup_64": 0x0,
    "entry_SYSCALL_64": 0xE0_0040,
    "commit_creds": 0x10_E5A0,
    "prepare_kernel_cred": 0x10_E8C0,
    "native_write_cr4": 0x06_1A30,
    "do_syscall_64": 0x0A_2B10,
}


@dataclass
class KernelLayout:
    """Where the kernel landed this boot."""

    base: int
    slot: int
    image_size: int = KERNEL_IMAGE_SIZE
    symbols: Dict[str, int] = field(default_factory=dict)

    @property
    def trampoline_va(self) -> int:
        """The KPTI trampoline page's virtual address."""
        return self.base + KPTI_TRAMPOLINE_OFFSET

    @property
    def secret_va(self) -> int:
        """Virtual address of the kernel secret page."""
        return self.base + KERNEL_SECRET_OFFSET

    @property
    def end(self) -> int:
        return self.base + self.image_size

    def contains(self, va: int) -> bool:
        """Whether *va* falls inside the mapped image."""
        return self.base <= va < self.end

    def symbol_va(self, name: str) -> int:
        """Runtime virtual address of kernel symbol *name*."""
        return self.base + self.symbols[name]


def slot_base(slot: int) -> int:
    """Virtual base address of KASLR *slot* (0..511)."""
    if not 0 <= slot < KASLR_SLOTS:
        raise ValueError(f"KASLR slot {slot} out of range 0..{KASLR_SLOTS - 1}")
    return KERNEL_TEXT_RANGE_START + slot * KASLR_ALIGN


def slot_of(va: int) -> int:
    """KASLR slot index containing *va*."""
    if not KERNEL_TEXT_RANGE_START <= va < KERNEL_TEXT_RANGE_END:
        raise ValueError(f"{va:#x} is outside the KASLR range")
    return (va - KERNEL_TEXT_RANGE_START) // KASLR_ALIGN
