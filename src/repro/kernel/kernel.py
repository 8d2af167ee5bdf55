"""The :class:`Kernel` facade: image placement, page tables, defenses.

A "boot" builds the kernel page tables with the selected defense
combination; processes then get their own address-space clones.  The three
configurations the paper attacks:

* plain KASLR (the kernel image is mapped supervisor-only at a random
  slot -- user probes fault with *protection* errors, which is exactly the
  mapped/unmapped oracle TET-KASLR reads);
* KPTI: the user-visible table keeps only the trampoline remnant at
  ``base + 0xe00000`` (probing 512 candidate trampolines finds it);
* FLARE on top of KPTI: dummy pages blanket the rest of the range so every
  probe faults with a *protection* error.  The residual distinguisher we
  model is page size: real kernel text is 2 MiB pages, FLARE dummies are
  4 KiB pages, so the first walk after a TLB flush differs by one level.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from repro.kernel.frames import FrameAllocator
from repro.kernel.kaslr import randomize_layout
from repro.kernel.layout import (
    KASLR_ALIGN,
    KASLR_SLOTS,
    KERNEL_SECRET_OFFSET,
    KERNEL_TEXT_RANGE_START,
    KPTI_TRAMPOLINE_OFFSET,
    KernelLayout,
)
from repro.kernel.process import Process
from repro.memory.paging import AddressSpace, PageSize
from repro.memory.physical import PhysicalMemory

DEFAULT_SECRET = b"The Magic Words are Squeamish Ossifrage!"


class Kernel:
    """A booted kernel: layout, page tables and process management."""

    def __init__(
        self,
        physical: PhysicalMemory,
        kaslr: bool = True,
        kpti: bool = False,
        flare: bool = False,
        fgkaslr: bool = False,
        seed: Optional[int] = None,
        flare_coverage: str = "probe-offsets",
        secret: bytes = DEFAULT_SECRET,
    ) -> None:
        if flare and not kpti:
            # FLARE is a KPTI add-on in its paper and in ours.
            kpti = True
        self.physical = physical
        self.frames = FrameAllocator()
        self.kpti = kpti
        self.flare = flare
        self.fgkaslr = fgkaslr
        self.layout: KernelLayout = randomize_layout(seed=seed, kaslr=kaslr, fgkaslr=fgkaslr)
        #: Numbers the table frames of every space this kernel builds.
        self._table_frames = itertools.count()
        self.kernel_space = AddressSpace("kernel", self._table_frames)
        self._map_kernel_image()
        self.user_template: Optional[AddressSpace] = None
        if kpti:
            self.user_template = self._build_kpti_user_template()
            if flare:
                self._apply_flare(self.user_template, flare_coverage)
        self._processes: List[Process] = []
        self._secret = b""
        self.set_secret(secret)

    # -- boot-time construction --------------------------------------------------

    def _map_kernel_image(self) -> None:
        """Map the image as supervisor 2 MiB global pages."""
        huge = PageSize.SIZE_2M
        pages = self.layout.image_size // int(huge)
        paddr = self.frames.alloc(huge, count=pages)
        self.kernel_text_paddr = paddr
        for index in range(pages):
            self.kernel_space.map_page(
                self.layout.base + index * int(huge),
                paddr + index * int(huge),
                size=huge,
                writable=True,
                user=False,
                global_=True,
                nx=False,
                tag="kernel-text",
            )

    def _build_kpti_user_template(self) -> AddressSpace:
        """The user-side table: only the trampoline remnant is kernel-mapped."""
        template = AddressSpace("kpti-user", self._table_frames)
        trampoline_va = self.layout.trampoline_va
        trampoline_pa = self.kernel_text_paddr + KPTI_TRAMPOLINE_OFFSET
        template.map_page(
            trampoline_va,
            trampoline_pa,
            size=PageSize.SIZE_4K,
            writable=False,
            user=False,  # still supervisor-only: user probes get #PF(prot)
            global_=True,
            tag="kpti-trampoline",
        )
        return template

    def _apply_flare(self, space: AddressSpace, coverage: str) -> None:
        """Blanket unmapped kernel-range addresses with dummy mappings.

        ``coverage="probe-offsets"`` maps dummies at every slot base and
        every candidate trampoline address -- the offsets any slot-scanning
        attack probes -- which keeps boot cheap.  ``coverage="full"`` maps
        the entire range at 4 KiB granularity (262,144 PTEs) for the
        dedicated FLARE benchmark.
        """
        dummy_pa = self.frames.alloc(PageSize.SIZE_4K)
        if coverage == "full":
            candidates = range(
                KERNEL_TEXT_RANGE_START,
                KERNEL_TEXT_RANGE_START + KASLR_SLOTS * KASLR_ALIGN,
                int(PageSize.SIZE_4K),
            )
        elif coverage == "probe-offsets":
            candidates = []
            for slot in range(KASLR_SLOTS):
                base = KERNEL_TEXT_RANGE_START + slot * KASLR_ALIGN
                candidates.append(base)
                candidates.append(base + KPTI_TRAMPOLINE_OFFSET)
        else:
            raise ValueError(f"unknown FLARE coverage {coverage!r}")
        for va in candidates:
            if space.lookup(va) is not None:
                continue
            # Dummies share one frame, as FLARE does, and are *not* marked
            # global: the real trampoline must survive CR3 switches (it is
            # the syscall entry path), while FLARE's blanket dummies are
            # ordinary kernel-range fillers.  This asymmetry is the
            # residual our TET-KASLR FLARE bypass measures -- see
            # DESIGN.md's substitution table.
            space.map_page(
                va,
                dummy_pa,
                size=PageSize.SIZE_4K,
                writable=False,
                user=False,
                global_=False,
                nx=True,
                tag="flare-dummy",
            )

    # -- secrets -------------------------------------------------------------------

    def set_secret(self, data: bytes) -> None:
        """Place *data* in the kernel secret page (Meltdown's target)."""
        self._secret = bytes(data)
        self.physical.write_bytes(self.kernel_text_paddr + KERNEL_SECRET_OFFSET, self._secret)

    @property
    def secret(self) -> bytes:
        return self._secret

    @property
    def secret_va(self) -> int:
        """Kernel virtual address of the secret."""
        return self.layout.secret_va

    def secret_paddr(self) -> int:
        """Physical address of the secret (for cache warming)."""
        return self.kernel_text_paddr + KERNEL_SECRET_OFFSET

    # -- processes -----------------------------------------------------------------

    def create_process(self, name: str, container: bool = False) -> Process:
        """Fork-lite: a fresh process with its own page-table clone."""
        if self.kpti:
            assert self.user_template is not None
            space = self.user_template.clone_shared(f"{name}-user")
        else:
            space = self.kernel_space.clone_shared(f"{name}-space")
        process = Process(
            pid=len(self._processes) + 1,
            name=name,
            space=space,
            kernel_space=self.kernel_space,
            container=container,
        )
        self._processes.append(process)
        return process

    def map_user_memory(
        self,
        process: Process,
        pages: int,
        size: PageSize = PageSize.SIZE_4K,
        executable: bool = False,
        va: Optional[int] = None,
    ) -> int:
        """Map *pages* of fresh user memory into *process*; return base va."""
        if va is None:
            va = process.take_data_va(pages, size)
        paddr = self.frames.alloc(size, count=pages)
        for index in range(pages):
            process.space.map_page(
                va + index * int(size),
                paddr + index * int(size),
                size=size,
                writable=True,
                user=True,
                nx=not executable,
                tag="user",
            )
        return va

    def map_user_code(self, process: Process, pages: int, va: int) -> int:
        """Map executable user pages at a fixed *va* (program loading)."""
        paddr = self.frames.alloc(PageSize.SIZE_4K, count=pages)
        for index in range(pages):
            process.space.map_page(
                va + index * int(PageSize.SIZE_4K),
                paddr + index * int(PageSize.SIZE_4K),
                size=PageSize.SIZE_4K,
                writable=False,
                user=True,
                nx=False,
                tag="user-code",
            )
        return va
