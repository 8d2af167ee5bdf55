"""Miniature OS substrate: kernel layout, KASLR and its defenses.

TET-KASLR's target lives here.  The kernel image is placed at one of the
512 2 MiB-aligned slots of the canonical Linux text range; KPTI builds a
user-visible page table that keeps only the trampoline remnant mapped at a
fixed offset inside the image; FLARE blankets the rest of the range with
dummy mappings; FGKASLR shuffles function offsets inside the image.  The
simulated attacks probe exactly these structures.

* :mod:`repro.kernel.frames` -- physical frame allocator.
* :mod:`repro.kernel.layout` -- address-space constants and the image map.
* :mod:`repro.kernel.kaslr` -- slot randomisation (and FGKASLR shuffling).
* :mod:`repro.kernel.kernel` -- the :class:`Kernel` facade.
* :mod:`repro.kernel.process` -- user processes, signals, containers.
"""

from repro import _exports

__getattr__, __dir__, __all__ = _exports.lazy(__name__, {
    ".kernel": ("Kernel",),
    ".layout": (
        "KASLR_ALIGN",
        "KASLR_SLOTS",
        "KERNEL_TEXT_RANGE_END",
        "KERNEL_TEXT_RANGE_START",
        "KPTI_TRAMPOLINE_OFFSET",
        "KernelLayout",
    ),
    ".process": ("Process",),
})
