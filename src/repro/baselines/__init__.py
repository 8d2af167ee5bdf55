"""Baselines the paper compares against or assumes.

* :mod:`repro.baselines.flush_reload` -- the classic Flush+Reload covert
  channel and the original (cache-channel) Meltdown built on it.
* :mod:`repro.baselines.fault_timing_kaslr` -- the pre-TET KASLR timing
  attack (Hund et al., 2013): time the whole fault round-trip instead of
  the transient window.
* :mod:`repro.baselines.detector` -- a cache-behaviour attack detector in
  the spirit of the HPC-based detectors the threat model assumes deployed
  (§4.2); it flags Flush+Reload and misses TET, which is the paper's
  stealth claim.
"""

from repro import _exports

__getattr__, __dir__, __all__ = _exports.lazy(__name__, {
    ".detector": ("CacheAttackDetector", "DetectionReport"),
    ".entrybleed": ("EntryBleedKaslr",),
    ".fault_timing_kaslr": ("FaultTimingKaslr",),
    ".flush_reload": ("ClassicMeltdown", "FlushReloadChannel"),
})
