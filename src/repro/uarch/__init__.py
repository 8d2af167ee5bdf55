"""Microarchitecture substrate: the out-of-order core the channel lives in.

The Whisper channel is a property of how a pipeline handles *nested* work
inside a transient window: a mispredicted Jcc opens resteer/recovery
machinery that the eventual fault flush must drain (longer ToTE), while a
taken transient jump that skips the remaining uop stream shrinks the
in-flight set the flush must drain (shorter ToTE).  The core in this
package implements those mechanisms -- plus DSB/MITE/MS uop delivery, a
PHT/BTB/RSB branch predictor, TSX, signal-based fault suppression, SMT and
a PMU -- so the channel *emerges* rather than being scripted.

* :mod:`repro.uarch.config` -- per-CPU-model parameters and vulnerability
  flags (Table 2's five machines).
* :mod:`repro.uarch.bpu` -- branch prediction (PHT, BTB, return stack).
* :mod:`repro.uarch.frontend` -- uop delivery (DSB / MITE / MS) timing.
* :mod:`repro.uarch.pmu` -- the performance-monitoring counters of Table 3.
* :mod:`repro.uarch.core` -- the event-driven out-of-order engine.
* :mod:`repro.uarch.smt` -- two hardware threads on one core (§4.4).
"""

from repro import _exports

__getattr__, __dir__, __all__ = _exports.lazy(__name__, {
    ".bpu": ("BranchPredictor",),
    ".config": ("CPU_MODELS", "CpuModel", "cpu_model"),
    ".core": ("Core", "RunResult", "SimulationError"),
    ".frontend": ("Frontend",),
    ".pmu": ("PmuCounters",),
    ".smt": ("SmtCore",),
})
