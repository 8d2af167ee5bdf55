"""The automated PMU analysis toolset of §5 (Figure 2).

Manual inspection of hundreds of PMU events is "a daunting task and
challenge", so the paper builds a three-stage pipeline; this package is
that pipeline against the simulator's PMU:

1. **Preparation** (:mod:`repro.pmutools.events`): enumerate the events a
   CPU model exposes, as the paper does from Intel Perfmon / Linux perf.
2. **Online collection** (:mod:`repro.pmutools.collector`): run a scenario
   under both of its conditions (Jcc trigger / no trigger, or mapped /
   unmapped) and record per-event counter deltas.
3. **Offline analysis** (:mod:`repro.pmutools.differential` and
   :mod:`repro.pmutools.report`): differential filtering to discard
   condition-insensitive events, then grouping by microarchitectural
   domain to answer RQ1-RQ3 -- the content of Table 3.

:mod:`repro.pmutools.scenarios` defines the measured scenes (TET-CC,
TET-MD, the transient-flow experiment, TET-KASLR) and
:mod:`repro.pmutools.pipeline` glues all stages together.
"""

from repro import _exports

__getattr__, __dir__, __all__ = _exports.lazy(__name__, {
    ".collector": ("CollectionResult", "OnlineCollector"),
    ".differential": ("DifferentialFilter", "FilteredEvent"),
    ".events": ("prepare_events",),
    ".pipeline": ("PmuPipeline", "PipelineReport"),
    ".report": ("Table3Row", "render_table3"),
    ".scenarios": (
        "Scenario",
        "TetCcScenario",
        "TetKaslrScenario",
        "TetMdScenario",
        "TransientFlowScenario",
    ),
})
