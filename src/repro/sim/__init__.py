"""Simulation harness: a whole machine, timing helpers and trace analysis.

* :mod:`repro.sim.machine` -- :class:`Machine` wires a CPU model, memory
  subsystem, kernel and core together and loads/runs programs.
* :mod:`repro.sim.timing` -- ToTE measurement conventions and statistics.
* :mod:`repro.sim.tracing` -- frontend traces (Figure 3) and transient
  control-flow graphs (Figure 4) from run records.
"""

from repro import _exports

__getattr__, __dir__, __all__ = _exports.lazy(__name__, {
    ".machine": ("Machine",),
    ".timing": ("ToteSample", "measure_tote", "tote_from_result"),
    ".tracing": ("control_flow_graph", "frontend_trace"),
    ".victim": ("VictimProcess",),
})
