"""Whisper reproduction: the transient-execution-timing (TET) side channel.

This package reproduces *"Whisper: Timing the Transient Execution to Leak
Secrets and Break KASLR"* (DAC 2024) on a from-scratch, cycle-level
out-of-order CPU simulator, because real transient-execution gadgets and
cycle-precise timing cannot be expressed in Python.

Layers, bottom-up:

* :mod:`repro.isa` -- the x86-flavoured micro-ISA and assembler.
* :mod:`repro.memory` -- physical memory, paging, TLBs, caches, LFBs.
* :mod:`repro.uarch` -- the out-of-order core, BPU, frontend, PMU, SMT.
* :mod:`repro.kernel` -- kernel layout, KASLR, KPTI, FLARE, processes.
* :mod:`repro.sim` -- the :class:`~repro.sim.machine.Machine` harness.
* :mod:`repro.whisper` -- the paper's contribution: TET gadgets, the
  covert channel, TET-MD/ZBL/RSB/KASLR attacks, the SMT channel.
* :mod:`repro.pmutools` -- the automated PMU analysis toolset (Figure 2).
* :mod:`repro.baselines` -- Flush+Reload-based classic attacks and the
  cache-behaviour detector TET evades.

Quickstart::

    from repro.sim import Machine
    from repro.whisper import TetCovertChannel

    machine = Machine("i7-7700")
    channel = TetCovertChannel(machine)
    stats = channel.transmit(b"hi")  # ChannelStats: received, error_rate, ...
    assert stats.received == b"hi"

Package names resolve on first use (:mod:`repro._exports`), so these
two imports load the machine and the channel, not every attack, tool
and runtime layer.
"""

__version__ = "1.0.0"
__all__ = ["__version__"]
