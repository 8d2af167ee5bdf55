"""Micro-ISA substrate: an x86-64-flavoured instruction set for the simulator.

The Whisper paper's gadgets (Figure 1a, Listing 1, Listing 2) are short
sequences of x86 instructions: loads, compares, conditional jumps, fences,
``clflush``, ``rdtsc``, ``call``/``ret`` and TSX transactions.  This package
defines a miniature ISA that covers exactly that surface:

* :mod:`repro.isa.registers` -- architectural register file and RFLAGS.
* :mod:`repro.isa.opcodes` -- opcode and condition-code enumerations plus
  static per-opcode metadata (uop class, latency class, serialising, ...).
* :mod:`repro.isa.instructions` -- the :class:`Instruction` value type.
* :mod:`repro.isa.assembler` -- a two-pass text assembler with labels so
  gadgets can be written the way the paper's listings read.
* :mod:`repro.isa.program` -- an assembled :class:`Program` bound to a
  virtual base address.
"""

from repro import _exports

__getattr__, __dir__, __all__ = _exports.lazy(__name__, {
    ".assembler": ("AssemblyError", "assemble"),
    ".instructions": ("Instruction", "MemRef"),
    ".opcodes": ("Cond", "Op", "UopClass"),
    ".program": ("Program",),
    ".registers": ("GPRS", "RegisterFile"),
})
