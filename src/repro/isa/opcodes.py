"""Opcode and condition-code definitions with static decode metadata.

Each opcode carries the metadata the pipeline needs at decode time: which
execution-port class its uop uses, how many uops it decodes into, whether
it serialises the frontend, and whether it is a branch/memory operation.
Keeping this table static (rather than deriving it in the core's cycle
loop) mirrors how a decoder PLA works and keeps the core readable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.isa.registers import MASK64


class Op(enum.Enum):
    """Every instruction the micro-ISA supports."""

    # Data movement
    MOV_RI = "mov_ri"  # mov reg, imm
    MOV_RR = "mov_rr"  # mov reg, reg
    LOAD = "load"  # mov reg, [mem]
    LOAD_BYTE = "loadb"  # movzx reg, byte [mem]
    STORE = "store"  # mov [mem], reg
    LEA = "lea"  # lea reg, [mem]

    # ALU
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    CMP = "cmp"  # reg vs reg/imm
    TEST = "test"

    # Control flow
    JMP = "jmp"
    JCC = "jcc"
    CALL = "call"
    RET = "ret"

    # Timing / ordering / cache control
    NOP = "nop"
    PREFETCH = "prefetch"  # prefetcht0: translate + fill, never faults
    MFENCE = "mfence"
    LFENCE = "lfence"
    SFENCE = "sfence"
    CLFLUSH = "clflush"
    RDTSC = "rdtsc"
    RDTSCP = "rdtscp"

    # Transactional memory (Intel TSX)
    XBEGIN = "xbegin"
    XEND = "xend"

    # Program control
    HLT = "hlt"
    SYSCALL = "syscall"


class Cond(enum.Enum):
    """Jcc condition codes (the subset the paper's gadgets exercise).

    The paper reports JE/JZ, JNE/JNZ and JC working and conjectures all
    x86 conditional jumps do; we implement the full signed/unsigned set so
    that conjecture is testable on the simulator.
    """

    E = "e"  # ZF=1 (alias JZ)
    NE = "ne"  # ZF=0 (alias JNZ)
    C = "c"  # CF=1 (alias JB)
    NC = "nc"  # CF=0 (alias JAE)
    S = "s"  # SF=1
    NS = "ns"  # SF=0
    O = "o"  # OF=1
    NO = "no"  # OF=0
    L = "l"  # SF != OF
    GE = "ge"  # SF == OF
    LE = "le"  # ZF=1 or SF != OF
    G = "g"  # ZF=0 and SF == OF

    def evaluate(self, zf: bool, cf: bool, sf: bool, of: bool) -> bool:
        """Return whether the condition holds for the given flag values."""
        return _COND_EVAL[self](zf, cf, sf, of)


#: Per-condition evaluators, built once at import (``evaluate`` sits on
#: the core's Jcc path; rebuilding a 12-entry dispatch dict per branch
#: was measurable in campaign profiles).
_COND_EVAL = {
    Cond.E: lambda zf, cf, sf, of: zf,
    Cond.NE: lambda zf, cf, sf, of: not zf,
    Cond.C: lambda zf, cf, sf, of: cf,
    Cond.NC: lambda zf, cf, sf, of: not cf,
    Cond.S: lambda zf, cf, sf, of: sf,
    Cond.NS: lambda zf, cf, sf, of: not sf,
    Cond.O: lambda zf, cf, sf, of: of,
    Cond.NO: lambda zf, cf, sf, of: not of,
    Cond.L: lambda zf, cf, sf, of: sf != of,
    Cond.GE: lambda zf, cf, sf, of: sf == of,
    Cond.LE: lambda zf, cf, sf, of: zf or (sf != of),
    Cond.G: lambda zf, cf, sf, of: (not zf) and (sf == of),
}


#: Mnemonic aliases accepted by the assembler (jz -> je, jnz -> jne, ...).
COND_ALIASES = {
    "z": Cond.E,
    "nz": Cond.NE,
    "b": Cond.C,
    "ae": Cond.NC,
    "nae": Cond.C,
    "nb": Cond.NC,
}


class UopClass(enum.Enum):
    """Execution-port class a uop is scheduled to."""

    ALU = "alu"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    NOP = "nop"
    FENCE = "fence"
    SYSTEM = "system"  # rdtsc, syscall, tsx markers


# -- ALU semantics: one pure function per operation, shared by the core's
# ``_op_alu`` and the batch shadow.  Each maps two 64-bit operands to
# ``(result & MASK64, carry)``; shift counts are masked to 6 bits, as
# x86 does for 64-bit operands, and shifts leave CF clear.


def _alu_add(left: int, right: int) -> Tuple[int, bool]:
    result = left + right
    return result & MASK64, result > MASK64


def _alu_sub(left: int, right: int) -> Tuple[int, bool]:
    return (left - right) & MASK64, left < right


def _alu_and(left: int, right: int) -> Tuple[int, bool]:
    return left & right & MASK64, False


def _alu_or(left: int, right: int) -> Tuple[int, bool]:
    return (left | right) & MASK64, False


def _alu_xor(left: int, right: int) -> Tuple[int, bool]:
    return (left ^ right) & MASK64, False


def _alu_shl(left: int, right: int) -> Tuple[int, bool]:
    return (left << (right & 63)) & MASK64, False


def _alu_shr(left: int, right: int) -> Tuple[int, bool]:
    return (left >> (right & 63)) & MASK64, False


@dataclass(frozen=True)
class OpInfo:
    """Static decode metadata for one opcode."""

    uop_class: UopClass
    uop_count: int = 1
    is_branch: bool = False
    is_load: bool = False
    is_store: bool = False
    serialising: bool = False  # drains the pipeline at dispatch (fences, rdtsc-ish)
    microcoded: bool = False  # delivered by the MS rather than DSB/MITE
    base_latency: int = 1
    #: ALU ops: ``(left, right) -> (result & MASK64, carry)``.
    alu: Optional[Callable[[int, int], Tuple[int, bool]]] = None
    #: CMP/TEST: the ALU result sets the flags and is discarded.
    flags_only: bool = False


OP_INFO = {
    Op.MOV_RI: OpInfo(UopClass.ALU),
    Op.MOV_RR: OpInfo(UopClass.ALU),
    Op.LOAD: OpInfo(UopClass.LOAD, is_load=True, base_latency=4),
    Op.LOAD_BYTE: OpInfo(UopClass.LOAD, is_load=True, base_latency=4),
    Op.STORE: OpInfo(UopClass.STORE, is_store=True, uop_count=2, base_latency=1),
    Op.LEA: OpInfo(UopClass.ALU),
    Op.ADD: OpInfo(UopClass.ALU, alu=_alu_add),
    Op.SUB: OpInfo(UopClass.ALU, alu=_alu_sub),
    Op.AND: OpInfo(UopClass.ALU, alu=_alu_and),
    Op.OR: OpInfo(UopClass.ALU, alu=_alu_or),
    Op.XOR: OpInfo(UopClass.ALU, alu=_alu_xor),
    Op.SHL: OpInfo(UopClass.ALU, alu=_alu_shl),
    Op.SHR: OpInfo(UopClass.ALU, alu=_alu_shr),
    Op.CMP: OpInfo(UopClass.ALU, alu=_alu_sub, flags_only=True),
    Op.TEST: OpInfo(UopClass.ALU, alu=_alu_and, flags_only=True),
    Op.JMP: OpInfo(UopClass.BRANCH, is_branch=True),
    Op.JCC: OpInfo(UopClass.BRANCH, is_branch=True),
    Op.CALL: OpInfo(UopClass.BRANCH, uop_count=2, is_branch=True, is_store=True),
    Op.RET: OpInfo(UopClass.BRANCH, uop_count=2, is_branch=True, is_load=True, base_latency=2),
    Op.NOP: OpInfo(UopClass.NOP),
    Op.PREFETCH: OpInfo(UopClass.LOAD, base_latency=2),
    Op.MFENCE: OpInfo(UopClass.FENCE, uop_count=2, serialising=True, microcoded=True, base_latency=4),
    Op.LFENCE: OpInfo(UopClass.FENCE, serialising=True, base_latency=2),
    Op.SFENCE: OpInfo(UopClass.FENCE, serialising=True, base_latency=2),
    Op.CLFLUSH: OpInfo(UopClass.STORE, uop_count=2, microcoded=True, base_latency=6),
    Op.RDTSC: OpInfo(UopClass.SYSTEM, uop_count=2, serialising=True, microcoded=True, base_latency=20),
    Op.RDTSCP: OpInfo(UopClass.SYSTEM, uop_count=3, serialising=True, microcoded=True, base_latency=25),
    Op.XBEGIN: OpInfo(UopClass.SYSTEM, uop_count=2, microcoded=True, base_latency=8),
    Op.XEND: OpInfo(UopClass.SYSTEM, uop_count=2, microcoded=True, base_latency=8),
    Op.HLT: OpInfo(UopClass.SYSTEM, serialising=True),
    Op.SYSCALL: OpInfo(UopClass.SYSTEM, uop_count=4, serialising=True, microcoded=True, base_latency=60),
}
