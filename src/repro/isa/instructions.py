"""The :class:`Instruction` value type and memory-operand representation."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from repro.isa.opcodes import _COND_EVAL, OP_INFO, Cond, Op, OpInfo


@dataclass(frozen=True)
class MemRef:
    """A ``[base + index*scale + disp]`` memory operand.

    ``base``/``index`` are register names or ``None``; ``disp`` is a byte
    displacement.  Effective-address computation lives here so the load/
    store unit and ``lea`` share one definition.
    """

    base: Optional[str] = None
    index: Optional[str] = None
    scale: int = 1
    disp: int = 0

    def effective_address(self, read_reg) -> int:
        """Compute the effective address using *read_reg* (name -> value)."""
        address = self.disp
        if self.base is not None:
            address += read_reg(self.base)
        if self.index is not None:
            address += read_reg(self.index) * self.scale
        return address & ((1 << 64) - 1)

    def __str__(self) -> str:
        parts = []
        if self.base:
            parts.append(self.base)
        if self.index:
            parts.append(f"{self.index}*{self.scale}" if self.scale != 1 else self.index)
        if self.disp or not parts:
            parts.append(f"{self.disp:#x}" if self.disp >= 0 else f"-{-self.disp:#x}")
        return "[" + " + ".join(parts) + "]"


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction.

    Fields are operand slots -- which are populated depends on ``op``:

    * ``dst``/``src``: register names for register operands.
    * ``imm``: immediate value.
    * ``mem``: a :class:`MemRef` for memory operands (LOAD/STORE/CLFLUSH/LEA).
    * ``target``: label name for control flow (resolved to an address by the
      assembler and stored in ``target_addr``).
    * ``cond``: condition code for JCC.
    """

    op: Op
    dst: Optional[str] = None
    src: Optional[str] = None
    imm: Optional[int] = None
    mem: Optional[MemRef] = None
    target: Optional[str] = None
    target_addr: Optional[int] = None
    cond: Optional[Cond] = None
    #: Source-line comment carried through for traces (purely cosmetic).
    comment: str = field(default="", compare=False)

    @cached_property
    def info(self) -> OpInfo:
        """Static decode metadata for this opcode (cached: the opcode
        table lookup sat on the core's dispatch path)."""
        return OP_INFO[self.op]

    @cached_property
    def cond_eval(self):
        """``cond``'s flag predicate ``(zf, cf, sf, of) -> bool``, resolved
        once per instruction (:meth:`Cond.evaluate` hashes the member on
        every call, and the core evaluates one per dispatched Jcc)."""
        return _COND_EVAL[self.cond]

    @property
    def is_branch(self) -> bool:
        return self.info.is_branch

    @property
    def is_memory(self) -> bool:
        return self.info.is_load or self.info.is_store

    @property
    def uop_count(self) -> int:
        return self.info.uop_count

    def with_target_addr(self, addr: int) -> "Instruction":
        """Return a copy with the branch target resolved to *addr*."""
        return Instruction(
            op=self.op,
            dst=self.dst,
            src=self.src,
            imm=self.imm,
            mem=self.mem,
            target=self.target,
            target_addr=addr,
            cond=self.cond,
            comment=self.comment,
        )

    def __str__(self) -> str:
        mnemonic = self.op.value
        if self.op is Op.JCC and self.cond is not None:
            mnemonic = "j" + self.cond.value
        operands = []
        if self.dst is not None:
            operands.append(self.dst)
        if self.mem is not None:
            operands.append(str(self.mem))
        if self.src is not None:
            operands.append(self.src)
        if self.imm is not None:
            operands.append(f"{self.imm:#x}" if abs(self.imm) > 9 else str(self.imm))
        if self.target is not None:
            operands.append(self.target)
        elif self.target_addr is not None:
            operands.append(f"{self.target_addr:#x}")
        text = mnemonic + (" " + ", ".join(operands) if operands else "")
        return text
