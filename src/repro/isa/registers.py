"""Architectural register file and status flags.

The simulator keeps architectural state in a :class:`RegisterFile`.
Transient execution writes the run engine's file directly; while
speculation is live every write is journaled into the engine's undo
list, so a squash puts back exactly what the rolled-back work changed
(the defining property the paper exploits).
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1

#: The sixteen x86-64 general-purpose registers, in encoding order.
GPRS = (
    "rax",
    "rbx",
    "rcx",
    "rdx",
    "rsi",
    "rdi",
    "rbp",
    "rsp",
    "r8",
    "r9",
    "r10",
    "r11",
    "r12",
    "r13",
    "r14",
    "r15",
)

#: Status flags modelled from RFLAGS (the subset Jcc conditions consume).
FLAGS = ("zf", "cf", "sf", "of")

#: Template state dicts (copied per register file; ``dict.copy`` beats a
#: comprehension on the per-run construction path).
_ZERO_REGS = {name: 0 for name in GPRS}
_CLEAR_FLAGS = {name: False for name in FLAGS}

#: Kinds of the undo entries the register file journals, as
#: ``(kind, key, old)``: a register, a flag, or the four ALU flags
#: together (key ``None``, old ``(zf, sf, cf, of)``).  A journal's owner
#: numbers its own entry kinds above these.
REG, FLAG, ALU_FLAGS = 0, 1, 2


class RegisterFile:
    """Sixteen 64-bit general-purpose registers plus ZF/CF/SF/OF.

    Values are always kept wrapped to 64 bits.  Unknown register names
    raise ``KeyError`` immediately -- silent creation of registers would
    hide assembler typos.
    """

    __slots__ = ("_regs", "_flags", "_journal")

    def __init__(self) -> None:
        self._regs = _ZERO_REGS.copy()
        self._flags = _CLEAR_FLAGS.copy()
        #: The undo list mutations are journaled into (see
        #: :meth:`begin_journal`), or ``None`` when nothing records.
        self._journal = None

    def read(self, name: str) -> int:
        """Return the 64-bit value of register *name*."""
        return self._regs[name]

    def write(self, name: str, value: int) -> None:
        """Set register *name* to *value*, wrapped to 64 bits."""
        regs = self._regs
        if name not in regs:
            raise KeyError(f"unknown register {name!r}")
        if self._journal is not None:
            self._journal.append((REG, name, regs[name]))
        regs[name] = value & MASK64

    def read_flag(self, name: str) -> bool:
        """Return the boolean value of flag *name* (``zf``/``cf``/``sf``/``of``)."""
        return self._flags[name]

    def write_flag(self, name: str, value: bool) -> None:
        """Set flag *name* to *value*."""
        flags = self._flags
        if name not in flags:
            raise KeyError(f"unknown flag {name!r}")
        if self._journal is not None:
            self._journal.append((FLAG, name, flags[name]))
        flags[name] = bool(value)

    def set_alu_flags(self, result: int, carry: bool = False, overflow: bool = False) -> None:
        """Update ZF/SF from *result* and CF/OF from the supplied carries."""
        result &= MASK64
        flags = self._flags
        if self._journal is not None:
            self._journal.append(
                (ALU_FLAGS, None, (flags["zf"], flags["sf"], flags["cf"], flags["of"]))
            )
        flags["zf"] = result == 0
        flags["sf"] = bool(result >> 63)
        flags["cf"] = carry
        flags["of"] = overflow

    # -- journaling ------------------------------------------------------------

    def begin_journal(self, journal: list) -> None:
        """Append an undo entry to *journal* before every mutation from
        now on.  The run engine hands in its one undo list, which also
        holds its readiness, TSX-stack and memory entries, so external
        mutators -- the kernel's syscall handler gets handed this file
        directly -- are journaled too."""
        self._journal = journal

    def end_journal(self) -> None:
        """Stop journaling (the list itself belongs to the caller)."""
        self._journal = None

    def undo(self, kind: int, name, old) -> None:
        """Put back one journaled entry's *old* value, unjournaled."""
        if kind == REG:
            self._regs[name] = old
        elif kind == FLAG:
            self._flags[name] = old
        else:
            flags = self._flags
            flags["zf"], flags["sf"], flags["cf"], flags["of"] = old

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        live = {name: value for name, value in self._regs.items() if value}
        flags = "".join(name[0].upper() if on else "" for name, on in self._flags.items())
        return f"RegisterFile({live}, flags={flags or '-'})"
