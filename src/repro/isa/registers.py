"""Architectural register file and status flags.

The simulator keeps architectural state in a :class:`RegisterFile`; the
out-of-order core snapshots and restores it on squashes, and transient
execution operates on a speculative copy so that rolled-back work never
reaches architectural state (the defining property the paper exploits).
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
        #: Copy-on-write journal: ``None`` when inactive, else a list of
        #: undo entries appended before every mutation (see
        #: :meth:`begin_journal`).  The out-of-order core uses it so a
        #: speculation snapshot is an O(1) mark instead of a full copy.
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
            self._journal.append((0, name, regs[name]))
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
            self._journal.append((1, name, flags[name]))
        flags[name] = bool(value)

    def set_alu_flags(self, result: int, carry: bool = False, overflow: bool = False) -> None:
        """Update ZF/SF from *result* and CF/OF from the supplied carries."""
        result &= MASK64
        flags = self._flags
        if self._journal is not None:
            self._journal.append(
                (2, None, (flags["zf"], flags["sf"], flags["cf"], flags["of"]))
            )
        flags["zf"] = result == 0
        flags["sf"] = bool(result >> 63)
        flags["cf"] = carry
        flags["of"] = overflow

    # -- copy-on-write journaling ----------------------------------------------

    def begin_journal(self) -> None:
        """Arm the undo journal: every subsequent mutation records the
        value it overwrites.  :meth:`journal_mark` then captures the
        current state in O(1) and :meth:`journal_rollback` restores it in
        time proportional to the writes since the mark -- the property
        that makes transient-window squashes cost what the transient work
        cost, not what the architectural state weighs.

        The journal lives *inside* the register file (rather than in the
        core) so external mutators -- the kernel's syscall handler gets
        handed the speculative file directly -- are journaled too.
        """
        self._journal = []

    def end_journal(self) -> None:
        """Disarm and drop the journal (mutations stop being recorded)."""
        self._journal = None

    def journal_mark(self) -> int:
        """O(1) snapshot: the current journal length."""
        return len(self._journal)

    def journal_rollback(self, mark: int) -> None:
        """Undo every mutation recorded since :meth:`journal_mark`
        returned *mark*, newest first."""
        journal = self._journal
        regs = self._regs
        flags = self._flags
        while len(journal) > mark:
            kind, name, old = journal.pop()
            if kind == 0:
                regs[name] = old
            elif kind == 1:
                flags[name] = old
            else:  # composite ALU-flags entry
                flags["zf"], flags["sf"], flags["cf"], flags["of"] = old

    def snapshot(self) -> dict:
        """Return a copyable snapshot of the full architectural state."""
        return {"regs": dict(self._regs), "flags": dict(self._flags)}

    def restore(self, snapshot: dict) -> None:
        """Restore state captured by :meth:`snapshot`."""
        self._regs = dict(snapshot["regs"])
        self._flags = dict(snapshot["flags"])

    def copy(self) -> "RegisterFile":
        """Return an independent copy (used for speculative state)."""
        clone = RegisterFile()
        clone._regs = dict(self._regs)
        clone._flags = dict(self._flags)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        live = {name: value for name, value in self._regs.items() if value}
        flags = "".join(name[0].upper() if on else "" for name, on in self._flags.items())
        return f"RegisterFile({live}, flags={flags or '-'})"
