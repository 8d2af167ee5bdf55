"""Line fill buffers -- ZombieLoad's stale-data source.

Real LFBs track in-flight cache-line fills; their payload can linger after
the fill completes, and on MDS-vulnerable parts a faulting load's microcode
assist can forward whatever stale entry matches (no address control --
that's why ZombieLoad *samples*).  We model a small FIFO of recent fills
with a captured data snapshot; :meth:`sample_stale` hands back one of them.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, NamedTuple, Optional


class LfbEntry(NamedTuple):
    """One fill buffer entry: line address, snapshot and owning thread (a
    NamedTuple: one is built per L1 miss)."""

    paddr_line: int
    data: bytes  # 64-byte snapshot captured when the fill completed
    thread_id: int


class LineFillBuffer:
    """A FIFO of the most recent line fills, shared between SMT siblings.

    Sharing between hardware threads is the cross-thread leak in
    ZombieLoad: the victim sibling's fills sit in the same structure the
    attacker's assist reads from.
    """

    def __init__(self, entries: int = 12) -> None:
        self.capacity = entries
        self._entries: Deque[LfbEntry] = deque(maxlen=entries)
        self._sample_cursor = 0

    def record_fill(self, paddr_line: int, data: bytes, thread_id: int = 0) -> None:
        """Record a completed fill of *paddr_line* with snapshot *data*."""
        self._entries.append(LfbEntry(paddr_line, bytes(data), thread_id))

    def sample_stale(self, offset_in_line: int = 0) -> Optional[int]:
        """Return one stale byte, rotating through live entries.

        Models the attacker's lack of control over *which* entry the
        assist forwards: successive faulting loads see successive entries.
        Returns ``None`` when the buffers are empty.
        """
        if not self._entries:
            return None
        self._sample_cursor = (self._sample_cursor + 1) % len(self._entries)
        entry = self._entries[self._sample_cursor]
        return entry.data[offset_in_line % len(entry.data)]

    def entries_from_thread(self, thread_id: int) -> int:
        """How many live entries belong to *thread_id* (for tests)."""
        return sum(1 for entry in self._entries if entry.thread_id == thread_id)

    def snapshot(self) -> tuple:
        """The buffers as a value: the (immutable) entries, oldest first,
        and the sampling cursor."""
        return tuple(self._entries), self._sample_cursor

    def restore(self, state: tuple) -> None:
        """Put back a :meth:`snapshot`, which stays reusable."""
        entries, self._sample_cursor = state
        self._entries = deque(entries, maxlen=self.capacity)

    def clear(self) -> None:
        """Drop all entries (e.g. on a buffer-overwriting mitigation)."""
        self._entries.clear()
        self._sample_cursor = 0

    def __len__(self) -> int:
        return len(self._entries)
