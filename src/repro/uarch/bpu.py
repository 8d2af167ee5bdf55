"""Branch prediction: pattern history table, BTB, and the return stack.

Three properties matter to the paper:

* the PHT is trained by *transient* executions too (speculative update),
  which is why the TET-MD loop's Jcc settles into a strong taken/not-taken
  prediction that only the secret-matching test value violates;
* the RSB predicts ``ret`` targets from call/return pairing, and a
  mismatching architectural return address (Listing 1's overwritten stack
  slot) makes every ``ret`` a misprediction -- Spectre-V5-RSB;
* mispredict counts feed the ``BR_MISP_EXEC.*`` events of Table 3.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class PatternHistoryTable:
    """Per-address 2-bit saturating counters with a small global history.

    Indexing is gshare-like (PC xor history) so distinct gadget branches
    don't alias in the tests.
    """

    def __init__(self, entries: int = 4096, history_bits: int = 0) -> None:
        self.entries = entries
        self.history_bits = history_bits
        self._table: Dict[int, int] = {}
        self._history = 0

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self._history) % self.entries

    def predict(self, pc: int) -> bool:
        """Predict taken/not-taken for the branch at *pc*."""
        counter = self._table.get(self._index(pc), 1)  # weakly not-taken
        return counter >= 2

    def snapshot(self) -> tuple:
        """The counters (as ``(index, counter)`` pairs) and the history."""
        return tuple(self._table.items()), self._history

    def restore(self, state: tuple) -> None:
        """Put back a :meth:`snapshot`, which stays reusable."""
        table, self._history = state
        self._table = dict(table)

    def update(self, pc: int, taken: bool) -> None:
        """Train on the resolved direction (speculative update: the core
        calls this when the branch *executes*, even transiently)."""
        index = self._index(pc)
        counter = self._table.get(index, 1)
        counter = min(3, counter + 1) if taken else max(0, counter - 1)
        self._table[index] = counter
        mask = (1 << self.history_bits) - 1
        self._history = ((self._history << 1) | int(taken)) & mask


class BranchTargetBuffer:
    """Direct-mapped target cache for taken branches."""

    def __init__(self, entries: int = 1024) -> None:
        self.entries = entries
        self._table: Dict[int, Tuple[int, int]] = {}
        self.lookups = 0
        self.correct = 0

    def predict(self, pc: int) -> Optional[int]:
        """Predicted target for the branch at *pc*, or ``None``."""
        self.lookups += 1
        entry = self._table.get((pc >> 2) % self.entries)
        if entry is None or entry[0] != pc:
            return None
        self.correct += 1
        return entry[1]

    def update(self, pc: int, target: int) -> None:
        """Record the resolved target of a taken branch."""
        self._table[(pc >> 2) % self.entries] = (pc, target)

    def snapshot(self) -> tuple:
        """The targets (as ``(index, (pc, target))`` pairs) and the
        lookup statistics."""
        return tuple(self._table.items()), self.lookups, self.correct

    def restore(self, state: tuple) -> None:
        """Put back a :meth:`snapshot`, which stays reusable."""
        table, self.lookups, self.correct = state
        self._table = dict(table)


class ReturnStackBuffer:
    """A fixed-depth return-address stack.

    Underflow falls back to the BTB-style behaviour of predicting nothing;
    overflow silently drops the oldest entry, both as on real parts.  The
    Spectre-V5 trick is not over/underflow but a *stale* entry: the RSB
    top is correct for the call, while the architectural return address on
    the stack was overwritten -- so the prediction is confidently wrong.
    """

    def __init__(self, depth: int = 16) -> None:
        self.depth = depth
        self._stack: List[int] = []

    def push(self, return_address: int) -> None:
        """Record *return_address* on a ``call``."""
        if len(self._stack) >= self.depth:
            del self._stack[0]
        self._stack.append(return_address)

    def pop_prediction(self) -> Optional[int]:
        """Predict a ``ret`` target; ``None`` on underflow."""
        if not self._stack:
            return None
        return self._stack.pop()

    def clear(self) -> None:
        """Empty the stack (context switch / explicit RSB stuffing)."""
        self._stack.clear()

    def snapshot(self) -> tuple:
        """The stacked return addresses, oldest first."""
        return tuple(self._stack)

    def restore(self, state: tuple) -> None:
        """Put back a :meth:`snapshot`, which stays reusable."""
        self._stack = list(state)

    def __len__(self) -> int:
        return len(self._stack)


class BranchPredictor:
    """The complete BPU: PHT + BTB + RSB with one prediction interface."""

    def __init__(self, pht_entries: int = 4096, btb_entries: int = 1024, rsb_depth: int = 16) -> None:
        self.pht = PatternHistoryTable(entries=pht_entries)
        self.btb = BranchTargetBuffer(entries=btb_entries)
        self.rsb = ReturnStackBuffer(depth=rsb_depth)
        self.conditional_predictions = 0
        self.conditional_mispredicts = 0

    def snapshot(self) -> tuple:
        """The PHT's, BTB's and RSB's snapshots, then the Jcc statistics."""
        return (
            self.pht.snapshot(),
            self.btb.snapshot(),
            self.rsb.snapshot(),
            self.conditional_predictions,
            self.conditional_mispredicts,
        )

    def restore(self, state: tuple) -> None:
        """Put back a :meth:`snapshot`."""
        pht, btb, rsb, self.conditional_predictions, self.conditional_mispredicts = state
        self.pht.restore(pht)
        self.btb.restore(btb)
        self.rsb.restore(rsb)

    def predict_conditional(self, pc: int, taken_target: int) -> Tuple[bool, int]:
        """Predict a Jcc at *pc*: returns (taken?, next fetch pc target).

        The not-taken target (fall-through) is supplied by the caller's
        fetch logic; this returns the *taken* target when predicting taken.
        """
        self.conditional_predictions += 1
        return self.pht.predict(pc), taken_target

    def resolve_conditional(self, pc: int, predicted: bool, actual: bool) -> bool:
        """Train the PHT; return whether this was a misprediction."""
        self.pht.update(pc, actual)
        mispredicted = predicted != actual
        if mispredicted:
            self.conditional_mispredicts += 1
        return mispredicted

    def on_call(self, return_address: int, target: int, pc: int) -> None:
        """Record a ``call``: push the RSB, train the BTB."""
        self.rsb.push(return_address)
        self.btb.update(pc, target)

    def predict_return(self) -> Optional[int]:
        """Predict a ``ret`` target from the RSB (pops the entry)."""
        return self.rsb.pop_prediction()
