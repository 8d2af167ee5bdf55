"""A log-time TET covert channel: binary search over the byte value.

The paper's receiver scans all 256 test values per byte (§4.3.1).  The
channel itself supports something stronger: with an *ordered* condition
(``jb`` -- below -- instead of ``je``), one probe answers "is the sent
byte below the test value?", and eight probes recover the byte.

The subtlety is prediction state: the argmax decoder never needs to know
which direction the predictor holds, but a binary search must interpret
a *single* probe.  The receiver therefore maintains a software mirror of
the branch's 2-bit counter (it observes every training input, because it
issues every run itself), predicts what the hardware will predict, and
reads "mispredict happened" (ToTE above the calibrated quiet baseline)
as "actual direction != mirrored prediction".  This is an extension
beyond the paper -- TET-CC-BS -- showing the channel is not tied to
equality tests; the bench compares it against the linear scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.kernel.layout import NULL_POINTER
from repro.whisper.channel import ChannelStats
from repro.whisper.analysis import error_rate
from repro.whisper.gadgets import GadgetBuilder, Suppression


class _PhtMirror:
    """The receiver's model of one bimodal 2-bit counter."""

    def __init__(self) -> None:
        self.counter = 1  # the PHT's weakly-not-taken reset state

    def predict(self) -> bool:
        return self.counter >= 2

    def update(self, taken: bool) -> None:
        self.counter = min(3, self.counter + 1) if taken else max(0, self.counter - 1)


@dataclass
class ProbeOutcome:
    """One ordered probe: the question asked and the answer read."""

    test: int
    tote: int
    mispredicted: bool
    below: bool  # sent byte < test


class BinarySearchChannel:
    """TET-CC-BS: eight ordered probes per byte instead of 256."""

    def __init__(self, machine, suppression: Optional[Suppression] = None) -> None:
        self.machine = machine
        self.builder = GadgetBuilder(machine, suppression=suppression)
        self.program = self._build_ordered_gadget()
        self.sender_page = machine.alloc_data()
        self.mirror = _PhtMirror()
        self._quiet_tote: Optional[int] = None
        self._calibrate()

    def _build_ordered_gadget(self):
        """Figure 1a with an ordered condition: jb fires iff sent < test."""
        transient = """
    load r8, [r13]          ; open the window
    cmp rbx, r9             ; sent byte vs test value
    jb bs_below             ; taken iff sent < test
    nop
bs_below:"""
        prologue = """
    loadb rbx, [r12]
    mfence"""
        return self.builder._load(self.builder._wrap_transient(transient, prologue))

    def _run(self, sent_page_value_unknown_test: int) -> int:
        result = self.machine.run(
            self.program,
            regs={
                "r12": self.sender_page,
                "r13": NULL_POINTER,
                "r9": sent_page_value_unknown_test,
            },
        )
        return result.regs.read("r15") - result.regs.read("r14")

    def _calibrate(self) -> None:
        """Learn the quiet (correctly predicted) ToTE baseline.

        The receiver controls the sender page during calibration, so it
        can run probes with *known* directions and track the mirror."""
        self.machine.write_data(self.sender_page, b"\x00")
        # sent=0, test=0: "0 < 0" is false -> jb not taken, matching the
        # counter's weakly-not-taken reset state: all quiet probes.
        totes = []
        for _ in range(8):
            tote = self._run(0)
            self.mirror.update(False)
            totes.append(tote)
        self._quiet_tote = sorted(totes)[len(totes) // 2]

    def probe(self, test: int) -> ProbeOutcome:
        """Ask "is the sent byte below *test*?" with one probe."""
        predicted = self.mirror.predict()
        tote = self._run(test)
        mispredicted = tote > self._quiet_tote + 4
        below = (not predicted) if mispredicted else predicted
        self.mirror.update(below)
        return ProbeOutcome(test=test, tote=tote, mispredicted=mispredicted, below=below)

    def receive_byte(self) -> int:
        """Binary-search the sent byte in eight probes."""
        lo, hi = 0, 256  # invariant: lo <= sent < hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.probe(mid).below:
                hi = mid
            else:
                lo = mid
        return lo

    def send_byte(self, value: int) -> int:
        """Sender writes *value*; receiver binary-searches it."""
        self.machine.write_data(self.sender_page, bytes([value & 0xFF]))
        return self.receive_byte()

    def transmit(self, payload: bytes) -> ChannelStats:
        """Send *payload* through the log-time channel."""
        start_cycle = self.machine.core.global_cycle
        received = bytes(self.send_byte(value) for value in payload)
        cycles = self.machine.core.global_cycle - start_cycle
        seconds = self.machine.seconds(cycles)
        return ChannelStats(
            payload_length=len(payload),
            received=received,
            error_rate=error_rate(payload, received),
            cycles=cycles,
            seconds=seconds,
            bytes_per_second=len(payload) / seconds if seconds > 0 else 0.0,
        )
