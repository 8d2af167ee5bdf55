"""TET-CC: the transient-execution-timing covert channel (§3.2, §4.1).

The sender's byte is architecturally visible to the gadget (it is a covert
*channel*, not a leak): for each test value, the Figure 1a gadget opens a
transient window with a faulting null-pointer load and executes a Jcc that
triggers only when the test value matches.  The receiver recovers the byte
from the argmax of the ToTE scan -- no cache probing, no shared-state
flushing, nothing but two ``rdtsc`` reads.

Scans run in one of two modes:

* **serial** (default): every probe runs on this machine, on one
  continuous cycle timeline, exactly as a single-threaded attacker would;
* **pooled**: pass a :class:`~repro.runtime.TrialPool` and each test
  value becomes an independent trial fanned across worker processes,
  with per-trial seeds derived so any worker count decodes identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.kernel.layout import NULL_POINTER
from repro.whisper.analysis import ArgExtremeDecoder, ByteScanResult, error_rate
from repro.whisper.gadgets import GadgetBuilder, Suppression


@dataclass
class ChannelStats:
    """Transmission statistics, the §4.1 reporting format."""

    payload_length: int
    received: bytes
    error_rate: float
    cycles: int
    seconds: float
    bytes_per_second: float

    def __str__(self) -> str:
        return (
            f"{self.payload_length} B in {self.seconds * 1e3:.3f} ms simulated "
            f"-> {self.bytes_per_second:,.0f} B/s, error rate {self.error_rate:.2%}"
        )


class TetCovertChannel:
    """The TET covert channel on one machine."""

    def __init__(
        self,
        machine,
        batches: int = 3,
        values: Sequence[int] = range(256),
        suppression: Optional[Suppression] = None,
        statistic: str = "vote",
        pool=None,
    ) -> None:
        self.machine = machine
        self.batches = batches
        self.values = list(values)
        self.builder = GadgetBuilder(machine, suppression=suppression)
        self.program = self.builder.figure1()
        self.sender_page = machine.alloc_data()
        self.decoder = ArgExtremeDecoder("max", statistic=statistic)
        self.pool = pool
        self._warmed = False
        #: Monotone trial counter: every pooled trial across the lifetime
        #: of this channel gets a distinct, order-independent seed index.
        self._trial_counter = 0
        self._spec = None

    def _warm_up(self) -> None:
        """Shed cold-code noise before the first measured scan.

        Warm-up runs advance the cycle timeline (time passes) but leave
        no trace in the PMU bank: counters are restored afterwards, so a
        measured scan's PMU deltas reflect only measured work.
        """
        baseline = self.machine.pmu.snapshot()
        self.machine.run_many(
            self.program,
            [{"r12": self.sender_page, "r13": NULL_POINTER, "r9": 256}] * 4,
        )
        self.machine.pmu.restore(baseline)
        self._warmed = True

    def scan_byte(self) -> ByteScanResult:
        """One full test-value scan of whatever the sender page holds."""
        if self.pool is not None:
            return self._scan_byte_pooled()
        if not self._warmed:
            self._warm_up()
        totes = {test: [] for test in self.values}
        for _ in range(self.batches):
            results = self.machine.run_many(
                self.program,
                [
                    {"r12": self.sender_page, "r13": NULL_POINTER, "r9": test}
                    for test in self.values
                ],
            )
            for test, result in zip(self.values, results):
                start = result.regs.read("r14")
                end = result.regs.read("r15")
                totes[test].append(end - start)
        return self.decoder.decode(totes)

    def _scan_byte_pooled(self) -> ByteScanResult:
        """Fan the scan across the trial pool: one trial per test value.

        Each trial runs on a worker-owned machine reset to a just-booted
        profile, so results are bit-identical at any worker count.  The
        summed per-trial cycle cost is charged to this machine's
        timeline.  That is more simulated work than the serial scan does:
        each trial runs its own warm-up, which the serial path runs once
        per channel.  So the decoded byte matches the serial path's while
        the simulated time and throughput do not.  A machine built with
        ``seed=None`` raises ``ValueError``: workers could not rebuild it
        (:meth:`MachineSpec.of`).
        """
        from repro.runtime.spec import MachineSpec
        from repro.runtime.tasks import channel_trials, run_channel_trial

        if self._spec is None:
            self._spec = MachineSpec.of(self.machine)
        byte = self.machine.read_data(self.sender_page, 1)[0]
        pairs, self._trial_counter = channel_trials(
            self._spec,
            bytes([byte]),
            batches=self.batches,
            values=self.values,
            suppression=self.builder.suppression.value,
            start_index=self._trial_counter,
        )
        trials = [trial for _, trial in pairs]
        outcomes = self.pool.map(run_channel_trial, trials)
        totes = {
            test: list(outcome.totes)
            for test, outcome in zip(self.values, outcomes)
        }
        self.machine.core.global_cycle += sum(o.cycles for o in outcomes)
        return self.decoder.decode(totes)

    def send_byte(self, value: int) -> ByteScanResult:
        """Sender writes *value*; receiver scans and decodes it."""
        self.machine.write_data(self.sender_page, bytes([value & 0xFF]) + b"\x00" * 7)
        return self.scan_byte()

    def transmit(self, payload: bytes) -> ChannelStats:
        """Send *payload* byte-by-byte; return the §4.1 statistics.

        Warm-up happens before the clock starts: the measured cycle count
        (and hence the B/s figure) covers only the scans themselves.
        """
        if self.pool is None and not self._warmed:
            self._warm_up()
        start_cycle = self.machine.core.global_cycle
        received = bytes(self.send_byte(value).value for value in payload)
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
