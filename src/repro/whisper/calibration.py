"""Receiver self-calibration: measure the channel before trusting it.

A covert-channel receiver controls both ends during setup, so it can
characterise its own channel: send known bytes, measure the quiet ToTE
distribution and the trigger delta, and choose the batch count that
reaches a target error rate.  This is the adaptive layer a production
TET toolkit would ship on top of the paper's fixed-batch receiver, and
it quantifies the signal-to-noise budget the E18 ablation sweeps.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import List

from repro.kernel.layout import NULL_POINTER
from repro.whisper.channel import TetCovertChannel


@dataclass
class ChannelCalibration:
    """What the calibration pass learned."""

    quiet_mean: float
    quiet_stdev: float
    trigger_mean: float
    trigger_stdev: float
    samples: int

    @property
    def delta(self) -> float:
        """The signal: mean ToTE shift when the Jcc triggers."""
        return self.trigger_mean - self.quiet_mean

    @property
    def noise(self) -> float:
        """The per-sample noise the decoder must overcome."""
        return max(self.quiet_stdev, self.trigger_stdev)

    @property
    def snr(self) -> float:
        """Signal-to-noise ratio (infinite on a noise-free machine)."""
        if self.noise == 0:
            return math.inf
        return abs(self.delta) / self.noise

    def recommended_batches(self, candidates: int = 256, z: float = 3.5) -> int:
        """Batches needed so the mean-statistic decoder separates the
        trigger from *candidates* quiet competitors at ~*z* sigma.

        With n batches the mean's noise shrinks by sqrt(n); we require
        ``|delta| > z * noise / sqrt(n)`` (z defaults near the expected
        maximum of a few hundred standard normals) and double the result:
        a scan's effective noise exceeds the fixed-value calibration's
        (per-test systematic offsets), so the estimate is a lower bound."""
        if self.delta == 0:
            raise ValueError("channel is flat: no signal to calibrate against")
        if self.noise == 0:
            return 1
        needed = 2 * (z * self.noise / abs(self.delta)) ** 2
        return max(1, math.ceil(needed))

    def usable(self) -> bool:
        """A channel with |delta| below one cycle is not decodable."""
        return abs(self.delta) >= 1.0


def calibrate_channel(channel: TetCovertChannel, samples: int = 24) -> ChannelCalibration:
    """Characterise *channel* by sending known bytes through it.

    Uses byte 0x00 with probes at a never-matching and at the matching
    test value, interleaving retraining the way the scan itself does.
    """
    machine = channel.machine
    known = 0x5C
    machine.write_data(channel.sender_page, bytes([known]))

    def probe(test: int) -> int:
        result = machine.run(
            channel.program,
            regs={"r12": channel.sender_page, "r13": NULL_POINTER, "r9": test},
        )
        return result.regs.read("r15") - result.regs.read("r14")

    for _ in range(6):  # warm code and predictor
        probe(256)
    quiet: List[int] = []
    trigger: List[int] = []
    for _ in range(samples):
        for _ in range(3):  # keep the predictor on the common direction
            probe(256)
        quiet.append(probe(256))
        for _ in range(3):
            probe(256)
        trigger.append(probe(known))
    return ChannelCalibration(
        quiet_mean=statistics.mean(quiet),
        quiet_stdev=statistics.pstdev(quiet),
        trigger_mean=statistics.mean(trigger),
        trigger_stdev=statistics.pstdev(trigger),
        samples=samples,
    )
