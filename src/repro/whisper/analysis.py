"""Decoding ToTE measurements back into bytes and booleans.

The paper's receiver is simple by design (§4.3.1): scan the test value
0..255, record the ToTE of each probe, take the argmax (or argmin, for
the TET-ZBL/shorter-window gadgets) per batch, and after several batches
take the most frequent winner.  TET-KASLR instead needs a binary
classifier over a bimodal ToTE population; :func:`classify_bimodal`
splits it at the widest gap, and :func:`kaslr_decision` turns that split
of one slot sweep into a kernel base.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.kernel.layout import KASLR_SLOTS, slot_base

#: The ways :class:`ArgExtremeDecoder` combines batches (its ``statistic``).
STATISTICS = ("vote", "mean")


@dataclass
class ByteScanResult:
    """Outcome of decoding one byte from batched ToTE scans."""

    value: int
    confidence: float  # fraction of batches that voted for the winner
    votes: Dict[int, int] = field(default_factory=dict)
    totes_by_test: Dict[int, List[int]] = field(default_factory=dict)


class ArgExtremeDecoder:
    """The argmax/argmin batch decoder of §4.3.1.

    ``mode="max"`` decodes channels where the trigger *lengthens* the
    window (TET-CC, TET-MD, TET-RSB); ``mode="min"`` decodes TET-ZBL,
    where the trigger shortens it.

    ``statistic`` selects how batches combine:

    * ``"vote"`` -- the paper's receiver: per-batch arg-extreme, then a
      majority vote across batches;
    * ``"mean"`` -- integrate first (mean ToTE per test value across all
      batches), then take one arg-extreme.  Averaging suppresses ambient
      noise by sqrt(batches), so this variant survives jitter comparable
      to the ~8-cycle signal where per-batch voting collapses (the E18
      noise ablation quantifies the difference).
    """

    def __init__(self, mode: str = "max", statistic: str = "vote") -> None:
        if mode not in ("max", "min"):
            raise ValueError(f"mode must be 'max' or 'min', not {mode!r}")
        if statistic not in STATISTICS:
            raise ValueError(
                f"statistic must be one of {STATISTICS}, not {statistic!r}"
            )
        self.mode = mode
        self.statistic = statistic

    def decode(self, totes_by_test: Dict[int, List[int]]) -> ByteScanResult:
        """Decode one byte from ``{test_value: [tote per batch]}``."""
        if not totes_by_test:
            raise ValueError("no measurements to decode")
        batch_counts = {len(samples) for samples in totes_by_test.values()}
        if len(batch_counts) != 1:
            raise ValueError(f"ragged batches: {sorted(batch_counts)}")
        batches = batch_counts.pop()
        pick = max if self.mode == "max" else min
        if self.statistic == "mean":
            means = {
                test: sum(samples) / batches
                for test, samples in totes_by_test.items()
            }
            value = pick(means, key=means.__getitem__)
            return ByteScanResult(
                value=value,
                confidence=1.0,  # a single integrated decision
                votes={value: batches},
                totes_by_test=totes_by_test,
            )
        votes: Counter = Counter()
        for batch in range(batches):
            winner = pick(totes_by_test, key=lambda test: totes_by_test[test][batch])
            votes[winner] += 1
        value, top_votes = votes.most_common(1)[0]
        return ByteScanResult(
            value=value,
            confidence=top_votes / batches,
            votes=dict(votes),
            totes_by_test=totes_by_test,
        )


def classify_bimodal(samples: Dict[int, int]) -> Tuple[float, Dict[int, bool]]:
    """Split a bimodal population at its widest gap.

    Returns ``(threshold, {key: is_low})``.  Used by TET-KASLR: mapped
    candidates form the low (fast) cluster, unmapped the high (slow) one.
    Degenerate unimodal inputs put everything in the low cluster.
    """
    if not samples:
        raise ValueError("nothing to classify")
    ordered = sorted(set(samples.values()))
    if len(ordered) == 1:
        threshold = ordered[0] + 0.5
        return threshold, {key: True for key in samples}
    gaps = [(ordered[i + 1] - ordered[i], i) for i in range(len(ordered) - 1)]
    widest, index = max(gaps)
    threshold = (ordered[index] + ordered[index + 1]) / 2
    return threshold, {key: value <= threshold for key, value in samples.items()}


def kaslr_decision(totes: Dict[int, int]) -> Tuple[float, List[int], Optional[int]]:
    """Decide a kernel base from one sweep's ``{slot: ToTE}``.

    Returns ``(threshold, mapped, found_base)``: the
    :func:`classify_bimodal` split, the low (mapped) slots in slot order,
    and the lowest mapped slot's base.  ``found_base`` is ``None`` when no
    slot or every slot looks mapped: a degenerate split means the oracle
    is blind (the AMD case).
    """
    threshold, is_low = classify_bimodal(totes)
    mapped = sorted(slot for slot, low in is_low.items() if low)
    found = slot_base(mapped[0]) if 0 < len(mapped) < KASLR_SLOTS else None
    return threshold, mapped, found


def error_rate(sent: bytes, received: bytes) -> float:
    """Byte error rate between a sent and received payload."""
    if not sent:
        return 0.0
    errors = sum(1 for a, b in zip(sent, received) if a != b)
    errors += abs(len(sent) - len(received))
    return errors / max(len(sent), len(received))


def bit_error_rate(sent: Sequence[int], received: Sequence[int]) -> float:
    """Bit error rate between two bit sequences (§4.4's metric)."""
    if not sent:
        return 0.0
    errors = sum(1 for a, b in zip(sent, received) if a != b)
    errors += abs(len(sent) - len(received))
    return errors / max(len(sent), len(received))


def throughput_bytes_per_second(payload_bytes: int, cycles: int, ghz: float) -> float:
    """Simulated channel throughput in bytes/second."""
    if cycles <= 0:
        raise ValueError("cycles must be positive")
    seconds = cycles / (ghz * 1e9)
    return payload_bytes / seconds


def argsort_votes(votes: Dict[int, int], top: int = 5) -> List[Tuple[int, int]]:
    """The *top* vote-getters, for debugging noisy scans."""
    return sorted(votes.items(), key=lambda item: -item[1])[:top]
