"""Order statistics for ledger samples."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
#: A percentile is reported only with at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3), with ``statistics.quantiles`` default method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def tail_percentile(count: int) -> Optional[Tuple[float, int]]:
    """The highest ladder percentile with ``TAIL_MIN_BEYOND`` samples
    beyond it among *count*, as ``(percentile, samples beyond)``."""
    for percentile in TAIL_LADDER:
        beyond = count - math.ceil(count * percentile / 100)
        if beyond >= TAIL_MIN_BEYOND:
            return percentile, beyond
    return None


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * pct / 100))
    return ordered[rank - 1]


def describe(values: Sequence[float]) -> dict:
    """Median, quartiles, n and the tail percentile (when one qualifies)."""
    q1, median, q3 = quartiles(values)
    out = {"median": median, "q1": q1, "q3": q3, "n": len(values)}
    tail = tail_percentile(len(values))
    if tail is not None:
        out["tail"] = {"p": tail[0], "value": percentile(values, tail[0]),
                       "beyond": tail[1]}
    return out
