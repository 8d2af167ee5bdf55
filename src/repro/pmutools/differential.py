"""Offline stage, part 1: differential filtering.

"This raw data can be filtered out by simple differential methods to
filter out the irrelevant parts" (§5.1): an event is interesting when its
mean differs between the two conditions by more than noise."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.pmutools.collector import CollectionResult
from repro.uarch.pmu import EVENTS_BY_NAME


@dataclass(frozen=True)
class FilteredEvent:
    """One event that survived the differential filter."""

    name: str
    domain: str
    condition0: float
    condition1: float

    @property
    def difference(self) -> float:
        return self.condition1 - self.condition0


class DifferentialFilter:
    """Keeps events whose two-condition difference clears a threshold."""

    def __init__(self, absolute_threshold: float = 0.5, relative_threshold: float = 0.02) -> None:
        self.absolute_threshold = absolute_threshold
        self.relative_threshold = relative_threshold

    def filter(self, collection: CollectionResult) -> List[FilteredEvent]:
        """Return the condition-sensitive events, largest difference first."""
        survivors: List[FilteredEvent] = []
        for name, (mean0, mean1) in collection.means.items():
            difference = abs(mean1 - mean0)
            relative = difference / max(abs(mean0), 1e-9)
            if difference < self.absolute_threshold:
                continue
            if relative < self.relative_threshold:
                continue
            survivors.append(
                FilteredEvent(
                    name=name,
                    domain=EVENTS_BY_NAME[name].domain,
                    condition0=mean0,
                    condition1=mean1,
                )
            )
        survivors.sort(key=lambda event: -abs(event.difference))
        return survivors

    def rejected(self, collection: CollectionResult) -> List[str]:
        """Event names the filter discarded (the 'irrelevant parts')."""
        kept = {event.name for event in self.filter(collection)}
        return [name for name in collection.means if name not in kept]
