"""The streaming detector: per-trial verdicts as a campaign executes.

A :class:`StreamingDetector` binds one fitted
:class:`~repro.defend.calibrate.Calibration` to one campaign spec and
consumes ``(TrialRef, outcome)`` pairs as they complete -- via the
:class:`~repro.campaign.runner.CampaignRunner` ``sink=`` hook on a single
host, or via :meth:`ingest_store` against any store: a fleet's segment
stores one by one, or their merge.

Verdict-level determinism is structural, not incidental: each verdict is
a pure function of the calibration and that one trial's stored feature
vector, ingestion deduplicates on the trial's grid coordinate, and every
read-out (:meth:`verdicts`, :meth:`detection_latencies`) sorts by
coordinate.  Serial, pooled, resumed, and shard-merged executions of the
same campaign therefore stream *different orders* of the same pairs into
the detector and read *identical* conclusions back out -- the property
``tests/test_defend_properties.py`` pins.

Detection latency follows the online-detection literature: for each
attack stream (one ``(cell, rep)`` of a detect cell), the number of
observation windows from the start of the stream until the first flagged
window, or ``None`` if the stream was never flagged.  The E11 claim in
streaming terms: Flush+Reload streams flag within a window or two, TET
streams never flag at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.defend.calibrate import Calibration
from repro.defend.features import FeatureVector
from repro.defend.scenarios import get_scenario


@dataclass(frozen=True)
class Verdict:
    """The detector's call on one observation window."""

    cell: int
    rep: int
    coord: int
    scenario: str
    taxonomy: str
    #: Ground truth (from the scenario registry, not visible to the model).
    attack: bool
    #: The calibrated model's probability-like score in [0, 1].
    score: float
    #: ``score > calibration.threshold``.
    flagged: bool

    def key(self) -> Tuple[int, int, int]:
        return (self.cell, self.rep, self.coord)


class StreamingDetector:
    """Score one campaign's detect trials as their outcomes arrive."""

    def __init__(self, calibration: Calibration, spec) -> None:
        self.calibration = calibration
        self.spec = spec
        #: cell index -> scenario, for the spec's detect cells only.
        self._cell_scenarios: Dict[int, object] = {
            index: get_scenario(cell.param("scenario"))
            for index, cell in enumerate(spec.cells)
            if cell.kind == "detect"
        }
        self._verdicts: Dict[Tuple[int, int, int], Verdict] = {}
        #: Windows skipped because their outcome was a TrialFailure.
        self.failed_windows = 0

    # -- ingestion -------------------------------------------------------------

    def ingest(self, ref, outcome) -> Optional[Verdict]:
        """Score one completed trial; idempotent per grid coordinate.

        Non-detect trials (a mixed campaign's channel/KASLR cells) and
        quarantined failures pass through unscored.  Re-ingesting a
        coordinate returns the existing verdict -- replay-then-execute
        resumes and at-least-once fleet delivery cannot double-count.
        """
        scenario = self._cell_scenarios.get(ref.cell)
        if scenario is None:
            return None
        key = (ref.cell, ref.rep, ref.coord)
        existing = self._verdicts.get(key)
        if existing is not None:
            return existing
        totes = getattr(outcome, "totes", None)
        if totes is None:  # TrialFailure: no window to score
            self.failed_windows += 1
            return None
        features = FeatureVector.from_ints(totes)
        score = self.calibration.score(features)
        verdict = Verdict(
            cell=ref.cell,
            rep=ref.rep,
            coord=ref.coord,
            scenario=scenario.name,
            taxonomy=scenario.taxonomy,
            attack=scenario.attack,
            score=score,
            flagged=score > self.calibration.threshold,
        )
        self._verdicts[key] = verdict
        return verdict

    def sink(self, ref, outcome) -> None:
        """:class:`CampaignRunner` ``sink=`` adapter (drops the return)."""
        self.ingest(ref, outcome)

    def ingest_store(self, store) -> int:
        """Ingest every stored outcome of the bound spec; returns the count.

        A store segment holds only its own shard's trials, so ingesting
        segments one by one reaches the same verdicts as ingesting their
        merge: the dedup above makes a repeated trial a no-op.
        """
        from repro.campaign.store import trial_key

        refs = self.spec.expand()
        keys = [trial_key(ref.trial) for ref in refs]
        cached = store.get_many(keys)
        ingested = 0
        for ref, key in zip(refs, keys):
            outcome = cached.get(key)
            if outcome is not None and self.ingest(ref, outcome) is not None:
                ingested += 1
        return ingested

    # -- read-outs (all coordinate-sorted, never arrival-ordered) --------------

    def verdicts(self) -> List[Verdict]:
        return [self._verdicts[key] for key in sorted(self._verdicts)]

    def detection_latencies(self) -> Dict[Tuple[int, int], Optional[int]]:
        """Windows-to-first-flag per attack stream (``None`` = never).

        Keyed by ``(cell, rep)``; benign streams are excluded (a flag
        there is a false positive, not a detection).
        """
        streams: Dict[Tuple[int, int], List[Verdict]] = {}
        for verdict in self.verdicts():
            if verdict.attack:
                streams.setdefault((verdict.cell, verdict.rep), []).append(verdict)
        latencies: Dict[Tuple[int, int], Optional[int]] = {}
        for stream_key, stream in streams.items():
            flagged = [v.coord for v in stream if v.flagged]
            latencies[stream_key] = min(flagged) + 1 if flagged else None
        return latencies


__all__ = ["StreamingDetector", "Verdict"]
