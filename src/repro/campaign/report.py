"""Structured campaign run records and their rendered artifacts.

A :class:`CampaignReport` is built purely from ``(spec, expanded refs,
trial results)`` -- no wall-clock, no cache statistics, no hostnames --
so the artifact a campaign produces is *byte-identical* whether its
trials were freshly executed, fully replayed from the store, or any mix.
Execution provenance (cached vs live counts, wall time) lives in the
runner's :class:`~repro.campaign.runner.RunStats` instead and is printed,
never serialised into the artifact.

Two renderings: ``render_text()`` for humans, ``to_json()`` (stable key
order, fixed indentation) for machines -- the same shape the benchmark
harness emits as ``BENCH``-style JSON artifacts.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro import __version__ as REPRO_VERSION
from repro.campaign.spec import CampaignSpec, TrialRef
from repro.campaign.store import canonical_json, spec_digest
from repro.kernel.kaslr import randomize_layout
from repro.runtime.tasks import TrialFailure, TrialResult, kaslr_strategy
from repro.uarch.config import cpu_model
from repro.whisper.analysis import ArgExtremeDecoder, kaslr_decision

#: Version of the report artifact layout (``report.json`` /
#: ``reproduction_report.json``).  Bump on any key-level change to the
#: artifact shape.  Distributed merges refuse to combine segments whose
#: manifests disagree on this number -- statistical conclusions drawn
#: from a fleet are only trustworthy when every host aggregated under
#: the same report semantics.
REPORT_SCHEMA_VERSION = 1


@dataclass
class CampaignReport:
    """The deterministic record of one campaign's results."""

    name: str
    digest: str
    version: str
    cells: List[dict] = field(default_factory=list)

    def summary(self) -> dict:
        """Aggregate counters over all cells (part of the artifact)."""
        channel_cells = [c for c in self.cells if c["kind"] == "channel"]
        kaslr_cells = [c for c in self.cells if c["kind"] == "kaslr"]
        detect_cells = [c for c in self.cells if c["kind"] == "detect"]
        channel_reps = [rep for c in channel_cells for rep in c["reps"]]
        kaslr_reps = [rep for c in kaslr_cells for rep in c["reps"]]
        out = {
            "cells": len(self.cells),
            "trials": sum(c["trials"] for c in self.cells),
            "failures": sum(len(c["failures"]) for c in self.cells),
        }
        if detect_cells:
            out["detect"] = {
                "cells": len(detect_cells),
                "scenarios": sorted({c["scenario"] for c in detect_cells}),
                "windows": sum(
                    len(rep["windows"]) for c in detect_cells for rep in c["reps"]
                ),
            }
        if channel_reps:
            out["channel"] = {
                "transmissions": len(channel_reps),
                "clean": sum(1 for rep in channel_reps if rep["error_rate"] == 0.0),
                "mean_error_rate": sum(r["error_rate"] for r in channel_reps)
                / len(channel_reps),
            }
        if kaslr_reps:
            out["kaslr"] = {
                "sweeps": len(kaslr_reps),
                "broken": sum(1 for rep in kaslr_reps if rep["success"]),
            }
        return out

    def to_json_dict(self) -> dict:
        return {
            "campaign": self.name,
            "schema_version": REPORT_SCHEMA_VERSION,
            "spec_digest": self.digest,
            "repro_version": self.version,
            "summary": self.summary(),
            "cells": self.cells,
        }

    def to_json(self) -> str:
        """The machine-readable artifact (stable bytes for stable inputs)."""
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def write_json(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            handle.write(self.to_json())

    def render_text(self) -> str:
        """The human-readable artifact (also deterministic)."""
        lines = [
            f"campaign : {self.name}",
            f"spec     : {self.digest[:16]} (repro {self.version})",
            "",
        ]
        for cell in self.cells:
            lines.extend(_render_cell(cell))
        summary = self.summary()
        lines.append(
            f"total    : {summary['cells']} cells, {summary['trials']} trials"
        )
        if "channel" in summary:
            ch = summary["channel"]
            lines.append(
                f"channel  : {ch['clean']}/{ch['transmissions']} clean "
                f"transmissions, mean error {ch['mean_error_rate']:.2%}"
            )
        if "kaslr" in summary:
            ka = summary["kaslr"]
            lines.append(f"kaslr    : {ka['broken']}/{ka['sweeps']} sweeps broken")
        if "detect" in summary:
            de = summary["detect"]
            lines.append(
                f"detect   : {de['windows']} observation windows over "
                f"{len(de['scenarios'])} scenarios"
            )
        if summary["failures"]:
            lines.append(
                f"failures : {summary['failures']} trials quarantined "
                f"(see per-cell records)"
            )
        return "\n".join(lines) + "\n"

    def write_text(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            handle.write(self.render_text())


#: Per-cell cap on individually rendered failures in the text artifact.
_RENDERED_FAILURES = 8


def render_run_observability(stats, metrics: Dict[str, dict]) -> str:
    """Console summary of a traced run: stats plus its metrics table.

    Printed to stderr after a ``campaign run --trace-out`` so a human
    sees the run's shape without replaying the trace.  Never part of the
    report artifact -- the artifact stays byte-identical with telemetry
    on or off.
    """
    import io

    from repro.telemetry.live import render_metrics

    buffer = io.StringIO()
    buffer.write(f"observability: {stats}\n")
    render_metrics(metrics, out=lambda line: buffer.write(line + "\n"))
    return buffer.getvalue().rstrip()


def _render_cell(cell: dict) -> List[str]:
    _, text = _REPORT_KINDS[cell["kind"]]
    what, reps = text(cell)
    simulated = f"{cell['seconds']:.6f} s simulated"
    if "bytes_per_second" in cell:
        simulated += f", {cell['bytes_per_second']:,.0f} B/s"
    lines = [
        f"[cell {cell['cell']}] {what} on {cell['model']}",
        *reps,
        f"  {cell['trials']} trials, {cell['cycles']:,} cycles ({simulated})",
    ]
    failures = cell["failures"]
    if failures:
        shown = failures[:_RENDERED_FAILURES]
        lines.append(f"  {len(failures)} quarantined trials:")
        for failure in shown:
            faults = ",".join(failure["faults"])
            lines.append(
                f"    {failure['label']}: {failure['error']} "
                f"[{failure['attempts']} attempts: {faults}]"
            )
        if len(failures) > len(shown):
            lines.append(f"    ... and {len(failures) - len(shown)} more")
    lines.append("")
    return lines


def build_report(
    spec: CampaignSpec,
    refs: Sequence[TrialRef],
    results: Sequence[TrialResult],
) -> CampaignReport:
    """Aggregate ordered trial results into the campaign's report.

    *results* must align with *refs* (the expansion order).  The
    aggregation mirrors the live attacks: channel units decode through
    :class:`ArgExtremeDecoder`, KASLR sweeps decide through
    :func:`~repro.whisper.analysis.kaslr_decision` with ground truth
    recovered from the boot seed -- so a replayed campaign reports
    exactly what a live run would.

    Results may be :class:`~repro.runtime.tasks.TrialFailure` values
    (trials that failed every retry under a resilience policy).  Failures
    are excluded from decoding/classification and recorded in each cell's
    ``failures`` list; a channel byte with no surviving coordinates
    decodes to ``??`` and counts as an error, a KASLR sweep with no
    surviving probes reports no found base.  Since failure records are as
    deterministic as results, the artifact stays byte-identical across
    worker counts and resumes.
    """
    if len(refs) != len(results):
        raise ValueError(f"{len(refs)} refs but {len(results)} results")
    report = CampaignReport(
        name=spec.name, digest=spec_digest(spec), version=REPRO_VERSION
    )
    by_cell: Dict[int, List[Tuple[TrialRef, TrialResult]]] = {}
    for ref, result in zip(refs, results):
        by_cell.setdefault(ref.cell, []).append((ref, result))
    for cell_index, cell in enumerate(spec.cells):
        report.cells.append(_cell_record(cell_index, cell, by_cell.get(cell_index, [])))
    return report


def _machine_record(machine) -> dict:
    record = json.loads(canonical_json(machine))
    record.pop("__type__", None)
    return record


def _cell_record(cell_index: int, cell, pairs) -> dict:
    """A cell's record: the fields every kind holds, then its kind's own.

    Failure records are sorted by ``(rep, unit, coord)`` -- never by
    completion order -- as part of the byte-identity contract.  The
    kind's record reads each rep's successful ``(ref, result)`` pairs,
    reps in order; a rep whose every trial failed still reports.
    """
    failures: List[dict] = []
    by_rep: Dict[int, List[Tuple[TrialRef, TrialResult]]] = {}
    for ref, outcome in pairs:
        ok = by_rep.setdefault(ref.rep, [])
        if isinstance(outcome, TrialFailure):
            failures.append(
                {
                    "rep": ref.rep,
                    "unit": ref.unit,
                    "coord": ref.coord,
                    "label": ref.label,
                    "attempts": outcome.attempts,
                    "faults": list(outcome.faults),
                    "error": outcome.error,
                }
            )
        else:
            ok.append((ref, outcome))
    failures.sort(key=lambda f: (f["rep"], f["unit"], f["coord"]))
    cycles = sum(result.cycles for ok in by_rep.values() for _, result in ok)
    model = cell.machine.model
    seconds = cpu_model(model).seconds(cycles)
    record, _ = _REPORT_KINDS[cell.kind]
    return {
        "cell": cell_index,
        "kind": cell.kind,
        "model": model,
        "machine": _machine_record(cell.machine),
        "failures": failures,
        "trials": len(pairs),
        "cycles": cycles,
        "seconds": seconds,
        **record(cell, {rep: by_rep[rep] for rep in sorted(by_rep)}, seconds),
    }


def _channel_record(cell, by_rep, seconds) -> dict:
    payload: bytes = cell.param("payload")
    decoder = ArgExtremeDecoder("max", statistic=cell.param("statistic"))
    reps = []
    for rep, ok in by_rep.items():
        units: Dict[str, Dict[int, List[int]]] = {}
        for ref, result in ok:
            units.setdefault(ref.unit, {})[ref.coord] = list(result.totes)
        scans = [
            decoder.decode(units[unit]) if unit in units else None
            for unit in (f"byte{position}" for position in range(len(payload)))
        ]
        received = "".join(
            f"{scan.value:02x}" if scan is not None else "??" for scan in scans
        )
        errors = sum(
            1
            for scan, sent in zip(scans, payload)
            if scan is None or scan.value != sent
        )
        reps.append(
            {
                "rep": rep,
                "received": received,
                "error_rate": errors / len(payload),
                "bytes": [
                    {"value": scan.value, "confidence": scan.confidence}
                    if scan is not None
                    else {"value": None, "confidence": 0.0}
                    for scan in scans
                ],
            }
        )
    sent_bytes = len(payload) * max(len(reps), 1)
    return {
        "payload": payload.hex(),
        "batches": cell.param("batches"),
        "statistic": cell.param("statistic"),
        "test_values": len(cell.param("values")),
        "reps": reps,
        "bytes_per_second": sent_bytes / seconds if seconds > 0 else 0.0,
    }


def _detect_record(cell, by_rep, seconds) -> dict:
    from repro.defend.features import FeatureVector
    from repro.defend.scenarios import get_scenario

    scenario = get_scenario(cell.param("scenario"))
    reps = []
    for rep, ok in by_rep.items():
        by_coord = {
            ref.coord: FeatureVector.from_ints(result.totes) for ref, result in ok
        }
        coords = sorted(by_coord)
        vectors = [by_coord[coord] for coord in coords]
        count = max(1, len(vectors))
        reps.append(
            {
                "rep": rep,
                "windows": [
                    {"coord": coord, "features": by_coord[coord].to_dict()}
                    for coord in coords
                ],
                "mean_clflush_per_kilo_uop": sum(
                    v.clflush_per_kilo_uop for v in vectors
                )
                / count,
                "mean_llc_miss_per_kilo_uop": sum(
                    v.llc_miss_per_kilo_uop for v in vectors
                )
                / count,
                "mean_machine_clears_per_kilo_uop": sum(
                    v.machine_clears_per_kilo_uop for v in vectors
                )
                / count,
            }
        )
    return {
        "scenario": scenario.name,
        "taxonomy": scenario.taxonomy,
        "attack": scenario.attack,
        "reps": reps,
    }


def _kaslr_record(cell, by_rep, seconds) -> dict:
    machine = cell.machine
    true_base = randomize_layout(
        seed=machine.seed, kaslr=machine.kaslr, fgkaslr=machine.fgkaslr
    ).base
    reps = []
    for rep, ok in by_rep.items():
        totes = {ref.coord: result.totes[0] for ref, result in ok}
        if totes:
            threshold, mapped, found = kaslr_decision(totes)
        else:  # every probe in this sweep quarantined
            threshold, mapped, found = None, [], None
        reps.append(
            {
                "rep": rep,
                "found_base": f"{found:#x}" if found is not None else None,
                "true_base": f"{true_base:#x}",
                "success": found == true_base,
                "mapped_slots": mapped,
                "threshold": threshold,
                "probes": 2 * len(totes),
            }
        )
    return {
        "strategy": kaslr_strategy(machine, cell.param("strategy")),
        "eviction": cell.param("eviction"),
        "reps": reps,
    }


def _channel_text(cell: dict):
    sent = cell["payload"]
    return "channel", [
        f"  rep {rep['rep']}: sent {sent} received {rep['received']} "
        f"error {rep['error_rate']:.2%} "
        f"({'ok' if rep['error_rate'] == 0.0 else 'errors'})"
        for rep in cell["reps"]
    ]


def _kaslr_text(cell: dict):
    return "kaslr", [
        f"  rep {rep['rep']}: {cell['strategy']} "
        f"{'BROKEN' if rep['success'] else 'failed'}: "
        f"found {rep['found_base'] or 'none'} "
        f"(true {rep['true_base']}, {len(rep['mapped_slots'])} mapped slots)"
        for rep in cell["reps"]
    ]


def _detect_text(cell: dict):
    return f"detect:{cell['scenario']} ({cell['taxonomy']})", [
        f"  rep {rep['rep']}: {len(rep['windows'])} windows, "
        f"mean clflush/kuop {rep['mean_clflush_per_kilo_uop']:.2f}, "
        f"mean LLC-miss/kuop {rep['mean_llc_miss_per_kilo_uop']:.2f}, "
        f"mean clears/kuop {rep['mean_machine_clears_per_kilo_uop']:.2f}"
        for rep in cell["reps"]
    ]


#: Per cell kind (``spec.CELL_KINDS``'s names): its own record fields
#: (from the cell, its successes by rep and its simulated seconds), and
#: its text's label and rep lines.
_REPORT_KINDS = {
    "channel": (_channel_record, _channel_text),
    "kaslr": (_kaslr_record, _kaslr_text),
    "detect": (_detect_record, _detect_text),
}
