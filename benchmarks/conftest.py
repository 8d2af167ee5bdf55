"""Shared helpers for the benchmark/reproduction harness.

Every module in this directory regenerates one table or figure of the
paper (see DESIGN.md's per-experiment index).  ``pytest benchmarks/
--benchmark-only`` runs them all; each prints the reproduced artefact and
asserts the paper's qualitative *shape* (signs, orderings, ✓/✗ patterns),
not its absolute numbers -- our substrate is a simulator, not the
authors' testbed.

Reproduction output is buffered and dumped after the test summary (so it
survives pytest's capture) and additionally written to
``benchmarks/reports/reproduction_report.txt``.  Benches that call
:func:`emit_metric` also feed ``reproduction_report.json`` -- a
``{section: {metric: value}}`` map, merged section by section with what
``repro obs overhead`` wrote there -- so the perf trajectory is
machine-tracked run over run (CI uploads the ``reports/*.json`` files as
workflow artifacts).
"""

from __future__ import annotations

import os
from typing import Dict, List

_LINES: List[str] = []
_METRICS: Dict[str, Dict[str, object]] = {}

REPORT_DIR = os.path.join(os.path.dirname(__file__), "reports")
REPORT_PATH = os.path.join(REPORT_DIR, "reproduction_report.txt")
METRICS_PATH = os.path.join(REPORT_DIR, "reproduction_report.json")


def banner(title: str) -> None:
    """Start a new section of the reproduction report."""
    line = "=" * max(64, len(title) + 8)
    _LINES.extend(["", line, f"  {title}", line])


def emit(text: str = "") -> None:
    """Append one line to the reproduction report."""
    _LINES.append(text)


def emit_metric(section: str, name: str, value) -> None:
    """Record one machine-readable metric under *section*.

    *value* must be JSON-serialisable (numbers, strings, booleans,
    lists); keep the names stable across PRs so the artifact diffs.
    """
    _METRICS.setdefault(section, {})[name] = value


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Dump the accumulated reproduction artefacts after the test summary."""
    if not _LINES and not _METRICS:
        return
    write = terminalreporter.write_line
    os.makedirs(REPORT_DIR, exist_ok=True)
    if _LINES:
        write("")
        write("#" * 78)
        write("#  PAPER REPRODUCTION OUTPUT (tables & figures)")
        write("#" * 78)
        for line in _LINES:
            write(line)
        with open(REPORT_PATH, "w") as handle:
            handle.write("\n".join(_LINES) + "\n")
        write("")
        write(f"(report also written to {REPORT_PATH})")
    if _METRICS:
        # Merge, never overwrite: `repro obs overhead` writes its
        # telemetry_overhead section into the same file.
        from repro.perf import merge_report_metrics

        for section, metrics in _METRICS.items():
            merge_report_metrics(METRICS_PATH, section, metrics)
        write(f"(metrics merged into {METRICS_PATH})")
