"""Offline stage, part 2: the Table 3 report."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.pmutools.differential import FilteredEvent


@dataclass(frozen=True)
class Table3Row:
    """One row of the paper's Table 3."""

    cpu_scene: str
    event: str
    domain: str
    condition0: float
    condition1: float
    condition_names: tuple


def rows_from_filtered(
    cpu_scene: str, filtered: List[FilteredEvent], condition_names: tuple
) -> List[Table3Row]:
    """Turn filter survivors into report rows."""
    return [
        Table3Row(
            cpu_scene=cpu_scene,
            event=event.name,
            domain=event.domain,
            condition0=event.condition0,
            condition1=event.condition1,
            condition_names=condition_names,
        )
        for event in filtered
    ]


def render_table3(rows: List[Table3Row]) -> str:
    """Format rows the way the paper's Table 3 reads."""
    if not rows:
        return "(no condition-sensitive events)"
    lines = []
    header_names = rows[0].condition_names
    lines.append(
        f"{'CPU & Scene':28} | {'Event Name':48} | "
        f"{header_names[0]:>10} | {header_names[1]:>10}"
    )
    lines.append("-" * 106)
    last_scene = None
    for row in rows:
        scene = row.cpu_scene if row.cpu_scene != last_scene else ""
        last_scene = row.cpu_scene
        lines.append(
            f"{scene:28} | {row.event:48} | "
            f"{row.condition0:10.1f} | {row.condition1:10.1f}"
        )
    return "\n".join(lines)


def answers_by_domain(rows: List[Table3Row]) -> Dict[str, List[Table3Row]]:
    """Group survivors by domain -- the RQ1/RQ2/RQ3 structure of §5.2."""
    grouped: Dict[str, List[Table3Row]] = {"frontend": [], "backend": [], "memory": []}
    for row in rows:
        grouped.setdefault(row.domain, []).append(row)
    return grouped
