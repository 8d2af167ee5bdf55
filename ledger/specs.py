"""Seeded campaign specs for the ledger workloads, and the checks on their reports.

The spec functions import ``repro`` lazily: ``run.py`` imports this module
to check report JSON without paying the package import, while ``op.py``
calls the generators inside the op process it times.

Work size never depends on the seed; only the inputs do (machine boot
seeds, hence KASLR bases, and the channel payload bytes).
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import List, Optional

#: The Table 2 model where TET-KASLR goes blind (the oracle never fires).
BLIND_KASLR_MODEL = "ryzen-5600G"

#: The two Table 2 models of the ``pair`` spec: an Intel part and Zen 3.
PAIR_CPUS = ("i7-7700", BLIND_KASLR_MODEL)

#: Spec kind -> (cells, trials, windows per detect cell) the report must show.
SHAPES = {"matrix": (10, 5120, None), "pair": (4, 1536, None), "detect": (16, 128, 8)}


def spec_name(kind: str, seed: int) -> str:
    """The campaign name a generated spec registers under."""
    return f"ledger-{kind}-s{seed}"


def _rng(kind: str, seed: int) -> random.Random:
    # Domain-separated per spec kind, so the two specs of one seed draw
    # unrelated machine seeds.
    return random.Random(f"ledger/{kind}/{seed}")


def matrix_spec(seed: int):
    """Table 2 as a campaign: per CPU, a 2-byte channel cell and a slot scan."""
    from repro.campaign.builtin import MATRIX_CPUS
    from repro.campaign.spec import CampaignSpec, channel_cell, kaslr_cell
    from repro.runtime.spec import MachineSpec

    rng = _rng("matrix", seed)
    cells = []
    for cpu in MATRIX_CPUS:
        machine = MachineSpec(model=cpu, seed=rng.randrange(1, 1 << 31))
        payload = bytes(rng.randrange(256) for _ in range(2))
        cells.append(channel_cell(machine, payload=payload, batches=3))
        cells.append(kaslr_cell(machine, strategy="slot-scan"))
    return CampaignSpec(name=spec_name("matrix", seed), cells=tuple(cells))


def pair_spec(seed: int):
    """Table 2 cut to one Intel part and Zen 3: per CPU, a 1-byte,
    1-batch channel cell and a slot scan.  Small enough that a scalar
    run fits about ten ops in a 20 s run."""
    from repro.campaign.spec import CampaignSpec, channel_cell, kaslr_cell
    from repro.runtime.spec import MachineSpec

    rng = _rng("pair", seed)
    cells = []
    for cpu in PAIR_CPUS:
        machine = MachineSpec(model=cpu, seed=rng.randrange(1, 1 << 31))
        payload = bytes([rng.randrange(256)])
        cells.append(channel_cell(machine, payload=payload, batches=1))
        cells.append(kaslr_cell(machine, strategy="slot-scan"))
    return CampaignSpec(name=spec_name("pair", seed), cells=tuple(cells))


def detect_spec(seed: int):
    """The ``e11-detect`` shape: every scenario x victim noise {0, 2}, 8 windows."""
    from repro.campaign.spec import CampaignSpec, detect_cell
    from repro.defend.scenarios import scenario_names
    from repro.runtime.spec import MachineSpec

    rng = _rng("detect", seed)
    cells = []
    for scenario in scenario_names():
        for noise in (0, 2):
            machine = MachineSpec(
                model="i7-7700",
                seed=rng.randrange(1, 1 << 31),
                noise_amplitude=noise,
            )
            cells.append(detect_cell(machine, scenario=scenario, trials=8))
    return CampaignSpec(name=spec_name("detect", seed), cells=tuple(cells))


GENERATORS = {"matrix": matrix_spec, "pair": pair_spec, "detect": detect_spec}


def file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def check_report(kind: str, path: str, expected: Optional[str]) -> List[str]:
    """Every way the report at *path* breaks the workload's contract.

    An empty list means the op's output is correct: the digest matches
    *expected* (when given), no trial failed, every channel cell decoded
    its payload, the Intel KASLR sweeps found the true base and the Zen 3
    sweep did not (Table 2), and the grid has its full shape.
    """
    try:
        digest = file_digest(path)
        with open(path) as handle:
            report = json.load(handle)
    except (OSError, ValueError) as exc:
        return [f"unreadable report: {exc}"]
    problems = []
    if expected is not None and digest != expected:
        problems.append(f"digest {digest[:16]} != expected {expected[:16]}")
    cells_expected, trials_expected, windows = SHAPES[kind]
    try:
        cells = report["cells"]
        summary = report["summary"]
        if len(cells) != cells_expected or summary["trials"] != trials_expected:
            problems.append(
                f"{len(cells)} cells / {summary['trials']} trials, expected "
                f"{cells_expected} / {trials_expected}"
            )
        if summary["failures"]:
            problems.append(f"{summary['failures']} trial failures")
        for cell in cells:
            problems.extend(_check_cell(cell, windows))
    except (KeyError, TypeError) as exc:
        problems.append(f"malformed report: missing {exc}")
    return problems


def _check_cell(cell: dict, windows: Optional[int]) -> List[str]:
    where = f"cell {cell['cell']} ({cell['kind']} on {cell['model']})"
    problems = []
    if cell["failures"]:
        problems.append(f"{where}: {len(cell['failures'])} failures")
    for rep in cell["reps"]:
        if cell["kind"] == "channel":
            if rep["received"] != cell["payload"]:
                problems.append(
                    f"{where}: received {rep['received']} != sent {cell['payload']}"
                )
        elif cell["kind"] == "kaslr":
            broken = rep["success"] and rep["found_base"] == rep["true_base"]
            if cell["model"] == BLIND_KASLR_MODEL and broken:
                problems.append(f"{where}: KASLR broken on a blind model")
            if cell["model"] != BLIND_KASLR_MODEL and not broken:
                problems.append(
                    f"{where}: found {rep['found_base']} != true {rep['true_base']}"
                )
        elif len(rep["windows"]) != windows:
            problems.append(f"{where}: {len(rep['windows'])} windows != {windows}")
    return problems
