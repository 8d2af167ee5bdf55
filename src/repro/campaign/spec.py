"""Declarative campaign specifications and their deterministic expansion.

A *campaign* is the unit the paper's evaluation is made of: a grid of
(machine x attack kind x parameters) cells, each of which samples one
statistic -- a TET-CC transmission decoded byte-by-byte, or a TET-KASLR
512-slot sweep classified into mapped/unmapped clusters.  A
:class:`CampaignSpec` freezes that grid as a value: it is hashable,
picklable, and expands into the exact same ordered list of trial
payloads on every host, every time (:meth:`CampaignSpec.expand`).

The expansion calls the same trial builders a live ``pool=`` attack
does (:func:`~repro.runtime.tasks.channel_trials`,
:func:`~repro.runtime.tasks.kaslr_trials`), so a campaign replay
consumes the same ``(spec.seed, trial_index)`` seed stream -- the
property that lets the result store mix cached and freshly executed
trials without any statistical seam.  Expanding builds no machine and
imports no attack.

Everything the campaign side knows about a cell kind is one row of
:data:`CELL_KINDS`: its constructor, whose signature is the only
spelling of the kind's parameters and defaults and which refuses an
invalid cell when it is built; one repeat's trials; and their count.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from repro.kernel.layout import KASLR_SLOTS
from repro.runtime.spec import MachineSpec
from repro.runtime.tasks import (
    KASLR_SCANS,
    DetectTrial,
    channel_trials,
    kaslr_eviction,
    kaslr_strategy,
    kaslr_trials,
)
from repro.uarch.config import cpu_model
from repro.whisper.analysis import STATISTICS

#: Frozen parameter bag: sorted ``(key, value)`` pairs, values hashable.
Params = Tuple[Tuple[str, object], ...]


def freeze_params(params: Mapping[str, object]) -> Params:
    """Normalise a parameter mapping into a hashable, ordered tuple.

    Lists and ranges become tuples so cells stay hashable; insertion
    order is discarded (keys are sorted) so two spellings of the same
    cell hash identically.
    """
    frozen = []
    for key in sorted(params):
        value = params[key]
        if isinstance(value, (list, range)):
            value = tuple(value)
        frozen.append((key, value))
    return tuple(frozen)


@dataclass(frozen=True)
class CampaignCell:
    """One grid cell: a task kind bound to a machine recipe.

    Its kind's constructor (a :data:`CELL_KINDS` row) builds it, refusing
    invalid values and setting every parameter the kind takes.
    """

    kind: str
    machine: MachineSpec
    params: Params = ()

    def __post_init__(self) -> None:
        if self.kind not in CELL_KINDS:
            raise ValueError(
                f"cell kind must be one of {tuple(CELL_KINDS)}, not {self.kind!r}"
            )

    def param(self, key: str):
        """Look up one parameter (cells are tiny; linear scan is fine)."""
        for name, value in self.params:
            if name == key:
                return value
        raise KeyError(f"{self.kind} cell has no parameter {key!r}")


def _check_counts(**counts: int) -> None:
    """Refuse a count below one: a cell that would run no trial."""
    for name, count in counts.items():
        if count < 1:
            raise ValueError(f"{name} must be at least 1, not {count!r}")


def _check_suppression(machine: MachineSpec, suppression: Optional[str]) -> None:
    """Refuse an unknown suppression, and TSX on a part without TSX, when
    the cell is built, not when its first trial runs."""
    if suppression is None:
        return
    from repro.whisper.gadgets import Suppression

    if Suppression(suppression) is Suppression.TSX:
        model = cpu_model(machine.model)
        if not model.has_tsx:
            raise ValueError(f"{model.name} has no TSX")


def _cell(kind: str, machine: MachineSpec, **params) -> CampaignCell:
    return CampaignCell(kind=kind, machine=machine, params=freeze_params(params))


def channel_cell(
    machine: MachineSpec,
    payload: bytes,
    batches: int = 3,
    values: Sequence[int] = range(256),
    statistic: str = "vote",
    suppression: Optional[str] = None,
    repeats: int = 1,
) -> CampaignCell:
    """A TET-CC transmission cell: scan and decode *payload* on *machine*.

    Refuses an empty payload, no test values or one outside 0-255, a
    *statistic* the decoder does not know, fewer than one batch or
    repeat, an unknown *suppression*, and TSX on a part without TSX.
    """
    payload = bytes(payload)
    if not payload:
        raise ValueError("a channel cell needs a non-empty payload")
    if not values:
        raise ValueError("a channel cell needs at least one test value")
    for value in values:
        if not 0 <= value <= 255:
            raise ValueError(f"test value {value!r} is outside 0-255")
    if statistic not in STATISTICS:
        raise ValueError(
            f"statistic must be one of {STATISTICS}, not {statistic!r}"
        )
    _check_counts(batches=batches, repeats=repeats)
    _check_suppression(machine, suppression)
    return _cell(
        "channel", machine, payload=payload, batches=batches, values=values,
        statistic=statistic, suppression=suppression, repeats=repeats,
    )


def kaslr_cell(
    machine: MachineSpec,
    strategy: str = "auto",
    eviction: str = "direct",
    suppression: Optional[str] = None,
    repeats: int = 1,
) -> CampaignCell:
    """A TET-KASLR cell: one (or *repeats*) full 512-slot sweeps.

    Refuses an unknown *strategy*, *eviction* or *suppression*, fewer
    than one repeat, and TSX on a part without TSX.
    """
    kaslr_strategy(machine, strategy)
    kaslr_eviction(eviction)
    _check_counts(repeats=repeats)
    _check_suppression(machine, suppression)
    return _cell(
        "kaslr", machine, strategy=strategy, eviction=eviction,
        suppression=suppression, repeats=repeats,
    )


def detect_cell(
    machine: MachineSpec,
    scenario: str,
    trials: int = 10,
    repeats: int = 1,
) -> CampaignCell:
    """A detector-evaluation cell: *trials* observation windows of one
    :mod:`repro.defend.scenarios` scenario on *machine*.

    Refuses an unknown *scenario* and fewer than one trial or repeat.
    """
    from repro.defend.scenarios import SCENARIOS

    if scenario not in SCENARIOS:
        raise ValueError(f"unknown detect scenario {scenario!r}")
    _check_counts(trials=trials, repeats=repeats)
    return _cell("detect", machine, scenario=scenario, trials=trials, repeats=repeats)


def _channel_repeat(cell: CampaignCell, start: int) -> list:
    pairs, _ = channel_trials(
        cell.machine,
        cell.param("payload"),
        batches=cell.param("batches"),
        values=cell.param("values"),
        suppression=cell.param("suppression"),
        start_index=start,
    )
    return [(f"byte{position}", trial.test, trial) for position, trial in pairs]


def _kaslr_repeat(cell: CampaignCell, start: int) -> list:
    strategy = kaslr_strategy(cell.machine, cell.param("strategy"))
    pairs, _ = kaslr_trials(
        cell.machine,
        *KASLR_SCANS[strategy],
        eviction=cell.param("eviction"),
        suppression=cell.param("suppression"),
        start_index=start,
    )
    return [("sweep", slot, trial) for slot, trial in pairs]


def _detect_repeat(cell: CampaignCell, start: int) -> list:
    scenario = cell.param("scenario")
    return [
        ("stream", window, DetectTrial(cell.machine, scenario, start + window))
        for window in range(cell.param("trials"))
    ]


class CellKind(NamedTuple):
    """Everything the campaign side knows about one cell kind: a row of
    :data:`CELL_KINDS`."""

    #: The constructor.  Its parameters after ``machine``, with their
    #: defaults, are the only spelling of the kind's parameters.
    build: Callable[..., CampaignCell]
    #: One repeat's ``(unit, coord, trial)`` triples, with trial
    #: indices counted from the given start.
    repeat: Callable[[CampaignCell, int], list]
    #: How many trials one repeat holds.
    size: Callable[[CampaignCell], int]


#: One row per cell kind; ``campaign/report.py`` keys its per-kind
#: record and text by the same names.
CELL_KINDS: Dict[str, CellKind] = {
    "channel": CellKind(
        channel_cell,
        _channel_repeat,
        lambda cell: len(cell.param("payload")) * len(cell.param("values")),
    ),
    "kaslr": CellKind(kaslr_cell, _kaslr_repeat, lambda cell: KASLR_SLOTS),
    "detect": CellKind(detect_cell, _detect_repeat, lambda cell: cell.param("trials")),
}


@dataclass(frozen=True)
class Shard:
    """One slice of a campaign's deterministic expansion.

    A shard is pure arithmetic over expansion positions: shard ``index``
    of ``of`` covers exactly the trials whose position in
    :meth:`CampaignSpec.expand` is congruent to ``index`` modulo ``of``.
    Round-robin (rather than contiguous ranges) keeps every shard's
    workload balanced to within one trial *and* mixes every cell into
    every shard, so fleet progress is representative of the whole grid.

    Because assignment depends only on ``(position, of)``, the ``of``
    shards of any campaign are a disjoint exact cover of its trial list
    -- the invariant ``tests/test_distrib_properties.py`` pins -- and
    two hosts given the same ``(index, of)`` compute the same trial set
    without coordinating.
    """

    index: int
    of: int

    def __post_init__(self) -> None:
        if self.of < 1:
            raise ValueError(f"shard count must be at least 1, not {self.of}")
        if not 0 <= self.index < self.of:
            raise ValueError(
                f"shard index must be in [0, {self.of}), not {self.index}"
            )

    def covers(self, position: int) -> bool:
        """Whether expansion position *position* belongs to this shard."""
        return position % self.of == self.index

    def positions(self, total: int) -> range:
        """Every expansion position this shard covers, for *total* trials."""
        return range(self.index, total, self.of)

    def size(self, total: int) -> int:
        """How many of *total* trials this shard covers."""
        return len(self.positions(total))

    @property
    def label(self) -> str:
        return f"shard{self.index}of{self.of}"

    def __str__(self) -> str:
        return f"shard {self.index}/{self.of}"


@dataclass(frozen=True)
class TrialRef:
    """One expanded trial, addressed inside its campaign.

    ``cell`` indexes into the spec's cell tuple, ``rep`` counts the
    cell-level repetition, ``unit`` names the aggregation group the
    decoder consumes (``byte<N>`` for channel cells, ``sweep`` for KASLR
    cells, ``stream`` for detect cells) and ``coord`` is the decode
    coordinate inside that group (the test value, the KASLR slot, or the
    observation-window position).
    """

    cell: int
    rep: int
    unit: str
    coord: int
    trial: object  # ChannelTrial | KaslrTrial | DetectTrial (frozen, picklable)

    @property
    def label(self) -> str:
        """A stable human-readable address (used by report failure
        records): ``cell0/rep1/byte3@127``."""
        return f"cell{self.cell}/rep{self.rep}/{self.unit}@{self.coord}"


@dataclass(frozen=True)
class CampaignSpec:
    """A frozen, picklable description of one sampling campaign."""

    name: str
    cells: Tuple[CampaignCell, ...]

    @classmethod
    def grid(
        cls,
        name: str,
        machines: Iterable[MachineSpec],
        kinds: Sequence[str] = ("channel",),
        **params,
    ) -> "CampaignSpec":
        """The cross-product constructor: machines x kinds, shared params.

        Each kind's cells take the keys of *params* its constructor takes
        (``payload`` goes to channel cells, ``strategy`` to KASLR cells,
        ``repeats`` to every kind); a key no constructor takes raises
        immediately.
        """
        takes = {
            kind: params.keys() & list(inspect.signature(row.build).parameters)[1:]
            for kind, row in CELL_KINDS.items()
        }
        unknown = set(params).difference(*takes.values())
        if unknown:
            raise ValueError(f"unknown grid parameters: {sorted(unknown)}")
        cells: List[CampaignCell] = []
        for machine in machines:
            for kind in kinds:
                if kind not in CELL_KINDS:
                    raise ValueError(f"unknown cell kind {kind!r}")
                picked = {key: params[key] for key in takes[kind]}
                cells.append(CELL_KINDS[kind].build(machine, **picked))
        return cls(name=name, cells=tuple(cells))

    def expand(self) -> List[TrialRef]:
        """The deterministic task list: every trial of every cell, in order.

        Trial indices restart at 0 per cell (each cell has its own
        machine, hence its own seed stream) and advance monotonically
        across that cell's repeats -- exactly as a live pooled channel or
        KASLR attack bound to that machine would allocate them.
        """
        refs: List[TrialRef] = []
        for cell_index, cell in enumerate(self.cells):
            repeat = CELL_KINDS[cell.kind].repeat
            index = 0
            for rep in range(cell.param("repeats")):
                triples = repeat(cell, index)
                refs.extend(
                    TrialRef(cell_index, rep, unit, coord, trial)
                    for unit, coord, trial in triples
                )
                index += len(triples)
        return refs

    def trial_count(self) -> int:
        """How many trials :meth:`expand` yields (without expanding)."""
        return sum(
            cell.param("repeats") * CELL_KINDS[cell.kind].size(cell)
            for cell in self.cells
        )
