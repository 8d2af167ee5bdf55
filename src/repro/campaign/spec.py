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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.runtime.spec import MachineSpec
from repro.runtime.tasks import (
    KASLR_SCANS,
    DetectTrial,
    channel_trials,
    kaslr_strategy,
    kaslr_trials,
)
from repro.uarch.config import cpu_model

#: Frozen parameter bag: sorted ``(key, value)`` pairs, values hashable.
Params = Tuple[Tuple[str, object], ...]

_CELL_KINDS = ("channel", "kaslr", "detect")


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
    """One grid cell: a task kind bound to a machine recipe."""

    kind: str
    machine: MachineSpec
    params: Params = ()

    def __post_init__(self) -> None:
        if self.kind not in _CELL_KINDS:
            raise ValueError(
                f"cell kind must be one of {_CELL_KINDS}, not {self.kind!r}"
            )

    def param(self, key: str, default=None):
        """Look up one parameter (cells are tiny; linear scan is fine)."""
        for name, value in self.params:
            if name == key:
                return value
        return default


def _check_suppression(machine: MachineSpec, suppression: Optional[str]) -> None:
    """Refuse TSX suppression on a part without TSX when the cell is
    built, not when its first trial runs."""
    if suppression == "tsx":
        model = cpu_model(machine.model)
        if not model.has_tsx:
            raise ValueError(f"{model.name} has no TSX")


def channel_cell(
    machine: MachineSpec,
    payload: bytes,
    batches: int = 3,
    values: Sequence[int] = range(256),
    statistic: str = "vote",
    suppression: Optional[str] = None,
    repeats: int = 1,
) -> CampaignCell:
    """A TET-CC transmission cell: scan and decode *payload* on *machine*."""
    _check_suppression(machine, suppression)
    return CampaignCell(
        kind="channel",
        machine=machine,
        params=freeze_params(
            dict(
                payload=bytes(payload),
                batches=batches,
                values=values,
                statistic=statistic,
                suppression=suppression,
                repeats=repeats,
            )
        ),
    )


def kaslr_cell(
    machine: MachineSpec,
    strategy: str = "auto",
    eviction: str = "direct",
    suppression: Optional[str] = None,
    repeats: int = 1,
) -> CampaignCell:
    """A TET-KASLR cell: one (or *repeats*) full 512-slot sweeps."""
    _check_suppression(machine, suppression)
    return CampaignCell(
        kind="kaslr",
        machine=machine,
        params=freeze_params(
            dict(
                strategy=strategy,
                eviction=eviction,
                suppression=suppression,
                repeats=repeats,
            )
        ),
    )


def detect_cell(
    machine: MachineSpec,
    scenario: str,
    trials: int = 10,
    repeats: int = 1,
) -> CampaignCell:
    """A detector-evaluation cell: *trials* observation windows of one
    :mod:`repro.defend.scenarios` scenario on *machine*."""
    return CampaignCell(
        kind="detect",
        machine=machine,
        params=freeze_params(
            dict(scenario=scenario, trials=trials, repeats=repeats)
        ),
    )


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

        Channel cells pick the channel-shaped parameters out of *params*
        (``payload``, ``batches``, ``values``, ``statistic``, ``repeats``),
        KASLR cells the sweep-shaped ones (``strategy``, ``eviction``,
        ``repeats``); unknown keys raise immediately.
        """
        channel_keys = {
            "payload", "batches", "values", "statistic", "suppression", "repeats",
        }
        kaslr_keys = {"strategy", "eviction", "suppression", "repeats"}
        detect_keys = {"scenario", "trials", "repeats"}
        unknown = set(params) - channel_keys - kaslr_keys - detect_keys
        if unknown:
            raise ValueError(f"unknown grid parameters: {sorted(unknown)}")
        cells: List[CampaignCell] = []
        for machine in machines:
            for kind in kinds:
                if kind == "channel":
                    picked = {k: v for k, v in params.items() if k in channel_keys}
                    cells.append(channel_cell(machine, **picked))
                elif kind == "kaslr":
                    picked = {k: v for k, v in params.items() if k in kaslr_keys}
                    cells.append(kaslr_cell(machine, **picked))
                elif kind == "detect":
                    picked = {k: v for k, v in params.items() if k in detect_keys}
                    cells.append(detect_cell(machine, **picked))
                else:
                    raise ValueError(f"unknown cell kind {kind!r}")
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
            expander = _EXPANDERS[cell.kind]
            refs.extend(expander(cell_index, cell))
        return refs

    def trial_count(self) -> int:
        """How many trials :meth:`expand` yields (without expanding)."""
        total = 0
        for cell in self.cells:
            repeats = cell.param("repeats", 1)
            if cell.kind == "channel":
                per_rep = len(cell.param("payload", b"")) * len(
                    cell.param("values", ())
                )
            elif cell.kind == "detect":
                per_rep = cell.param("trials", 10)
            else:
                from repro.kernel.layout import KASLR_SLOTS

                per_rep = KASLR_SLOTS
            total += repeats * per_rep
        return total


def _expand_channel(cell_index: int, cell: CampaignCell) -> List[TrialRef]:
    payload = cell.param("payload")
    if not payload:
        raise ValueError(f"channel cell {cell_index} has an empty payload")
    refs: List[TrialRef] = []
    index = 0
    for rep in range(cell.param("repeats", 1)):
        pairs, index = channel_trials(
            cell.machine,
            payload,
            batches=cell.param("batches", 3),
            values=cell.param("values", tuple(range(256))),
            suppression=cell.param("suppression"),
            start_index=index,
        )
        for position, trial in pairs:
            refs.append(
                TrialRef(
                    cell=cell_index,
                    rep=rep,
                    unit=f"byte{position}",
                    coord=trial.test,
                    trial=trial,
                )
            )
    return refs


def _expand_kaslr(cell_index: int, cell: CampaignCell) -> List[TrialRef]:
    offset, cr3_switch = KASLR_SCANS[
        kaslr_strategy(cell.machine, cell.param("strategy", "auto"))
    ]
    refs: List[TrialRef] = []
    index = 0
    for rep in range(cell.param("repeats", 1)):
        pairs, index = kaslr_trials(
            cell.machine,
            offset,
            cr3_switch,
            eviction=cell.param("eviction", "direct"),
            suppression=cell.param("suppression"),
            start_index=index,
        )
        for slot, trial in pairs:
            refs.append(
                TrialRef(
                    cell=cell_index, rep=rep, unit="sweep", coord=slot, trial=trial
                )
            )
    return refs


def _expand_detect(cell_index: int, cell: CampaignCell) -> List[TrialRef]:
    scenario = cell.param("scenario")
    if not scenario:
        raise ValueError(f"detect cell {cell_index} names no scenario")
    trials = cell.param("trials", 10)
    refs: List[TrialRef] = []
    index = 0
    for rep in range(cell.param("repeats", 1)):
        for window in range(trials):
            refs.append(
                TrialRef(
                    cell=cell_index,
                    rep=rep,
                    unit="stream",
                    coord=window,
                    trial=DetectTrial(
                        spec=cell.machine, scenario=scenario, trial_index=index
                    ),
                )
            )
            index += 1
    return refs


_EXPANDERS: Dict[str, object] = {
    "channel": _expand_channel,
    "kaslr": _expand_kaslr,
    "detect": _expand_detect,
}
