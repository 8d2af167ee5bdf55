"""The content-addressed result store: trial outcomes keyed by meaning.

Every campaign trial is a pure function of its payload -- that is the
runtime determinism contract -- so its result can be cached forever under
a key that names the computation: a SHA-256 over the canonical JSON text
(:func:`canonical_json`) of ``(store format, repro version, trial
payload)``.  Any change that could change the outcome (CPU model, boot
seed, batch count, test value, eviction mode, a new repro release)
changes the text and therefore the key; re-running a campaign after an
edit replays what is still valid and executes only the delta.  The
trials of one cell share every field but their probed value and
``trial_index`` (:data:`~repro.runtime.tasks.SHARED_FIELDS`), so
:func:`trial_key` spells the shared text once per cell; the key bytes
are those of the full encoding.

On disk the store is one append-only JSONL file, ``results.jsonl`` under
the store root (default ``.campaigns/``).  Appending after every batch
is the runner's checkpoint mechanism: an interrupted sweep loses at most
the in-flight batch.  Every record ends in a checksum (``sum``) over its
exact canonical bytes, so *any* on-disk damage -- a torn tail, a
truncated line, a single flipped bit inside an otherwise well-formed
record -- is detected at load time, before the line is parsed: the
damaged record is skipped with a warning and its trial simply
re-executes.  A verified line is parsed by one bound decoder, which
must consume its whole text.  Corruption can degrade to recomputation,
never to a silently wrong result (``tests/test_faults_properties.py``
injects bit-flips and truncation through
:class:`repro.faults.inject.FaultyStore` to enforce exactly that).

Stored outcomes are either :class:`~repro.runtime.tasks.TrialResult`
(``"result"`` records) or :class:`~repro.runtime.tasks.TrialFailure`
(``"failure"`` records): a trial that failed every retry checkpoints its
structured failure under the same content address its success would have
used, which is what lets a resumed campaign replay failures instead of
re-poisoning itself.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import warnings
from json.encoder import encode_basestring_ascii as _json_string
from operator import attrgetter, is_
from typing import Callable, Dict, Iterable, NamedTuple, Optional, Tuple, Union

from repro import __version__ as REPRO_VERSION
from repro.runtime.tasks import SHARED_FIELDS, TrialFailure, TrialResult

#: Bump when the record layout changes; invalidates every cached result.
#: Format 2: per-record checksums + structured failure records.
STORE_FORMAT = 2

#: What a store holds per key.
StoredOutcome = Union[TrialResult, TrialFailure]

DEFAULT_ROOT = ".campaigns"


# -- canonical JSON ------------------------------------------------------------

#: Compact sorted JSON, as ``json.dumps(sort_keys=True, separators=(",",
#: ":"))`` writes it: the spelling of floats and of subclasses of the
#: leaf types.
_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _json_bytes(value) -> str:
    return '{"__bytes__":"' + value.hex() + '"}'


#: The text of each exact leaf type.  All of them are immutable, which is
#: what lets a frozen dataclass made only of leaves be memoized.
_LEAVES = {
    type(None): lambda value: "null",
    bool: lambda value: "true" if value else "false",
    int: int.__repr__,
    float: _json,
    str: _json_string,
    bytes: _json_bytes,
}

#: Per dataclass type, computed once: ``("key":, field name)`` pairs in
#: sorted key order, the position of the ``__type__`` entry among them,
#: that entry's text, and whether the type is frozen.
_LAYOUTS: Dict[type, tuple] = {}

#: The text of frozen leaf-only dataclass values, such as the
#: ``MachineSpec`` every trial of a cell shares.  Keyed by identity, never
#: by value: ``MachineSpec(seed=1) == MachineSpec(seed=True)`` and both
#: hash alike, but they encode as ``1`` and ``true``.  An entry holds its
#: object, so the id is not reused while the entry lives.
_MEMO: Dict[int, Tuple[object, str]] = {}
_MEMO_LIMIT = 1024


def canonical_json(obj) -> str:
    """The canonical JSON text of *obj*, the bytes every key hashes.

    Dataclasses carry their type name under ``__type__`` (two payload
    kinds with identical fields must not collide), bytes become
    ``{"__bytes__": hex}``, tuples become lists, dict keys become
    strings; object keys are sorted and separators compact, exactly as
    ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` writes
    them.  The encoding is total over everything a campaign spec or
    trial payload contains.
    """
    leaf = _LEAVES.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _dataclass_json(obj)
    if isinstance(obj, (bytes, bytearray)):
        return _json_bytes(obj)
    if isinstance(obj, (tuple, list)):
        return "[" + ",".join(map(canonical_json, obj)) + "]"
    if isinstance(obj, dict):
        items = {str(key): value for key, value in obj.items()}
        return "{" + ",".join(
            _json_string(key) + ":" + canonical_json(items[key])
            for key in sorted(items)
        ) + "}"
    if isinstance(obj, (int, float, str)):  # subclasses of the leaf types
        return _json(obj)
    raise TypeError(f"cannot canonically encode {type(obj).__name__}")


def _layout(cls) -> tuple:
    layout = _LAYOUTS.get(cls)
    if layout is None:
        names = sorted(field.name for field in dataclasses.fields(cls))
        fields = tuple((_json_string(name) + ":", name) for name in names)
        type_at = sum(name < "__type__" for name in names)
        type_entry = '"__type__":' + _json_string(cls.__name__)
        frozen = cls.__dataclass_params__.frozen
        layout = _LAYOUTS[cls] = fields, type_at, type_entry, frozen
    return layout


def _dataclass_json(obj) -> str:
    memo = _MEMO.get(id(obj))
    if memo is not None:
        return memo[1]
    fields, type_at, type_entry, memoizable = _layout(type(obj))
    parts = []
    for prefix, name in fields:
        value = getattr(obj, name)
        leaf = _LEAVES.get(type(value))
        if leaf is None:
            memoizable = False
            parts.append(prefix + canonical_json(value))
        else:
            parts.append(prefix + leaf(value))
    parts.insert(type_at, type_entry)
    text = "{" + ",".join(parts) + "}"
    if memoizable:
        if len(_MEMO) >= _MEMO_LIMIT:
            _MEMO.clear()
        _MEMO[id(obj)] = (obj, text)
    return text


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _key_text(trial_text: str, version_text: str) -> str:
    # The canonical text of {"format", "trial", "version"}, keys in sorted
    # order, spelled out: building and sorting that dict for every trial
    # would cost more than encoding the trial itself.
    return (
        '{"format":' + str(STORE_FORMAT) + ',"trial":' + trial_text
        + ',"version":' + version_text + "}"
    )


def _frozen_text(value) -> Optional[str]:
    """The text of an immutable *value* -- a leaf, or a frozen dataclass
    of leaves, which is what :data:`_MEMO` admits -- or None."""
    leaf = _LEAVES.get(type(value))
    if leaf is not None:
        return leaf(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        text = _dataclass_json(value)
        if id(value) in _MEMO:
            return text
    return None


def _tuple_getter(names: Tuple[str, ...]) -> Callable[[object], tuple]:
    get = attrgetter(*names)
    return get if len(names) > 1 else lambda obj: (get(obj),)


#: Per payload type with a :data:`~repro.runtime.tasks.SHARED_FIELDS`
#: row: a getter of its shared fields, and one of the fields that vary
#: within a cell (the probed field and ``trial_index``) in key order.
_SPLITS: Dict[type, Tuple[Callable, Callable]] = {
    payload: (
        _tuple_getter(shared),
        _tuple_getter(tuple(sorted(
            field.name for field in dataclasses.fields(payload)
            if field.name not in shared
        ))),
    )
    for payload, shared in SHARED_FIELDS.items()
}


class _CellText(NamedTuple):
    """The key text of one cell's trials, cut where each varying field's
    value goes.  It holds the shared values it was spelled from, so their
    ids are not reused while it lives."""

    values: tuple
    version: str
    head: str
    rest: Tuple[str, ...]


#: The last cell's text per payload type.  Values and text are replaced
#: as one object, so no lookup pairs one cell's values with another's text.
_CELLS: Dict[type, _CellText] = {}

#: Marks the cuts: canonical text escapes every control character, so it
#: never holds one.
_CUT = "\0"


def _cell_text(trial, values: tuple, version: str) -> Optional[_CellText]:
    """Spell *trial*'s shared fields once, or None when a shared value is
    not immutable (its text could change while its identity does not)."""
    texts = {}
    for name, value in zip(SHARED_FIELDS[type(trial)], values):
        text = _frozen_text(value)
        if text is None:
            return None
        texts[name] = text
    fields, type_at, type_entry, _ = _layout(type(trial))
    entries = [prefix + texts.get(name, _CUT) for prefix, name in fields]
    entries.insert(type_at, type_entry)
    text = _key_text("{" + ",".join(entries) + "}", canonical_json(version))
    head, *rest = text.split(_CUT)
    return _CellText(values, version, head, tuple(rest))


def trial_key(trial, version: str = REPRO_VERSION) -> str:
    """The content address of one trial's result.

    Keyed by the full trial payload plus the repro version: a new release
    may change simulator timing, so cached results never leak across
    versions.

    The trials of a cell differ only in their probed field and
    ``trial_index``, so the rest of the text is spelled once per run of
    trials whose shared values are the same objects (``is``, never
    ``==``: ``MachineSpec(seed=1) == MachineSpec(seed=True)``, but they
    encode as ``1`` and ``true``) at the same *version*; each further
    trial costs the encoding of those two values and one SHA-256.  A
    payload with a mutable shared value is spelled in full on every call.
    The bytes are those of :func:`canonical_json` either way.
    """
    split = _SPLITS.get(type(trial))
    if split is not None:
        shared, varying = split
        values = shared(trial)
        cell = _CELLS.get(type(trial))
        if (
            cell is None
            or cell.version is not version
            or not all(map(is_, values, cell.values))
        ):
            cell = _cell_text(trial, values, version)
            if cell is not None:
                _CELLS[type(trial)] = cell
        if cell is not None:
            parts = [cell.head]
            for value, after in zip(varying(trial), cell.rest):
                parts.append(canonical_json(value))
                parts.append(after)
            return _digest("".join(parts))
    return _digest(_key_text(canonical_json(trial), canonical_json(version)))


def spec_digest(spec) -> str:
    """A stable fingerprint of a whole campaign spec (for reports)."""
    return _digest(
        canonical_json({"format": STORE_FORMAT, "version": REPRO_VERSION, "spec": spec})
    )


# -- record encoding -----------------------------------------------------------

#: The one record decoder.  ``json.loads`` would re-enter
#: ``JSONDecoder.decode`` and scan for whitespace around every line.  A
#: record's text comes from a stripped line and ends in ``}``, so
#: ``raw_decode`` plus a check that it consumed the whole text rejects
#: exactly what ``json.loads`` rejects.
_decode = json.JSONDecoder().raw_decode

#: ``sum`` sorts after every other record field, so a record line is its
#: canonical text with this, the checksum and ``"}`` in place of the
#: closing ``}``.
_SUM_FIELD = ',"sum":"'


def _record_text(key: str, outcome: StoredOutcome) -> str:
    """The canonical text of one record before its checksum: the key and
    a ``result`` (cycles, totes) or ``failure`` (attempts, error, faults)
    body, in sorted key order.  Spelled out, like :func:`_key_text`:
    building the dict and running the sorted encoder cost more than the
    rest of a checkpoint's per-record work."""
    if isinstance(outcome, TrialFailure):
        return (
            '{"failure":{"attempts":' + str(outcome.attempts)
            + ',"error":' + _json_string(outcome.error)
            + ',"faults":[' + ",".join(map(_json_string, outcome.faults))
            + ']},"key":' + _json_string(key) + "}"
        )
    return (
        '{"key":' + _json_string(key) + ',"result":{"cycles":' + str(outcome.cycles)
        + ',"totes":[' + ",".join(map(str, outcome.totes)) + "]}}"
    )


def _record_sum(text: str) -> str:
    """The record checksum: SHA-256 over the canonical key + body text,
    truncated.

    Covers the content address *and* the outcome payload, byte for
    byte, so any damage -- a flipped bit in a stored value, or one in
    the key that would silently re-home the record under another trial's
    address -- fails verification at load time instead of replaying a
    wrong result.
    """
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- the on-disk store ---------------------------------------------------------


class ResultStore:
    """Append-only JSONL store of checksummed ``key -> outcome`` records."""

    def __init__(self, root: str = DEFAULT_ROOT) -> None:
        self.root = root
        self.path = os.path.join(root, "results.jsonl")
        self._index: Optional[Dict[str, StoredOutcome]] = None

    # -- loading ---------------------------------------------------------------

    def _load(self) -> Dict[str, StoredOutcome]:
        if self._index is not None:
            return self._index
        index: Dict[str, StoredOutcome] = {}
        if os.path.exists(self.path):
            with open(self.path, "r") as handle:
                for lineno, line in enumerate(handle, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    record = self._parse_line(line, lineno)
                    if record is not None:
                        key, result = record
                        index[key] = result
        self._index = index
        return index

    def _parse_line(self, line: str, lineno: int):
        try:
            # Verify the exact bytes before parsing them: a line that is
            # not the canonical text its writer checksummed (damaged, or
            # re-spaced by another tool) is never replayed.
            cut = line.rfind(_SUM_FIELD)
            if cut < 0 or not line.endswith('"}'):
                raise ValueError("record has no checksum")
            text = line[:cut] + "}"
            if line[cut + len(_SUM_FIELD) : -2] != _record_sum(text):
                raise ValueError("record checksum mismatch")
            record, end = _decode(text)
            if end != len(text):
                raise ValueError("record has data after its object")
            key = record["key"]
            failed = "failure" in record
            if failed == ("result" in record):
                raise ValueError("record needs exactly one of result/failure")
            if failed:
                failure = record["failure"]
                outcome: StoredOutcome = TrialFailure(
                    int(failure["attempts"]),
                    tuple(map(str, failure["faults"])),
                    str(failure["error"]),
                )
            else:
                result = record["result"]
                outcome = TrialResult(
                    tuple(map(int, result["totes"])), int(result["cycles"])
                )
        except (ValueError, KeyError, TypeError) as exc:
            warnings.warn(
                f"{self.path}:{lineno}: skipping corrupt store record "
                f"({type(exc).__name__}: {exc}); its trial will re-execute",
                stacklevel=2,
            )
            return None
        return key, outcome

    # -- queries ---------------------------------------------------------------

    def get(self, key: str) -> Optional[StoredOutcome]:
        """The cached outcome under *key* (result or failure), or None."""
        return self._load().get(key)

    def get_many(self, keys: Iterable[str]) -> Dict[str, StoredOutcome]:
        """All cached outcomes among *keys*."""
        index = self._load()
        return {key: index[key] for key in keys if key in index}

    def __contains__(self, key: str) -> bool:
        return key in self._load()

    def __len__(self) -> int:
        return len(self._load())

    # -- writes ----------------------------------------------------------------

    def _encode_record(self, key: str, outcome: StoredOutcome) -> str:
        """One record as its on-disk line (no trailing newline).

        The seam fault injection hooks: :class:`repro.faults.inject.FaultyStore`
        overrides this to damage the bytes between encoding and disk.
        """
        text = _record_text(key, outcome)
        return text[:-1] + _SUM_FIELD + _record_sum(text) + '"}'

    def put(self, key: str, outcome: StoredOutcome) -> None:
        """Record one outcome (appends and flushes -- a checkpoint)."""
        self.put_many([(key, outcome)])

    def put_many(self, records: Iterable[Tuple[str, StoredOutcome]]) -> None:
        """Append a batch of outcomes in one flush (the runner checkpoint)."""
        records = list(records)
        if not records:
            return
        index = self._load()
        os.makedirs(self.root, exist_ok=True)
        with open(self.path, "a") as handle:
            # Heal a torn tail before appending: a writer killed mid-record
            # leaves a partial line with no newline, and appending straight
            # onto it would corrupt the first new record too (costing a
            # second re-execution on the next resume).  Terminating the
            # tail confines the damage to the already-torn record.
            if handle.tell() > 0:
                with open(self.path, "rb") as reader:
                    reader.seek(-1, os.SEEK_END)
                    if reader.read(1) != b"\n":
                        handle.write("\n")
            handle.write(
                "".join(self._encode_record(key, outcome) + "\n" for key, outcome in records)
            )
            index.update(records)
            handle.flush()
            os.fsync(handle.fileno())

    def clear(self) -> int:
        """Drop every cached result; returns how many were dropped."""
        dropped = len(self._load())
        if os.path.exists(self.path):
            os.remove(self.path)
        self._index = {}
        return dropped

    def __repr__(self) -> str:
        return f"ResultStore({self.root!r}, {len(self)} records)"
