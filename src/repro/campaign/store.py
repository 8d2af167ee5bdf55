"""The content-addressed result store: trial outcomes keyed by meaning.

Every campaign trial is a pure function of its payload -- that is the
runtime determinism contract -- so its result can be cached forever under
a key that names the computation: a SHA-256 over the canonical JSON text
(:func:`canonical_json`) of ``(store format, repro version, trial
payload)``.  Any change that could change the outcome (CPU model, boot
seed, batch count, test value, eviction mode, a new repro release)
changes the text and therefore the key; re-running a campaign after an
edit replays what is still valid and executes only the delta.

On disk the store is one append-only JSONL file, ``results.jsonl`` under
the store root (default ``.campaigns/``).  Appending after every batch
is the runner's checkpoint mechanism: an interrupted sweep loses at most
the in-flight batch.  Every record ends in a checksum (``sum``) over its
exact canonical bytes, so *any* on-disk damage -- a torn tail, a
truncated line, a single flipped bit inside an otherwise well-formed
record -- is detected at load time, before the line is parsed: the
damaged record is skipped with a warning and its trial simply
re-executes.  Corruption can degrade to recomputation, never to a
silently wrong result (``tests/test_faults_properties.py`` injects
bit-flips and truncation through :class:`repro.faults.inject.FaultyStore`
to enforce exactly that).

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
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro import __version__ as REPRO_VERSION
from repro.runtime.tasks import TrialFailure, TrialResult

#: Bump when the record layout changes; invalidates every cached result.
#: Format 2: per-record checksums + structured failure records.
STORE_FORMAT = 2

#: What a store holds per key.
StoredOutcome = Union[TrialResult, TrialFailure]

DEFAULT_ROOT = ".campaigns"


# -- canonical JSON ------------------------------------------------------------

#: Compact sorted JSON, as ``json.dumps(sort_keys=True, separators=(",",
#: ":"))`` writes it: the spelling of plain values and of record text.
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
    names = sorted(field.name for field in dataclasses.fields(cls))
    fields = tuple((_json_string(name) + ":", name) for name in names)
    type_at = sum(name < "__type__" for name in names)
    type_entry = '"__type__":' + _json_string(cls.__name__)
    return fields, type_at, type_entry, cls.__dataclass_params__.frozen


def _dataclass_json(obj) -> str:
    memo = _MEMO.get(id(obj))
    if memo is not None:
        return memo[1]
    cls = type(obj)
    layout = _LAYOUTS.get(cls)
    if layout is None:
        layout = _LAYOUTS[cls] = _layout(cls)
    fields, type_at, type_entry, memoizable = layout
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


def trial_key(trial, version: str = REPRO_VERSION) -> str:
    """The content address of one trial's result.

    Keyed by the full trial payload plus the repro version: a new release
    may change simulator timing, so cached results never leak across
    versions.
    """
    # The canonical text of {"format", "trial", "version"}, keys in sorted
    # order, spelled out: building and sorting that dict for every trial
    # would cost more than encoding the trial itself.
    return _digest(
        '{"format":' + str(STORE_FORMAT) + ',"trial":' + canonical_json(trial)
        + ',"version":' + canonical_json(version) + "}"
    )


def spec_digest(spec) -> str:
    """A stable fingerprint of a whole campaign spec (for reports)."""
    return _digest(
        canonical_json({"format": STORE_FORMAT, "version": REPRO_VERSION, "spec": spec})
    )


# -- record encoding -----------------------------------------------------------

#: ``sum`` sorts after every other record field, so a record line is its
#: canonical text with this, the checksum and ``"}`` in place of the
#: closing ``}``.
_SUM_FIELD = ',"sum":"'


def _outcome_body(outcome: StoredOutcome) -> dict:
    """The record body for one stored outcome (result or failure)."""
    if isinstance(outcome, TrialFailure):
        return {
            "failure": {
                "attempts": outcome.attempts,
                "faults": list(outcome.faults),
                "error": outcome.error,
            }
        }
    return {"result": {"totes": list(outcome.totes), "cycles": outcome.cycles}}


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
            record = json.loads(text)
            key = record["key"]
            body = {
                field: record[field]
                for field in ("result", "failure")
                if field in record
            }
            if len(body) != 1:
                raise ValueError("record needs exactly one of result/failure")
            if "failure" in body:
                failure = body["failure"]
                outcome: StoredOutcome = TrialFailure(
                    attempts=int(failure["attempts"]),
                    faults=tuple(str(fault) for fault in failure["faults"]),
                    error=str(failure["error"]),
                )
            else:
                result = body["result"]
                outcome = TrialResult(
                    totes=tuple(int(t) for t in result["totes"]),
                    cycles=int(result["cycles"]),
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
        text = _json({"key": key, **_outcome_body(outcome)})
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
            for key, outcome in records:
                handle.write(self._encode_record(key, outcome) + "\n")
                index[key] = outcome
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
