"""Spans recorded inside one op process, and the shims that record them.

Shims wrap public entry points of each ``repro`` layer from the outside;
nothing in ``src/`` knows it is being measured.  A span records its name,
start, end, parent span and op id.  Spans stay in memory and are written
once, when the op exits.

Clock: ``time.monotonic`` (``CLOCK_MONOTONIC``), which is system-wide on
Linux, so stamps taken in the ledger, an op and its shard processes are
directly comparable.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.util
import itertools
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import Dict, List, Optional


class FirstWork:
    """The moment an op stops setting up: its first store lookup returns,
    or (for a fleet) its first shard is spawned."""

    def __init__(self) -> None:
        self.at: Optional[float] = None

    def mark(self) -> None:
        if self.at is None:
            self.at = time.monotonic()


class Tracer:
    """An in-memory span recorder for one process of one op.

    *parent* is the id of the span that caused this process (a fleet
    shard's ``distrib.shard`` span in the coordinator), or None.
    """

    def __init__(self, op: int, parent: Optional[str] = None) -> None:
        self.op = op
        self.pid = os.getpid()
        self.records: List[dict] = []
        self._stack: List[Optional[str]] = [parent]
        self._ids = itertools.count()
        self._leaves: Dict[tuple, dict] = {}

    def _record(self, name: str, attrs: dict) -> dict:
        return {
            "id": f"{self.pid}.{next(self._ids)}",
            "parent": self._stack[-1],
            "name": name,
            "op": self.op,
            "pid": self.pid,
            **attrs,
        }

    @contextmanager
    def span(self, name: str, detached: bool = False, **attrs):
        """Time the body as span *name*.

        A *detached* span is not pushed as the parent of later spans: it
        is for bodies that interleave with others on one event loop.
        """
        record = self._record(name, attrs)
        if not detached:
            self._stack.append(record["id"])
        record["start"] = time.monotonic()
        try:
            yield record
        except BaseException:
            record["ok"] = False
            raise
        finally:
            record["end"] = time.monotonic()
            if not detached:
                self._stack.pop()
            self.records.append(record)

    def leaf(self, name: str, start: float, end: float) -> None:
        """Fold one short call into a per-(parent, name) aggregate.

        For calls made thousands of times per op that open no spans of
        their own: the aggregate keeps the count ``n`` and the summed
        ``busy`` time instead of one record per call.
        """
        key = (self._stack[-1], name)
        record = self._leaves.get(key)
        if record is None:
            record = self._record(name, {"start": start, "n": 0, "busy": 0.0})
            self._leaves[key] = record
            self.records.append(record)
        record["n"] += 1
        record["busy"] += end - start
        record["end"] = end

    def mark(self, name: str, at: float) -> None:
        """A zero-length record (an instant, such as first work)."""
        self.records.append(self._record(name, {"start": at, "end": at}))

    def write(self, path: str, extra: List[dict] = ()) -> None:
        with open(path, "w") as handle:
            for record in itertools.chain(self.records, extra):
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def read_spans(path: str) -> List[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _wrap(tracer: Tracer, name: str, fn, describe=None):
    """*fn* inside a span; ``describe(record, result, *args)`` adds counts."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as record:
            result = fn(*args, **kwargs)
            if describe is not None:
                describe(record, result, *args)
        return result

    return traced


def install_first_work(first: FirstWork) -> None:
    """The untraced op's only hook: stamp the first store lookup's return."""
    from repro.campaign.store import ResultStore

    get_many = ResultStore.get_many

    @functools.wraps(get_many)
    def stamped(self, keys):
        result = get_many(self, keys)
        first.mark()
        return result

    ResultStore.get_many = stamped


def install_shims(tracer: Tracer) -> None:
    """Wrap each layer's public entry points in spans.

    Modules the CLI imports lazily (the batch engine, distrib, the stream
    writer) are patched when they are first imported, so a traced op
    imports what an untraced one does, at the same point, inside the
    same spans.
    """
    patches = _Shims(tracer).patches()
    pending = {}
    for name, patch in patches.items():
        if name in sys.modules:
            patch(sys.modules[name])
        else:
            pending[name] = patch
    sys.meta_path.insert(0, _PatchOnImport(pending))


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Run ``patch(module)`` right after the named modules execute."""

    def __init__(self, pending) -> None:
        self.pending = pending

    def find_spec(self, name, path, target=None):
        patch = self.pending.pop(name, None)
        if patch is None:
            return None
        spec = importlib.util.find_spec(name)
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            patch(module)

        spec.loader.exec_module = exec_and_patch
        return spec


class _Shims:
    """One patch function per shimmed module."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        #: Open ``CampaignRunner.run`` calls.  Store lookups inside a run
        #: decide what executes; the fleet's final ``collect()`` reads the
        #: merged store and is not a cache decision.
        self.runs = 0
        self.seen_stores = set()

    def patches(self):
        return {
            "repro.campaign.store": self.store,
            "repro.campaign.spec": self.spec,
            "repro.campaign.runner": self.runner,
            "repro.campaign.report": self.report,
            "repro.runtime.pool": self.pool,
            "repro.runtime.tasks": self.tasks,
            "repro.runtime.spec": self.machine_spec,
            "repro.runtime.batch": self.batch,
            "repro.distrib.coordinator": self.coordinator,
            "repro.telemetry.stream": self.stream,
        }

    def store(self, module) -> None:
        tracer, cls = self.tracer, module.ResultStore

        def describe(record, result, store, keys):
            record.update(requested=len(keys), hits=len(result), in_run=self.runs > 0)
            if id(store) not in self.seen_stores:
                self.seen_stores.add(id(store))
                record["records_read"] = len(store)

        get_many = _wrap(tracer, "campaign.store.get_many", cls.get_many, describe)
        cls.get_many = lambda store, keys: get_many(store, list(keys))
        put_many = cls.put_many

        def traced_put_many(store, records):
            records = list(records)
            before = _size(store.path)
            with tracer.span("campaign.store.put_many", records=len(records)) as record:
                put_many(store, records)
            record["bytes"] = _size(store.path) - before

        cls.put_many = traced_put_many
        cls.__init__ = _wrap(tracer, "campaign.store.open", cls.__init__)

    def spec(self, module) -> None:
        module.CampaignSpec.expand = _wrap(
            self.tracer, "campaign.spec.expand", module.CampaignSpec.expand,
            lambda record, refs, *_: record.update(trials=len(refs)),
        )

    def runner(self, module) -> None:
        tracer = self.tracer
        trial_key = module.trial_key

        def keyed(trial, *args, **kwargs):
            start = time.monotonic()
            key = trial_key(trial, *args, **kwargs)
            tracer.leaf("campaign.store.key", start, time.monotonic())
            return key

        module.trial_key = keyed
        module.build_report = _wrap(tracer, "campaign.report.build", module.build_report)
        run = _wrap(tracer, "campaign.runner.run", module.CampaignRunner.run)

        def traced_run(runner):
            self.runs += 1
            try:
                return run(runner)
            finally:
                self.runs -= 1

        module.CampaignRunner.run = traced_run

    def report(self, module) -> None:
        for method in ("write_json", "write_text"):
            setattr(module.CampaignReport, method, _wrap(
                self.tracer, "campaign.report.write",
                getattr(module.CampaignReport, method),
            ))

    def pool(self, module) -> None:
        module.TrialPool.map = _wrap(
            self.tracer, "runtime.pool.map", module.TrialPool.map,
            lambda record, results, *_: record.update(payloads=len(results)),
        )

    def tasks(self, module) -> None:
        # Only the kind-specific trial functions, never run_trial:
        # TrialPool._batchable compares function identity against it, and
        # a wrapped one would stand the batch executor down.
        for kind in ("channel", "kaslr", "detect"):
            attr = f"run_{kind}_trial"
            setattr(module, attr, _wrap(
                self.tracer, f"runtime.tasks.{kind}", getattr(module, attr),
                lambda record, result, *_: record.update(cycles=result.cycles),
            ))

    def machine_spec(self, module) -> None:
        module.MachineSpec.build = _wrap(
            self.tracer, "runtime.spec.build", module.MachineSpec.build
        )

    def batch(self, module) -> None:
        tracer = self.tracer
        module.plan_packs = _wrap(
            tracer, "runtime.batch.plan", module.plan_packs,
            lambda record, groups, *_: record.update(groups=len(groups)),
        )
        run_pack = module.run_pack

        def traced_run_pack(trials, stats=None):
            # The pack counts into a ledger-owned BatchStats.
            counts = module.BatchStats()
            with tracer.span("runtime.batch.pack", lanes=len(trials)) as record:
                results = run_pack(trials, counts)
            record.update(
                alive=counts.packed_trials,
                cache_hit=counts.leader_cache_hits,
                cache_miss=counts.leader_cache_misses,
                evicted=dict(counts.evictions),
            )
            if stats is not None:  # the telemetry path passes its own counters
                stats.packs += counts.packs
                stats.packed_trials += counts.packed_trials
                stats.scalar_trials += counts.scalar_trials
                stats.evicted_lanes += counts.evicted_lanes
                stats.leader_cache_hits += counts.leader_cache_hits
                stats.leader_cache_misses += counts.leader_cache_misses
                for reason, count in counts.evictions.items():
                    stats.evictions[reason] = stats.evictions.get(reason, 0) + count
            return results

        module.run_pack = traced_run_pack

    def coordinator(self, module) -> None:
        module.merge_stores = _wrap(self.tracer, "distrib.merge", module.merge_stores)

    def stream(self, module) -> None:
        tracer, cls = self.tracer, module.StreamWriter

        def traced(method):
            @functools.wraps(method)
            def write(writer, *args, **kwargs):
                before = writer.frames_written
                with tracer.span("telemetry.stream.write") as record:
                    method(writer, *args, **kwargs)
                record["frames"] = writer.frames_written - before
                if method.__name__ == "close":
                    record["bytes"] = _size(writer.path)

            return write

        cls.on_batch = traced(cls.on_batch)
        cls.close = traced(cls.close)


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0
