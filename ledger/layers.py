"""Per-layer metrics from one op's spans.

Every ``*_s`` value is *self time*: a span's duration minus the part of
it its child spans cover.  Sums run over every process of the op (a
fleet's shards included), so a layer's time is the time it kept a
process busy, comparable with ``cpu_s``, not with ``wall_s``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

#: metric -> the span names whose self time it sums.
SELF_TIME = {
    "cli.import_s": ("cli.import",),
    "cli.self_s": ("cli.main",),
    "campaign.spec.expand_s": ("campaign.spec.expand",),
    "campaign.store.key_s": ("campaign.store.key",),
    "campaign.store.read_s": ("campaign.store.open", "campaign.store.get_many"),
    "campaign.store.write_s": ("campaign.store.put_many",),
    "campaign.runner.self_s": ("campaign.runner.run",),
    "campaign.report.build_s": ("campaign.report.build",),
    "campaign.report.write_s": ("campaign.report.write",),
    "runtime.pool.self_s": ("runtime.pool.map",),
    "runtime.batch.plan_s": ("runtime.batch.plan",),
    "runtime.batch.pack_s": ("runtime.batch.pack",),
    "runtime.tasks.channel_s": ("runtime.tasks.channel",),
    "runtime.tasks.kaslr_s": ("runtime.tasks.kaslr",),
    "runtime.tasks.detect_s": ("runtime.tasks.detect",),
    "runtime.spec.build_s": ("runtime.spec.build",),
    "distrib.shard_s": ("distrib.shard",),
    "distrib.merge_s": ("distrib.merge",),
    "telemetry.stream.write_s": ("telemetry.stream.write",),
}

TRIAL_KINDS = ("channel", "kaslr", "detect")


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if "_us_" in metric or metric.endswith("us_per_lane"):
        return "us"
    if metric.endswith("ns_per_cycle"):
        return "ns"
    if metric.endswith(("_ratio", "lane_survival")):
        return "ratio"
    if metric.endswith("bytes"):
        return "B"
    return "count"


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of *intervals*."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(records: List[dict]) -> Dict[str, float]:
    """Span id -> self time.

    Overlapping children (parallel shards) are counted once.  Leaf
    aggregates (records with ``busy``) are many sequential calls: they
    cover their ``busy`` time and have no children.
    """
    children = defaultdict(list)
    for record in records:
        children[record["parent"]].append(record)
    out = {}
    for record in records:
        if "busy" in record:
            out[record["id"]] = record["busy"]
            continue
        start, end = record["start"], record["end"]
        spans, busy = [], 0.0
        for child in children.get(record["id"], ()):
            if "busy" in child:
                busy += child["busy"]
            else:
                spans.append((max(child["start"], start), min(child["end"], end)))
        spans = [(a, b) for a, b in spans if b > a]
        out[record["id"]] = max(0.0, end - start - covered(spans) - busy)
    return out


def _ratio(part: float, whole: float) -> float:
    """0 when the base is 0 (the base is reported beside every ratio)."""
    return part / whole if whole else 0.0


def op_metrics(records: List[dict]) -> Tuple[Dict[str, float], Dict[str, List[float]]]:
    """One op's per-layer metrics, and its per-trial self times in µs by kind."""
    own = self_times(records)
    by_name = defaultdict(list)
    for record in records:
        by_name[record["name"]].append(record)

    def total(name):
        return sum(own[r["id"]] for r in by_name[name])

    def attr_sum(name, key):
        return sum(r.get(key, 0) for r in by_name[name])

    m = {metric: sum(total(name) for name in names)
         for metric, names in SELF_TIME.items()}

    lookups = [r for r in by_name["campaign.store.get_many"] if r.get("in_run")]
    m["campaign.store.records_read"] = attr_sum("campaign.store.get_many", "records_read")
    m["campaign.store.hit_ratio"] = _ratio(
        sum(r["hits"] for r in lookups), sum(r["requested"] for r in lookups))
    m["campaign.store.writes"] = attr_sum("campaign.store.put_many", "records")
    m["campaign.store.write_bytes"] = attr_sum("campaign.store.put_many", "bytes")
    m["runtime.pool.maps"] = len(by_name["runtime.pool.map"])

    packs = by_name["runtime.batch.pack"]
    lanes = attr_sum("runtime.batch.pack", "lanes")
    alive = attr_sum("runtime.batch.pack", "alive")
    hits = attr_sum("runtime.batch.pack", "cache_hit")
    m["runtime.batch.packs"] = len(packs)
    m["runtime.batch.lanes"] = lanes
    m["runtime.batch.lane_survival"] = _ratio(alive, lanes)
    m["runtime.batch.evicted"] = lanes - alive
    reasons = defaultdict(int)
    for pack in packs:
        for reason, count in pack.get("evicted", {}).items():
            reasons[reason] += count
    for reason in sorted(reasons):
        m[f"runtime.batch.evicted.{reason}"] = reasons[reason]
    m["runtime.batch.leader_cache_hit_ratio"] = _ratio(
        hits, hits + attr_sum("runtime.batch.pack", "cache_miss"))
    m["runtime.batch.us_per_lane"] = _ratio(m["runtime.batch.pack_s"] * 1e6, lanes)

    trial_us = {}
    cycles = 0
    for kind in TRIAL_KINDS:
        trials = by_name[f"runtime.tasks.{kind}"]
        trial_us[kind] = [own[r["id"]] * 1e6 for r in trials]
        cycles += sum(r["cycles"] for r in trials)
    m["runtime.tasks.scalar_trials"] = sum(len(v) for v in trial_us.values())
    m["runtime.spec.builds"] = len(by_name["runtime.spec.build"])
    m["sim.cycles"] = cycles
    m["sim.host_ns_per_cycle"] = _ratio(
        sum(m[f"runtime.tasks.{kind}_s"] for kind in TRIAL_KINDS) * 1e9, cycles)

    m.update(_fleet_metrics(by_name))
    m["telemetry.stream.frames"] = attr_sum("telemetry.stream.write", "frames")
    m["telemetry.stream.bytes"] = attr_sum("telemetry.stream.write", "bytes")
    return m, trial_us


def _fleet_metrics(by_name) -> Dict[str, float]:
    """Shard setup, retries and idle slots from the coordinator's shard spans.

    Idle is ``slots x makespan - sum of shard wall``, with ``slots`` the
    most shard spans ever open at once.
    """
    shards = by_name["distrib.shard"]
    starts = {r["id"]: r["start"] for r in shards}
    setup = sum(
        mark["start"] - starts[mark["parent"]]
        for mark in by_name["ledger.first_work"]
        if mark["parent"] in starts
    )
    idle = 0.0
    if shards:
        events = sorted([(r["start"], 1) for r in shards] + [(r["end"], -1) for r in shards])
        slots = running = 0
        for _, step in events:
            running += step
            slots = max(slots, running)
        makespan = max(r["end"] for r in shards) - min(r["start"] for r in shards)
        idle = slots * makespan - sum(r["end"] - r["start"] for r in shards)
    return {
        "distrib.shard_setup_s": setup,
        "distrib.idle_s": idle,
        "distrib.retries": sum(1 for r in shards if r.get("ok") is False),
    }
