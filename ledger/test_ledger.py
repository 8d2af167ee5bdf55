"""Tests for the ledger itself: ``python -m pytest ledger -q``.

The "real ops" group spawns real ops (a few seconds in all).
"""

import hashlib
import json
import os
import sys

import pytest

import layers
import run
import specs
import summary

sys.path.insert(1, os.path.join(run.ROOT, "src"))


# -- spec generation ---------------------------------------------------------------


def _cells(spec, kind):
    return [cell for cell in spec.cells if cell.kind == kind]


def test_same_seed_gives_the_same_spec():
    from repro.campaign.store import spec_digest

    for kind, generate in specs.GENERATORS.items():
        assert spec_digest(generate(7)) == spec_digest(generate(7)), kind


@pytest.mark.parametrize("kind", ["matrix", "pair"])
def test_seeds_change_inputs_but_not_work(kind):
    from repro.kernel.kaslr import randomize_layout
    from repro.runtime.batch import plan_packs

    one, two = specs.GENERATORS[kind](1), specs.GENERATORS[kind](2)
    payloads = [[c.param("payload") for c in _cells(s, "channel")] for s in (one, two)]
    assert payloads[0] != payloads[1]
    bases = [[randomize_layout(seed=c.machine.seed).base for c in _cells(s, "kaslr")]
             for s in (one, two)]
    assert all(a != b for a, b in zip(*bases))
    assert one.trial_count() == two.trial_count() == specs.SHAPES[kind][1]
    shapes = [[len(g) for g in plan_packs([r.trial for r in s.expand()], 16)]
              for s in (one, two)]
    assert shapes[0] == shapes[1]


def test_detect_work_does_not_depend_on_the_seed():
    assert specs.detect_spec(1).trial_count() == specs.detect_spec(2).trial_count() == 128


# -- statistics ------------------------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert summary.tail_percentile(20) is None
    assert summary.tail_percentile(39) is None
    assert summary.tail_percentile(40) == (75.0, 10)
    assert summary.tail_percentile(1000) == (99.0, 10)
    assert summary.tail_percentile(9999) == (99.0, 99)
    assert summary.tail_percentile(10000) == (99.9, 10)


def test_describe_reports_median_quartiles_and_tail():
    values = [float(v) for v in range(1, 101)]
    stats = summary.describe(values)
    assert stats["median"] == 50.5
    assert (stats["q1"], stats["q3"]) == (25.25, 75.75)
    assert stats["n"] == 100
    assert stats["tail"] == {"p": 90.0, "value": 90.0, "beyond": 10}
    assert summary.describe([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0, "n": 1}


def test_self_time_counts_overlapping_children_once():
    def span(id_, parent, start, end, **extra):
        return {"id": id_, "parent": parent, "name": id_, "start": start,
                "end": end, **extra}

    records = [
        span("root", None, 0.0, 10.0),
        span("a", "root", 1.0, 4.0),
        span("b", "root", 3.0, 6.0),        # overlaps a: union of a, b is 1..6
        span("c", "root", 9.0, 12.0),       # runs past root: clipped to 9..10
        span("a1", "a", 2.0, 3.0),
        span("keys", "root", 7.0, 8.5, n=100, busy=0.5),  # a leaf aggregate
    ]
    own = layers.self_times(records)
    assert own["root"] == pytest.approx(10 - 5 - 1 - 0.5)
    assert own["a"] == pytest.approx(2.0)
    assert own["b"] == pytest.approx(3.0)
    assert own["keys"] == pytest.approx(0.5)


# -- real ops --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden():
    with open(run.GOLDEN) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def ledger_tmp(tmp_path_factory):
    return str(tmp_path_factory.mktemp("ledger"))


@pytest.fixture(scope="module")
def traced_runs(ledger_tmp, golden):
    """A traced lanes run (cold ops) and a traced rerun run, seed 1."""
    return {
        name: run.run_workload(run.WORKLOADS[name], 1, 0, True, ledger_tmp, golden)
        for name in ("matrix-lanes", "matrix-rerun")
    }


def test_every_op_is_a_fresh_process(traced_runs):
    pids = [op.pid for r in traced_runs.values() for op in [r.warmup, *r.ops]]
    assert len(pids) == len(set(pids)) == 6


def test_cold_ops_miss_and_rerun_ops_hit(traced_runs):
    for name, hit_ratio in (("matrix-lanes", 0.0), ("matrix-rerun", 1.0)):
        traced = traced_runs[name].good(traced=True)
        assert traced, name
        for op in traced:
            assert op.layers["campaign.store.hit_ratio"] == hit_ratio, name


def test_traced_ops_keep_the_golden_bytes_and_the_batch_engine(traced_runs, golden):
    for r in traced_runs.values():
        assert r.golden and r.reference == golden["1"]["matrix"]
        assert r.failed == 0
        assert {op.digest for op in r.ops} == {r.reference}
    lanes = traced_runs["matrix-lanes"].good(traced=True)[0]
    assert lanes.layers["runtime.batch.packs"] == 320


def _flip(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


def test_a_flipped_report_byte_fails_the_op(tmp_path, golden):
    """A report one byte off the pinned bytes fails its op, and the run."""
    w = run.Workload("pair-lanes", "pair", ("run", "--batch", "16"))
    pinned = golden["1"]["pair"]
    store = str(tmp_path / "store")
    good = run.run_op(w, 1, 0, store, str(tmp_path), pinned)
    assert good.problems == [] and good.digest == pinned

    report = os.path.join(store, specs.spec_name("pair", 1), "report.json")
    flipped = str(tmp_path / "flipped.json")
    with open(report, "rb") as src, open(flipped, "wb") as out:
        out.write(_flip(src.read(), 100))
    assert specs.check_report("pair", flipped, pinned)

    # The same op again, against a pin whose report differs by one byte.
    with open(report, "rb") as handle:
        other = hashlib.sha256(_flip(handle.read(), 100)).hexdigest()
    bad = run.run_op(w, 1, 1, store, str(tmp_path), other)
    assert bad.digest == pinned
    assert any("digest" in problem for problem in bad.problems)
    r = run.WorkloadRun(w, 1, other, True, good, [bad])
    assert (r.failed, r.attempted) == (1, 2)
    assert run.result_line([r], False, _bench())["correct"] is False


# -- the result line -------------------------------------------------------------------


def _bench():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _op(index, traced, problems=()):
    op = run.Op(index=index, traced=traced, pid=index, wall_s=1.0 + index / 10,
                cpu_s=1.0, peak_rss_mb=50.0, setup_s=0.5, digest="d",
                problems=list(problems))
    if traced:
        op.layers, op.trial_us = layers.op_metrics([])
    return op


@pytest.mark.parametrize("trace", [False, True])
def test_the_result_line_carries_every_listed_metric_in_its_unit(trace):
    bench = _bench()
    r = run.WorkloadRun(run.WORKLOADS["matrix-lanes"], 1, "d", False, _op(0, False),
                        [_op(1, True), _op(2, False)])
    result = run.result_line([r], trace, bench)
    listed = bench["per_layer" if trace else "end_to_end"]
    assert result["correct"] is True
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}


def test_a_traced_run_whose_untraced_ops_all_failed_still_reports():
    r = run.WorkloadRun(run.WORKLOADS["matrix-scalar"], 1, "d", False, _op(0, False),
                        [_op(1, True), _op(2, False, ["exit code 1"])])
    assert "trace.overhead_ratio" not in r.per_layer()
    result = run.result_line([r], True, _bench())
    assert result == {"correct": False, "attempted": 3, "failed": 1, "metrics": {}}
