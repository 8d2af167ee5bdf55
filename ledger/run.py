"""The campaign ledger: what a real ``repro campaign`` run costs, end to end
and layer by layer.

    python3 ledger/run.py [--workload W] [--seed S] [--seconds T] [--trace 0|1]

Each workload is a closed loop with one client: one op at a time, each a
fresh ``python ledger/op.py`` process timed from spawn to exit.  One
untimed warm-up op runs first in its own store; then timed ops run until
``--seconds`` have passed (at least two).  Every op's report is checked.

``--trace 0`` reports the end-to-end metrics of the timed ops.
``--trace 1`` alternates traced and untraced ops and reports the
per-layer metrics of the traced ones, plus the tracing overhead.  The
last line of stdout is one JSON object; metric names and units come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import layers
import specs
import summary
from tracer import read_spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
OP = os.path.join(HERE, "op.py")
GOLDEN = os.path.join(HERE, "golden.json")

#: Timed ops per run, whatever ``--seconds`` says (one traced, one not).
MIN_OPS = 2
#: An op still running after this long is killed and counted as failed.
OP_TIMEOUT_S = 150
#: End-to-end metric -> unit.
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Workload:
    name: str
    spec: str
    #: ``campaign`` subcommand and its flags, minus the name and ``--store``.
    command: Tuple[str, ...]
    #: The warm-up op's command, when it differs from the timed one.
    warmup: Optional[Tuple[str, ...]] = None
    #: Timed ops read the warm-up's store instead of a fresh one each.
    rerun: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("matrix-lanes", "matrix", ("run", "--batch", "16")),
        # A smaller grid, so that a run holds about ten scalar ops.  The
        # warm-up runs lanes, so every timed scalar op checks the batch
        # engine's byte identity against the scalar path.
        Workload("matrix-scalar", "pair", ("run",),
                 warmup=("run", "--batch", "16")),
        Workload("matrix-rerun", "matrix", ("run", "--batch", "16"), rerun=True),
        Workload("detect-fleet", "detect",
                 ("fleet", "--shards", "2", "--parallel", "2", "--stream")),
    )
}


@dataclass
class Op:
    index: int
    traced: bool
    pid: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: Optional[float]
    digest: Optional[str]
    problems: List[str]
    layers: Dict[str, float] = field(default_factory=dict)
    trial_us: Dict[str, List[float]] = field(default_factory=dict)


class SetupFailed(RuntimeError):
    """The warm-up op crashed: there is no program to measure."""


def _op_env() -> Dict[str, str]:
    """Ops import from cached bytecode, as an installed package does.

    The cache lives under ledger/out, not in src/, and persists across
    runs; the first warm-up op in a checkout fills it.  Without it, a
    host with PYTHONDONTWRITEBYTECODE set would time the compiler.
    """
    env = dict(os.environ, PYTHONPYCACHEPREFIX=os.path.join(OUT, "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_op(w: Workload, seed: int, index: int, store: str, work: str,
           expected: Optional[str], traced: bool = False,
           command: Optional[Tuple[str, ...]] = None) -> Op:
    """Spawn one op, wait for it, and check what it wrote."""
    command = command or w.command
    name = specs.spec_name(w.spec, seed)
    result = os.path.join(work, f"op{index}.json")
    log = os.path.join(work, f"op{index}.log")
    spans = os.path.join(work, f"op{index}.spans.jsonl") if traced else None
    cmd = [sys.executable, OP, "--spec", w.spec, "--seed", str(seed),
           "--op", str(index), "--result", result]
    if spans:
        cmd += ["--spans", spans]
    cmd += ["--", "campaign", command[0], name, "--store", store, *command[1:]]
    report = os.path.join(store, name, "report.json")
    if os.path.exists(report):  # a rerun op must write its own report
        os.remove(report)
    with open(log, "wb") as out:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                cwd=ROOT, env=_op_env(), start_new_session=True)
        kill = _killer(proc.pid)
        watchdog = threading.Timer(OP_TIMEOUT_S, kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            watchdog.cancel()
        wall = time.monotonic() - spawned
    proc.returncode = os.waitstatus_to_exitcode(status)

    problems = []
    if proc.returncode != 0:
        with open(log, errors="replace") as handle:
            tail = " | ".join(handle.read().strip().splitlines()[-4:])
        problems.append(f"exit code {proc.returncode}: {tail}")
    problems += specs.check_report(w.spec, report, expected)
    first_work = None
    if os.path.exists(result):
        with open(result) as handle:
            first_work = json.load(handle).get("first_work")
    if first_work is None and not problems:
        problems.append("no first-work stamp")
    op = Op(
        index=index, traced=traced, pid=proc.pid, wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
        setup_s=first_work - spawned if first_work is not None else None,
        digest=specs.file_digest(report) if os.path.exists(report) else None,
        problems=problems,
    )
    if spans and os.path.exists(spans):
        op.layers, op.trial_us = layers.op_metrics(read_spans(spans))
    return op


def _killer(pid: int):
    def kill() -> None:
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    return kill


@dataclass
class WorkloadRun:
    workload: Workload
    seed: int
    reference: str
    golden: bool
    warmup: Op
    ops: List[Op]

    @property
    def attempted(self) -> int:
        return 1 + len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in [self.warmup, *self.ops] if op.problems)

    def good(self, traced: bool) -> List[Op]:
        return [op for op in self.ops if op.traced == traced and not op.problems]

    def end_to_end(self) -> Dict[str, dict]:
        ops = self.good(traced=False)
        if not ops:
            return {}
        return {m: {**summary.describe([getattr(op, m) for op in ops]), "unit": unit}
                for m, unit in END_TO_END.items()}

    def per_layer(self) -> Dict[str, dict]:
        """Median over traced ops; trial latencies pool every traced trial."""
        ops = self.good(traced=True)
        if not ops:
            return {}
        names = dict.fromkeys(name for op in ops for name in op.layers)
        out = {n: {"value": statistics.median(op.layers.get(n, 0) for op in ops)}
               for n in names}
        for kind in layers.TRIAL_KINDS:
            samples = [us for op in ops for us in op.trial_us.get(kind, ())]
            stats = summary.describe(samples) if samples else {"median": 0.0}
            tail = stats.get("tail")
            out[f"runtime.tasks.{kind}_us_p50"] = {
                "value": stats["median"], "note": f"p50 of {len(samples)} trials"}
            out[f"runtime.tasks.{kind}_us_tail"] = {
                "value": tail["value"] if tail else 0.0,
                "note": (f"p{tail['p']:g} of {len(samples)} trials" if tail
                         else f"no tail in {len(samples)} trials"),
            }
        untraced = self.good(traced=False)
        if untraced:
            out["trace.overhead_ratio"] = {"value": (
                statistics.median(op.wall_s for op in ops)
                / statistics.median(op.wall_s for op in untraced))}
        for name, entry in out.items():
            entry["unit"] = layers.unit(name)
        return out


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 tmp: str, golden: Dict[str, Dict[str, str]]) -> WorkloadRun:
    work = os.path.join(tmp, w.name)
    os.makedirs(work)
    pinned = golden.get(str(seed), {}).get(w.spec)
    warm_store = os.path.join(work, "warm")
    warmup = run_op(w, seed, 0, warm_store, work, pinned, command=w.warmup)
    if warmup.digest is None:
        raise SetupFailed(f"{w.name}: warm-up op wrote no report: {warmup.problems}")
    reference = pinned or warmup.digest
    spans_out = os.path.join(OUT, f"{w.name}-s{seed}.spans.jsonl")
    if trace and os.path.exists(spans_out):
        os.remove(spans_out)
    ops: List[Op] = []
    start = time.monotonic()
    while len(ops) < MIN_OPS or time.monotonic() - start < seconds:
        index = len(ops) + 1
        traced = trace and index % 2 == 1
        store = warm_store if w.rerun else os.path.join(work, f"store{index}")
        op = run_op(w, seed, index, store, work, reference, traced=traced)
        if not w.rerun:
            shutil.rmtree(store, ignore_errors=True)
        if traced:
            _append(os.path.join(work, f"op{index}.spans.jsonl"), spans_out)
        ops.append(op)
    return WorkloadRun(w, seed, reference, pinned is not None, warmup, ops)


def _append(source: str, dest: str) -> None:
    if os.path.exists(source):
        with open(source, "rb") as src, open(dest, "ab") as out:
            shutil.copyfileobj(src, out)


# -- output ----------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render(run: WorkloadRun) -> List[str]:
    w = run.workload
    timed = len(run.ops)
    lines = [
        f"== {w.name}  seed {run.seed}: {timed} timed ops + 1 warm-up, "
        f"closed loop, 1 client",
        f"   report sha256 {run.reference[:16]} "
        f"({'golden' if run.golden else 'from the warm-up op'}); "
        f"fail_ratio {run.failed}/{run.attempted}",
    ]
    for op in [run.warmup, *run.ops]:
        for problem in op.problems:
            lines.append(f"   op {op.index} FAILED: {problem}")
    e2e = run.end_to_end()
    if e2e:
        lines.append(f"   {'metric':<14}{'unit':<6}{'median':>12}{'q1':>12}{'q3':>12}"
                     f"{'n':>5}  tail")
        for metric, stats in e2e.items():
            tail = stats.get("tail")
            tail_text = (f"p{tail['p']:g}={_fmt(tail['value'])} "
                         f"({tail['beyond']} beyond)" if tail else "-")
            lines.append(
                f"   {metric:<14}{stats['unit']:<6}"
                f"{_fmt(stats['median']):>12}{_fmt(stats['q1']):>12}"
                f"{_fmt(stats['q3']):>12}{stats['n']:>5}  {tail_text}")
    per_layer = run.per_layer()
    if per_layer:
        n = len(run.good(traced=True))
        lines.append(f"   per layer: median of {n} traced ops; self time summed "
                     f"over the op's processes")
        for name, entry in per_layer.items():
            note = f"  [{entry['note']}]" if "note" in entry else ""
            lines.append(f"   {name:<46}{entry['unit']:<6}{_fmt(entry['value']):>14}{note}")
    return lines


def result_line(runs: List[WorkloadRun], trace: bool, bench: dict) -> dict:
    """The JSON result.  A workload whose failed ops leave a listed metric
    unmeasured (no untraced op for ``trace.overhead_ratio``, say) reports
    none of its metrics, and the result is not correct."""
    listed = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {}
    complete = True
    for run in runs:
        prefix = "" if len(runs) == 1 else f"{run.workload.name}/"
        if trace:
            values = {n: (e["value"], e["unit"]) for n, e in run.per_layer().items()}
        else:
            values = {n: (s["median"], s["unit"]) for n, s in run.end_to_end().items()}
        if any(entry["name"] not in values for entry in listed):
            complete = False
            continue
        for entry in listed:
            value, found_unit = values[entry["name"]]
            if found_unit != entry["unit"]:
                raise ValueError(f"{entry['name']}: measured in {found_unit}, "
                                 f"BENCHMARK.json says {entry['unit']}")
            metrics[prefix + entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": complete and all(run.failed == 0 for run in runs),
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all, in BENCHMARK.json order)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"ledger: no repro source tree under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    names = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]

    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT)
    runs = []
    try:
        for name in names:
            run = run_workload(WORKLOADS[name], args.seed, seconds, bool(args.trace),
                               tmp, golden)
            print("\n".join(render(run)), flush=True)
            runs.append(run)
    except SetupFailed as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = result_line(runs, bool(args.trace), bench)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
