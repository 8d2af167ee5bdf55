"""Repeat the ledger over seeds and check that it agrees with itself.

    python3 ledger/agree.py run OUT.jsonl [--seeds 1-10] [--workload W ...]
    python3 ledger/agree.py table A.jsonl [B.jsonl]

``run`` calls ``run.py --trace 0`` once per (seed, workload), seeds
outermost, and appends each run's result line to OUT.jsonl.  ``table`` prints, per
(workload, end-to-end metric), the median over runs and the spread (the
quartile distance as a share of the median) against the metric's bound
in BENCHMARK.json; given a second set B, also B's median drift from A.
It exits 1 when a spread (``setup_s``'s excepted) or a drift exceeds its
bound.  ``table`` also reads the stdout of ``run.py`` run on every
workload, one result per file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def _bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def cmd_run(args) -> int:
    bench = _bench()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    for seed in _seeds(args.seeds):
        for workload in workloads:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            with open(args.out, "a") as handle:
                handle.write(json.dumps({"workload": workload, "seed": seed,
                                         "rc": proc.returncode, "result": result}) + "\n")
            print(f"seed {seed} {workload}: rc {proc.returncode}", flush=True)
    return 0


def _load(path: str):
    """(workload, metric) -> values, and the count of failed runs.

    Reads ``run`` output, or the stdout of ``run.py`` itself, whose last
    line names metrics ``<workload>/<metric>`` when it ran every workload.
    """
    values = defaultdict(list)
    failed = 0
    with open(path) as handle:
        for line in handle:
            if not line.startswith("{"):
                continue
            entry = json.loads(line)
            result = entry.get("result", entry)
            if result is None or not result["correct"]:
                failed += 1
                continue
            for name, measured in result["metrics"].items():
                workload, _, metric = name.rpartition("/")
                values[workload or entry["workload"], metric].append(measured["value"])
    return values, failed


def _spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def cmd_table(args) -> int:
    bench = _bench()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sets = [_load(path) for path in args.files]
    names = [chr(ord("A") + i) for i in range(len(sets))]
    header = ["workload", "metric", "bound"]
    for name in names:
        header += [f"median {name} (n)", f"spread {name}"]
    if len(sets) == 2:
        header.append("drift B vs A")
    print("| " + " | ".join(header + ["verdict"]) + " |")
    print("|" + "---|" * (len(header) + 1))
    worst = "steady"
    for workload in [w["name"] for w in bench["workloads"]]:
        for metric, bound in bounds.items():
            row = [workload, metric, f"{bound:.0%}"]
            verdict = "steady"
            medians = []
            for values, _ in sets:
                samples = values.get((workload, metric), [])
                if not samples:
                    row += ["-", "-"]
                    verdict = "missing"
                    continue
                medians.append(statistics.median(samples))
                row.append(f"{medians[-1]:.4g} ({len(samples)})")
                if len(samples) < 2:
                    row.append("-")
                    continue
                spread = _spread(samples)
                row.append(f"{spread:.1%}")
                if metric != "setup_s":
                    verdict = _worse(verdict, spread, bound)
            if len(sets) == 2 and len(medians) == 2:
                drift = (medians[1] - medians[0]) / medians[0]
                row.append(f"{drift:+.1%}")
                if drift > bound:
                    verdict = "OUT"
            worst = verdict if _RANK[verdict] > _RANK[worst] else worst
            print("| " + " | ".join(row + [verdict]) + " |")
    print()
    for name, path, (_, failed) in zip(names, args.files, sets):
        print(f"{name}: {path}, {failed} runs failed or were incorrect")
        if failed:
            worst = "OUT"
    print("steady: every spread within a third of its bound; within bound: "
          "spreads within the bound; OUT: a spread or a drift beyond the bound "
          "(setup_s spreads are not judged)")
    return 0 if worst in ("steady", "within bound") else 1


_RANK = {"steady": 0, "within bound": 1, "OUT": 2, "missing": 3}


def _worse(verdict: str, spread: float, bound: float) -> str:
    if spread > bound:
        found = "OUT"
    elif spread > bound / 3:
        found = "within bound"
    else:
        found = "steady"
    return found if _RANK[found] > _RANK[verdict] else verdict


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    prun = sub.add_parser("run")
    prun.add_argument("out")
    prun.add_argument("--seeds", default="1-10")
    prun.add_argument("--workload", action="append")
    prun.set_defaults(func=cmd_run)
    ptable = sub.add_parser("table")
    ptable.add_argument("files", nargs="+")
    ptable.set_defaults(func=cmd_table)
    args = parser.parse_args(argv)
    if args.command == "table" and len(args.files) > 2:
        parser.error("table compares at most two sets")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
