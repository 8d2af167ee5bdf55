"""One ledger op: a fresh process that runs one ``repro`` CLI command.

    python ledger/op.py --spec matrix --seed 1 --result R.json \\
        [--spans S.jsonl --op N --parent-span ID] \\
        -- campaign run ledger-matrix-s1 --store DIR --batch 16

The op generates the seeded spec, registers it as a built-in campaign and
calls ``repro.cli.main`` with the arguments after ``--``, so it pays the
real import and runs the real CLI path.  A fleet's shard workers re-enter
this file, so every shard resolves the same generated spec.

``--result`` receives ``{"rc": ..., "first_work": ...}``; ``first_work``
is the ``time.monotonic()`` stamp of the first store lookup's return (or
the first shard spawn).  With ``--spans`` every layer is shimmed and the
op's spans, its shards' included, are written there at exit.
"""

from __future__ import annotations

import argparse
import functools
import glob
import json
import os
import sys
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import specs  # noqa: E402  (needs HERE on sys.path, which running this file gives)
from tracer import FirstWork, Tracer, install_first_work, install_shims, read_spans  # noqa: E402


def _parse(argv):
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", choices=sorted(specs.GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", default=None)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--op", type=int, default=0)
    parser.add_argument("--parent-span", default=None)
    args = parser.parse_args(argv[:split])
    args.cli = argv[split + 1:]
    return args


def _install_fleet_worker(args, first: FirstWork, tracer) -> None:
    """Make ``campaign fleet`` spawn its shards through this file."""
    from repro import distrib

    class LedgerWorker(distrib.LocalProcessWorker):
        spawned = 0

        def command(self, shard, segment):
            first.mark()
            cmd = [self.python, os.path.abspath(__file__),
                   "--spec", args.spec, "--seed", str(args.seed)]
            if tracer is not None:
                LedgerWorker.spawned += 1
                cmd += ["--spans", f"{args.spans}.shard{LedgerWorker.spawned}",
                        "--op", str(args.op), "--parent-span", self.parent_span]
            # Drop the base command's "python -m repro" head.
            return cmd + ["--"] + super().command(shard, segment)[3:]

        async def __call__(self, shard, segment, attempt):
            if tracer is None:
                return await super().__call__(shard, segment, attempt)
            with tracer.span("distrib.shard", detached=True,
                             shard=shard.label, attempt=attempt) as record:
                # command() runs before the first await below, so no other
                # shard can overwrite this in between.
                self.parent_span = record["id"]
                await super().__call__(shard, segment, attempt)

    distrib.LocalProcessWorker = LedgerWorker


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    first = FirstWork()
    tracer = Tracer(args.op, args.parent_span) if args.spans else None
    traced = tracer.span if tracer is not None else (lambda name: nullcontext())
    rc = 1
    try:
        with traced("cli.import"):
            import repro.cli
            from repro.campaign import builtin

            if args.cli[:2] == ["campaign", "fleet"]:
                _install_fleet_worker(args, first, tracer)
        builtin.BUILTIN_CAMPAIGNS[specs.spec_name(args.spec, args.seed)] = (
            functools.partial(specs.GENERATORS[args.spec], args.seed)
        )
        install_first_work(first)
        if tracer is not None:
            install_shims(tracer)
        with traced("cli.main"):
            rc = repro.cli.main(args.cli)
    except SystemExit as exc:  # argparse errors inside the CLI
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        if tracer is not None:
            if first.at is not None:
                tracer.mark("ledger.first_work", first.at)
            shards = sorted(glob.glob(f"{args.spans}.shard*"))
            tracer.write(args.spans, [r for path in shards for r in read_spans(path)])
            for path in shards:
                os.remove(path)
        if args.result:
            with open(args.result, "w") as handle:
                json.dump({"rc": rc, "first_work": first.at}, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main())
