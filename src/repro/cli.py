"""Command-line interface: ``python -m repro <command>``.

A downstream user's fastest route to every headline result:

============  ==========================================================
command       what it does
============  ==========================================================
``demo``      the Figure 1 channel: scan, text plot, decoded byte
``send``      transmit a message through TET-CC (``--fast`` = TET-CC-BS)
``leak``      TET-Meltdown against the simulated kernel secret
``kaslr``     break KASLR (``--kpti`` / ``--flare`` / ``--container``)
``matrix``    the Table 2 attack x CPU matrix (short secrets)
``pmu``       the Figure 2 toolset on a chosen scene
``campaign``  declarative cached sweeps: ``run|status|report|clean|list``,
              plus the distributed tier (``repro.distrib``): ``shard``
              runs one deterministic slice into a store segment,
              ``merge`` combines segments by content address, ``fleet``
              coordinates shard workers end to end
``faults``    the fault-injection layer: ``demo`` proves the
              determinism-of-failure contract live
``perf``      the hot-path harness: ``profile`` a campaign cell under
              cProfile
``obs``       recorded-run observability: ``report|trace|tail|flame``
              replay a ``campaign run --trace-out`` JSONL or a shard's
              stream spool, ``top|fold`` tail and fold a fleet's
              spools, ``overhead`` gates telemetry's cost (disabled
              <2%, enabled <15%)
``defend``    the detection arms race (``repro.defend``): ``calibrate``
              fits the deterministic detector on seeded benign/attack
              traffic, ``score`` inspects one scenario's windows,
              ``stream`` runs a campaign with the live detector
              attached, ``eval`` renders the ROC/AUC +
              detection-latency report from a finished store
============  ==========================================================
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import List, Optional

from repro.uarch.config import CPU_MODELS


class _Refusal(Exception):
    """A command refuses to go on: :func:`main` prints the message as
    one stderr line and exits with *code* (2 = bad input)."""

    def __init__(self, message: str, code: int = 2) -> None:
        super().__init__(message)
        self.code = code


def _add_machine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cpu", default="i7-7700", choices=sorted(CPU_MODELS), help="CPU model"
    )
    parser.add_argument("--seed", type=int, default=1, help="KASLR/boot seed")


def _trial_pool(args):
    """The pool for ``--workers N``: a TrialPool, or a null context
    (``as`` binds None) for the legacy path (no fan-out)."""
    if args.workers <= 0:
        return contextlib.nullcontext()
    from repro.runtime import TrialPool

    return TrialPool(workers=args.workers)


@contextlib.contextmanager
def _campaign_pool(args, policy=None):
    """The TrialPool a campaign-executing command runs on (``--workers
    N``, ``--lanes L``, the retry *policy*); an aborted campaign (too
    many failed trials) exits 1."""
    from repro.campaign import CampaignAborted
    from repro.runtime import TrialPool

    try:
        with TrialPool(
            workers=max(1, args.workers),
            policy=policy,
            lanes=getattr(args, "lanes", None),
        ) as pool:
            yield pool
    except CampaignAborted as exc:
        raise _Refusal(f"aborted: {exc}", code=1) from None


@contextlib.contextmanager
def _progress(label: str):
    """The runner's observer for a campaign-executing command: one
    stderr line per checkpoint, then one ``done:`` line."""
    from repro.telemetry.live import ProgressRenderer

    renderer = ProgressRenderer(name=label)
    try:
        yield renderer.on_batch
    finally:
        renderer.close()


def _machine(args, **kwargs):
    from repro.sim import Machine

    return Machine(args.cpu, seed=args.seed, **kwargs)


def cmd_demo(args) -> int:
    from repro.sim.viz import argmax_series, tote_scan_plot
    from repro.whisper import TetCovertChannel

    machine = _machine(args)
    secret = args.byte & 0xFF
    print(f"machine: {machine.model.name}; sending byte {secret:#04x}")
    with _trial_pool(args) as pool:
        channel = TetCovertChannel(machine, batches=args.batches, pool=pool)
        machine.write_data(channel.sender_page, bytes([secret]))
        scan = channel.scan_byte()
    print()
    print(tote_scan_plot(scan.totes_by_test, highlight=secret))
    print()
    print(argmax_series(scan.totes_by_test))
    print()
    print(f"decoded: {scan.value:#04x} (confidence {scan.confidence:.0%})")
    return 0 if scan.value == secret else 1


def cmd_send(args) -> int:
    machine = _machine(args)
    payload = args.message.encode()
    with _trial_pool(args) as pool:
        if args.fast:
            from repro.whisper.fast_channel import BinarySearchChannel

            channel = BinarySearchChannel(machine)
            label = "TET-CC-BS (binary search)"
        else:
            from repro.whisper import TetCovertChannel

            channel = TetCovertChannel(machine, batches=args.batches, pool=pool)
            label = "TET-CC (linear scan)"
        stats = channel.transmit(payload)
    print(f"{label} on {machine.model.name}")
    print(f"sent     : {payload!r}")
    print(f"received : {stats.received!r}")
    print(f"stats    : {stats}")
    return 0 if stats.error_rate == 0 else 1


def cmd_leak(args) -> int:
    from repro.whisper import TetMeltdown

    machine = _machine(args, kpti=args.kpti)
    attack = TetMeltdown(machine, batches=args.batches)
    result = attack.leak(length=args.length)
    print(f"TET-MD on {machine.model.name} (kpti={args.kpti})")
    print(f"expected : {result.expected!r}")
    print(f"leaked   : {result.data!r}")
    print(f"stats    : {result}")
    print(f"verdict  : {'SUCCESS' if result.success else 'FAILED'}")
    return 0 if result.success else 1


def cmd_kaslr(args) -> int:
    from repro.whisper import TetKaslr

    machine = _machine(
        args, kpti=args.kpti, flare=args.flare, container=args.container
    )
    with _trial_pool(args) as pool:
        result = TetKaslr(machine, pool=pool).break_auto()
    print(f"TET-KASLR on {machine.model.name} "
          f"(kpti={args.kpti}, flare={args.flare}, container={args.container})")
    print(result)
    return 0 if result.success else 1


def cmd_matrix(args) -> int:
    from repro.campaign.builtin import MATRIX_CPUS
    from repro.sim import Machine
    from repro.sim.viz import success_matrix
    from repro.whisper import (
        TetCovertChannel,
        TetKaslr,
        TetMeltdown,
        TetSpectreRsb,
        TetZombieload,
    )

    secret = b"T2"
    attacks = ("TET-CC", "TET-MD", "TET-ZBL", "TET-RSB", "TET-KASLR")
    cpus = sorted(CPU_MODELS) if args.all_cpus else MATRIX_CPUS
    matrix = {}
    with _trial_pool(args) as pool:
        for cpu in cpus:
            row = {}
            for attack in attacks:
                machine = Machine(cpu, seed=args.seed, secret=secret)
                if attack == "TET-CC":
                    channel = TetCovertChannel(machine, batches=3, pool=pool)
                    row[attack] = channel.transmit(secret).error_rate == 0
                elif attack == "TET-MD":
                    row[attack] = TetMeltdown(machine, batches=3).leak(length=2).success
                elif attack == "TET-ZBL":
                    zbl = TetZombieload(machine, batches=5)
                    zbl.install_victim_secret(secret)
                    row[attack] = zbl.leak().success
                elif attack == "TET-RSB":
                    rsb = TetSpectreRsb(machine)
                    rsb.install_secret(secret)
                    row[attack] = rsb.leak().success
                else:
                    row[attack] = TetKaslr(machine, pool=pool).break_kaslr().success
            matrix[cpu] = row
            print(f"[{cpu}] done", file=sys.stderr)
    print(success_matrix(matrix, row_order=cpus, column_order=attacks))
    return 0


def cmd_faults_demo(args) -> int:
    from repro.faults.demo import run_demo

    return run_demo(
        seed=args.seed,
        rate=args.rate,
        workers=args.workers,
        retries=args.retry,
        campaign=args.campaign,
    )


def cmd_perf_profile(args) -> int:
    from repro.perf import run_profile

    run_profile(
        campaign=args.campaign,
        cell=args.cell,
        trials=args.trials,
        sort=args.sort,
        limit=args.limit,
    )
    return 0


def cmd_obs_report(args) -> int:
    from repro.telemetry.live import run_obs_report

    return run_obs_report(args.trace, limit=args.limit)


def cmd_obs_trace(args) -> int:
    from repro.telemetry.live import run_obs_trace

    return run_obs_trace(args.trace, output=args.output, validate=args.validate)


def cmd_obs_tail(args) -> int:
    from repro.telemetry.live import run_obs_tail

    return run_obs_tail(args.trace, count=args.count)


def cmd_obs_top(args) -> int:
    from repro.telemetry.live import run_obs_top

    return run_obs_top(
        args.root,
        once=args.once,
        interval=args.interval,
        timeout=args.timeout,
    )


def cmd_obs_flame(args) -> int:
    from repro.telemetry.live import run_obs_flame

    return run_obs_flame(args.trace, output=args.output)


def cmd_obs_fold(args) -> int:
    from repro.telemetry.live import run_obs_fold

    return run_obs_fold(args.root, output=args.output)


def cmd_obs_overhead(args) -> int:
    from repro.perf import run_overhead

    return run_overhead(
        campaign=args.campaign,
        cell=args.cell,
        trials=args.trials,
        repeats=args.repeats,
        quick=args.quick,
    )


def cmd_pmu(args) -> int:
    from repro.pmutools import OnlineCollector, PmuPipeline
    from repro.pmutools.scenarios import (
        TetCcScenario,
        TetKaslrScenario,
        TetMdScenario,
    )

    scenarios = {
        "tet-cc": TetCcScenario,
        "tet-md": TetMdScenario,
        "tet-kaslr": TetKaslrScenario,
    }
    machine = _machine(args)
    pipeline = PmuPipeline(OnlineCollector(iterations=args.iterations))
    report = pipeline.analyze(scenarios[args.scene](machine))
    print(
        f"prepared {report.prepared_events} events; "
        f"{len(report.survivors)} condition-sensitive after filtering"
    )
    print(report.render())
    return 0


def _campaign_store(args):
    from repro.campaign import ResultStore

    return ResultStore(args.store)


def _campaign_spec(args):
    from repro.campaign import builtin_campaign

    try:
        return builtin_campaign(args.name)
    except KeyError as exc:
        raise _Refusal(exc.args[0]) from None


def _policy(args):
    """The per-trial policy ``--retry`` / ``--max-failures`` ask for, or
    None for the classic fail-fast path."""
    if args.retry <= 0 and args.max_failures is None:
        return None
    from repro.faults import ResiliencePolicy

    return ResiliencePolicy(max_retries=args.retry)


def _write_artifacts(
    report, store: str, name: str, kind: str = "report", note: str = ""
) -> None:
    """Write ``<store>/<name>/<kind>.json`` and ``.txt``, then print the
    text, *note* (if any) and the ``artifacts:`` line."""
    json_path, text_path = (
        os.path.join(store, name, f"{kind}.{ext}") for ext in ("json", "txt")
    )
    report.write_json(json_path)
    report.write_text(text_path)
    print(report.render_text())
    if note:
        print(note)
    print(f"artifacts: {json_path}, {text_path}")


def cmd_campaign_run(args) -> int:
    from repro.campaign import CampaignRunner

    spec = _campaign_spec(args)
    if args.trace_out:
        from repro import telemetry

        # Wall clocks make the Chrome trace human-meaningful; every
        # checksum strips them (they are sidecar fields).
        telemetry.enable(wall_clock=True)
    try:
        with _campaign_pool(args, _policy(args)) as pool, _progress(spec.name) as observer:
            report, stats = CampaignRunner(
                spec,
                store=_campaign_store(args),
                pool=pool,
                batch_size=args.checkpoint_every,
                max_failures=args.max_failures,
                observer=observer,
            ).run()
    finally:
        if args.trace_out:
            from repro.telemetry.export import write_jsonl

            # Written even when the run aborts: `repro obs tail` on the
            # trace answers "what was the campaign doing when it died?".
            records = telemetry.recorder().drain()
            metrics = telemetry.metrics_registry().drain()
            telemetry.disable()
            write_jsonl(records, args.trace_out, metrics=metrics)
            print(
                f"[{spec.name}] wrote {len(records)} telemetry records to "
                f"{args.trace_out} (replay with `repro obs report`)",
                file=sys.stderr,
            )
    _write_artifacts(report, args.store, spec.name, note=f"run      : {stats}")
    if args.trace_out:
        from repro.campaign.report import render_run_observability

        print(render_run_observability(stats, metrics), file=sys.stderr)
    if args.require_cached is not None and stats.hit_rate < args.require_cached:
        print(
            f"cache hit rate {stats.hit_rate:.1%} below required "
            f"{args.require_cached:.1%}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_campaign_shard(args) -> int:
    from repro.campaign import Shard
    from repro.distrib import manifest_path, run_shard

    spec = _campaign_spec(args)
    try:
        shard = Shard(args.index, args.of)
    except ValueError as exc:
        raise _Refusal(str(exc)) from None
    label = f"{spec.name} {shard}"
    try:
        with _campaign_pool(args, _policy(args)) as pool, _progress(label) as observer:
            store, stats = run_shard(
                spec,
                shard,
                args.store,
                stream_path=args.stream_out,
                stream_every=args.stream_every,
                observer=observer,
                pool=pool,
                batch_size=args.checkpoint_every,
                max_failures=args.max_failures,
            )
    finally:
        if args.stream_out:
            print(
                f"[{label}] streamed telemetry to {args.stream_out} "
                f"(tail with `repro obs top`, replay with `repro obs report`)",
                file=sys.stderr,
            )
    print(f"{label}: {stats}")
    print(f"segment  : {store.path} ({len(store)} records)")
    print(f"manifest : {manifest_path(args.store)}")
    print(f"merge    : `repro campaign merge {spec.name} --store DEST "
          f"{args.store} ...` combines segments")
    return 0


def cmd_campaign_merge(args) -> int:
    from repro.campaign import CampaignRunner
    from repro.distrib import MergeError, merge_stores
    from repro.distrib.coordinator import FLEET_TELEMETRY
    from repro.telemetry.stream import fold_streams, stream_spool

    spec = _campaign_spec(args)
    try:
        stats = merge_stores(
            args.segments, args.store, check_manifests=not args.no_manifests
        )
    except MergeError as exc:
        raise _Refusal(f"merge refused: {exc}") from None
    print(f"merged   : {stats}")
    telemetry_path = os.path.join(args.store, FLEET_TELEMETRY)
    folded = fold_streams(map(stream_spool, args.segments), telemetry_path)
    if folded:
        print(
            f"telemetry: {len(folded)} fleet metrics -> {telemetry_path} "
            f"(render with `repro obs report`)"
        )
    runner = CampaignRunner(spec, store=_campaign_store(args))
    report = runner.collect()
    if report is None:
        print(runner.status())
        print(
            "merged store does not yet cover the full grid; merge the "
            "remaining segments (or `campaign shard` the missing slices)",
            file=sys.stderr,
        )
        return 0 if args.allow_partial else 1
    _write_artifacts(report, args.store, spec.name)
    return 0


def cmd_campaign_fleet(args) -> int:
    from repro.distrib import Coordinator, FleetError, LocalProcessWorker
    from repro.distrib.coordinator import FLEET_TELEMETRY
    from repro.faults import ResiliencePolicy

    spec = _campaign_spec(args)
    worker = LocalProcessWorker(
        spec.name,
        workers=args.workers,
        batch_size=args.checkpoint_every,
        retry=args.retry,
        stream=args.stream,
        stream_every=args.stream_every,
    )
    on_stream = None
    if args.stream:
        def on_stream(view):
            print(view.render(), file=sys.stderr)

    coordinator = Coordinator(
        spec,
        args.store,
        shards=args.shards,
        worker=worker,
        policy=ResiliencePolicy(
            max_retries=args.retry_shards, backoff_base=args.backoff
        ),
        parallel=args.parallel,
        progress=lambda message: print(
            f"[fleet {spec.name}] {message}", file=sys.stderr
        ),
        stream=args.stream,
        on_stream=on_stream,
    )
    try:
        result = coordinator.run()
    except FleetError as exc:
        print(f"fleet failed: {exc}", file=sys.stderr)
        return 1
    print(result)
    print(f"store    : {_campaign_store(args).path}")
    print(
        f"obs      : repro obs report "
        f"{os.path.join(args.store, FLEET_TELEMETRY)}"
    )
    if args.stream:
        print(
            f"stream   : repro obs top {args.store} --once; "
            f"repro obs fold {args.store}"
        )
    if result.report is not None:
        _write_artifacts(result.report, args.store, spec.name)
    return 0


def cmd_campaign_status(args) -> int:
    from repro.campaign import CampaignRunner

    print(CampaignRunner(_campaign_spec(args), store=_campaign_store(args)).status())
    return 0


def cmd_campaign_report(args) -> int:
    from repro.campaign import CampaignRunner

    spec = _campaign_spec(args)
    runner = CampaignRunner(spec, store=_campaign_store(args))
    report = runner.collect()
    if report is None:
        print(runner.status())
        print("campaign incomplete; `campaign run` executes the delta",
              file=sys.stderr)
        return 1
    _write_artifacts(report, args.store, spec.name)
    return 0


def cmd_campaign_clean(args) -> int:
    dropped = _campaign_store(args).clear()
    print(f"dropped {dropped} cached trial results from {args.store}")
    return 0


def cmd_campaign_list(args) -> int:
    from repro.campaign import BUILTIN_CAMPAIGNS

    for name in sorted(BUILTIN_CAMPAIGNS):
        spec = BUILTIN_CAMPAIGNS[name]()
        doc = (BUILTIN_CAMPAIGNS[name].__doc__ or "").strip().splitlines()[0]
        print(f"{name:15} {spec.trial_count():>6} trials  {doc}")
    return 0


def _calibration_path(args) -> str:
    if args.calibration:
        return args.calibration
    return os.path.join(args.store, "defend", "calibration.json")


def _load_calibration(args):
    from repro.defend import Calibration

    path = _calibration_path(args)
    try:
        return Calibration.load(path)
    except FileNotFoundError:
        raise _Refusal(
            f"no calibration at {path}; run `repro defend calibrate` first"
        ) from None


def _print_calibration(calibration) -> None:
    print(f"calibration: {calibration.digest} (threshold {calibration.threshold:.4f})")
    print(f"trained on : " + ", ".join(
        f"{name} x{count}" for name, count in calibration.trained_on
    ))
    for field, weight in zip(calibration.rate_fields, calibration.weights):
        print(f"  {field:28s} weight {weight:+.4f}")


def cmd_defend_calibrate(args) -> int:
    from repro.defend import calibrate

    with _campaign_pool(args) as pool, _progress("defend-calibrate") as observer:
        calibration, stats = calibrate(
            store=_campaign_store(args),
            pool=pool,
            batch_size=args.checkpoint_every,
            observer=observer,
        )
    path = _calibration_path(args)
    calibration.save(path)
    _print_calibration(calibration)
    print(f"run      : {stats}")
    print(f"artifact : {path}")
    return 0


def cmd_defend_score(args) -> int:
    from repro.defend import FeatureVector, get_scenario, scenario_names
    from repro.runtime import DetectTrial, MachineSpec, run_detect_trial

    try:
        scenario = get_scenario(args.scenario)
    except KeyError:
        raise _Refusal(
            f"unknown scenario {args.scenario!r}; "
            f"choose from: {', '.join(scenario_names())}"
        ) from None
    calibration = _load_calibration(args)
    spec = MachineSpec(model=args.cpu, seed=args.seed)
    print(
        f"{scenario.name} [{scenario.taxonomy}] on {args.cpu} seed {args.seed}: "
        f"{scenario.description}"
    )
    flagged = 0
    for window in range(args.trials):
        result = run_detect_trial(DetectTrial(spec, scenario.name, window))
        features = FeatureVector.from_ints(result.totes)
        score = calibration.score(features)
        flag = score > calibration.threshold
        flagged += int(flag)
        print(
            f"window {window}: score {score:.4f} "
            f"{'FLAG  ' if flag else 'clear '} "
            f"clflush/kuop={features.clflush_per_kilo_uop:.2f} "
            f"llc/kuop={features.llc_miss_per_kilo_uop:.2f} "
            f"clears/kuop={features.machine_clears_per_kilo_uop:.2f}"
        )
    print(
        f"flagged {flagged}/{args.trials} windows "
        f"(threshold {calibration.threshold:.4f}, "
        f"calibration {calibration.digest})"
    )
    return 0


def cmd_defend_eval(args) -> int:
    from repro.defend import StreamingDetector, build_defend_report

    spec = _campaign_spec(args)
    detector = StreamingDetector(_load_calibration(args), spec)
    ingested = detector.ingest_store(_campaign_store(args))
    expected = spec.trial_count()
    if ingested + detector.failed_windows < expected and not args.allow_partial:
        print(
            f"store covers {ingested}/{expected} windows; run the campaign "
            f"first (`repro campaign run {spec.name}` or `repro defend "
            f"stream {spec.name}`), or pass --allow-partial",
            file=sys.stderr,
        )
        return 1
    report = build_defend_report(detector, min_auc=args.min_auc)
    _write_artifacts(report, args.store, spec.name, "defend")
    return 0 if report.passed else 1


def cmd_defend_stream(args) -> int:
    from repro.campaign import CampaignRunner
    from repro.defend import StreamingDetector, build_defend_report

    spec = _campaign_spec(args)
    detector = StreamingDetector(_load_calibration(args), spec)
    seen = set()

    def sink(ref, outcome):
        verdict = detector.ingest(ref, outcome)
        if verdict is None or not verdict.flagged or verdict.key() in seen:
            return
        seen.add(verdict.key())
        print(
            f"[{spec.name}] FLAG {verdict.scenario} cell {verdict.cell} "
            f"rep {verdict.rep} window {verdict.coord} "
            f"score {verdict.score:.4f}",
            file=sys.stderr,
        )

    with _campaign_pool(args) as pool, _progress(spec.name) as observer:
        CampaignRunner(
            spec,
            store=_campaign_store(args),
            pool=pool,
            batch_size=args.checkpoint_every,
            observer=observer,
            sink=sink,
        ).run()
    report = build_defend_report(detector, min_auc=args.min_auc)
    _write_artifacts(report, args.store, spec.name, "defend")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Whisper (DAC 2024) reproduction on a simulated CPU",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Shared flags are spelled once, in parent parsers: every
    # trial-running command takes ``--workers``; the five that execute
    # campaigns (``campaign run|shard|fleet``, ``defend calibrate|stream``)
    # also take ``--checkpoint-every``.
    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument(
        "--workers",
        type=int,
        default=0,
        help="fan trials across N worker processes (0 = classic serial "
        "path). Decoded bytes, found bases and campaign reports are the "
        "same at any N, but demo, send and kaslr report more simulated "
        "time pooled: each pooled trial pays for its own warm-up",
    )
    execution = argparse.ArgumentParser(add_help=False, parents=[workers])
    execution.add_argument(
        "--checkpoint-every", type=int, default=128, metavar="K",
        help="checkpoint the result store every K completed trials "
        "(default: 128)",
    )

    demo = sub.add_parser(
        "demo", parents=[workers], help="see the Figure 1 channel"
    )
    _add_machine_args(demo)
    demo.add_argument("--byte", type=lambda s: int(s, 0), default=0x53)
    demo.add_argument("--batches", type=int, default=5)
    demo.set_defaults(func=cmd_demo)

    send = sub.add_parser(
        "send", parents=[workers], help="transmit a message through TET-CC"
    )
    _add_machine_args(send)
    send.add_argument("message", nargs="?", default="whisper")
    send.add_argument("--batches", type=int, default=3)
    send.add_argument("--fast", action="store_true", help="binary-search mode")
    send.set_defaults(func=cmd_send)

    leak = sub.add_parser("leak", help="TET-Meltdown the kernel secret")
    _add_machine_args(leak)
    leak.add_argument("--length", type=int, default=8)
    leak.add_argument("--batches", type=int, default=3)
    leak.add_argument("--kpti", action="store_true")
    leak.set_defaults(func=cmd_leak)

    kaslr = sub.add_parser("kaslr", parents=[workers], help="break KASLR")
    _add_machine_args(kaslr)
    kaslr.add_argument("--kpti", action="store_true")
    kaslr.add_argument("--flare", action="store_true")
    kaslr.add_argument("--container", action="store_true")
    kaslr.set_defaults(func=cmd_kaslr)

    matrix = sub.add_parser(
        "matrix", parents=[workers], help="the Table 2 attack x CPU matrix"
    )
    matrix.add_argument("--seed", type=int, default=1)
    matrix.add_argument("--all-cpus", action="store_true")
    matrix.set_defaults(func=cmd_matrix)

    campaign = sub.add_parser(
        "campaign", help="declarative cached sweeps (repro.campaign)"
    )
    csub = campaign.add_subparsers(dest="campaign_command", required=True)

    def _campaign_common(sub_parser):
        sub_parser.add_argument(
            "--store",
            default=".campaigns",
            help="result-store directory (default: .campaigns)",
        )

    def _resilience(sub_parser):
        sub_parser.add_argument(
            "--retry", type=int, default=0, metavar="N",
            help="retry each failing trial up to N times before "
            "quarantining it as a structured failure (0 = classic "
            "fail-fast path)",
        )
        sub_parser.add_argument(
            "--max-failures", type=int, default=None, metavar="M",
            help="abort (after checkpointing) once more than M trials have "
            "failed every retry; implies the resilient path",
        )

    crun = csub.add_parser(
        "run", parents=[execution],
        help="run a campaign (cached trials replay for free)",
    )
    crun.add_argument("name", help="built-in campaign name (see `campaign list`)")
    _campaign_common(crun)
    crun.add_argument(
        "--lanes", "--batch", type=int, default=None, metavar="L",
        help="step pack-eligible trials L lanes at a time through the "
        "lockstep batch executor (results are byte-identical to the "
        "scalar path; divergent lanes fall back automatically)",
    )
    crun.add_argument(
        "--require-cached", type=float, default=None, metavar="FRACTION",
        help="exit non-zero if the store hit rate is below FRACTION "
        "(CI uses 1.0 to police the cache)",
    )
    _resilience(crun)
    crun.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="record the run's telemetry (spans, events, metrics) to a "
        "JSONL file for `repro obs report|trace|tail`",
    )
    crun.set_defaults(func=cmd_campaign_run)

    cshard = csub.add_parser(
        "shard", parents=[execution],
        help="run one deterministic slice of a campaign into a store "
        "segment (repro.distrib)",
    )
    cshard.add_argument("name", help="built-in campaign name")
    cshard.add_argument(
        "--index", type=int, required=True, metavar="I",
        help="this shard's index, 0 <= I < N",
    )
    cshard.add_argument(
        "--of", type=int, required=True, metavar="N",
        help="total shard count N (every host must agree on N)",
    )
    cshard.add_argument(
        "--store", default=".campaigns",
        help="segment store directory (one per shard; default: .campaigns)",
    )
    _resilience(cshard)
    cshard.add_argument(
        "--stream-out", default=None, metavar="PATH",
        help="append live framed telemetry (spans, metric snapshots, "
        "heartbeats) to this spool while the shard runs; fleet merges "
        "fold segment spools into one `repro obs` view",
    )
    cshard.add_argument(
        "--stream-every", type=int, default=None, metavar="N",
        help="heartbeat/snapshot cadence in completed trials (never "
        "wall-clock; default: 32)",
    )
    cshard.set_defaults(func=cmd_campaign_shard)

    cmerge = csub.add_parser(
        "merge",
        help="merge shard store segments (dedup by content address) and "
        "render the whole-campaign artifacts",
    )
    cmerge.add_argument("name", help="built-in campaign name")
    cmerge.add_argument(
        "segments", nargs="+", metavar="SEGMENT",
        help="segment store directories to merge",
    )
    _campaign_common(cmerge)
    cmerge.add_argument(
        "--allow-partial", action="store_true",
        help="exit 0 even if the merged store does not cover the full grid",
    )
    cmerge.add_argument(
        "--no-manifests", action="store_true",
        help="skip manifest fencing (merging bare pre-distrib stores)",
    )
    cmerge.set_defaults(func=cmd_campaign_merge)

    cfleet = csub.add_parser(
        "fleet", parents=[execution],
        help="shard a campaign across local subprocess workers, merge as "
        "segments complete (the asyncio coordinator); --workers and "
        "--checkpoint-every apply inside each shard",
    )
    cfleet.add_argument("name", help="built-in campaign name")
    _campaign_common(cfleet)
    cfleet.add_argument(
        "--shards", type=int, default=3, metavar="N",
        help="how many shards to split the grid into (default: 3)",
    )
    cfleet.add_argument(
        "--parallel", type=int, default=None, metavar="P",
        help="shards in flight at once (default: min(N, 8))",
    )
    cfleet.add_argument(
        "--retry-shards", type=int, default=1, metavar="K",
        help="re-hand a failed shard up to K times (resume is free; "
        "default: 1)",
    )
    cfleet.add_argument(
        "--backoff", type=float, default=0.0, metavar="SECONDS",
        help="seeded exponential backoff base between shard retries "
        "(default: 0, retry immediately)",
    )
    cfleet.add_argument(
        "--retry", type=int, default=0, metavar="N",
        help="per-trial retries inside each shard worker (default: 0)",
    )
    cfleet.add_argument(
        "--stream", action="store_true",
        help="arm the live plane: shards append framed spools, the "
        "coordinator tails them concurrently and folds them into the "
        "fleet obs view (watch with `repro obs top`)",
    )
    cfleet.add_argument(
        "--stream-every", type=int, default=None, metavar="N",
        help="per-shard heartbeat/snapshot cadence in completed trials "
        "(default: 32)",
    )
    cfleet.set_defaults(func=cmd_campaign_fleet)

    cstatus = csub.add_parser("status", help="cached/pending trial accounting")
    cstatus.add_argument("name")
    _campaign_common(cstatus)
    cstatus.set_defaults(func=cmd_campaign_status)

    creport = csub.add_parser(
        "report", help="render artifacts purely from the store (no execution)"
    )
    creport.add_argument("name")
    _campaign_common(creport)
    creport.set_defaults(func=cmd_campaign_report)

    cclean = csub.add_parser("clean", help="drop every cached trial result")
    _campaign_common(cclean)
    cclean.set_defaults(func=cmd_campaign_clean)

    clist = csub.add_parser("list", help="list built-in campaigns")
    clist.set_defaults(func=cmd_campaign_list)

    faults = sub.add_parser(
        "faults", help="deterministic fault injection (repro.faults)"
    )
    fsub = faults.add_subparsers(dest="faults_command", required=True)
    fdemo = fsub.add_parser(
        "demo",
        help="inject seeded chaos into a small campaign, serial and "
        "pooled, and verify byte-identical failure behaviour",
    )
    fdemo.add_argument("--seed", type=int, default=7, help="FaultPlan seed")
    fdemo.add_argument(
        "--rate", type=float, default=0.25,
        help="total per-trial fault probability, split evenly over "
        "raise/hang/garbage/kill (default: 0.25)",
    )
    fdemo.add_argument(
        "--workers", type=int, default=4,
        help="worker count for the pooled leg (default: 4)",
    )
    fdemo.add_argument(
        "--retry", type=int, default=2,
        help="retries per trial before quarantine (default: 2)",
    )
    fdemo.add_argument(
        "--campaign", default="ci-smoke",
        help="built-in campaign to torment (default: ci-smoke)",
    )
    fdemo.set_defaults(func=cmd_faults_demo)

    perf = sub.add_parser("perf", help="hot-path profiling")
    psub = perf.add_subparsers(dest="perf_command", required=True)

    def _perf_common(sub_parser):
        sub_parser.add_argument(
            "--campaign", default="e3-matrix",
            help="built-in campaign to draw trials from (default: e3-matrix)",
        )
        sub_parser.add_argument(
            "--cell", type=int, default=0,
            help="cell index inside the campaign (default: 0)",
        )

    pprofile = psub.add_parser(
        "profile", help="cProfile a campaign cell's trial hot path"
    )
    _perf_common(pprofile)
    pprofile.add_argument(
        "--trials", type=int, default=24,
        help="trials to run under the profiler (default: 24)",
    )
    pprofile.add_argument(
        "--sort", default="tottime",
        help="pstats sort key (default: tottime)",
    )
    pprofile.add_argument(
        "--limit", type=int, default=25,
        help="rows of profile output (default: 25)",
    )
    pprofile.set_defaults(func=cmd_perf_profile)

    obs = sub.add_parser(
        "obs", help="recorded-run observability (repro.telemetry)"
    )
    osub = obs.add_subparsers(dest="obs_command", required=True)
    recorded_run = (
        "JSONL file from `campaign run --trace-out`, or a shard's "
        "stream.jsonl spool"
    )

    oreport = osub.add_parser(
        "report",
        help="summarise a recorded run: span tree, cycle attribution, metrics",
    )
    oreport.add_argument("trace", help=recorded_run)
    oreport.add_argument(
        "--limit", type=int, default=10,
        help="cycle-attribution rows to print (default: 10)",
    )
    oreport.set_defaults(func=cmd_obs_report)

    otrace = osub.add_parser(
        "trace",
        help="convert a recorded run to Chrome trace_event JSON "
        "(chrome://tracing / Perfetto)",
    )
    otrace.add_argument("trace", help=recorded_run)
    otrace.add_argument(
        "--output", default=None, metavar="PATH",
        help="output path (default: <trace>.trace.json)",
    )
    otrace.add_argument(
        "--validate", action="store_true",
        help="check the converted trace against the trace_event schema "
        "and exit non-zero on violations (CI obs-smoke)",
    )
    otrace.set_defaults(func=cmd_obs_trace)

    otail = osub.add_parser(
        "tail", help="print a recorded run's last records (post-mortems)"
    )
    otail.add_argument("trace", help=recorded_run)
    otail.add_argument(
        "--count", type=int, default=20,
        help="records to print (default: 20)",
    )
    otail.set_defaults(func=cmd_obs_tail)

    otop = osub.add_parser(
        "top",
        help="live fleet dashboard: tail every shard's stream spool "
        "(campaign fleet --stream)",
    )
    otop.add_argument(
        "root",
        help="fleet store root (spools under segments/*/stream.jsonl), "
        "a segment root, or a spool file",
    )
    otop.add_argument(
        "--once", action="store_true",
        help="render the current fleet state once and exit (CI mode)",
    )
    otop.add_argument(
        "--interval", type=float, default=0.5, metavar="SECONDS",
        help="poll interval in follow mode (default: 0.5)",
    )
    otop.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="in follow mode, exit 3 if the fleet has not sealed every "
        "spool after SECONDS (default: wait forever)",
    )
    otop.set_defaults(func=cmd_obs_top)

    oflame = osub.add_parser(
        "flame",
        help="export collapsed stacks (flamegraph.pl / speedscope input) "
        "from a recorded run or a live spool",
    )
    oflame.add_argument("trace", help=recorded_run)
    oflame.add_argument(
        "--output", default=None, metavar="PATH",
        help="output path (default: <trace>.folded)",
    )
    oflame.set_defaults(func=cmd_obs_flame)

    ofold = osub.add_parser(
        "fold",
        help="fold completed stream spools into one metrics artifact",
    )
    ofold.add_argument(
        "root", help="fleet store root, segment root, or spool file"
    )
    ofold.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the folded recorded run here (repro obs report reads it)",
    )
    ofold.set_defaults(func=cmd_obs_fold)

    ooverhead = osub.add_parser(
        "overhead",
        help="measure telemetry overhead and gate it (disabled <2%%, "
        "enabled <15%%)",
    )
    _perf_common(ooverhead)
    ooverhead.add_argument(
        "--trials", type=int, default=16,
        help="trials per timed pass (default: 16)",
    )
    ooverhead.add_argument(
        "--repeats", type=int, default=3,
        help="timed passes per arm; the best is kept (default: 3)",
    )
    ooverhead.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: at most 12 trials x 3 passes",
    )
    ooverhead.set_defaults(func=cmd_obs_overhead)


    defend = sub.add_parser(
        "defend", help="the detection arms race (repro.defend)"
    )
    dsub = defend.add_subparsers(dest="defend_command", required=True)

    def _defend_common(sub_parser):
        sub_parser.add_argument(
            "--store",
            default=".campaigns",
            help="result-store directory (default: .campaigns)",
        )
        sub_parser.add_argument(
            "--calibration", default=None, metavar="PATH",
            help="fitted calibration JSON "
            "(default: <store>/defend/calibration.json)",
        )

    dcal = dsub.add_parser(
        "calibrate", parents=[execution],
        help="run the seeded benign/attack training mix and fit the "
        "deterministic detector (TET held out)",
    )
    _defend_common(dcal)
    dcal.set_defaults(func=cmd_defend_calibrate)

    dscore = dsub.add_parser(
        "score",
        help="run one scenario's observation windows and print the "
        "calibrated model's per-window verdicts",
    )
    _add_machine_args(dscore)
    _defend_common(dscore)
    dscore.add_argument(
        "--scenario", required=True,
        help="traffic scenario name (see docs/DEFEND.md)",
    )
    dscore.add_argument(
        "--trials", type=int, default=4,
        help="observation windows to score (default: 4)",
    )
    dscore.set_defaults(func=cmd_defend_score)

    deval = dsub.add_parser(
        "eval",
        help="render the ROC/AUC + detection-latency report from a "
        "finished campaign store (no execution)",
    )
    deval.add_argument("name", help="built-in campaign name (e.g. e11-detect)")
    _defend_common(deval)
    deval.add_argument(
        "--min-auc", type=float, default=None, metavar="FLOOR",
        help="arm the cache-family AUC gate (CI uses 0.95)",
    )
    deval.add_argument(
        "--allow-partial", action="store_true",
        help="evaluate even if the store does not cover the full grid",
    )
    deval.set_defaults(func=cmd_defend_eval)

    dstream = dsub.add_parser(
        "stream", parents=[execution],
        help="run a campaign with the streaming detector attached "
        "(flags print live, report renders at the end)",
    )
    dstream.add_argument("name", help="built-in campaign name (e.g. e11-detect)")
    _defend_common(dstream)
    dstream.add_argument(
        "--min-auc", type=float, default=None, metavar="FLOOR",
        help="arm the cache-family AUC gate in the final report",
    )
    dstream.set_defaults(func=cmd_defend_stream)

    pmu = sub.add_parser("pmu", help="the Figure 2 PMU toolset")
    _add_machine_args(pmu)
    pmu.add_argument(
        "--scene", default="tet-cc", choices=("tet-cc", "tet-md", "tet-kaslr")
    )
    pmu.add_argument("--iterations", type=int, default=8)
    pmu.set_defaults(func=cmd_pmu)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Refusal as exc:
        print(exc, file=sys.stderr)
        return exc.code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
