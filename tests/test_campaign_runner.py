"""Campaign expansion, replay, resume and the CLI surface.

The campaign determinism contract extends the runtime one: a run that
mixes store replays with live execution -- including a run interrupted
mid-sweep and resumed -- produces artifacts *byte-identical* to a cold
serial run of the same spec.
"""

import json
import re

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    builtin_campaign,
    builtin_names,
    channel_cell,
    kaslr_cell,
    spec_digest,
    trial_key,
)
from repro.campaign.runner import RunStats
from repro.runtime import MachineSpec, TrialPool


def tiny_spec(seed=7, payload=b"\x05", batches=2, values=range(8)) -> CampaignSpec:
    """8 trials per payload byte: seconds, not minutes."""
    return CampaignSpec(
        name="tiny",
        cells=(
            channel_cell(
                MachineSpec(seed=seed), payload=payload, batches=batches,
                values=values,
            ),
        ),
    )


class TestExpansion:
    def test_expand_is_deterministic(self):
        spec = tiny_spec()
        first, second = spec.expand(), spec.expand()
        assert first == second
        assert len(first) == spec.trial_count() == 8

    def test_trial_indices_are_monotone_per_cell(self):
        spec = tiny_spec(payload=b"\x01\x02")
        indices = [ref.trial.trial_index for ref in spec.expand()]
        assert indices == list(range(16))

    def test_units_name_payload_positions(self):
        spec = tiny_spec(payload=b"\x01\x02")
        units = {ref.unit for ref in spec.expand()}
        assert units == {"byte0", "byte1"}

    def test_kaslr_cell_expands_all_slots(self):
        spec = CampaignSpec(
            name="k", cells=(kaslr_cell(MachineSpec(seed=3, kpti=True)),)
        )
        refs = spec.expand()
        assert len(refs) == 512
        assert {ref.unit for ref in refs} == {"sweep"}
        assert [ref.coord for ref in refs] == list(range(512))

    def test_repeats_extend_the_seed_stream(self):
        spec = CampaignSpec(
            name="r",
            cells=(
                channel_cell(
                    MachineSpec(seed=7), payload=b"\x05", values=range(8),
                    repeats=2,
                ),
            ),
        )
        refs = spec.expand()
        assert len(refs) == 16
        assert [ref.trial.trial_index for ref in refs] == list(range(16))
        assert {ref.rep for ref in refs} == {0, 1}

    def test_grid_cross_product(self):
        machines = [MachineSpec(seed=1), MachineSpec(seed=2)]
        spec = CampaignSpec.grid(
            "g", machines, kinds=("channel", "kaslr"), payload=b"\x01",
            values=range(4),
        )
        assert len(spec.cells) == 4
        assert [cell.kind for cell in spec.cells] == [
            "channel", "kaslr", "channel", "kaslr",
        ]

    def test_grid_rejects_unknown_params(self):
        with pytest.raises(ValueError, match="unknown grid parameters"):
            CampaignSpec.grid("g", [MachineSpec()], bogus=1)

    def test_cell_kind_validated(self):
        from repro.campaign import CampaignCell

        with pytest.raises(ValueError, match="cell kind"):
            CampaignCell(kind="meltdown", machine=MachineSpec())

    @pytest.mark.parametrize("kind", ["channel", "kaslr"])
    def test_tsx_refused_at_build_on_a_part_without_it(self, kind):
        """TSX suppression on a part without TSX fails when the cell is
        built, naming the model -- not when its first trial runs."""
        build = {
            "channel": lambda machine: channel_cell(
                machine, payload=b"A", suppression="tsx"
            ),
            "kaslr": lambda machine: kaslr_cell(machine, suppression="tsx"),
        }[kind]
        assert build(MachineSpec("i7-7700")).param("suppression") == "tsx"
        with pytest.raises(ValueError, match="i9-13900K has no TSX"):
            build(MachineSpec("i9-13900K"))
        CampaignSpec.grid(
            "g", [MachineSpec("i7-7700")], kinds=(kind,), payload=b"A",
            suppression="tsx",
        )
        with pytest.raises(ValueError, match="Ryzen 5 5600G has no TSX"):
            CampaignSpec.grid(
                "g", [MachineSpec("i7-7700"), MachineSpec("ryzen-5600G")],
                kinds=(kind,), payload=b"A", suppression="tsx",
            )

    @pytest.mark.parametrize(
        "kind, params, named",
        [
            ("channel", dict(payload=b""), "non-empty payload"),
            ("channel", dict(payload=b"A", values=()), "at least one test value"),
            ("channel", dict(payload=b"A", values=(7, 300)), "test value 300 "),
            ("channel", dict(payload=b"A", values=(-1,)), "test value -1 "),
            ("channel", dict(payload=b"A", batches=0), "batches must be at least 1, not 0"),
            ("channel", dict(payload=b"A", repeats=0), "repeats must be at least 1, not 0"),
            ("channel", dict(payload=b"A", statistic="median"), "not 'median'"),
            ("channel", dict(payload=b"A", suppression="fence"), "'fence'"),
            ("kaslr", dict(strategy="guess"), "unknown KASLR strategy 'guess'"),
            ("kaslr", dict(eviction="magic"), "not 'magic'"),
            ("kaslr", dict(repeats=0), "repeats must be at least 1, not 0"),
            ("kaslr", dict(suppression="fence"), "'fence'"),
            ("detect", dict(scenario="nope"), "unknown detect scenario 'nope'"),
            ("detect", dict(scenario="tet-cc", trials=0), "trials must be at least 1, not 0"),
            ("detect", dict(scenario="tet-cc", repeats=0), "repeats must be at least 1, not 0"),
        ],
    )
    def test_invalid_cell_refused_at_build(self, kind, params, named):
        """Each constructor refuses an invalid value with a one-line
        error naming it, directly and through ``grid``."""
        from repro.campaign.spec import CELL_KINDS

        machine = MachineSpec("i7-7700")
        with pytest.raises(ValueError, match=re.escape(named)) as info:
            CELL_KINDS[kind].build(machine, **params)
        assert "\n" not in str(info.value)
        with pytest.raises(ValueError, match=re.escape(named)):
            CampaignSpec.grid("g", [machine], kinds=(kind,), **params)


class TestReplay:
    def test_second_run_is_pure_replay(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(str(tmp_path))
        report1, stats1 = CampaignRunner(spec, store=store).run()
        assert stats1.executed == stats1.total == 8
        report2, stats2 = CampaignRunner(spec, store=ResultStore(str(tmp_path))).run()
        assert stats2.executed == 0
        assert stats2.cached == stats2.total == 8
        assert stats2.hit_rate == 1.0
        assert report2.to_json() == report1.to_json()
        assert report2.render_text() == report1.render_text()

    def test_spec_change_executes_only_the_delta(self, tmp_path):
        store = ResultStore(str(tmp_path))
        CampaignRunner(tiny_spec(payload=b"\x05"), store=store).run()
        grown = tiny_spec(payload=b"\x05\x06")
        _, stats = CampaignRunner(grown, store=store).run()
        assert stats.cached == 8     # byte0's trials replay
        assert stats.executed == 8   # byte1's trials are new

    def test_decoded_payload_matches(self, tmp_path):
        report, _ = CampaignRunner(
            tiny_spec(payload=b"\x05\x02"), store=ResultStore(str(tmp_path))
        ).run()
        cell = report.cells[0]
        assert cell["reps"][0]["received"] == "0502"
        assert cell["reps"][0]["error_rate"] == 0.0
        assert report.summary()["channel"]["clean"] == 1

    def test_corrupt_record_reexecutes_one_trial(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(str(tmp_path))
        CampaignRunner(spec, store=store).run()
        lines = open(store.path).read().splitlines()
        lines[3] = "garbage"
        open(store.path, "w").write("\n".join(lines) + "\n")
        fresh = ResultStore(str(tmp_path))
        with pytest.warns(UserWarning, match="corrupt store record"):
            _, stats = CampaignRunner(spec, store=fresh).run()
        assert stats.cached == 7
        assert stats.executed == 1

    def test_status_and_collect(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(str(tmp_path))
        runner = CampaignRunner(spec, store=store)
        status = runner.status()
        assert status.pending == status.total == 8
        assert runner.collect() is None
        runner.run()
        assert runner.status().hit_rate == 1.0
        assert runner.collect() is not None

    def test_pooled_run_matches_serial_artifacts(self, tmp_path):
        spec = tiny_spec()
        serial_report, _ = CampaignRunner(
            spec, store=ResultStore(str(tmp_path / "serial"))
        ).run()
        with TrialPool(workers=2) as pool:
            pooled_report, pooled_stats = CampaignRunner(
                spec, store=ResultStore(str(tmp_path / "pooled")), pool=pool
            ).run()
        assert pooled_stats.executed == 8
        assert pooled_report.to_json() == serial_report.to_json()


class InterruptingPool(TrialPool):
    """A serial pool that dies after *survive* map calls -- a mid-sweep
    Ctrl-C with deterministic timing."""

    def __init__(self, survive: int) -> None:
        super().__init__(workers=1)
        self.survive = survive
        self.calls = 0

    def map(self, fn, payloads):
        self.calls += 1
        if self.calls > self.survive:
            raise KeyboardInterrupt
        return super().map(fn, payloads)


class TestResume:
    def test_interrupt_then_resume_is_bit_identical(self, tmp_path):
        spec = tiny_spec(payload=b"\x05\x06")  # 16 trials
        cold_report, _ = CampaignRunner(
            spec, store=ResultStore(str(tmp_path / "cold"))
        ).run()

        store = ResultStore(str(tmp_path / "warm"))
        pool = InterruptingPool(survive=2)
        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(spec, store=store, pool=pool, batch_size=4).run()
        # Both completed batches were checkpointed before the interrupt.
        assert len(ResultStore(str(tmp_path / "warm"))) == 8

        resumed_report, stats = CampaignRunner(
            spec, store=ResultStore(str(tmp_path / "warm"))
        ).run()
        assert stats.cached == 8
        assert stats.executed == 8
        assert resumed_report.to_json() == cold_report.to_json()
        assert resumed_report.render_text() == cold_report.render_text()

    def test_batch_size_validated(self):
        with pytest.raises(ValueError, match="batch_size"):
            CampaignRunner(tiny_spec(), batch_size=0)


class TestBuiltins:
    def test_names_and_factories_agree(self):
        for name in builtin_names():
            spec = builtin_campaign(name)
            assert spec.name == name
            assert spec.trial_count() > 0

    def test_factories_are_pure(self):
        assert spec_digest(builtin_campaign("e9-kaslr")) == spec_digest(
            builtin_campaign("e9-kaslr")
        )

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown campaign"):
            builtin_campaign("e99-nonsense")

    def test_e9_shape(self):
        spec = builtin_campaign("e9-kaslr")
        assert len(spec.cells) == 3
        assert all(cell.kind == "kaslr" for cell in spec.cells)
        assert spec.trial_count() == 3 * 512

    def test_expansion_keys_are_disjoint_across_cells(self):
        """Distinct boot seeds must never share cached results."""
        refs = builtin_campaign("e9-kaslr").expand()
        keys = {trial_key(ref.trial) for ref in refs}
        assert len(keys) == len(refs)

    @pytest.mark.slow
    def test_e9_acceptance_cache_and_byte_identity(self, tmp_path):
        """The PR acceptance run: E9 twice back-to-back -- the second run
        executes 0 live trials and the artifacts match byte for byte."""
        spec = builtin_campaign("e9-kaslr")
        with TrialPool(workers=4) as pool:
            report1, stats1 = CampaignRunner(
                spec, store=ResultStore(str(tmp_path)), pool=pool
            ).run()
        assert stats1.executed == stats1.total == 1536
        report2, stats2 = CampaignRunner(
            spec, store=ResultStore(str(tmp_path))
        ).run()
        assert stats2.executed == 0
        assert stats2.hit_rate == 1.0
        assert report2.to_json() == report1.to_json()
        assert report2.render_text() == report1.render_text()
        # And the campaign reproduces the paper's result: all 3 boots broken.
        assert report1.summary()["kaslr"] == {"sweeps": 3, "broken": 3}


def _unknown_campaign(argv):
    def row(store):
        return [*argv, "--store", store], (
            f"unknown campaign 'e99-nope'; built-ins: {', '.join(builtin_names())}"
        )

    return row


def _missing_calibration(argv):
    def row(store):
        path = f"{store}/defend/calibration.json"
        return [*argv, "--store", store], (
            f"no calibration at {path}; run `repro defend calibrate` first"
        )

    return row


def _merge_of_different_campaigns(store):
    from repro.distrib import Shard, ShardManifest, write_manifest

    segments = []
    for index, name in enumerate(("ci-smoke", "e9-kaslr")):
        spec = builtin_campaign(name)
        segment = f"{store}/seg{index}"
        write_manifest(segment, ShardManifest.for_shard(spec, Shard(index, 2)))
        segments.append((segment, spec_digest(spec)[:16]))
    (first, first_digest), (second, second_digest) = segments
    return ["campaign", "merge", "ci-smoke", first, second, "--store", store], (
        f"merge refused: cannot merge {second} (campaign e9-kaslr, spec "
        f"{second_digest}) with {first} (campaign ci-smoke, spec "
        f"{first_digest}): segments slice different campaigns"
    )


def _unknown_scenario(store):
    from repro.defend import scenario_names

    return ["defend", "score", "--scenario", "nope", "--store", store], (
        f"unknown scenario 'nope'; choose from: {', '.join(scenario_names())}"
    )


#: Every CLI refusal: a row builds ``(argv, stderr line)`` for a store.
REFUSALS = {
    "run-unknown": _unknown_campaign(["campaign", "run", "e99-nope"]),
    "shard-unknown": _unknown_campaign(
        ["campaign", "shard", "e99-nope", "--index", "0", "--of", "1"]
    ),
    "merge-unknown": _unknown_campaign(["campaign", "merge", "e99-nope", "seg"]),
    "fleet-unknown": _unknown_campaign(["campaign", "fleet", "e99-nope"]),
    "status-unknown": _unknown_campaign(["campaign", "status", "e99-nope"]),
    "report-unknown": _unknown_campaign(["campaign", "report", "e99-nope"]),
    "eval-unknown": _unknown_campaign(["defend", "eval", "e99-nope"]),
    "stream-unknown": _unknown_campaign(["defend", "stream", "e99-nope"]),
    "shard-arithmetic": lambda store: (
        ["campaign", "shard", "ci-smoke", "--index", "2", "--of", "2",
         "--store", store],
        "shard index must be in [0, 2), not 2",
    ),
    "merge-refused": _merge_of_different_campaigns,
    "score-uncalibrated": _missing_calibration(
        ["defend", "score", "--scenario", "tet-cc"]
    ),
    "eval-uncalibrated": _missing_calibration(["defend", "eval", "e11-detect"]),
    "stream-uncalibrated": _missing_calibration(["defend", "stream", "e11-detect"]),
    "score-unknown-scenario": _unknown_scenario,
}


class TestCli:
    def run_cli(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_campaign_list(self, capsys):
        assert self.run_cli("campaign", "list") == 0
        out = capsys.readouterr().out
        for name in builtin_names():
            assert name in out

    def test_run_status_report_clean_cycle(self, tmp_path, capsys):
        store = str(tmp_path)
        assert self.run_cli("campaign", "status", "ci-smoke", "--store", store) == 0
        assert "32 pending" in capsys.readouterr().out

        assert self.run_cli(
            "campaign", "report", "ci-smoke", "--store", store
        ) == 1  # incomplete

        assert self.run_cli("campaign", "run", "ci-smoke", "--store", store) == 0
        out = capsys.readouterr().out
        assert "32 executed" in out or "32 trials: 0 cached" in out
        assert (tmp_path / "ci-smoke" / "report.json").exists()
        assert (tmp_path / "ci-smoke" / "report.txt").exists()
        artifact = json.loads((tmp_path / "ci-smoke" / "report.json").read_text())
        assert artifact["campaign"] == "ci-smoke"
        assert artifact["summary"]["trials"] == 32

        assert self.run_cli(
            "campaign", "run", "ci-smoke", "--store", store,
            "--require-cached", "0.9",
        ) == 0
        assert self.run_cli(
            "campaign", "report", "ci-smoke", "--store", store
        ) == 0

        assert self.run_cli("campaign", "clean", "--store", store) == 0
        assert "dropped 32" in capsys.readouterr().out

    def test_require_cached_fails_cold(self, tmp_path):
        assert self.run_cli(
            "campaign", "run", "ci-smoke", "--store", str(tmp_path),
            "--require-cached", "0.9",
        ) == 1

    def test_unknown_campaign_exits_2(self, tmp_path):
        assert self.run_cli(
            "campaign", "run", "e99-nope", "--store", str(tmp_path)
        ) == 2

    @pytest.mark.parametrize("row", sorted(REFUSALS))
    def test_refusal_is_one_stderr_line_and_exit_2(self, tmp_path, capsys, row):
        argv, message = REFUSALS[row](str(tmp_path))
        assert self.run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", [
        ("campaign", "run", "broken"),
        ("campaign", "shard", "broken", "--index", "0", "--of", "1"),
    ])
    def test_aborted_campaign_exits_1(self, tmp_path, capsys, monkeypatch, command):
        from repro.campaign import builtin

        # Every trial raises: the CPU model does not exist.
        broken = CampaignSpec(name="broken", cells=(channel_cell(
            MachineSpec(model="no-such-cpu"), payload=b"\x01", values=range(4),
        ),))
        monkeypatch.setitem(builtin.BUILTIN_CAMPAIGNS, "broken", lambda: broken)
        assert self.run_cli(
            *command, "--store", str(tmp_path), "--max-failures", "0"
        ) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1] == (
            "aborted: broken: 4 trial failures exceed --max-failures 0 "
            "(progress checkpointed; rerun to resume)"
        )
        assert captured.out == ""

    def _artifacts(self, store):
        return [
            (store / "ci-smoke" / name).read_bytes()
            for name in ("report.json", "report.txt")
        ]

    def test_lanes_and_batch_alias_match_the_scalar_run(self, tmp_path, capsys):
        assert self.run_cli(
            "campaign", "run", "ci-smoke", "--store", str(tmp_path / "scalar")
        ) == 0
        scalar = self._artifacts(tmp_path / "scalar")
        for flag in ("--lanes", "--batch"):
            store = tmp_path / flag.strip("-")
            assert self.run_cli(
                "campaign", "run", "ci-smoke", "--store", str(store), flag, "4"
            ) == 0
            assert self._artifacts(store) == scalar

    def test_retry_matches_the_plain_run(self, tmp_path, capsys):
        """``--retry`` installs its policy on the pool the command
        builds, in-process and in the crew alike; with no fault to
        retry, the artifacts are the plain run's bytes."""
        assert self.run_cli(
            "campaign", "run", "ci-smoke", "--store", str(tmp_path / "plain")
        ) == 0
        plain = self._artifacts(tmp_path / "plain")
        for workers in ("0", "2"):
            store = tmp_path / f"retry-w{workers}"
            assert self.run_cli(
                "campaign", "run", "ci-smoke", "--store", str(store),
                "--retry", "1", "--workers", workers,
            ) == 0
            assert self._artifacts(store) == plain

    @pytest.mark.parametrize(
        "extra, batches", [((), 1), (("--checkpoint-every", "8"), 4)]
    )
    def test_checkpoint_every_sets_the_checkpoint_cadence(
        self, tmp_path, capsys, extra, batches
    ):
        assert self.run_cli(
            "campaign", "run", "ci-smoke", "--store", str(tmp_path), *extra
        ) == 0
        assert f"32 executed in {batches} batches" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        ("campaign", "run", "ci-smoke"),
        ("campaign", "shard", "ci-smoke", "--index", "0", "--of", "1"),
        ("campaign", "fleet", "ci-smoke"),
        ("defend", "calibrate"),
        ("defend", "stream", "e11-detect"),
    ])
    def test_batch_size_flag_is_gone(self, tmp_path, command):
        with pytest.raises(SystemExit) as excinfo:
            self.run_cli(*command, "--store", str(tmp_path), "--batch-size", "4")
        assert excinfo.value.code == 2

    def test_progress_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            self.run_cli(
                "campaign", "run", "ci-smoke", "--store", str(tmp_path),
                "--progress",
            )
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command, label", [
        (("campaign", "run", "ci-smoke"), "ci-smoke"),
        (("campaign", "shard", "ci-smoke", "--index", "0", "--of", "1"),
         "ci-smoke shard 0/1"),
    ], ids=["run", "shard"])
    def test_one_progress_line_per_checkpoint(
        self, tmp_path, capsys, command, label
    ):
        """The renderer on the runner's observer is the only progress
        output: one stderr line per checkpoint, then one ``done:``."""
        assert self.run_cli(
            *command, "--store", str(tmp_path), "--checkpoint-every", "8"
        ) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 5
        for done, line in zip((8, 16, 24, 32), lines):
            assert line.startswith(f"[{label}] cell 0/1 | ")
            assert line.split(" | ")[1] == f"{done}/32 trials (0 cached)"
        assert lines[4].startswith(f"[{label}] done: 32 live trials in ")

    def test_fleet_worker_command_parses_as_campaign_shard(self, tmp_path):
        """The shard command line a fleet spawns is one `campaign shard`
        accepts, with the fleet's execution flags carried through."""
        from repro.cli import build_parser, cmd_campaign_shard
        from repro.distrib import LocalProcessWorker, Shard
        from repro.telemetry.stream import DEFAULT_STREAM_EVERY, stream_spool

        segment = str(tmp_path / "seg")
        worker = LocalProcessWorker(
            "ci-smoke", workers=2, batch_size=8, retry=1, stream=True
        )
        args = build_parser().parse_args(worker.command(Shard(1, 3), segment)[3:])
        assert args.func is cmd_campaign_shard
        assert (args.name, args.index, args.of, args.store) == (
            "ci-smoke", 1, 3, segment
        )
        assert (args.workers, args.checkpoint_every, args.retry) == (2, 8, 1)
        assert (args.stream_out, args.stream_every) == (
            stream_spool(segment), DEFAULT_STREAM_EVERY
        )


class TestRunStats:
    def test_str_and_hit_rate(self):
        stats = RunStats(total=10, cached=9, executed=1, batches=1, wall_seconds=0.5)
        assert stats.hit_rate == 0.9
        assert "9 cached" in str(stats)

    def test_empty_campaign_hit_rate(self):
        stats = RunStats(total=0, cached=0, executed=0, batches=0, wall_seconds=0.0)
        assert stats.hit_rate == 1.0
