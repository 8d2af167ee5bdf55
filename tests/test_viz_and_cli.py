"""Tests for the terminal visualisations and the CLI."""

import pytest

from repro.cli import build_parser, main
from repro.sim.viz import argmax_series, bar_chart, success_matrix, tote_scan_plot


class TestBarChart:
    def test_empty(self):
        assert bar_chart({}) == "(no data)"

    def test_bars_scale_to_peak(self):
        chart = bar_chart({"a": 10, "b": 5}, width=10)
        lines = chart.splitlines()
        assert lines[0].count("█") == 10
        assert lines[1].count("█") == 5

    def test_title(self):
        assert bar_chart({"a": 1}, title="T").splitlines()[0] == "T"


class TestToteScanPlot:
    def test_peak_is_highlighted(self):
        totes = {t: [100] for t in range(4)}
        totes[2] = [110]
        plot = tote_scan_plot(totes, highlight=2)
        assert "<-- secret" in plot
        assert "0x02" in plot

    def test_flat_scan_reported(self):
        totes = {t: [100] for t in range(4)}
        assert "flat" in tote_scan_plot(totes)

    def test_floor_rows_suppressed(self):
        totes = {t: [100] for t in range(8)}
        totes[5] = [120]
        plot = tote_scan_plot(totes)
        assert "0x05" in plot
        assert "0x03" not in plot

    def test_empty(self):
        assert tote_scan_plot({}) == "(no data)"


class TestArgmaxSeries:
    def test_lists_each_batch(self):
        totes = {0: [1, 9], 1: [9, 1]}
        series = argmax_series(totes)
        assert "batch 0: 0x01" in series
        assert "batch 1: 0x00" in series

    def test_argmin_mode(self):
        totes = {0: [1], 1: [9]}
        assert "0x00" in argmax_series(totes, mode="min")


class TestSuccessMatrix:
    def test_renders_y_and_x(self):
        matrix = {"cpu1": {"a": True, "b": False}}
        text = success_matrix(matrix)
        assert "Y" in text and "x" in text

    def test_respects_order(self):
        matrix = {
            "z": {"a": True},
            "a": {"a": True},
        }
        text = success_matrix(matrix, row_order=["z", "a"])
        assert text.index("z") < text.rindex("a")

    def test_empty(self):
        assert success_matrix({}) == "(no data)"


class TestCli:
    def test_parser_knows_all_commands(self):
        parser = build_parser()
        for command in ("demo", "send", "leak", "kaslr", "matrix", "pmu"):
            args = parser.parse_args(
                [command] if command != "send" else [command, "m"]
            )
            assert callable(args.func)

    def test_demo_roundtrip(self, capsys):
        exit_code = main(["demo", "--byte", "0x41", "--batches", "3", "--seed", "3"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "decoded: 0x41" in captured.out

    def test_send_fast(self, capsys):
        exit_code = main(["send", "ok", "--fast", "--seed", "3"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "b'ok'" in captured.out

    def test_leak(self, capsys):
        exit_code = main(["leak", "--length", "3", "--batches", "2", "--seed", "3"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "SUCCESS" in captured.out

    def test_leak_fails_with_kpti(self, capsys):
        exit_code = main(
            ["leak", "--length", "2", "--batches", "2", "--kpti", "--seed", "3"]
        )
        assert exit_code == 1

    def test_kaslr(self, capsys):
        exit_code = main(["kaslr", "--cpu", "i9-10980XE", "--kpti", "--seed", "3"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "BROKEN" in captured.out

    def test_kaslr_fails_on_amd(self):
        assert main(["kaslr", "--cpu", "ryzen-5600G", "--seed", "3"]) == 1

    def test_pmu(self, capsys):
        exit_code = main(["pmu", "--scene", "tet-cc", "--iterations", "4", "--seed", "3"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "condition-sensitive" in captured.out

    def test_perf_profile_and_retired_bench(self, capsys):
        exit_code = main(["perf", "profile", "--trials", "2", "--limit", "3"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "perf profile: e3-matrix cell 0" in captured.out
        # Throughput is the campaign ledger's job: no bench subcommand.
        with pytest.raises(SystemExit) as excinfo:
            main(["perf", "bench"])
        assert excinfo.value.code == 2
