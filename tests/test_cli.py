"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.workloads.registry import BENCHMARK_ORDER


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        positional = {"encode": ["mmul"], "compile": ["kernel.mc"]}
        for command in (
            "codebook",
            "theory",
            "streams",
            "encode",
            "suite",
            "compile",
            "cost",
            "faults",
            "experiment",
            "verify",
            "serve",
            "metrics",
            "trace",
        ):
            args = parser.parse_args([command] + positional.get(command, []))
            assert args.command == command
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["bench"])
        assert exc.value.code == 2

    def test_suite_paper_scale_flag(self):
        parser = build_parser()
        assert not parser.parse_args(["suite"]).paper_scale
        args = parser.parse_args(["suite", "--paper-scale", "--chart"])
        assert args.paper_scale and args.chart

    @pytest.mark.parametrize("flags", [["--wal", "x"], ["--resume"]])
    def test_experiment_has_no_journal(self, flags):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", *flags])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [["--wal", "x"], ["--resume"]])
    def test_faults_has_no_journal(self, flags):
        with pytest.raises(SystemExit) as exc:
            main(["faults", *flags])
        assert exc.value.code == 2


class TestCommands:
    def test_codebook(self, capsys):
        assert main(["codebook", "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "TTN = 8" in out and "RTN = 2" in out
        assert "000" in out

    def test_codebook_full_search(self, capsys):
        assert main(["codebook", "-k", "4", "--full"]) == 0
        assert "TTN = 24" in capsys.readouterr().out

    def test_theory(self, capsys):
        assert main(["theory", "--sizes", "2", "3"]) == 0
        out = capsys.readouterr().out
        assert "100.0" in out and "75.0" in out

    def test_streams(self, capsys):
        assert main(
            ["streams", "--count", "3", "--length", "300", "-k", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "pooled reduction" in out

    def test_encode(self, capsys):
        assert main(["encode", "lu", "-k", "5"]) == 0
        out = capsys.readouterr().out
        assert "reduction" in out
        assert "verified bit-exact" in out

    def test_encode_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["encode", "quicksort"])

    def test_suite_prints_figures_6_and_7(self, capsys):
        assert main(["suite", "--block-sizes", "4", "5", "--chart"]) == 0
        out = capsys.readouterr().out
        table, chart = out.split("\n\n", 1)
        rows = table.splitlines()
        assert rows[0].split() == list(BENCHMARK_ORDER)
        assert [row.split()[0] for row in rows[2:]] == [
            "#TR",
            "#4-block",
            "Reduction(%)",
            "#5-block",
            "Reduction(%)",
        ]
        reductions = [
            [float(cell) for cell in row.split()[1:]] for row in rows[4::2]
        ]
        assert all(0.0 < value < 100.0 for row in reductions for value in row)
        # Figure 7 charts the same reductions, per benchmark and k.
        assert chart.startswith("Percentage reduction by benchmark")
        for name, k4, k5 in zip(BENCHMARK_ORDER, *reductions):
            section = chart.split(f"\n{name}:\n", 1)[1].split("\n\n", 1)[0]
            bars = section.splitlines()
            assert [bar.split()[0] for bar in bars] == ["k=4", "k=5"]
            assert [float(bar.split()[-1].rstrip("%")) for bar in bars] == [
                k4,
                k5,
            ]

    def test_cost(self, capsys):
        assert main(["cost", "--sizes", "5"]) == 0
        out = capsys.readouterr().out
        assert "TT bits" in out

    def test_module_entry_point(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "theory", "--sizes", "2"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert "100.0" in result.stdout


class TestFaultsCommand:
    def test_small_campaign_runs_and_writes_report(self, tmp_path, capsys):
        import json

        report_path = tmp_path / "FAULTS_report.json"
        assert (
            main(
                [
                    "faults",
                    "--workload",
                    "fir",
                    "--seed",
                    "1",
                    "--trials",
                    "1",
                    "--models",
                    "tt_selector_flip",
                    "mid_block_entry",
                    "--check",
                    "--json",
                    str(report_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "tt_selector_flip" in out
        assert "all detected or recovered" in out
        data = json.loads(report_path.read_text())
        assert data["protected_ok"] is True
        assert data["config"]["models"] == ["tt_selector_flip", "mid_block_entry"]
        # One trial x two modes x two models.
        assert len(data["cases"]) == 4

    def test_unknown_model_rejected(self, tmp_path, capsys):
        assert (
            main(
                [
                    "faults",
                    "--models",
                    "cosmic_ray",
                    "--json",
                    str(tmp_path / "r.json"),
                ]
            )
            == 2
        )
        assert "unknown fault model" in capsys.readouterr().err


class TestCompileCommand:
    def test_compile_kernel_file(self, tmp_path, capsys):
        source = tmp_path / "kernel.mc"
        source.write_text(
            "int i; int s;\n"
            "for (i = 0; i < 10; i = i + 1) s = s + i;\n"
        )
        assert main(["compile", str(source), "-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "compiled" in out
        assert "reduction" in out

    def test_show_asm(self, tmp_path, capsys):
        source = tmp_path / "kernel.mc"
        source.write_text("int x; x = 1;")
        assert main(["compile", str(source), "--show-asm"]) == 0
        out = capsys.readouterr().out
        assert ".text" in out

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            main(["compile", "/nonexistent/file.mc"])
