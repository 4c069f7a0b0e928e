"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


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
