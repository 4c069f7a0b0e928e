"""End-to-end ``repro verify``: the self-test contract.

A clean campaign must exit 0 with a green report; a campaign run under
an injected decoder mutation must exit 1 under ``--check`` and leave a
replayable counterexample behind; ``--replay`` against that report
must reproduce the divergence.  Mutations monkeypatch process-global
decode state, so every mutated run happens in a subprocess — the test
process itself never decodes through a corrupted path.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Small but gate-complete: one gated block size keeps sweeps fast.
FAST_ARGS = ["--cases", "20", "--seed", "7", "--block-sizes", "4"]

#: The codebook-entry mutation corrupts a k=5 entry, so its self-test
#: must run k=5; the other mutations fire at any block size.
MUTATION_ARGS = {
    "codebook-entry": ["--cases", "20", "--seed", "7", "--block-sizes", "5"],
    "tt-decode": FAST_ARGS,
    "bitplane-scan": FAST_ARGS,
    # Encoder-zoo mutations fire via the block-size-independent
    # sweep_encoders leg, so the fast args suffice.
    "memoryless-codebook": FAST_ARGS,
    "lowweight-codeword": FAST_ARGS,
    "bus-invert-decision": FAST_ARGS,
    "t0-freeze": FAST_ARGS,
    "frequency-escape": FAST_ARGS,
}


def run_cli(args, cwd) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", "verify", *args],
        cwd=cwd,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=600,
    )


class TestCleanRun:
    def test_exits_zero_and_writes_a_green_report(self, tmp_path):
        proc = run_cli([*FAST_ARGS, "--check", "--deterministic"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "check: OK" in proc.stdout
        data = json.loads((tmp_path / "VERIFY_report.json").read_text())
        assert data["check_ok"] is True
        assert data["mismatches"] == []
        assert data["mutations"] == []
        assert data["coverage"]["codebook_entries"]["percent"] == 100.0
        assert data["total_seconds"] == 0.0

    def test_metrics_writes_an_obs_run_report(self, tmp_path):
        proc = run_cli([*FAST_ARGS, "--metrics"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        run_report = json.loads((tmp_path / "RUN_report.json").read_text())
        names = set(run_report["metrics"])
        assert "verify.cases" in names
        assert "verify.coverage_percent" in names
        assert "verify.campaign" in run_report["trace"]["by_name"]


@pytest.mark.parametrize(
    "mutation",
    [
        "codebook-entry",
        "tt-decode",
        "bitplane-scan",
        "memoryless-codebook",
        "lowweight-codeword",
        "bus-invert-decision",
        "t0-freeze",
        "frequency-escape",
    ],
)
class TestMutationSelfTest:
    def test_mutated_decoder_fails_check_and_is_replayable(
        self, tmp_path, mutation
    ):
        report = tmp_path / "VERIFY_report.json"
        proc = run_cli(
            [*MUTATION_ARGS[mutation], "--check", "--inject-mutation", mutation],
            tmp_path,
        )
        assert proc.returncode == 1, (proc.stdout, proc.stderr)
        assert "FAIL" in proc.stderr
        data = json.loads(report.read_text())
        assert data["check_ok"] is False
        assert data["mismatches"]
        assert data["counterexamples"]
        assert all(
            record["mutations"] == [mutation]
            for record in data["counterexamples"]
        )

        # The recorded counterexample reproduces from the report alone.
        replay = run_cli(["--replay", str(report)], tmp_path)
        assert replay.returncode == 0, (replay.stdout, replay.stderr)
        assert "replay: reproduced" in replay.stdout


class TestReplayEdgeCases:
    def test_replay_missing_report_exits_two(self, tmp_path, capsys):
        assert main(["verify", "--replay", str(tmp_path / "nope.json")]) == 2

    def test_replay_empty_report_exits_two(self, tmp_path, capsys):
        report = tmp_path / "VERIFY_report.json"
        report.write_text(json.dumps({"counterexamples": []}))
        assert main(["verify", "--replay", str(report)]) == 2

    def test_replay_index_out_of_range_exits_two(self, tmp_path, capsys):
        report = tmp_path / "VERIFY_report.json"
        report.write_text(
            json.dumps(
                {
                    "counterexamples": [
                        {
                            "kind": "stream",
                            "seed_key": "s",
                            "params": {"k": 4, "strategy": "greedy"},
                            "input": [1, 0],
                            "mismatch": {"kind": "x"},
                            "mutations": [],
                        }
                    ]
                }
            )
        )
        assert main(["verify", "--replay", str(report), "--replay-index", "5"]) == 2

    def test_stale_counterexample_exits_three(self, tmp_path, capsys):
        # A healthy input recorded as a counterexample: the divergence
        # is gone (no mutation armed), so replay reports staleness.
        report = tmp_path / "VERIFY_report.json"
        report.write_text(
            json.dumps(
                {
                    "counterexamples": [
                        {
                            "kind": "stream",
                            "seed_key": "s",
                            "params": {"k": 4, "strategy": "greedy"},
                            "input": [1, 0, 1, 1, 0],
                            "mismatch": {"kind": "bitplane_decode_wrong"},
                            "mutations": [],
                        }
                    ]
                }
            )
        )
        assert main(["verify", "--replay", str(report)]) == 3
        assert "did NOT reproduce" in capsys.readouterr().out


class TestArgValidation:
    def test_unknown_mutation_exits_two(self, capsys):
        assert main(["verify", "--inject-mutation", "cosmic-ray"]) == 2
        assert "unknown mutation" in capsys.readouterr().err
