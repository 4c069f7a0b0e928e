"""Smoke tests: every example script must run clean end to end.

Each example self-checks (asserts numerical results and decode
round-trips internally), so a zero exit status is a meaningful pass.
The Figure 6/7 suite is ``repro suite`` (tests/test_cli.py).
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "hardware_walkthrough.py",
    "software_reload.py",
    "compile_kernel_flow.py",
    "dsp_fir_filter.py",
]


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs_clean(script):
    result = _run(script)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout  # every example narrates its steps


def test_collect_report(tmp_path):
    output = tmp_path / "REPORT.md"
    result = _run("collect_report.py", str(output))
    assert result.returncode == 0, result.stderr[-2000:]
    # The artefact directory exists in this repo (benches have run),
    # so at least the always-present figure sections must be collected.
    if output.exists():
        text = output.read_text()
        assert "# Reproduction report" in text
