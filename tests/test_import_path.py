"""Start-up cost: the modules the encode flow imports.

Every ``repro encode`` run and every benchmark process imports the
flow, the per-region selector and the CLI before doing any work, so
nothing on that path may pull in numpy or a module only reports,
the cost model or the disassembler use.  Checked in a
fresh interpreter, because this test process has imported much more.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Never imported by the flow, the selector or the CLI's start-up.
DEFERRED = (
    "numpy",
    "repro.obs.report",
    "repro.hw.cost",
    "repro.isa.disassembler",
    "repro.pipeline.report",
)

_PROBE = """
import json, sys
import repro.pipeline.flow, repro.pipeline.selector, repro.cli
print(json.dumps(sorted(set(sys.argv[1:]) & set(sys.modules))))
"""


def test_flow_selector_and_cli_leave_deferred_modules_unimported():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, *DEFERRED],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    assert json.loads(result.stdout) == []
