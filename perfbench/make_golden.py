"""Regenerate ``golden.json``: the bundle sha256 and encoded transition
count of every configuration a seed can produce.

Run from the repository root, on the commit whose results are the
reference::

    python3 perfbench/make_golden.py

Seed 0's configurations are the registry defaults, so their values are
what ``repro encode <wl>`` and ``repro encode <wl> --select-per-region``
print.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import flowops  # noqa: E402


def main() -> int:
    values: dict[str, dict] = {}
    for workload in flowops.OPERATIONS:
        values[workload] = {}
        for name, params in flowops.all_configs(workload):
            result = flowops.run_op(workload, name, params, golden=None)
            if not result.ok:
                print(f"{workload} {result.label}: {result.error}", file=sys.stderr)
                return 1
            values[workload][result.label] = {
                "sha256": result.sha256,
                "encoded_transitions": result.encoded_transitions,
            }
            print(f"{workload:18s} {result.label:22s} {result.encoded_transitions}")
    flowops.GOLDEN_PATH.write_text(
        json.dumps({"values": values}, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {flowops.GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
