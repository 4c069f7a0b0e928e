"""The repo's benchmark: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1``, run from the root of a checkout.

With ``--trace 0`` it samples set-up time in fresh processes, then runs
the workload untraced for ``--seconds`` and prints the end-to-end
metrics.  With ``--trace 1`` one process runs half the time untraced
and half traced, and prints the per-layer metrics.  The last stdout
line is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the run's provenance.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD = HERE / "child.py"

WORKLOADS = ("encode_flow", "select_per_region", "serve_warm")
#: Extra fresh processes that only set up; with the measuring process
#: they give five set-up samples, of which the median is reported.
SETUP_PROBES = 4
SETUP_TIMEOUT_S = 30
#: Allowance past ``--seconds`` for set-up, the last pass and teardown.
MEASURE_SLACK_S = 60
#: A run gives up, without a result, once this much time has passed.
RUN_BUDGET_S = 170


class BenchError(RuntimeError):
    pass


def metric_specs() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        group: {m["name"]: m["unit"] for m in spec[group]}
        for group in ("end_to_end", "per_layer")
    }


def provenance(args) -> dict:
    """What any reported number traces back to."""
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=False,
        )
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_child(args, setup_only: bool, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(CHILD),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    # Observability stays off in every measured process; its cost is
    # what the traced run reports as overhead.
    env.pop("REPRO_OBS", None)
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    timeout = SETUP_TIMEOUT_S if setup_only else args.seconds + MEASURE_SLACK_S
    timeout = min(timeout, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"benchmark process timed out after {timeout:.0f}s") from err
    if proc.returncode != 0:
        raise BenchError(
            f"benchmark process exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("benchmark process printed no report")
    return json.loads(lines[-1])


def measure(args) -> tuple[dict, list[dict]]:
    """Returns (final result, every process report)."""
    specs = metric_specs()
    deadline = time.monotonic() + RUN_BUDGET_S
    reports = []
    if args.trace:
        main = run_child(args, setup_only=False, deadline=deadline)
        reports.append(main)
        wanted = specs["per_layer"]
        values = main["per_layer"]
    else:
        for _ in range(SETUP_PROBES):
            reports.append(run_child(args, setup_only=True, deadline=deadline))
        main = run_child(args, setup_only=False, deadline=deadline)
        reports.append(main)
        wanted = specs["end_to_end"]
        values = dict(main["end_to_end"])
        values["setup_s"] = statistics.median(r["setup_s"] for r in reports)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    values["ok_frac"] = 1.0 - failed / attempted
    missing = sorted(set(wanted) - set(values))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in wanted.items()
        },
    }
    return result, reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # A SIGTERM unwinds like an error, so the running benchmark
    # process is killed and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Every process started from here, the serve pool's worker included,
    # inherits one CPU.  The reference kernel then times the CPU the
    # program runs on (the vCPUs of a shared host drift in speed apart
    # from each other), and the serve path's handoffs between the event
    # loop, the executor threads and the worker never wait on a
    # cross-CPU wake-up.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    stamp = provenance(args)
    try:
        result, reports = measure(args)
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(
        json.dumps(
            {"provenance": stamp, "result": result, "processes": reports}, indent=1
        )
    )
    for report in reports:
        for error in report["errors"]:
            print(f"failed: {error}", file=sys.stderr)
    print(json.dumps({"provenance": stamp}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
