"""Chaos/load acceptance bench for the encoding service.

Drives the full ``repro serve --selftest`` harness — hundreds of jobs
from concurrent tenants over TCP with kill/slow/malformed chaos armed
— and writes ``BENCH_serve.json`` at the repo root with the tail-
latency histogram and failure-handling counters CI uploads.

The acceptance here is *behavioural*, not a latency floor (shared CI
runners make absolute milliseconds meaningless): zero wrong results,
a closed failure taxonomy, and every injected fault visibly handled
(retries, pool rebuilds, sheds all accounted for).
"""

import json
from pathlib import Path

from repro.serve.selftest import (
    SelftestOptions,
    expected_outcome,
    generate_requests,
    run_selftest,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The CI load shape: 8 tenants x 25 jobs over one TCP connection
#: each, 3 pool workers behind a depth-16 queue, all chaos models on.
OPTIONS = SelftestOptions(
    seed=42,
    tenants=8,
    jobs_per_tenant=25,
    workers=3,
    queue_depth=16,
    transport="tcp",
    bench_path=str(REPO_ROOT / "BENCH_serve.json"),
)


def test_serve_latency_under_chaos(record_result):
    report, problems = run_selftest(OPTIONS)

    assert problems == [], problems[:5]
    assert report["summary"]["jobs"] == 200

    # The taxonomy is exactly what the seeded chaos plan predicts.
    requests = generate_requests(OPTIONS)
    predicted: dict[str, int] = {}
    for raw in requests:
        outcome = expected_outcome(raw)
        predicted[outcome] = predicted.get(outcome, 0) + 1
    assert report["summary"]["outcomes"] == dict(sorted(predicted.items()))

    bench_path = Path(OPTIONS.bench_path)
    assert bench_path.exists()
    bench = json.loads(bench_path.read_text())
    assert bench["schema"] == "repro.serve.bench/1"
    assert bench["jobs"] == 200

    latency = bench["latency_ms"]
    assert latency["count"] == report["summary"]["outcomes"].get(
        "ok", 0
    ) + report["summary"]["outcomes"].get("deadline_exceeded", 0)
    assert 0 < latency["p50"] <= latency["p90"] <= latency["p99"]

    stats = bench["stats"]
    # The seeded plan injects kills: the service must have visibly
    # survived them (rebuilt pools, retried the victims to `ok`).
    assert any(r.get("chaos") == "kill" for r in requests)
    assert stats["pool_rebuilds"] >= 1
    assert stats["retried"] >= 1
    assert stats["errors"] == 0

    record_result(
        "serve_latency",
        "\n".join(
            [
                f"jobs: {bench['jobs']} over {OPTIONS.tenants} TCP tenants, "
                f"{OPTIONS.workers} workers, queue depth "
                f"{OPTIONS.queue_depth}",
                f"outcomes: {report['summary']['outcomes']}",
                f"wall: {bench['wall_s']}s "
                f"({bench['throughput_jobs_per_s']} jobs/s)",
                f"latency ms: p50={latency['p50']} p90={latency['p90']} "
                f"p99={latency['p99']} max={latency['max']}",
                f"handled: {stats['shed']} shed, {stats['retried']} retried, "
                f"{stats['pool_rebuilds']} pool rebuilds, "
                f"{stats['breaker_opens']} breaker opens",
            ]
        ),
    )
