"""Chaos/load acceptance bench for the encoding service.

Drives the full ``repro serve --selftest`` harness — hundreds of jobs
from concurrent tenants over TCP with kill/slow/malformed chaos armed
— and checks the bench JSON it writes (tail-latency histogram and
failure-handling counters) under pytest's ``tmp_path``.  The tracked
``BENCH_serve.json`` snapshot and CI's uploaded copy come from ``repro
serve --selftest --bench-json``, not from this test.

The acceptance here is *behavioural*, not a latency floor (shared CI
runners make absolute milliseconds meaningless): zero wrong results,
a closed failure taxonomy, and every injected fault visibly handled
(retries, pool rebuilds, sheds all accounted for).  The recorded
``results/serve_latency.txt`` holds only the seed-determined lines (the
load shape and the outcomes), so rerunning the bench leaves it as it is.
"""

import dataclasses
import json
from pathlib import Path

from repro.serve.selftest import (
    SelftestOptions,
    expected_outcome,
    generate_requests,
    run_selftest,
)

#: The CI load shape: 8 tenants x 25 jobs over one TCP connection
#: each, 3 pool workers behind a depth-16 queue, all chaos models on.
OPTIONS = SelftestOptions(
    seed=42,
    tenants=8,
    jobs_per_tenant=25,
    workers=3,
    queue_depth=16,
    transport="tcp",
)


def test_serve_latency_under_chaos(record_result, tmp_path):
    options = dataclasses.replace(
        OPTIONS, bench_path=str(tmp_path / "BENCH_serve.json")
    )
    report, problems = run_selftest(options)

    assert problems == [], problems[:5]
    assert report["summary"]["jobs"] == 200

    # The taxonomy is exactly what the seeded chaos plan predicts.
    requests = generate_requests(OPTIONS)
    predicted: dict[str, int] = {}
    for raw in requests:
        outcome = expected_outcome(raw)
        predicted[outcome] = predicted.get(outcome, 0) + 1
    assert report["summary"]["outcomes"] == dict(sorted(predicted.items()))

    bench_path = Path(options.bench_path)
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
            ]
        ),
    )
