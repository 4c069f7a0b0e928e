"""Chaos/load acceptance bench for the encoding service.

Drives the full ``repro serve --selftest`` harness — hundreds of jobs
from concurrent tenants, in process, with kill/slow/malformed chaos
armed — and checks the failure-handling counters in the report's
``ops`` block.  Latency is measured by perfbench's ``serve_warm``
workload and the ``serve.job_seconds`` histogram, not here.

The acceptance here is *behavioural*, not a latency floor (shared CI
runners make absolute milliseconds meaningless): zero wrong results,
a closed failure taxonomy, and every injected fault visibly handled
(retries, pool rebuilds, sheds all accounted for).  The recorded
``results/serve_latency.txt`` holds only the seed-determined lines (the
load shape and the outcomes), so rerunning the bench leaves it as it is.
"""

from repro.serve.selftest import (
    SelftestOptions,
    expected_outcome,
    generate_requests,
    run_selftest,
)

#: The CI load shape: 8 tenants x 25 jobs, 3 pool workers behind a
#: depth-16 queue, all chaos models on.
OPTIONS = SelftestOptions(
    seed=42,
    tenants=8,
    jobs_per_tenant=25,
    workers=3,
    queue_depth=16,
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

    stats = report["ops"]["stats"]
    # The seeded plan injects kills: the service must have visibly
    # survived them (rebuilt pools, retried the victims to `ok`).
    assert any(r.get("chaos") == "kill" for r in requests)
    assert stats["pool_rebuilds"] >= 1
    assert stats["retried"] >= 1
    assert stats["errors"] == 0
    assert stats["completed"] == 200

    record_result(
        "serve_latency",
        "\n".join(
            [
                f"jobs: {report['summary']['jobs']} over {OPTIONS.tenants} "
                f"tenants, {OPTIONS.workers} workers, queue depth "
                f"{OPTIONS.queue_depth}",
                f"outcomes: {report['summary']['outcomes']}",
            ]
        ),
    )
