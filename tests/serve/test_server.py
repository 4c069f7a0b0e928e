"""EncodingServer behaviour: admission, degradation, WAL replay.

Everything here runs real (tiny) encode jobs — the service's promise
is about *results*, so the tests check results, not mocks.
"""

import asyncio
import multiprocessing

import pytest

import repro.serve.worker as worker_module
from repro.pipeline.cache import BundleCache
from repro.runtime import BackoffPolicy, CheckpointLockError
from repro.serve.jobs import deterministic_result, parse_request
from repro.serve.server import EncodingServer, ServeConfig
from repro.serve.worker import _compute, serial_execute

#: One fast job template (tens of milliseconds end to end).
FIR = {
    "tenant": "t0",
    "job_id": "j0",
    "kind": "encode",
    "workload": "fir",
    "block_size": 5,
    "workload_params": {"taps": 8, "samples": 48},
}


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


class TestBatchResults:
    def test_results_match_serial_recompute(self):
        requests = _jobs(4) + [
            {**FIR, "job_id": "d0", "kind": "deploy"},
            {**FIR, "job_id": "v0", "kind": "decode_verify"},
        ]
        results, server = _serve(requests, ServeConfig(workers=2))
        assert [r["outcome"] for r in results] == ["ok"] * len(requests)
        assert server.stats["accepted"] == len(requests)
        oracle_cache = BundleCache(capacity=8, cache_dir=None)
        for raw, result in zip(requests, results):
            want = _compute(parse_request(raw), oracle_cache)
            assert result["payload"] == want
        verified = results[-1]["payload"]
        assert verified["verified"] is True

    def test_results_come_back_in_input_order(self):
        requests = _jobs(6)
        results, _ = _serve(requests, ServeConfig(workers=2))
        assert [r["job_id"] for r in results] == [
            r["job_id"] for r in requests
        ]

    def test_malformed_is_an_answer_not_an_exception(self):
        requests = [dict(FIR), {**FIR, "job_id": "bad", "kind": "transcode"}]
        results, server = _serve(requests, ServeConfig(workers=1))
        assert results[0]["outcome"] == "ok"
        assert results[1]["outcome"] == "malformed"
        assert "kind" in results[1]["error"]
        assert server.stats["malformed"] == 1


class TestOptimalDecodeVerify:
    def test_tri_k5_optimal_bundle_verifies(self):
        # The served bundle carries the optimal encodings' own TT rows,
        # so its loader replay restores every fetch.
        wire = {
            "tenant": "t0",
            "job_id": "opt",
            "kind": "decode_verify",
            "workload": "tri",
            "block_size": 5,
            "strategy": "optimal",
        }
        result = serial_execute(wire, attempt=0, cache_dir=None)
        assert result["outcome"] == "ok"
        assert result["payload"]["verified"] is True


class TestAdmissionControl:
    def test_full_queue_sheds_with_retry_after(self):
        async def _run():
            config = ServeConfig(workers=1, queue_depth=1)
            async with EncodingServer(config) as server:
                # Stall the only dispatcher with a slow-chaos job, fill
                # the depth-1 queue behind it, then watch the next
                # submission bounce.
                stall = {
                    **FIR,
                    "job_id": "stall",
                    "chaos": "slow",
                    "deadline_s": 0.4,
                }
                first = asyncio.ensure_future(server.submit(stall))
                await asyncio.sleep(0.3)  # dispatcher now inside the stall
                second = asyncio.ensure_future(
                    server.submit({**FIR, "job_id": "queued"})
                )
                await asyncio.sleep(0.05)
                shed = await server.submit({**FIR, "job_id": "bounced"})
                assert shed["outcome"] == "shed"
                assert shed["retry_after_s"] > 0
                assert server.stats["shed"] == 1
                results = await asyncio.gather(first, second)
            return results, server

        results, server = asyncio.run(_run())
        # The shed was a response, not a result: the admitted jobs
        # still completed normally.
        assert results[0]["outcome"] == "deadline_exceeded"
        assert results[1]["outcome"] == "ok"

    def test_shed_never_enters_the_wal(self, tmp_path):
        async def _run():
            wal = tmp_path / "serve.wal"
            config = ServeConfig(
                workers=1, queue_depth=1, wal_path=str(wal), batch_key="shed"
            )
            async with EncodingServer(config) as server:
                stall = {
                    **FIR,
                    "job_id": "stall",
                    "chaos": "slow",
                    "deadline_s": 0.4,
                }
                first = asyncio.ensure_future(server.submit(stall))
                await asyncio.sleep(0.3)
                second = asyncio.ensure_future(
                    server.submit({**FIR, "job_id": "queued"})
                )
                await asyncio.sleep(0.05)
                shed = await server.submit({**FIR, "job_id": "bounced"})
                assert shed["outcome"] == "shed"
                await asyncio.gather(first, second)
            return wal

        wal = asyncio.run(_run())
        assert "bounced" not in wal.read_text()


class TestChaosPaths:
    def test_killed_worker_job_retries_to_ok(self):
        requests = _jobs(2, chaos="kill")
        results, server = _serve(
            requests, ServeConfig(workers=2, seed=3)
        )
        assert [r["outcome"] for r in results] == ["ok", "ok"]
        # The first attempt died with the worker; the result took >1.
        assert all(r["attempts"] >= 2 for r in results)
        assert server.stats["pool_rebuilds"] >= 1
        assert server.stats["retried"] >= 1

    def test_slow_job_exceeds_its_deadline_cleanly(self):
        requests = _jobs(1, chaos="slow", deadline_s=0.4)
        results, server = _serve(requests, ServeConfig(workers=1))
        (result,) = results
        assert result["outcome"] == "deadline_exceeded"
        assert "exceeded its 0.4s deadline" in result["error"]
        assert server.stats["deadline_exceeded"] == 1

    def test_serial_fallback_still_produces_correct_results(self):
        # pool_break_retries=0 forces every job onto the degraded
        # serial path from the first attempt.
        requests = _jobs(2)
        results, server = _serve(
            requests, ServeConfig(workers=1, pool_break_retries=0)
        )
        assert [r["outcome"] for r in results] == ["ok", "ok"]
        assert server.stats["serial_fallbacks"] >= 2
        oracle = _compute(
            parse_request(requests[0]), BundleCache(capacity=2)
        )
        assert results[0]["payload"] == oracle

    def test_kill_chaos_is_disarmed_on_the_serial_path(self):
        # A kill-chaos job on the in-process path must not kill the
        # server: chaos only fires inside pool workers.
        requests = _jobs(1, chaos="kill")
        results, server = _serve(
            requests, ServeConfig(workers=1, pool_break_retries=0)
        )
        assert results[0]["outcome"] == "ok"
        assert server.stats["pool_rebuilds"] == 0


def _new_children(before: set) -> list:
    return [p for p in multiprocessing.active_children() if p not in before]


class TestWorkerIsolation:
    """Each dispatcher owns one pipe-connected worker: a crash or a
    backstop kill replaces only that worker, never answers another
    job, and leaves no process behind."""

    def test_backstop_kill_never_leaks_a_late_reply(self, monkeypatch):
        # With the in-worker deadline disarmed, only the event-loop
        # backstop (0.2 s + 0.1 s grace) ends the stalled encode; its
        # worker still wakes 1 s in and replies.  That reply must not
        # be read as the deploy job's result.
        monkeypatch.setattr(
            worker_module, "run_with_deadline", lambda fn, seconds, what: fn()
        )
        monkeypatch.setattr(worker_module, "SLOW_STALL_S", 1.0)
        before = set(multiprocessing.active_children())

        async def _run():
            config = ServeConfig(workers=1, deadline_grace_s=0.1)
            async with EncodingServer(config) as server:
                stalled = await server.submit(
                    {**FIR, "job_id": "stall", "chaos": "slow", "deadline_s": 0.2}
                )
                deployed = await server.submit(
                    {**FIR, "job_id": "d0", "kind": "deploy"}
                )
            return stalled, deployed, server

        stalled, deployed, server = asyncio.run(_run())
        assert stalled["outcome"] == "deadline_exceeded"
        assert deployed["outcome"] == "ok"
        assert "tt_rows" in deployed["payload"]
        assert server.stats["pool_rebuilds"] == 1
        assert _new_children(before) == []

    def test_a_crash_spares_the_neighbouring_worker(self):
        # The plain job is a cold decode_verify, still computing on
        # worker 0 when worker 1 dies under the kill-chaos job.
        before = set(multiprocessing.active_children())
        requests = [
            {**FIR, "job_id": "plain", "kind": "decode_verify"},
            {**FIR, "job_id": "killed", "chaos": "kill"},
        ]
        results, server = _serve(requests, ServeConfig(workers=2, seed=3))
        plain, killed = results
        assert plain["outcome"] == killed["outcome"] == "ok"
        assert plain["attempts"] == 1
        assert killed["attempts"] == 2
        assert server.stats["pool_rebuilds"] == 1
        assert _new_children(before) == []

    def test_stop_reaps_every_worker(self):
        before = set(multiprocessing.active_children())
        _, server = _serve(_jobs(3), ServeConfig(workers=3))
        assert server.stats["pool_rebuilds"] == 0
        assert _new_children(before) == []


class TestWalReplay:
    def test_resume_answers_from_the_wal_without_recompute(self, tmp_path):
        wal = tmp_path / "serve.wal"
        requests = _jobs(3) + [
            {**FIR, "job_id": "bad", "kind": "transcode"}
        ]
        config = ServeConfig(
            workers=2, wal_path=str(wal), batch_key="batch-a"
        )
        first, _ = _serve(requests, config)

        # Resume with a broken worker budget: any recompute would be
        # visible as a serial fallback, so zero fallbacks proves every
        # answer came from the journal.
        resumed_config = ServeConfig(
            workers=1,
            pool_break_retries=0,
            wal_path=str(wal),
            resume=True,
            batch_key="batch-a",
        )
        second, server = _serve(requests, resumed_config)
        assert server.stats["replayed"] == len(requests)
        assert server.stats["serial_fallbacks"] == 0
        assert second == [deterministic_result(r) for r in first]

    def test_resume_recomputes_changed_parameters(self, tmp_path):
        wal = tmp_path / "serve.wal"
        config = ServeConfig(workers=1, wal_path=str(wal), batch_key="b")
        _serve(_jobs(1), config)
        changed = _jobs(1, block_size=4)
        resumed, server = _serve(
            changed,
            ServeConfig(
                workers=1, wal_path=str(wal), resume=True, batch_key="b"
            ),
        )
        # Same tenant/job_id, different semantics: the key differs,
        # so the WAL must not vouch for it.
        assert server.stats["replayed"] == 0
        assert resumed[0]["outcome"] == "ok"
        assert resumed[0]["payload"]["block_size"] == 4

    def test_fresh_run_discards_stale_wal(self, tmp_path):
        wal = tmp_path / "serve.wal"
        wal.write_text('{"run_key":"stale"}\n{"key":"x","result":{}}\n')
        config = ServeConfig(workers=1, wal_path=str(wal), batch_key="b")
        first, _ = _serve(_jobs(2), config)
        assert [r["outcome"] for r in first] == ["ok", "ok"]
        assert '"stale"' not in wal.read_text()
        # The fresh journal is this run's own: a resume replays it.
        _, server = _serve(
            _jobs(2),
            ServeConfig(
                workers=1, wal_path=str(wal), resume=True, batch_key="b"
            ),
        )
        assert server.stats["replayed"] == 2

    def test_fresh_run_refuses_a_wal_a_live_server_holds(self, tmp_path):
        wal = tmp_path / "serve.wal"
        config = ServeConfig(workers=1, wal_path=str(wal), batch_key="b")

        async def _run():
            async with EncodingServer(config) as owner:
                with pytest.raises(CheckpointLockError):
                    await EncodingServer(config).start()
                await owner.run_batch(_jobs(2))

        asyncio.run(_run())
        # The intruder discarded nothing: the owner's journal resumes.
        _, server = _serve(
            _jobs(2),
            ServeConfig(
                workers=1, wal_path=str(wal), resume=True, batch_key="b"
            ),
        )
        assert server.stats["replayed"] == 2


class TestRunKey:
    def test_execution_knobs_stay_out_of_the_run_key(self):
        a = ServeConfig(seed=1, batch_key="x", workers=2, queue_depth=32)
        b = ServeConfig(
            seed=1,
            batch_key="x",
            workers=8,
            queue_depth=4,
            breaker_threshold=2,
            backoff=BackoffPolicy(base=0.5, max_attempts=1),
        )
        assert a.run_key() == b.run_key()

    def test_seed_and_batch_enter_the_run_key(self):
        base = ServeConfig(seed=1, batch_key="x")
        assert base.run_key() != ServeConfig(seed=2, batch_key="x").run_key()
        assert base.run_key() != ServeConfig(seed=1, batch_key="y").run_key()

    @pytest.mark.parametrize("workers,queue_depth", [(0, 8), (2, 0)])
    def test_nonsense_sizing_is_rejected(self, workers, queue_depth):
        with pytest.raises(ValueError):
            EncodingServer(
                ServeConfig(workers=workers, queue_depth=queue_depth)
            )
