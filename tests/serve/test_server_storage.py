"""Serve-path storage hardening: ENOSPC degradation and re-arm.

A full WAL device must not take the serve path down: jobs keep
finishing (their results are already computed — only durability is at
risk), the server sheds to memory-only journaling and counts one
``storage_degraded`` episode, and the moment space returns the backlog
lands in the WAL in order.
"""

import asyncio

from repro.runtime.checkpoint import CheckpointLog
from repro.runtime.storage_faults import (
    FaultPlan,
    FaultSpec,
    FaultyVFS,
    active_vfs,
)
from repro.serve.server import EncodingServer, ServeConfig

FIR = {
    "tenant": "t0",
    "job_id": "j0",
    "kind": "encode",
    "workload": "fir",
    "block_size": 5,
    "workload_params": {"taps": 8, "samples": 48},
}


def _jobs(prefix: str, n: int) -> list[dict]:
    return [{**FIR, "job_id": f"{prefix}{i}"} for i in range(n)]


def _storage_state(server: EncodingServer) -> dict:
    """The server's journaling state: its degrade/recover counters,
    whether it is degraded, and how many results await the WAL."""
    return {
        "degraded": server.stats["storage_degraded"],
        "recovered": server.stats["storage_recovered"],
        "wal_degraded": server._wal_degraded,
        "journal_backlog": len(server._journal_backlog),
    }


class TestEnospcDegradation:
    def test_full_wal_device_degrades_then_recovers(self, tmp_path):
        wal = tmp_path / "serve.wal"
        # Delayed allocation: writes land in cache, fsync surfaces
        # ENOSPC.  Scoped to the WAL file so nothing else breaks.
        plan = FaultPlan(
            specs=[
                FaultSpec(
                    op="fsync", kind="enospc", path=wal.name, always=True
                )
            ]
        )
        plan.disarm()  # the disk starts healthy
        config = ServeConfig(workers=1, seed=3, wal_path=str(wal))

        async def _run():
            with active_vfs(FaultyVFS(plan)):
                async with EncodingServer(config) as server:
                    healthy = await server.run_batch(_jobs("a", 2))
                    plan.rearm()  # the device fills
                    degraded = await server.run_batch(_jobs("b", 2))
                    mid = _storage_state(server)
                    plan.disarm()  # space returns
                    recovered = await server.run_batch(_jobs("c", 2))
                    end = _storage_state(server)
                return healthy + degraded + recovered, mid, end, server

        results, mid, end, server = asyncio.run(_run())

        # Jobs kept completing throughout: a full disk risks
        # durability, never answers.
        assert [r["outcome"] for r in results] == ["ok"] * 6

        assert mid["wal_degraded"] is True
        assert mid["journal_backlog"] == 2
        # Degradation fires once per episode, not per shed record.
        assert mid["degraded"] == 1
        assert mid["recovered"] == 0
        assert end["wal_degraded"] is False
        assert end["journal_backlog"] == 0
        assert end["degraded"] == 1
        assert end["recovered"] == 1

        # After recovery every result — including those finished while
        # the disk was full — is durably journaled, in order.
        replayed = CheckpointLog(wal, run_key=config.run_key()).load()
        for job_id in ["a0", "a1", "b0", "b1", "c0", "c1"]:
            assert any(job_id in key for key in replayed), job_id

    def test_shutdown_while_degraded_flushes_on_close(self, tmp_path):
        wal = tmp_path / "serve.wal"
        plan = FaultPlan(
            specs=[
                FaultSpec(
                    op="fsync", kind="enospc", path=wal.name, always=True
                )
            ]
        )
        plan.disarm()
        config = ServeConfig(workers=1, seed=3, wal_path=str(wal))

        async def _run():
            with active_vfs(FaultyVFS(plan)):
                async with EncodingServer(config) as server:
                    await server.run_batch(_jobs("a", 2))
                    plan.rearm()
                    await server.run_batch(_jobs("b", 1))
                    assert _storage_state(server)["wal_degraded"]
                    plan.disarm()  # space frees just before shutdown
                return server

        asyncio.run(_run())
        # stop() gave the backlog one last flush: nothing was lost.
        replayed = CheckpointLog(wal, run_key=config.run_key()).load()
        assert any("b0" in key for key in replayed)
