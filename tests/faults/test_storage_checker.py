"""The crash-consistency checker: simulation semantics + the matrix.

Two halves:

* unit checks of the crash-state enumeration (``possible_contents``):
  unsynced bytes tear at byte boundaries, fsync pins a durable prefix,
  the last un-fsynced rename may un-happen, a never-fsynced creation
  may be absent;
* mutation self-tests — the checker only earns trust by *failing*
  when shown a deliberately broken writer (non-atomic replace-less
  writes, unsynced WAL appends).  A checker that passes everything
  checks nothing.

Plus the full campaign smoke the CI ``storage-faults`` job gates on.
"""

import pytest

from repro.faults.storage import (
    ABSENT,
    MemoryVFS,
    possible_contents,
    run_storage_campaign,
    storage_report_problems,
)
from repro.runtime.checkpoint import CheckpointLog, atomic_write_text


class TestCrashStateEnumeration:
    def test_unsynced_write_tears_at_every_byte(self):
        mem = MemoryVFS()
        handle = mem.open_append("f")
        mem.write(handle, b"abcd")
        mem.close(handle)  # no fsync
        states, dropped = possible_contents({}, mem.ops, "f")
        assert dropped == 0
        # Never-fsynced creation: absent, plus every prefix.
        assert ABSENT in states
        byte_states = {s for s in states if s is not None}
        assert byte_states == {b"", b"a", b"ab", b"abc", b"abcd"}

    def test_fsync_pins_a_durable_floor(self):
        mem = MemoryVFS()
        handle = mem.open_append("f")
        mem.write(handle, b"abcd")
        mem.fsync(handle)
        mem.write(handle, b"XY")
        mem.close(handle)
        states, _ = possible_contents({}, mem.ops, "f")
        assert ABSENT not in states  # fsync persisted the dentry too
        assert {s for s in states} == {b"abcd", b"abcdX", b"abcdXY"}

    def test_unfsynced_rename_may_not_have_happened(self):
        mem = MemoryVFS(initial_files={"dst": b"old"})
        handle, tmp = mem.mkstemp("", prefix=".dst.", suffix=".tmp")
        mem.write(handle, b"new")
        mem.fsync(handle)
        mem.close(handle)
        mem.replace(tmp, "dst")
        states, _ = possible_contents({"dst": b"old"}, mem.ops, "dst")
        # Both branches, nothing torn: that is the atomic-write promise.
        assert sorted(states) == [b"new", b"old"]

    def test_initial_files_are_durable(self):
        states, _ = possible_contents({"f": b"seed"}, [], "f")
        assert states == [b"seed"]

    def test_sampling_is_capped_deterministic_and_reported(self):
        mem = MemoryVFS()
        handle = mem.open_append("f")
        mem.write(handle, bytes(500))
        mem.close(handle)
        first, dropped = possible_contents({}, mem.ops, "f", seed=3, max_states=32)
        second, _ = possible_contents({}, mem.ops, "f", seed=3, max_states=32)
        assert first == second
        assert len(first) == 32
        assert dropped == 502 - 32  # 501 prefixes + ABSENT, minus kept
        # The endpoints always survive sampling.
        assert b"" in first and bytes(500) in first


class TestMutationSelfTest:
    """The checker must flag writers that are actually broken."""

    def test_non_atomic_writer_is_flagged(self):
        # Path.write_text semantics: unlink + rewrite in place.  Crash
        # windows expose absence and torn tails; the checker must see
        # both.
        old, new = b'{"old": true}', b'{"brand-new": 1}'
        mem = MemoryVFS(initial_files={"t.json": old})
        mem.unlink("t.json")
        handle = mem.open_append("t.json")
        mem.write(handle, new)
        mem.close(handle)
        bad_states = set()
        for n in range(len(mem.ops) + 1):
            states, _ = possible_contents({"t.json": old}, mem.ops[:n], "t.json")
            for state in states:
                if state is ABSENT or state not in (old, new):
                    bad_states.add(state)
        assert ABSENT in bad_states, "missing-file window not enumerated"
        assert any(
            s is not ABSENT for s in bad_states
        ), "torn-content window not enumerated"

    def test_unsynced_wal_append_is_losable(self):
        mem = MemoryVFS()
        handle = mem.open_append("w.log")
        mem.write(handle, b'{"key": "a"}\n')
        mem.close(handle)  # acked without fsync: a lie
        states, _ = possible_contents({}, mem.ops, "w.log")
        assert ABSENT in states or b"" in states

    def test_real_atomic_writer_is_clean(self):
        old = b'{"v": 1}'
        mem = MemoryVFS(initial_files={"out/r.json": old})
        atomic_write_text("out/r.json", '{"v": 2}', vfs=mem)
        for n in range(len(mem.ops) + 1):
            states, _ = possible_contents(
                {"out/r.json": old}, mem.ops[:n], "out/r.json"
            )
            for state in states:
                assert state in (old, b'{"v": 2}')

    def test_real_wal_never_loses_acked_records(self):
        mem = MemoryVFS()
        log = CheckpointLog("w.wal", run_key="rk", vfs=mem)
        log.record("a", {"v": 1})
        acked_at = len(mem.ops)
        log.record("b", {"v": 2})
        log.close()
        for n in range(acked_at, len(mem.ops) + 1):
            states, _ = possible_contents({}, mem.ops[:n], "w.wal")
            for state in states:
                replay = CheckpointLog(
                    "w.wal",
                    run_key="rk",
                    vfs=MemoryVFS(initial_files={"w.wal": state}),
                ).load()
                assert replay.get("a") == {"v": 1}


class TestCampaign:
    @pytest.fixture(scope="class")
    def report(self):
        return run_storage_campaign(seed=0, max_states=48)

    def test_every_surface_and_model_is_covered(self, report):
        surfaces = {row["surface"] for row in report.matrix}
        assert {
            "wal_append",
            "atomic_write",
            "atomic_write_repeated",
            "cache_put",
            "faults_report",
        } <= surfaces
        models = {row["model"] for row in report.matrix}
        assert {"crash-every-prefix", "eio", "enospc", "torn"} <= models

    def test_the_matrix_is_violation_free(self, report):
        assert report.storage_ok(), report.to_dict()["matrix"]
        assert report.total_violations() == 0
        # And not vacuously: every crash row actually enumerated states.
        for row in report.matrix:
            if row["model"] == "crash-every-prefix":
                assert row["states_checked"] > 0

    def test_report_round_trips_through_the_gate(self, report, tmp_path):
        path = report.write(tmp_path / "FAULTS_report.json")
        import json

        data = json.loads(path.read_text())
        assert storage_report_problems(data) == []

    def test_gate_rejects_vacuous_and_violated_reports(self, report):
        assert storage_report_problems({}) != []
        assert storage_report_problems(
            {"campaign": "storage", "matrix": []}
        ) != []
        broken = report.to_dict()
        broken["matrix"][0]["violations"] = [
            {"crash_after_op": 3, "problem": "record lost"}
        ]
        problems = storage_report_problems(broken)
        assert any("record lost" in p for p in problems)
