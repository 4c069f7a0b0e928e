"""WAL writer-contention tests: one log, two writers, loud failure.

Silent record interleaving is the failure mode — each writer would
replay the other's records as its own.  The advisory ``flock`` taken
on first append makes the second writer fail with
:class:`CheckpointLockError` instead.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.runtime import CheckpointLockError, CheckpointLog
from repro.errors import ReproError

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestWalContention:
    def test_second_writer_is_rejected(self, tmp_path):
        wal = tmp_path / "contended.wal"
        first = CheckpointLog(wal, run_key="run")
        second = CheckpointLog(wal, run_key="run")
        first.record("a", {"v": 1})
        with pytest.raises(CheckpointLockError, match="already locked"):
            second.record("b", {"v": 2})
        first.close()

    def test_lock_error_is_a_repro_error(self, tmp_path):
        wal = tmp_path / "contended.wal"
        first = CheckpointLog(wal, run_key="run")
        first.record("a", {})
        with pytest.raises(ReproError):
            CheckpointLog(wal, run_key="run").record("b", {})
        first.close()

    def test_fresh_open_run_refuses_a_held_log(self, tmp_path):
        wal = tmp_path / "contended.wal"
        owner = CheckpointLog(wal, run_key="run")
        owner.record("a", {"v": 1})
        with pytest.raises(CheckpointLockError):
            CheckpointLog.open_run(wal, "other", resume=False)
        # The owner's inode is still the one at the path.
        owner.record("b", {"v": 2})
        owner.close()
        assert set(CheckpointLog(wal, run_key="run").load()) == {"a", "b"}

    def test_fresh_open_run_discards_an_unheld_log(self, tmp_path):
        wal = tmp_path / "stale.wal"
        stale = CheckpointLog(wal, run_key="stale")
        stale.record("a", {})
        stale.close()
        log, completed = CheckpointLog.open_run(wal, "run", resume=False)
        assert completed == {} and not wal.exists()
        log.record("b", {})
        log.close()
        assert set(CheckpointLog(wal, run_key="run").load()) == {"b"}

    def test_lock_released_on_close(self, tmp_path):
        wal = tmp_path / "handover.wal"
        first = CheckpointLog(wal, run_key="run")
        first.record("a", {"v": 1})
        first.close()
        second = CheckpointLog(wal, run_key="run")
        second.load()
        second.record("b", {"v": 2})
        second.close()
        third = CheckpointLog(wal, run_key="run")
        assert set(third.load()) == {"a", "b"}

    def test_failed_open_leaves_no_handle(self, tmp_path):
        wal = tmp_path / "contended.wal"
        first = CheckpointLog(wal, run_key="run")
        first.record("a", {})
        second = CheckpointLog(wal, run_key="run")
        with pytest.raises(CheckpointLockError):
            second.record("b", {})
        # The loser holds nothing: once the winner lets go, a fresh
        # append from the same (loser) object must succeed.
        first.close()
        second.record("b", {"v": 2})
        second.close()
        assert set(CheckpointLog(wal, run_key="run").load()) == {"a", "b"}

    def test_reader_is_never_blocked(self, tmp_path):
        wal = tmp_path / "readable.wal"
        writer = CheckpointLog(wal, run_key="run")
        writer.record("a", {"v": 1})
        # load() on another object is read-only and must not take
        # (or trip over) the writer's lock — resume monitors tail the
        # WAL while the owning run is still appending.
        reader = CheckpointLog(wal, run_key="run")
        assert reader.load() == {"a": {"v": 1}}
        writer.close()

    def test_fork_children_do_not_keep_the_lock_alive(self, tmp_path):
        # flock belongs to the open file description, which fork
        # children share: a pool worker that outlives a SIGKILLed
        # parent would keep the WAL locked forever unless the
        # at-fork hook scrubs the inherited handle.  Script: take the
        # lock, fork a long-lived child, then die without cleanup.
        script = textwrap.dedent(
            """
            import multiprocessing, os, sys, time
            from repro.runtime import CheckpointLog

            def orphan(pid_path):
                # The target runs after the at-fork hook, so once this
                # file exists the inherited lock has been dropped.  The
                # pid goes to a file: the child inherits stdout, so a
                # pipe would not reach EOF until the child dies too.
                with open(pid_path + ".tmp", "w") as handle:
                    handle.write(str(os.getpid()))
                os.replace(pid_path + ".tmp", pid_path)
                time.sleep(60.0)

            log = CheckpointLog(sys.argv[1], run_key="run")
            log.record("a", {"v": 1})
            child = multiprocessing.get_context("fork").Process(
                target=orphan, args=(sys.argv[2],), daemon=False
            )
            child.start()
            while not os.path.exists(sys.argv[2]):
                time.sleep(0.01)
            os._exit(0)  # parent dies holding the lock; child lives on
            """
        )
        wal = tmp_path / "inherited.wal"
        pid_file = tmp_path / "child.pid"
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        out = subprocess.run(
            [sys.executable, "-c", script, str(wal), str(pid_file)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=60,
        )
        assert out.returncode == 0
        child_pid = int(pid_file.read_text())
        try:
            # The orphan is alive, but must not hold the dead
            # parent's lock: a successor writer acquires it cleanly.
            successor = CheckpointLog(wal, run_key="run")
            assert successor.load() == {"a": {"v": 1}}
            successor.record("b", {"v": 2})
            successor.close()
        finally:
            try:
                os.kill(child_pid, 9)
            except ProcessLookupError:
                pass

    def test_contention_after_torn_tail_repair(self, tmp_path):
        wal = tmp_path / "torn.wal"
        first = CheckpointLog(wal, run_key="run")
        first.record("a", {"v": 1})
        first.close()
        # Tear the tail the way a mid-append SIGKILL would.
        raw = wal.read_bytes()
        wal.write_bytes(raw + b'{"key": "half')
        owner = CheckpointLog(wal, run_key="run")
        owner.load()
        owner.record("b", {"v": 2})  # repairs the tail under the lock
        with pytest.raises(CheckpointLockError):
            CheckpointLog(wal, run_key="run").record("c", {})
        owner.close()
        assert set(CheckpointLog(wal, run_key="run").load()) == {"a", "b"}
