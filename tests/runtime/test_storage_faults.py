"""Storage-fault injection: every durability op, every fault model.

The contract under test, for ``atomic_write_text`` and
``CheckpointLog`` with a fault injected at *every* syscall index:

* only typed :class:`StorageError`\\ s (or :class:`SimulatedCrash`)
  reach the caller — never a bare ``OSError``;
* the on-disk artifact honours its invariant regardless of where the
  fault landed (complete-old-or-complete-new; no acknowledged WAL
  record lost);
* once the fault clears (``plan.disarm()``), a retry succeeds and
  leaves the final state.
"""

import pytest

from repro.errors import (
    StorageError,
    StorageFullError,
    StorageReplaceError,
    StorageSyncError,
    StorageWriteError,
)
from repro.runtime.checkpoint import CheckpointLog, atomic_write_text
from repro.runtime.storage_faults import (
    ENV_SPEC,
    FaultPlan,
    FaultSpec,
    FaultyVFS,
    SimulatedCrash,
    plan_from_spec,
)

KINDS = ("eio", "enospc", "torn", "crash", "crash-after")

OLD = '{"version": 1}\n'
NEW = '{"version": 2}\n'

RECORDS = [
    ("case-a", {"outcome": "detected", "n": 1}),
    ("case-b", {"outcome": "recovered", "n": 2}),
    ("case-c", {"outcome": "masked", "n": 3}),
]

#: Generous upper bounds on the syscall counts of the two workloads,
#: so the sweeps cover every index plus a few that never fire.
ATOMIC_SYSCALLS = 8
WAL_SYSCALLS = 14


def _plan(kind: str, at: int) -> FaultPlan:
    return FaultPlan(specs=[FaultSpec(op="any", kind=kind, at=at)], seed=7)


class TestAtomicWriteSweep:
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_syscall_fault_point(self, tmp_path, kind):
        target = tmp_path / "report.json"
        for at in range(ATOMIC_SYSCALLS):
            target.write_text(OLD)
            plan = _plan(kind, at)
            vfs = FaultyVFS(plan)
            try:
                atomic_write_text(target, NEW, vfs=vfs)
            except SimulatedCrash:
                pass
            except StorageError:
                pass
            except OSError as err:  # pragma: no cover - the failure mode
                pytest.fail(
                    f"bare OSError escaped at syscall {at}: {err!r}"
                )
            # Never torn, regardless of where the fault landed.
            assert target.read_text() in (OLD, NEW), (kind, at)
            # The disk heals; the write must now land.
            plan.disarm()
            atomic_write_text(target, NEW, vfs=vfs)
            assert target.read_text() == NEW

    def test_typed_error_matches_the_failed_op(self, tmp_path):
        target = tmp_path / "r.json"
        # Syscall order in atomic_write_text: open, write, fsync,
        # replace — each maps to its own typed error.
        cases = [
            (0, "eio", StorageWriteError),
            (1, "eio", StorageWriteError),
            (2, "eio", StorageSyncError),
            (3, "eio", StorageReplaceError),
            (1, "enospc", StorageFullError),
            (2, "enospc", StorageFullError),
        ]
        for at, kind, expected in cases:
            with pytest.raises(expected):
                atomic_write_text(
                    target, NEW, vfs=FaultyVFS(_plan(kind, at))
                )

    def test_storage_errors_still_read_as_oserror(self, tmp_path):
        # Legacy `except OSError` degradation paths must keep working.
        with pytest.raises(OSError):
            atomic_write_text(
                tmp_path / "r.json", NEW, vfs=FaultyVFS(_plan("eio", 1))
            )
        assert issubclass(StorageFullError, OSError)

    def test_crash_leaves_no_cleanup_but_no_tear(self, tmp_path):
        target = tmp_path / "r.json"
        target.write_text(OLD)
        with pytest.raises(SimulatedCrash):
            atomic_write_text(target, NEW, vfs=FaultyVFS(_plan("torn", 1)))
        # Dead processes don't clean up: the orphan tmp file stays,
        # the target holds the complete old version.
        assert target.read_text() == OLD
        orphans = list(tmp_path.glob(".r.json.*.tmp"))
        assert orphans, "a real kill leaves the temp file behind"


class TestCheckpointSweep:
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_syscall_fault_point(self, tmp_path, kind):
        expected = dict(RECORDS)
        for at in range(WAL_SYSCALLS):
            wal = tmp_path / f"{kind}-{at}.wal"
            plan = _plan(kind, at)
            vfs = FaultyVFS(plan)
            acked: list[str] = []
            log = CheckpointLog(wal, run_key="rk", vfs=vfs)
            try:
                for key, result in RECORDS:
                    log.record(key, result)
                    acked.append(key)
            except SimulatedCrash:
                pass
            except StorageError:
                pass
            except OSError as err:  # pragma: no cover - the failure mode
                pytest.fail(
                    f"bare OSError escaped at syscall {at}: {err!r}"
                )
            finally:
                log.close()
            # Replay through the real filesystem: every acknowledged
            # record intact, nothing phantom.
            replayed = CheckpointLog(wal, run_key="rk").load()
            for key in acked:
                assert replayed[key] == expected[key], (kind, at)
            for key, value in replayed.items():
                assert expected[key] == value, (kind, at)
            # Heal and finish the run on the same log file.
            plan.disarm()
            retry = CheckpointLog(wal, run_key="rk", vfs=vfs)
            retry.load()
            for key, result in RECORDS:
                retry.record(key, result)
            retry.close()
            final = CheckpointLog(wal, run_key="rk").load()
            assert final == expected, (kind, at)

    def test_torn_header_recovery_rewrites_the_header(self, tmp_path):
        # A crash can tear the header line itself; the next writer
        # must notice the header is missing and re-append it, or the
        # replay mistakes the first record for the header.
        wal = tmp_path / "x.wal"
        wal.write_bytes(b'{"run_key": "rk"')  # torn: no close, no \n
        log = CheckpointLog(wal, run_key="rk")
        log.record("a", {"v": 1})
        log.close()
        assert CheckpointLog(wal, run_key="rk").load() == {"a": {"v": 1}}

    def test_enospc_on_fsync_is_the_degradable_error(self, tmp_path):
        # The serve path degrades on StorageFullError specifically —
        # delayed allocation makes fsync the op that surfaces ENOSPC.
        log = CheckpointLog(
            tmp_path / "x.wal",
            run_key="rk",
            vfs=FaultyVFS(
                FaultPlan(
                    specs=[FaultSpec(op="fsync", kind="enospc", at=2)],
                    seed=1,
                )
            ),
        )
        log.record("a", {"v": 1})  # header fsync=0, record fsync=1
        with pytest.raises(StorageFullError):
            log.record("b", {"v": 2})
        log.close()


class TestPlanMechanics:
    def test_spec_validation_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="gremlins")
        with pytest.raises(ValueError):
            FaultSpec(op="mmap")

    def test_path_filter_scopes_the_blast_radius(self, tmp_path):
        plan = FaultPlan(
            specs=[FaultSpec(op="any", kind="eio", path="camp.wal", always=True)]
        )
        vfs = FaultyVFS(plan)
        # The WAL is broken ...
        log = CheckpointLog(tmp_path / "camp.wal", run_key="rk", vfs=vfs)
        with pytest.raises(StorageError):
            log.record("a", {"v": 1})
        log.close()
        # ... the report next to it is not.
        atomic_write_text(tmp_path / "report.json", NEW, vfs=vfs)
        assert (tmp_path / "report.json").read_text() == NEW

    def test_torn_cut_is_seed_deterministic(self, tmp_path):
        def torn_bytes(run: int) -> bytes:
            target = tmp_path / f"t{run}.json"
            with pytest.raises(SimulatedCrash):
                atomic_write_text(
                    target, "x" * 200, vfs=FaultyVFS(_plan("torn", 1))
                )
            orphan = next(tmp_path.glob(f".t{run}.json.*.tmp"))
            return orphan.read_bytes()

        assert torn_bytes(0) == torn_bytes(1)

    def test_plan_from_spec_round_trip(self):
        plan = plan_from_spec(
            "seed=3;op=write,kind=torn,path=camp.wal,at=17;"
            "op=fsync,kind=enospc,always=true"
        )
        assert plan.seed == 3
        assert len(plan.specs) == 2
        first, second = plan.specs
        assert (first.op, first.kind, first.path, first.at) == (
            "write",
            "torn",
            "camp.wal",
            17,
        )
        assert second.always is True

    def test_bad_spec_is_rejected_loudly(self):
        with pytest.raises(ValueError):
            plan_from_spec("write-torn-17")

    def test_env_spec_arms_injection(self, tmp_path, monkeypatch):
        import repro.runtime.storage_faults as sf

        monkeypatch.setenv(ENV_SPEC, "seed=5;op=write,kind=eio,at=0")
        monkeypatch.setattr(sf, "_env_checked", False)
        monkeypatch.setattr(sf, "_active", None)
        vfs = sf.get_vfs()
        assert isinstance(vfs, FaultyVFS)
        with pytest.raises(StorageError):
            atomic_write_text(tmp_path / "x.json", "hello")

