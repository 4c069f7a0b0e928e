"""ALICE-style crash-consistency checking of every durability surface.

The storage-fault shim (:mod:`repro.runtime.storage_faults`) makes
the durability syscalls injectable; this module uses that seam to
*prove* the crash-consistency contracts instead of assuming them:

1. run a durability workload (WAL appends, an atomic report write, a
   cache put) against :class:`MemoryVFS`, which
   executes it on an in-memory filesystem **and records the syscall
   trace**;
2. simulate a crash after *every* syscall prefix.  The simulator
   models page-cache semantics: bytes written but not fsynced may
   survive as **any prefix** (torn at every byte boundary), a file
   created but never fsynced may be absent entirely, and the most
   recent un-fsynced rename/unlink may or may not have reached the
   journal (both branches are enumerated);
3. replay *recovery* — the real reader code, pointed at the simulated
   post-crash state — and assert the surface's invariant:

   * **WAL**: no fsync-acknowledged record is ever lost, replay never
     raises, and a post-recovery append still works;
   * **atomic writes** (reports, cache entries): the file is a
     complete old version or a complete new version, never torn;
   * **cache**: a reader serves the exact entry or a quarantined
     miss, never a mutated one.

A second sweep drives the *non-crash* fault models — EIO on
write/fsync, ENOSPC mid-write, torn appends — at every injectable
syscall index and asserts the hardening contract: a typed
:class:`~repro.errors.StorageError` (never a bare ``OSError``)
reaches the caller, the surface's invariant still holds, and a retry
after the fault clears succeeds.

``repro faults --storage`` runs the whole matrix and emits it as the
crash-consistency report (default ``FAULTS_report.json``); the
``storage-faults`` CI job gates on zero violations.

Model assumptions (documented, deliberately ext4-ordered-shaped):
``fsync`` of a file persists its data *and* its directory entry; at
most the most recent rename/unlink with no later fsync may be
un-persisted; earlier metadata ops have committed.  These are the
same assumptions the atomic-write pattern itself relies on.
"""

from __future__ import annotations

import errno
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import StorageError
from repro.obs import OBS
from repro.runtime.checkpoint import CheckpointLog, atomic_write_text
from repro.runtime.storage_faults import (
    FaultPlan,
    FaultSpec,
    FaultyVFS,
    SimulatedCrash,
    StorageVFS,
)

__all__ = [
    "MemoryVFS",
    "StorageCampaignReport",
    "possible_contents",
    "run_storage_campaign",
    "storage_report_problems",
]

#: A possible post-crash state meaning "the file does not exist".
ABSENT = None

#: Fault kinds the non-crash syscall sweep drives (plus the crash
#: sweep itself, reported as ``crash-every-prefix``).
SYSCALL_MODELS = ("eio", "enospc", "torn")

CRASH_MODEL = "crash-every-prefix"


# ----------------------------------------------------------------------
# In-memory VFS with syscall-trace recording
# ----------------------------------------------------------------------


class _MemHandle:
    """An opaque append handle onto a :class:`MemoryVFS` path."""

    __slots__ = ("vfs", "path", "closed")

    def __init__(self, vfs: "MemoryVFS", path: str):
        self.vfs = vfs
        self.path = path
        self.closed = False

    def close(self) -> None:  # fork-scrub compatibility
        if not self.closed:
            self.vfs.close(self)


class MemoryVFS(StorageVFS):
    """A :class:`StorageVFS` over an in-memory filesystem.

    Executes the live (page-cache view) semantics the code under test
    observes, and records every durability syscall as an op tuple so
    the crash simulator can re-derive all possible durable states.
    All writes are appends — exactly the access pattern of every
    durability surface in the system (fresh temp files and WAL
    appends)."""

    name = "memory"

    def __init__(self, initial_files: dict[str, bytes] | None = None):
        self.files: dict[str, bytearray] = {
            self._key(path): bytearray(data)
            for path, data in (initial_files or {}).items()
        }
        #: Paths that existed before the trace (their dentries are
        #: durable from the start).
        self.initial: dict[str, bytes] = {
            self._key(path): bytes(data)
            for path, data in (initial_files or {}).items()
        }
        self.ops: list[tuple] = []
        self.locked: set[str] = set()
        self._dirs: set[str] = set()
        self._tmp_counter = 0

    @staticmethod
    def _key(path) -> str:
        return str(path)

    def release_locks(self) -> None:
        """What process death does to advisory locks."""
        self.locked.clear()

    # -- handle-producing ----------------------------------------------

    def mkstemp(self, dir, prefix: str, suffix: str):
        self._tmp_counter += 1
        name = str(Path(dir) / f"{prefix}{self._tmp_counter:08d}{suffix}")
        self.files[name] = bytearray()
        self.ops.append(("create", name))
        return _MemHandle(self, name), name

    def open_append(self, path):
        key = self._key(path)
        if key not in self.files:
            self.files[key] = bytearray()
            self.ops.append(("create", key))
        return _MemHandle(self, key)

    # -- handle ops ----------------------------------------------------

    def write(self, handle: _MemHandle, data: bytes) -> None:
        if handle.closed:
            raise OSError(errno.EBADF, "write to closed handle", handle.path)
        self.files[handle.path].extend(data)
        self.ops.append(("write", handle.path, bytes(data)))

    def flush(self, handle: _MemHandle) -> None:
        self.ops.append(("flush", handle.path))

    def fsync(self, handle: _MemHandle) -> None:
        if handle.closed:
            raise OSError(errno.EBADF, "fsync of closed handle", handle.path)
        self.ops.append(("fsync", handle.path))

    def close(self, handle: _MemHandle) -> None:
        handle.closed = True
        self.locked.discard(handle.path)

    def lock_exclusive(self, handle: _MemHandle) -> bool:
        if handle.path in self.locked:
            raise OSError(
                errno.EAGAIN, "resource temporarily unavailable", handle.path
            )
        self.locked.add(handle.path)
        return True

    # -- namespace ops -------------------------------------------------

    def replace(self, src, dst) -> None:
        src_key, dst_key = self._key(src), self._key(dst)
        if src_key not in self.files:
            raise FileNotFoundError(errno.ENOENT, "no such file", src_key)
        self.files[dst_key] = self.files.pop(src_key)
        self.ops.append(("replace", src_key, dst_key))

    def unlink(self, path) -> None:
        key = self._key(path)
        if key not in self.files:
            raise FileNotFoundError(errno.ENOENT, "no such file", key)
        del self.files[key]
        self.ops.append(("unlink", key))

    def mkdirs(self, path) -> None:
        self._dirs.add(self._key(path))

    # -- read / metadata side ------------------------------------------

    def exists(self, path) -> bool:
        key = self._key(path)
        return key in self.files or key in self._dirs

    def size(self, path) -> int:
        return len(self._file(path))

    def tail_byte(self, path) -> bytes:
        data = self._file(path)
        return bytes(data[-1:])

    def read_bytes(self, path) -> bytes:
        return bytes(self._file(path))

    def _file(self, path) -> bytearray:
        key = self._key(path)
        if key not in self.files:
            raise FileNotFoundError(errno.ENOENT, "no such file", key)
        return self.files[key]


# ----------------------------------------------------------------------
# Crash-state simulation
# ----------------------------------------------------------------------


@dataclass
class _SimFile:
    content: bytes = b""
    synced: int = 0
    dentry_durable: bool = False


def _replay(
    initial: dict[str, bytes], ops: list[tuple], skip_op: int | None = None
) -> dict[str, _SimFile]:
    """Durability-model replay of an op prefix (optionally pretending
    one namespace op never committed)."""
    files = {
        path: _SimFile(content=data, synced=len(data), dentry_durable=True)
        for path, data in initial.items()
    }
    for index, op in enumerate(ops):
        if index == skip_op:
            continue
        kind = op[0]
        if kind == "create":
            files.setdefault(op[1], _SimFile())
        elif kind == "write":
            entry = files.setdefault(op[1], _SimFile())
            entry.content += op[2]
        elif kind == "fsync":
            entry = files.get(op[1])
            if entry is not None:
                entry.synced = len(entry.content)
                entry.dentry_durable = True
        elif kind == "replace":
            moved = files.pop(op[1], _SimFile())
            files[op[2]] = moved
        elif kind == "unlink":
            files.pop(op[1], None)
        # flush has no durability effect (libc buffer -> page cache;
        # writes here already model page-cache content).
    return files


def _file_possibilities(entry: _SimFile | None) -> list[bytes | None]:
    if entry is None:
        return [ABSENT]
    states: list[bytes | None] = [
        entry.content[:cut]
        for cut in range(entry.synced, len(entry.content) + 1)
    ]
    if not entry.dentry_durable:
        # Creation itself may not have survived.
        states.append(ABSENT)
    return states


def possible_contents(
    initial: dict[str, bytes],
    ops: list[tuple],
    path: str,
    seed: int = 0,
    max_states: int = 96,
) -> tuple[list[bytes | None], int]:
    """Every durable content ``path`` may hold after a crash that
    follows the last op of ``ops``; returns ``(states, sampled_out)``.

    When torn-prefix enumeration exceeds ``max_states`` the boundary
    set is down-sampled deterministically (the fully-durable and
    fully-written endpoints are always kept) and the count of dropped
    states is reported — never silently."""
    branches = [_replay(initial, ops)]
    last_ns = None
    for index, op in enumerate(ops):
        if op[0] in ("replace", "unlink"):
            last_ns = index
        elif op[0] == "fsync" and last_ns is not None:
            # A later journal commit persisted the metadata op too.
            last_ns = None
    if last_ns is not None:
        branches.append(_replay(initial, ops, skip_op=last_ns))

    states: list[bytes | None] = []
    seen: set = set()
    for branch in branches:
        for state in _file_possibilities(branch.get(path)):
            marker = b"\x00ABSENT" if state is None else b"S" + state
            if marker not in seen:
                seen.add(marker)
                states.append(state)
    sampled_out = 0
    if len(states) > max_states:
        keep = {0, len(states) - 1}
        rng = random.Random(f"{seed}:{len(ops)}:{path}")
        keep.update(rng.sample(range(len(states)), max_states - len(keep)))
        sampled_out = len(states) - len(keep)
        states = [state for i, state in enumerate(states) if i in keep]
    return states, sampled_out


# ----------------------------------------------------------------------
# Surfaces: workload + invariant
# ----------------------------------------------------------------------


@dataclass
class _Surface:
    """One durability surface: how to run it, and what must hold."""

    name: str
    #: Files existing (durably) before the workload runs.
    initial: dict[str, bytes]
    #: run(vfs, ctx) executes the whole workload through ``vfs``.
    run: object
    #: The path whose post-crash states are audited.
    audited: str
    #: check(content, ops_executed, ctx) -> problem string | None.
    check: object
    #: Whether the non-crash syscall sweep applies (workload restarts
    #: cleanly after a fault).
    syscall_sweep: bool = True
    #: check_live(vfs, ctx) -> problem | None, run after a *failed*
    #: (non-crash) workload: the invariant on the live filesystem.
    check_live: object = None
    #: Expected behaviour of non-crash faults: "raise" (a typed
    #: StorageError must surface) or "degrade" (the call must swallow
    #: the fault and keep working).
    on_fault: str = "raise"


def _wal_surface(seed: int) -> _Surface:
    wal_path = "state/run.wal"
    run_key = f"storage-check:{seed}"
    records = [
        (f"case-{i}", {"outcome": "detected", "n": i, "z": "zz"})
        for i in range(4)
    ]

    def run(vfs: StorageVFS, ctx: dict) -> None:
        acks = ctx.setdefault("acks", [])
        mem = vfs.inner if isinstance(vfs, FaultyVFS) else vfs
        log = CheckpointLog(wal_path, run_key=run_key, vfs=vfs)
        attempted = ctx.setdefault("attempted", [])
        for key, result in records:
            attempted.append(key)
            log.record(key, result)
            if isinstance(mem, MemoryVFS):
                acks.append((key, len(mem.ops)))
        log.close()

    def check(content: bytes | None, ops_executed: int, ctx: dict):
        snapshot = MemoryVFS(
            initial_files={} if content is ABSENT else {wal_path: content}
        )
        log = CheckpointLog(wal_path, run_key=run_key, vfs=snapshot)
        try:
            completed = log.load()
        except Exception as err:  # noqa: BLE001 - any escape is a violation
            return f"replay raised {type(err).__name__}: {err}"
        expected = dict(records)
        acked = [key for key, at in ctx.get("acks", ()) if at <= ops_executed]
        for key in acked:
            if key not in completed:
                return f"fsync-acknowledged record {key!r} lost"
            if completed[key] != expected[key]:
                return f"record {key!r} replayed corrupted: {completed[key]}"
        for key, value in completed.items():
            if key not in expected or value != expected[key]:
                return f"phantom record {key!r} in replay: {value}"
        # Recovery must also be able to continue the run: append one
        # more record on the crashed image and replay the union.
        post = CheckpointLog(wal_path, run_key=run_key, vfs=snapshot)
        post.load()
        try:
            post.record("post-crash", {"outcome": "resumed"})
        except Exception as err:  # noqa: BLE001
            return f"post-recovery append raised {type(err).__name__}: {err}"
        finally:
            post.close()
        try:
            reloaded = CheckpointLog(
                wal_path, run_key=run_key, vfs=snapshot
            ).load()
        except Exception as err:  # noqa: BLE001
            return f"post-recovery replay raised {type(err).__name__}: {err}"
        if "post-crash" not in reloaded:
            return "post-recovery append did not survive its own replay"
        for key in acked:
            if key not in reloaded:
                return f"record {key!r} lost by the post-recovery append"
        return None

    def check_live(vfs: StorageVFS, ctx: dict):
        # After a *failed* (non-crash) syscall the log object is still
        # alive; the on-disk state must stay replayable and no
        # acknowledged record may have vanished.
        return check(
            vfs.read_bytes(wal_path) if vfs.exists(wal_path) else ABSENT,
            len(vfs.ops) if isinstance(vfs, MemoryVFS) else 10**9,
            ctx,
        )

    return _Surface(
        name="wal_append",
        initial={},
        run=run,
        audited=wal_path,
        check=check,
        check_live=check_live,
    )


def _atomic_surface() -> _Surface:
    target = "out/report.json"
    old = json.dumps({"version": 1, "payload": "x" * 40}) + "\n"
    new = json.dumps({"version": 2, "payload": "y" * 48}) + "\n"
    versions = {old.encode(), new.encode()}

    def run(vfs: StorageVFS, ctx: dict) -> None:
        atomic_write_text(target, new, vfs=vfs)

    def check(content: bytes | None, ops_executed: int, ctx: dict):
        if content is ABSENT:
            return "target vanished (neither old nor new version)"
        if content not in versions:
            return (
                f"torn target: {len(content)} bytes matching neither "
                "complete version"
            )
        return None

    def check_live(vfs: StorageVFS, ctx: dict):
        return check(
            vfs.read_bytes(target) if vfs.exists(target) else ABSENT, 0, ctx
        )

    return _Surface(
        name="atomic_write",
        initial={target: old.encode()},
        run=run,
        audited=target,
        check=check,
        check_live=check_live,
    )


def _repeated_atomic_surface() -> _Surface:
    target = "out/rolling.json"
    versions = [
        (json.dumps({"gen": gen, "data": "p" * (20 + gen)}) + "\n").encode()
        for gen in range(3)
    ]
    allowed = set(versions)

    def run(vfs: StorageVFS, ctx: dict) -> None:
        for version in versions[1:]:
            atomic_write_text(target, version.decode(), vfs=vfs)

    def check(content: bytes | None, ops_executed: int, ctx: dict):
        if content is ABSENT:
            return "target vanished between rewrites"
        if content not in allowed:
            return f"torn target after rewrite sweep ({len(content)} bytes)"
        return None

    def check_live(vfs: StorageVFS, ctx: dict):
        return check(
            vfs.read_bytes(target) if vfs.exists(target) else ABSENT, 0, ctx
        )

    return _Surface(
        name="atomic_write_repeated",
        initial={target: versions[0]},
        run=run,
        audited=target,
        check=check,
        check_live=check_live,
    )


def _cache_surface() -> _Surface:
    from repro.pipeline.cache import BundleCache, entry_digest  # noqa: F401

    cache_dir = "cachedir"
    key = "deadbeef-k5-tt16-greedy"
    entry = {"bundle_digest": "abc123", "payload": {"words": 17, "n": 4}}
    audited = str(Path(cache_dir) / f"{key}.json")

    def run(vfs: StorageVFS, ctx: dict) -> None:
        from repro.pipeline.cache import BundleCache

        cache = BundleCache(capacity=4, cache_dir=cache_dir, vfs=vfs)
        cache.put(key, entry)
        ctx["writer_stats"] = cache.stats()

    def check(content: bytes | None, ops_executed: int, ctx: dict):
        from repro.pipeline.cache import BundleCache

        snapshot = MemoryVFS(
            initial_files={} if content is ABSENT else {audited: content}
        )
        reader = BundleCache(capacity=4, cache_dir=cache_dir, vfs=snapshot)
        try:
            got = reader.get(key)
        except Exception as err:  # noqa: BLE001
            return f"cache read raised {type(err).__name__}: {err}"
        if got is not None and got != entry:
            return f"cache served a mutated entry: {got}"
        return None

    def check_live(vfs: StorageVFS, ctx: dict):
        return check(
            vfs.read_bytes(audited) if vfs.exists(audited) else ABSENT, 0, ctx
        )

    return _Surface(
        name="cache_put",
        initial={},
        run=run,
        audited=audited,
        check=check,
        check_live=check_live,
        on_fault="degrade",
    )


def _faults_report_surface() -> _Surface:
    from repro.faults.report import CaseResult, FaultCampaignReport

    target = "out/FAULTS_report.json"

    def build(tag: str) -> FaultCampaignReport:
        return FaultCampaignReport(
            config={"campaign": "storage-selfcheck", "tag": tag},
            cases=[
                CaseResult(
                    workload="fir",
                    model="tt_bitflip",
                    seed=f"{tag}:0",
                    mode="strict",
                    outcome="detected",
                )
            ],
        )

    old = build("old").to_json(deterministic=True).encode()
    new_report = build("new")
    new = new_report.to_json(deterministic=True).encode()
    versions = {old, new}

    def run(vfs: StorageVFS, ctx: dict) -> None:
        new_report.write(target, deterministic=True, vfs=vfs)

    def check(content: bytes | None, ops_executed: int, ctx: dict):
        if content is ABSENT:
            return "report vanished"
        if content not in versions:
            return f"torn FAULTS report ({len(content)} bytes)"
        try:
            json.loads(content.decode("utf-8"))
        except ValueError as err:
            return f"report unparseable: {err}"
        return None

    def check_live(vfs: StorageVFS, ctx: dict):
        return check(
            vfs.read_bytes(target) if vfs.exists(target) else ABSENT, 0, ctx
        )

    return _Surface(
        name="faults_report",
        initial={target: old},
        run=run,
        audited=target,
        check=check,
        check_live=check_live,
    )


def _surfaces(seed: int) -> list[_Surface]:
    return [
        _wal_surface(seed),
        _atomic_surface(),
        _repeated_atomic_surface(),
        _cache_surface(),
        _faults_report_surface(),
    ]


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------


def _sweep_crash_prefixes(
    surface: _Surface, seed: int, max_states: int
) -> dict:
    """Crash after every syscall prefix; audit every reachable durable
    state of the surface's file."""
    mem = MemoryVFS(initial_files=surface.initial)
    ctx: dict = {}
    surface.run(mem, ctx)
    ops = mem.ops
    violations: list[dict] = []
    states_checked = 0
    sampled_out = 0
    for prefix in range(len(ops) + 1):
        states, dropped = possible_contents(
            surface.initial,
            ops[:prefix],
            surface.audited,
            seed=seed,
            max_states=max_states,
        )
        sampled_out += dropped
        for content in states:
            states_checked += 1
            problem = surface.check(content, prefix, ctx)
            if problem and len(violations) < 20:
                violations.append(
                    {
                        "crash_after_op": prefix,
                        "op": list(ops[prefix - 1][:2]) if prefix else None,
                        "state_bytes": (
                            None if content is ABSENT else len(content)
                        ),
                        "problem": problem,
                    }
                )
    return {
        "surface": surface.name,
        "model": CRASH_MODEL,
        "syscalls": len(ops),
        "crash_points": len(ops) + 1,
        "states_checked": states_checked,
        "states_sampled_out": sampled_out,
        "violations": violations,
    }


def _sweep_syscall_faults(
    surface: _Surface, model: str, seed: int
) -> dict:
    """Inject ``model`` at every injectable syscall index; assert the
    typed-error + invariant + retry contract."""
    # First, a clean run to count injectable syscalls.
    probe_plan = FaultPlan(specs=[], seed=seed)
    probe_mem = MemoryVFS(initial_files=surface.initial)
    probe = FaultyVFS(probe_plan, inner=probe_mem)
    surface.run(probe, {})
    injectable = sum(
        1
        for op in probe_mem.ops
        if op[0] in ("create", "write", "flush", "fsync", "replace", "unlink")
    )

    violations: list[dict] = []
    cases = 0
    for index in range(injectable + 4):  # +4 probes past the end: no-fire
        cases += 1
        mem = MemoryVFS(initial_files=surface.initial)
        plan = FaultPlan(
            specs=[FaultSpec(op="any", kind=model, at=index)], seed=seed
        )
        vfs = FaultyVFS(plan, inner=mem)
        ctx: dict = {}
        outcome = "clean"
        error: BaseException | None = None
        try:
            surface.run(vfs, ctx)
        except SimulatedCrash:
            outcome = "crashed"
            mem.release_locks()  # process death drops advisory locks
        except StorageError as err:
            outcome = "storage-error"
            error = err
        except OSError as err:
            outcome = "bare-oserror"
            error = err
        except Exception as err:  # noqa: BLE001
            outcome = "unexpected"
            error = err

        fired = bool(plan.fired)
        problem = None
        if outcome == "bare-oserror":
            problem = (
                f"bare OSError escaped at syscall {index}: "
                f"{type(error).__name__}: {error}"
            )
        elif outcome == "unexpected":
            problem = (
                f"unstructured {type(error).__name__} escaped at syscall "
                f"{index}: {error}"
            )
        elif not fired and outcome != "clean":
            problem = f"no fault fired yet the run failed: {outcome}"
        elif fired and surface.on_fault == "degrade" and outcome not in (
            "clean",
            "crashed",
        ):
            problem = (
                f"a degrading surface surfaced {outcome} at syscall {index}"
            )
        if problem is None and surface.check_live is not None:
            problem = surface.check_live(mem, ctx)
        if problem is None and fired and outcome != "crashed":
            # The environment heals; the workload must succeed now and
            # leave the surface in its final (new-complete) state.
            plan.disarm()
            mem.release_locks()
            retry_ctx: dict = {}
            try:
                surface.run(vfs, retry_ctx)
            except Exception as err:  # noqa: BLE001
                problem = (
                    f"retry after cleared fault failed: "
                    f"{type(err).__name__}: {err}"
                )
            if problem is None and surface.check_live is not None:
                problem = surface.check_live(mem, retry_ctx)
        if problem and len(violations) < 20:
            violations.append({"syscall": index, "problem": problem})
    return {
        "surface": surface.name,
        "model": model,
        "syscalls": injectable,
        "crash_points": 0,
        "states_checked": cases,
        "states_sampled_out": 0,
        "violations": violations,
    }


# ----------------------------------------------------------------------
# Campaign + report
# ----------------------------------------------------------------------


@dataclass
class StorageCampaignReport:
    """The crash-consistency matrix: fault models x durability
    surfaces x the invariant verdict."""

    config: dict
    matrix: list[dict] = field(default_factory=list)

    def total_violations(self) -> int:
        return sum(len(row["violations"]) for row in self.matrix)

    def storage_ok(self) -> bool:
        """The acceptance gate: zero fsync-acknowledged records lost,
        zero torn reports, zero bare OSErrors — anywhere."""
        return self.total_violations() == 0

    def format_table(self) -> str:
        header = (
            f"{'surface':<22s} {'model':<20s} {'syscalls':>8s} "
            f"{'states':>7s} {'sampled-out':>11s} {'violations':>10s}"
        )
        lines = [header, "-" * len(header)]
        for row in self.matrix:
            lines.append(
                f"{row['surface']:<22s} {row['model']:<20s} "
                f"{row['syscalls']:>8d} {row['states_checked']:>7d} "
                f"{row['states_sampled_out']:>11d} "
                f"{len(row['violations']):>10d}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "campaign": "storage",
            "matrix": self.matrix,
            "total_violations": self.total_violations(),
            "storage_ok": self.storage_ok(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1)

    def write(self, path: str = "FAULTS_report.json") -> Path:
        target = Path(path)
        atomic_write_text(target, self.to_json())
        return target


def run_storage_campaign(
    seed: int = 0, max_states: int = 96
) -> StorageCampaignReport:
    """The full matrix: every durability surface under the crash-at-
    every-syscall-prefix sweep plus each non-crash fault model."""
    if OBS.enabled:
        # Pre-register the storage families so even a clean sweep
        # exposes them (an absent family reads as a skipped leg).
        OBS.registry.counter(
            "storage.injected_faults",
            "storage-fault syscall injections fired",
        )
        OBS.registry.counter(
            "cache.corrupt_entries",
            "disk-cache entries that failed validation and were "
            "quarantined",
        )
    report = StorageCampaignReport(
        config={
            "campaign": "storage",
            "seed": seed,
            "max_states": max_states,
            "surfaces": [surface.name for surface in _surfaces(seed)],
            "models": [CRASH_MODEL, *SYSCALL_MODELS],
        }
    )
    for surface in _surfaces(seed):
        report.matrix.append(
            _sweep_crash_prefixes(surface, seed=seed, max_states=max_states)
        )
        if not surface.syscall_sweep:
            continue
        for model in SYSCALL_MODELS:
            report.matrix.append(
                _sweep_syscall_faults(surface, model, seed=seed)
            )
    return report


def storage_report_problems(data: dict) -> list[str]:
    """CI-gate parser for a written storage report: structural checks
    plus the zero-violation guarantee (a vacuous or truncated report
    also fails)."""
    problems: list[str] = []
    if not isinstance(data, dict) or data.get("campaign") != "storage":
        return ["not a storage campaign report"]
    matrix = data.get("matrix")
    if not isinstance(matrix, list) or not matrix:
        return ["storage report has an empty matrix"]
    surfaces = {row.get("surface") for row in matrix}
    for required in ("wal_append", "atomic_write", "cache_put"):
        if required not in surfaces:
            problems.append(f"surface {required!r} missing from the matrix")
    crash_rows = [row for row in matrix if row.get("model") == CRASH_MODEL]
    if not crash_rows:
        problems.append("no crash-every-prefix rows in the matrix")
    for row in matrix:
        if row.get("model") == CRASH_MODEL and row.get("states_checked", 0) == 0:
            problems.append(
                f"{row.get('surface')}: crash sweep checked zero states"
            )
        for violation in row.get("violations", []):
            problems.append(
                f"{row.get('surface')}/{row.get('model')}: "
                f"{violation.get('problem')}"
            )
    if not data.get("storage_ok") and not problems:
        problems.append("storage_ok is false but no violations listed")
    return problems
