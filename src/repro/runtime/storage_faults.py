"""Seeded storage-fault injection: the durability-syscall shim.

Every durability surface in the system — the checkpoint WAL, atomic
report writes, the bundle disk cache — used to call ``os``/``io``
directly, which made "the disk never fails" an untested axiom.  This
module turns those call sites into an *injectable* seam:

* :class:`StorageVFS` is the real implementation **and** the
  interface: a thin, syscall-shaped veneer over ``os.open`` /
  ``write`` / ``flush`` / ``fsync`` / ``os.replace`` / ``os.unlink``.
  Handles are ordinary binary file objects.
* :class:`FaultyVFS` wraps any VFS with a seeded :class:`FaultPlan`
  and injects the fault models a hostile filesystem actually
  produces: ``EIO`` on write or fsync, ``ENOSPC`` mid-write (a seeded
  prefix lands, then the device is full), torn appends (a seeded
  strict prefix lands and the process "dies" —
  :class:`SimulatedCrash`), and crash-before / crash-after
  ``os.replace``.
* the process-global active VFS (:func:`get_vfs` /
  :func:`install_vfs` / :func:`active_vfs`) is what
  ``atomic_write_text``, :class:`~repro.runtime.CheckpointLog`, the
  bundle cache default to, so one
  ``install_vfs(FaultyVFS(...))`` — or the ``REPRO_STORAGE_FAULTS``
  environment spec, for subprocess tests — puts the whole process's
  storage plane under fault injection.

Injected syscall failures are raised as plain :class:`OSError` with a
real ``errno`` — exactly what the kernel would hand back — and the
durability layers above translate them into the typed
:class:`~repro.errors.StorageError` hierarchy at their API boundary.
:class:`SimulatedCrash` derives from :class:`BaseException` so no
``except Exception`` recovery path can accidentally "survive" a kill.
"""

from __future__ import annotations

import errno
import os
import random
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

try:  # Unix only; Windows falls back to unlocked appends.
    import fcntl
except ImportError:  # pragma: no cover - non-Unix platforms
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "ENV_SPEC",
    "FaultPlan",
    "FaultSpec",
    "FaultyVFS",
    "SimulatedCrash",
    "StorageVFS",
    "active_vfs",
    "get_vfs",
    "install_vfs",
    "plan_from_spec",
]

#: Environment variable holding a fault-plan spec; when set, the first
#: :func:`get_vfs` call of the process arms a :class:`FaultyVFS` (this
#: is how subprocess / CI scenarios inject without code changes).
ENV_SPEC = "REPRO_STORAGE_FAULTS"

#: Fault kinds a :class:`FaultSpec` may name.
FAULT_KINDS = (
    "eio",          # the syscall fails with EIO, nothing (more) written
    "enospc",       # a seeded prefix lands, then ENOSPC
    "torn",         # a seeded strict prefix lands, then SimulatedCrash
    "crash",        # SimulatedCrash before the syscall runs
    "crash-after",  # the syscall runs to completion, then SimulatedCrash
)

#: Ops a spec may target (``any`` matches every durability op).
FAULT_OPS = (
    "open", "write", "flush", "fsync", "replace", "unlink", "any",
)


class SimulatedCrash(BaseException):
    """The process 'died' at an injected syscall point.

    A ``BaseException`` on purpose: recovery code that swallows broad
    ``Exception``\\ s must not be able to swallow a kill — the test
    harness catches this explicitly, nothing else may."""


class StorageVFS:
    """The real durability syscalls; also the interface fault shims
    and the in-memory crash simulator implement.

    Handles are binary file objects (``mkstemp``/``open_append``
    return them); every byte-level op goes through the methods here so
    a wrapper sees each syscall exactly once.
    """

    name = "real"

    # -- handle-producing ----------------------------------------------

    def mkstemp(self, dir: Path | str, prefix: str, suffix: str):
        """A fresh temp file opened for binary write: (handle, name)."""
        fd, name = tempfile.mkstemp(dir=str(dir), prefix=prefix, suffix=suffix)
        return os.fdopen(fd, "wb"), name

    def open_append(self, path: Path | str):
        """The path opened for binary append (created if missing)."""
        return open(path, "ab")

    # -- handle ops ----------------------------------------------------

    def write(self, handle, data: bytes) -> None:
        handle.write(data)

    def flush(self, handle) -> None:
        handle.flush()

    def fsync(self, handle) -> None:
        handle.flush()
        os.fsync(handle.fileno())

    def close(self, handle) -> None:
        handle.close()

    def lock_exclusive(self, handle) -> bool:
        """Take a non-blocking exclusive ``flock``; ``False`` when the
        platform has no flock, raises ``OSError`` when already held."""
        if fcntl is None:  # pragma: no cover - non-Unix platforms
            return False
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        return True

    # -- namespace ops -------------------------------------------------

    def replace(self, src: Path | str, dst: Path | str) -> None:
        os.replace(src, dst)

    def unlink(self, path: Path | str) -> None:
        os.unlink(path)

    def mkdirs(self, path: Path | str) -> None:
        Path(path).mkdir(parents=True, exist_ok=True)

    # -- read / metadata side (not fault targets; routed so an
    # -- in-memory VFS works end-to-end) -------------------------------

    def exists(self, path: Path | str) -> bool:
        return Path(path).exists()

    def size(self, path: Path | str) -> int:
        return os.stat(path).st_size

    def tail_byte(self, path: Path | str) -> bytes:
        """The final byte of the file (empty bytes for an empty file)."""
        with open(path, "rb") as handle:
            handle.seek(0, os.SEEK_END)
            if handle.tell() == 0:
                return b""
            handle.seek(-1, os.SEEK_END)
            return handle.read(1)

    def read_bytes(self, path: Path | str) -> bytes:
        return Path(path).read_bytes()


@dataclass
class FaultSpec:
    """One injection rule: fire ``kind`` at the ``at``-th matching
    durability syscall (0-based, counted per spec), or at every
    matching syscall when ``always`` is set (the "disk stays broken
    until space returns" model ``repro serve`` degrades under)."""

    op: str = "any"
    kind: str = "eio"
    #: Only syscalls whose path contains this substring match
    #: (``None`` matches everything) — so a plan can break the WAL
    #: without breaking the metrics report written next to it.
    path: str | None = None
    at: int | None = None
    always: bool = False

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; one of {FAULT_KINDS}"
            )
        if self.op not in FAULT_OPS:
            raise ValueError(
                f"unknown fault op {self.op!r}; one of {FAULT_OPS}"
            )
        if not self.always and self.at is None:
            self.at = 0

    def matches(self, op: str, path: str) -> bool:
        if self.op != "any" and self.op != op:
            return False
        return self.path is None or self.path in path


@dataclass
class FaultPlan:
    """A seeded set of :class:`FaultSpec` rules plus the mutable state
    tracking which have fired.  ``disarm()`` models the environment
    healing (space freed, controller reseated): subsequent syscalls
    run clean."""

    specs: list[FaultSpec] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self) -> None:
        self.armed = True
        self.fired: list[dict] = []
        self._match_counts: dict[int, int] = {}

    def disarm(self) -> None:
        self.armed = False

    def rearm(self) -> None:
        self.armed = True

    def pick(self, op: str, path: str) -> FaultSpec | None:
        """The spec (if any) that fires for this syscall; advances the
        per-spec match counters either way."""
        if not self.armed:
            return None
        for index, spec in enumerate(self.specs):
            if not spec.matches(op, path):
                continue
            count = self._match_counts.get(index, 0)
            self._match_counts[index] = count + 1
            if spec.always or count == spec.at:
                self.fired.append(
                    {"op": op, "kind": spec.kind, "path": path, "n": count}
                )
                return spec
        return None

    def rng_for(self, op: str) -> random.Random:
        """A deterministic RNG for sizing torn/ENOSPC prefixes, keyed
        by seed and how many faults have fired so far."""
        # A string seed: random.Random seeds strings via a stable hash
        # (unlike builtin hash(), which PYTHONHASHSEED randomises).
        return random.Random(f"{self.seed}:{op}:{len(self.fired)}")


class FaultyVFS(StorageVFS):
    """A :class:`StorageVFS` that consults a :class:`FaultPlan` before
    every durability syscall and injects the planned failures."""

    name = "faulty"

    def __init__(self, plan: FaultPlan, inner: StorageVFS | None = None):
        self.plan = plan
        self.inner = inner or StorageVFS()
        #: (handle -> path) so handle-level ops can path-match.
        self._paths: dict[int, str] = {}

    # -- bookkeeping ---------------------------------------------------

    def _track(self, handle, path: Path | str):
        self._paths[id(handle)] = str(path)
        return handle

    def _path_of(self, handle) -> str:
        return self._paths.get(id(handle), "")

    def _count_injected(self, op: str, kind: str) -> None:
        from repro.obs import OBS

        if OBS.enabled:
            OBS.registry.counter(
                "storage.injected_faults",
                "storage-fault syscall injections fired",
                op=op,
                kind=kind,
            ).inc()

    def _check(self, op: str, path: str) -> FaultSpec | None:
        spec = self.plan.pick(op, path)
        if spec is not None:
            self._count_injected(op, spec.kind)
            if spec.kind == "crash":
                raise SimulatedCrash(f"injected crash before {op} on {path}")
            if spec.kind == "eio":
                raise OSError(errno.EIO, f"injected EIO on {op}", path)
        return spec

    def _after(self, spec: FaultSpec | None, op: str, path: str) -> None:
        if spec is not None and spec.kind == "crash-after":
            raise SimulatedCrash(f"injected crash after {op} on {path}")

    # -- handle-producing ----------------------------------------------

    def mkstemp(self, dir: Path | str, prefix: str, suffix: str):
        probe = str(Path(dir) / f"{prefix}*{suffix}")
        spec = self._check("open", probe)
        if spec is not None and spec.kind == "enospc":
            raise OSError(errno.ENOSPC, "injected ENOSPC on open", probe)
        handle, name = self.inner.mkstemp(dir, prefix, suffix)
        self._after(spec, "open", name)
        return self._track(handle, name), name

    def open_append(self, path: Path | str):
        spec = self._check("open", str(path))
        if spec is not None and spec.kind == "enospc":
            raise OSError(errno.ENOSPC, "injected ENOSPC on open", str(path))
        handle = self.inner.open_append(path)
        self._after(spec, "open", str(path))
        return self._track(handle, path)

    # -- handle ops ----------------------------------------------------

    def write(self, handle, data: bytes) -> None:
        path = self._path_of(handle)
        spec = self._check("write", path)
        if spec is None:
            self.inner.write(handle, data)
            return
        if spec.kind in ("enospc", "torn"):
            # A seeded prefix reaches the page cache before the
            # failure: torn cuts at a strict prefix (crash artifact),
            # ENOSPC may land anything short of the full buffer.
            rng = self.plan.rng_for("write")
            cut = rng.randrange(len(data)) if data else 0
            if cut:
                self.inner.write(handle, data[:cut])
                self.inner.flush(handle)
            if spec.kind == "torn":
                raise SimulatedCrash(
                    f"injected torn append ({cut}/{len(data)} bytes) on {path}"
                )
            raise OSError(
                errno.ENOSPC,
                f"injected ENOSPC mid-write ({cut}/{len(data)} bytes)",
                path,
            )
        self.inner.write(handle, data)
        self._after(spec, "write", path)

    def flush(self, handle) -> None:
        path = self._path_of(handle)
        spec = self._check("flush", path)
        if spec is not None and spec.kind == "enospc":
            raise OSError(errno.ENOSPC, "injected ENOSPC on flush", path)
        self.inner.flush(handle)
        self._after(spec, "flush", path)

    def fsync(self, handle) -> None:
        path = self._path_of(handle)
        spec = self._check("fsync", path)
        if spec is not None and spec.kind == "enospc":
            # Delayed allocation: the writes "succeeded" into cache,
            # the device ran out when fsync forced real blocks.
            raise OSError(errno.ENOSPC, "injected ENOSPC on fsync", path)
        if spec is not None and spec.kind == "torn":
            raise OSError(errno.EIO, "injected EIO on fsync", path)
        self.inner.fsync(handle)
        self._after(spec, "fsync", path)

    def close(self, handle) -> None:
        self._paths.pop(id(handle), None)
        self.inner.close(handle)

    def lock_exclusive(self, handle) -> bool:
        return self.inner.lock_exclusive(handle)

    # -- namespace ops -------------------------------------------------

    def replace(self, src: Path | str, dst: Path | str) -> None:
        spec = self._check("replace", str(dst))
        if spec is not None and spec.kind in ("enospc", "torn"):
            raise OSError(errno.EIO, "injected failure on replace", str(dst))
        self.inner.replace(src, dst)
        self._after(spec, "replace", str(dst))

    def unlink(self, path: Path | str) -> None:
        spec = self._check("unlink", str(path))
        if spec is not None and spec.kind in ("enospc", "torn"):
            raise OSError(errno.EIO, "injected failure on unlink", str(path))
        self.inner.unlink(path)
        self._after(spec, "unlink", str(path))

    # -- reads delegate untouched --------------------------------------

    def mkdirs(self, path: Path | str) -> None:
        self.inner.mkdirs(path)

    def exists(self, path: Path | str) -> bool:
        return self.inner.exists(path)

    def size(self, path: Path | str) -> int:
        return self.inner.size(path)

    def tail_byte(self, path: Path | str) -> bytes:
        return self.inner.tail_byte(path)

    def read_bytes(self, path: Path | str) -> bytes:
        return self.inner.read_bytes(path)


# ----------------------------------------------------------------------
# The process-global active VFS
# ----------------------------------------------------------------------

_DEFAULT = StorageVFS()
_active: StorageVFS | None = None
_env_checked = False


def get_vfs() -> StorageVFS:
    """The VFS every durability surface defaults to.

    Resolution order: an explicitly installed VFS, else a
    ``REPRO_STORAGE_FAULTS`` plan from the environment (checked once
    per process — that is how subprocess scenarios arm injection),
    else the real syscalls."""
    global _active, _env_checked
    if _active is not None:
        return _active
    if not _env_checked:
        _env_checked = True
        spec = os.environ.get(ENV_SPEC)
        if spec:
            _active = FaultyVFS(plan_from_spec(spec))
            return _active
    return _DEFAULT


def install_vfs(vfs: StorageVFS | None) -> None:
    """Install (or with ``None`` remove) the process-global VFS."""
    global _active
    _active = vfs


class active_vfs:
    """``with active_vfs(FaultyVFS(plan)): ...`` — scoped install."""

    def __init__(self, vfs: StorageVFS | None):
        self.vfs = vfs
        self._previous: StorageVFS | None = None

    def __enter__(self) -> StorageVFS | None:
        global _active
        self._previous = _active
        _active = self.vfs
        return self.vfs

    def __exit__(self, *exc_info) -> None:
        global _active
        _active = self._previous


def plan_from_spec(text: str) -> FaultPlan:
    """Parse a ``REPRO_STORAGE_FAULTS`` spec into a :class:`FaultPlan`.

    Format: ``;``-separated pieces; a bare ``seed=N`` piece sets the
    plan seed, every other piece is ``key=value`` pairs joined by
    ``,`` naming a :class:`FaultSpec`, e.g.::

        seed=3;op=write,kind=torn,path=camp.wal,at=17
    """
    plan = FaultPlan(seed=0)
    for piece in text.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        pairs = {}
        for item in piece.split(","):
            if "=" not in item:
                raise ValueError(
                    f"bad {ENV_SPEC} piece {piece!r}: {item!r} is not "
                    "key=value"
                )
            key, _, value = item.partition("=")
            pairs[key.strip()] = value.strip()
        if set(pairs) == {"seed"}:
            plan.seed = int(pairs["seed"])
            continue
        plan.specs.append(
            FaultSpec(
                op=pairs.get("op", "any"),
                kind=pairs.get("kind", "eio"),
                path=pairs.get("path"),
                at=int(pairs["at"]) if "at" in pairs else None,
                always=pairs.get("always", "").lower()
                in ("1", "true", "yes"),
            )
        )
    return plan
