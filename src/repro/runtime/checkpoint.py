"""Write-ahead checkpointing and atomic artifact writes.

Two failure modes killed long campaigns before this module existed:

* a mid-run SIGKILL threw away every completed case, and
* a crash *during* ``Path.write_text`` of a report left a truncated
  JSON file that downstream tooling then choked on.

:func:`atomic_write_text` fixes the second: the content goes to a
temporary file in the destination directory, is flushed and fsynced,
and only then renamed over the target with ``os.replace`` — so the
artifact is always either the complete old version or the complete
new one.

:class:`CheckpointLog` fixes the first with the standard
write-ahead-log shape: one JSON line per completed unit of work,
fsynced on append.  On resume the log is replayed (tolerating a
truncated final line, the expected artifact of dying mid-append) and
completed keys are skipped.  The log is keyed by a ``run_key`` derived
from the campaign configuration, so a resume with a *different*
configuration refuses to mix results.

Every durability syscall both of them issue goes through the storage
VFS (:mod:`repro.runtime.storage_faults`), so the fault-injection
layer and the crash-consistency checker see each one; raw ``OSError``
failures are re-raised as the typed
:class:`~repro.errors.StorageError` hierarchy at this boundary, so no
bare ``OSError`` ever escapes to callers (a
:class:`~repro.runtime.storage_faults.SimulatedCrash` passes through
untouched — dead processes don't raise nicely).
"""

from __future__ import annotations

import json
import os
import weakref
from pathlib import Path

from repro.errors import ReproError, StorageError, storage_error_for
from repro.obs import OBS
from repro.runtime.storage_faults import SimulatedCrash, StorageVFS, get_vfs


class CheckpointMismatchError(ReproError):
    """Resume attempted against a WAL from a different run config."""


class CheckpointLockError(ReproError):
    """A second writer tried to append to an already-locked WAL.

    Two writers interleaving records on one log would corrupt the
    replay silently (each believes every record is its own), so the
    first append takes an exclusive advisory lock on the file and any
    other opener fails loudly instead."""


def atomic_write_text(
    path: Path | str, content: str, vfs: StorageVFS | None = None
) -> None:
    """Crash-safe replacement for ``Path.write_text``.

    Writes to a temp file in the same directory (same filesystem, so
    the rename is atomic), fsyncs it, then ``os.replace``\\ s it over
    ``path``.  Readers never observe a partial file; a failure at any
    syscall raises a typed :class:`~repro.errors.StorageError` and
    leaves the previous complete content in place.
    """
    path = Path(path)
    vfs = vfs or get_vfs()
    op = "open"
    tmp_name = None
    try:
        vfs.mkdirs(path.parent)
        handle, tmp_name = vfs.mkstemp(
            dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
        )
        try:
            op = "write"
            vfs.write(handle, content.encode("utf-8"))
            op = "fsync"
            vfs.fsync(handle)
        finally:
            try:
                vfs.close(handle)
            except OSError:  # the close of a failed handle is best-effort
                pass
        op = "replace"
        vfs.replace(tmp_name, path)
    except SimulatedCrash:
        # A "dead" process performs no cleanup: the checker must see
        # exactly the state a real kill leaves behind (the orphan tmp
        # file included).
        raise
    except OSError as err:
        if tmp_name is not None:
            try:
                vfs.unlink(tmp_name)
            except OSError:
                pass
        if isinstance(err, StorageError):
            raise
        raise storage_error_for(err, op, path) from err


class CheckpointLog:
    """JSONL write-ahead log of completed work units.

    Record shape: the first line is a header ``{"run_key": ...}``;
    every subsequent line is ``{"key": <case key>, "result": <dict>}``.
    Appends are fsynced so a completed case survives any subsequent
    kill; a half-written trailing line (the signature of dying
    mid-append) is ignored on load.
    """

    def __init__(
        self,
        path: Path | str,
        run_key: str,
        vfs: StorageVFS | None = None,
    ):
        self.path = Path(path)
        self.run_key = run_key
        self.completed: dict[str, dict] = {}
        self._handle = None
        self._vfs_override = vfs
        self._vfs: StorageVFS | None = None
        #: Set when an append died partway: the on-disk tail may hold
        #: a torn line that must be newline-terminated before the next
        #: record, or the replay would glue them together.
        self._tail_dirty = False
        #: Set when the header line is still owed (a fresh log whose
        #: header append failed): it must land before any record, or
        #: the replay would mistake the first record for the header.
        self._needs_header = False

    @classmethod
    def open_run(
        cls, path: Path | str, run_key: str, resume: bool
    ) -> tuple["CheckpointLog", dict[str, dict]]:
        """Open a run's WAL: ``(log, completed)``.  A fresh run
        discards any log at ``path`` (appending under another run's
        header would poison the next resume); a resume replays it.

        Raises :class:`CheckpointLockError` when a live writer still
        holds the log: discarding it would silently orphan that
        writer's journal."""
        log = cls(path, run_key=run_key)
        if resume:
            return log, log.load()
        if log.vfs.exists(log.path):
            log._discard()
        return log, {}

    def _discard(self) -> None:
        """Unlink the log at :attr:`path`, holding its lock meanwhile
        so a log another writer owns is refused, not deleted."""
        vfs = self.vfs
        try:
            handle = vfs.open_append(self.path)
        except SimulatedCrash:
            raise
        except OSError as err:
            raise storage_error_for(err, "open", self.path) from err
        self._lock(handle)
        try:
            vfs.unlink(self.path)
        except SimulatedCrash:
            raise
        except OSError as err:
            if isinstance(err, StorageError):
                raise
            raise storage_error_for(err, "unlink", self.path) from err
        finally:
            try:
                vfs.close(handle)
            except OSError:
                pass

    def _lock(self, handle) -> None:
        """Take the exclusive WAL lock on ``handle``; on contention
        close it and raise :class:`CheckpointLockError`."""
        try:
            self.vfs.lock_exclusive(handle)
        except OSError:
            try:
                self.vfs.close(handle)
            except OSError:
                pass
            raise CheckpointLockError(
                f"checkpoint log {self.path} is already locked by "
                "another writer; two writers on one WAL would "
                "interleave records (resume the existing run or "
                "point this one at its own --wal path)"
            ) from None

    @property
    def vfs(self) -> StorageVFS:
        """The VFS this log runs on: pinned at first open so one log
        never mixes handle types, resolved late so env/test installs
        are honoured."""
        if self._vfs is None:
            self._vfs = self._vfs_override or get_vfs()
        return self._vfs

    # -- loading -------------------------------------------------------

    def load(self) -> dict[str, dict]:
        """Replay the log (if it exists) into :attr:`completed`.

        Raises :class:`CheckpointMismatchError` when the log belongs
        to a different run configuration."""
        self.completed = {}
        if not self.vfs.exists(self.path):
            return self.completed
        # Bytes, not text: a torn tail can end mid-way through a
        # multi-byte UTF-8 character, which a text-mode read would
        # refuse to decode at all.
        lines = self.vfs.read_bytes(self.path).split(b"\n")
        header_seen = False
        for raw in lines:
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                # Truncated or torn line — the tail of a killed append.
                continue
            if not isinstance(record, dict):
                # Valid JSON but not a record (torn bytes that happen
                # to parse, e.g. a bare number): not ours, skip it.
                continue
            if not header_seen:
                header_seen = True
                logged_key = record.get("run_key")
                if logged_key != self.run_key:
                    raise CheckpointMismatchError(
                        f"checkpoint log {self.path} belongs to run "
                        f"{logged_key!r}, not {self.run_key!r}; refusing "
                        "to mix results (delete it to start over)"
                    )
                continue
            key = record.get("key")
            if isinstance(key, str):
                self.completed[key] = record.get("result", {})
        if OBS.enabled and self.completed:
            OBS.registry.counter(
                "runtime.checkpoint_replayed",
                "completed cases skipped thanks to a WAL replay",
            ).inc(len(self.completed))
        return self.completed

    # -- appending -----------------------------------------------------

    def open_for_append(self) -> None:
        """Eagerly take the WAL lock (normally taken lazily by the
        first :meth:`record`), so a process that must not share the
        log — a resumed server — fails fast at startup instead of
        mid-dispatch."""
        self._ensure_open()

    def _ensure_open(self) -> None:
        if self._handle is not None:
            return
        vfs = self.vfs
        op = "open"
        try:
            vfs.mkdirs(self.path.parent)
            # The lock must be taken *before* the torn-tail repair
            # below: two writers racing that repair could each append
            # a newline.  flock is per open file description, so a
            # second CheckpointLog in the same process conflicts just
            # like one in another process.
            lock_handle = vfs.open_append(self.path)
        except SimulatedCrash:
            raise
        except OSError as err:
            raise storage_error_for(err, op, self.path) from err
        self._lock(lock_handle)
        try:
            fresh = vfs.size(self.path) == 0
            if not fresh:
                # A torn tail means the file doesn't end in a newline;
                # a plain append would glue the next record onto the
                # torn bytes and lose it on replay.  Terminate first.
                if vfs.tail_byte(self.path) != b"\n":
                    op = "write"
                    vfs.write(lock_handle, b"\n")
                    op = "fsync"
                    vfs.fsync(lock_handle)
        except SimulatedCrash:
            raise
        except OSError as err:
            try:
                vfs.close(lock_handle)
            except OSError:
                pass
            if isinstance(err, StorageError):
                raise
            raise storage_error_for(err, op, self.path) from err
        # The locked handle doubles as the append handle (append mode
        # positions every write at EOF, so the repair above is seen).
        self._handle = lock_handle
        _OPEN_LOGS.add(self)
        # "Non-empty" does not mean "has a header": a crash can tear
        # the header line itself, leaving garbage bytes and no header.
        # Appending records to such a file would make the replay
        # mistake the first record for the header — so the header is
        # owed whenever no complete one is on disk.
        if fresh or not self._has_complete_header():
            self._needs_header = True
        if self._needs_header:
            self._append_line({"run_key": self.run_key})
            self._needs_header = False

    def _has_complete_header(self) -> bool:
        """Whether the on-disk log already holds a complete header
        line (the first parseable dict line carrying ``run_key``)."""
        try:
            data = self.vfs.read_bytes(self.path)
        except OSError:
            return False
        for raw in data.split(b"\n"):
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn line — keep scanning
            if isinstance(record, dict):
                # The first parseable dict decides: a header means the
                # log is properly started; anything else means the
                # header is missing and must be re-owed.
                return "run_key" in record
        return False

    def _append_line(self, record: dict) -> None:
        # Key order is preserved (no sort_keys): a replayed result must
        # serialize byte-identically to the freshly computed one, and
        # the caller's dicts are already built in deterministic order.
        vfs = self.vfs
        payload = (
            json.dumps(record, separators=(",", ":")) + "\n"
        ).encode("utf-8")
        op = "write"
        try:
            if self._tail_dirty:
                # A previous append died mid-line: terminate the torn
                # bytes so the replay skips them as one garbage line
                # instead of gluing this record onto them.
                vfs.write(self._handle, b"\n")
                vfs.fsync(self._handle)
                self._tail_dirty = False
            vfs.write(self._handle, payload)
            op = "fsync"
            vfs.fsync(self._handle)
        except SimulatedCrash:
            raise
        except OSError as err:
            # Whatever partial bytes reached the file, the next append
            # must repair the line boundary first.
            self._tail_dirty = True
            if isinstance(err, StorageError):
                raise
            raise storage_error_for(err, op, self.path) from err

    def record(self, key: str, result: dict) -> None:
        """Durably mark one work unit complete.

        Raises a typed :class:`~repro.errors.StorageError` when the
        disk refuses (:class:`~repro.errors.StorageFullError` on
        ENOSPC — the one callers may degrade on); the record is only
        added to :attr:`completed` once the fsync acknowledged it."""
        self._ensure_open()
        if self._needs_header:
            self._append_line({"run_key": self.run_key})
            self._needs_header = False
        self._append_line({"key": key, "result": result})
        self.completed[key] = result
        if OBS.enabled:
            OBS.registry.counter(
                "runtime.checkpoint_appends", "WAL records written"
            ).inc()

    def __contains__(self, key: str) -> bool:
        return key in self.completed

    def close(self) -> None:
        if self._handle is not None:
            handle, self._handle = self._handle, None
            try:
                self.vfs.close(handle)
            except OSError:
                pass
        _OPEN_LOGS.discard(self)

    def __enter__(self) -> "CheckpointLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: Logs currently holding the append lock, so fork children can be
#: scrubbed of them (weak: a dropped log must not be kept alive).
_OPEN_LOGS: "weakref.WeakSet[CheckpointLog]" = weakref.WeakSet()


def _release_inherited_locks() -> None:
    """Drop WAL handles in a freshly forked child.

    ``flock`` belongs to the open file *description*, which fork
    children share — a pool worker that inherits a locked WAL keeps it
    locked even after the parent is SIGKILLed (orphaned workers made a
    resumed server hang on ``CheckpointLockError`` forever).  Closing
    the child's copy leaves the parent as the description's only
    holder, so the lock dies exactly when the parent does."""
    for log in list(_OPEN_LOGS):
        handle, log._handle = log._handle, None
        _OPEN_LOGS.discard(log)
        if handle is not None:
            try:
                handle.close()
            except OSError:  # pragma: no cover - best-effort scrub
                pass


if hasattr(os, "register_at_fork"):  # Unix; a no-op elsewhere
    os.register_at_fork(after_in_child=_release_inherited_locks)
