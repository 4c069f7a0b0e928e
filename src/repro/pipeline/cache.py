"""Memoized codebook/bundle cache for the encoding service.

The serve front-end fields many jobs that differ only in tenant and
job id: the *computation* is keyed by ``(workload-hash, block size,
TT capacity, strategy)`` and is a pure function of that key, so a
bounded LRU over finished results turns repeat jobs into dictionary
lookups.  Two layers:

* an in-memory LRU (:class:`BundleCache`) each codec worker process
  owns privately, and
* an optional on-disk mirror (``cache_dir``) written atomically —
  freshly forked workers (including a pool rebuilt after a crash)
  warm-start from it, and a restarted server does not recompute what
  the previous incarnation already paid for.

Entries are JSON dicts (a job result payload, including the bundle
digests) — deliberately the *deterministic* representation, so a
cache hit is byte-for-byte the result a cold compute would produce.

The disk mirror is *untrusted*: every on-disk entry carries a content
digest, verified on load.  A corrupt or truncated file (bit rot, a
torn write from a pre-hardening build, a hostile crash) is
**quarantined** — renamed to ``<entry>.bad`` so it is never re-read
and an operator can autopsy it — counted on ``cache.corrupt_entries``,
and served as a miss so the caller recomputes.  A cache that can
poison or crash the service is worse than no cache.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from pathlib import Path

from repro.obs import OBS
from repro.runtime import atomic_write_text
from repro.runtime.storage_faults import StorageVFS, get_vfs

#: On-disk entry envelope version (v2 added the content digest; v3
#: retires entries whose optimal-strategy bundles held greedy TT rows).
DISK_FORMAT_VERSION = 3


def workload_fingerprint(words: list[int]) -> str:
    """Stable identity of an assembled program image (the
    ``workload-hash`` half of a cache key)."""
    payload = b"".join(w.to_bytes(4, "little") for w in words)
    return hashlib.sha256(payload).hexdigest()[:16]


def cache_key(
    workload_hash: str, block_size: int, tt_capacity: int, strategy: str
) -> str:
    """The canonical cache key: every parameter that changes the
    encoded artefact, nothing that does not."""
    return f"{workload_hash}-k{block_size}-tt{tt_capacity}-{strategy}"


def entry_digest(entry: dict) -> str:
    """Content digest of one cache entry (canonical JSON, so the
    digest is independent of the writer's key order)."""
    canonical = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class BundleCache:
    """Bounded LRU of finished encode results with a disk mirror.

    ``get``/``put`` never raise on disk trouble: a cache that can take
    a service down is worse than no cache, so I/O failures degrade to
    a miss (and a counter) instead of an exception, and entries that
    fail their digest are quarantined instead of served.
    """

    def __init__(
        self,
        capacity: int = 64,
        cache_dir: str | Path | None = None,
        vfs: StorageVFS | None = None,
    ):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._vfs = vfs
        self._entries: OrderedDict[str, dict] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.disk_loads = 0
        self.corrupt_entries = 0
        self.disk_errors = 0
        if self.cache_dir is not None:
            try:
                self.vfs.mkdirs(self.cache_dir)
            except OSError:
                # An unwritable cache dir degrades to memory-only.
                self.cache_dir = None

    @property
    def vfs(self) -> StorageVFS:
        return self._vfs or get_vfs()

    # ------------------------------------------------------------------

    def _disk_path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.json"

    def _count(self, name: str, help_: str) -> None:
        if OBS.enabled:
            OBS.registry.counter(name, help_).inc()

    def _quarantine(self, path: Path, why: str) -> None:
        """Move a bad entry aside (``*.bad``) so it is never re-read;
        best-effort — an unrenamable file is simply left to keep
        failing its digest."""
        self.corrupt_entries += 1
        self._count(
            "cache.corrupt_entries",
            "disk-cache entries that failed validation and were "
            "quarantined",
        )
        try:
            self.vfs.replace(path, path.with_suffix(path.suffix + ".bad"))
        except OSError:
            self.disk_errors += 1
            self._count(
                "cache.disk_errors", "bundle-cache disk operations that failed"
            )

    def _load_disk(self, key: str) -> dict | None:
        """Read + verify one disk entry; quarantines on any failure."""
        path = self._disk_path(key)
        try:
            raw = self.vfs.read_bytes(path)
        except OSError:
            # Missing is the common case; other read trouble is a miss.
            return None
        try:
            envelope = json.loads(raw.decode("utf-8", errors="strict"))
        except (ValueError, UnicodeDecodeError):
            self._quarantine(path, "unparseable")
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("v") != DISK_FORMAT_VERSION
            or not isinstance(envelope.get("entry"), dict)
            or not isinstance(envelope.get("digest"), str)
        ):
            self._quarantine(path, "bad envelope")
            return None
        entry = envelope["entry"]
        if entry_digest(entry) != envelope["digest"]:
            self._quarantine(path, "digest mismatch")
            return None
        return entry

    def get(self, key: str) -> dict | None:
        """In-memory hit, else verified disk warm-start, else ``None``."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            self._count("cache.hits", "bundle-cache lookups served from memory")
            return entry
        if self.cache_dir is not None:
            entry = self._load_disk(key)
            if entry is not None:
                self.disk_loads += 1
                self._count(
                    "cache.disk_loads",
                    "bundle-cache entries warm-started from disk",
                )
                self._install(key, entry, write_disk=False)
                return entry
        self.misses += 1
        self._count("cache.misses", "bundle-cache lookups that must compute")
        return None

    def put(self, key: str, entry: dict) -> None:
        self._install(key, entry, write_disk=True)

    def _install(self, key: str, entry: dict, write_disk: bool) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            self._count(
                "cache.evictions", "bundle-cache LRU evictions (memory only)"
            )
        if write_disk and self.cache_dir is not None:
            envelope = {
                "v": DISK_FORMAT_VERSION,
                "digest": entry_digest(entry),
                "entry": entry,
            }
            try:
                # Atomic + deterministic content: concurrent workers
                # writing the same key race benignly (identical bytes).
                atomic_write_text(
                    self._disk_path(key),
                    json.dumps(envelope, separators=(",", ":")) + "\n",
                    vfs=self.vfs,
                )
            except OSError:
                # StorageError included (it IS an OSError): disk
                # trouble must never surface through put().
                self.disk_errors += 1
                self._count(
                    "cache.disk_errors",
                    "bundle-cache disk operations that failed",
                )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def stats(self) -> dict:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_loads": self.disk_loads,
            "corrupt_entries": self.corrupt_entries,
            "disk_errors": self.disk_errors,
        }
