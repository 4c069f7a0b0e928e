"""Structured exception hierarchy for the whole reproduction.

Every error the decode/deploy path can raise derives from
:class:`ReproError`, so callers (the flow, the loader, the
fault-injection campaign) can distinguish *detected* faults from
genuine programming bugs with one ``except`` clause.  Each concrete
class additionally subclasses the builtin its call sites historically
raised (``RuntimeError`` / ``ValueError``), so pre-existing handlers
keep working.

The hierarchy:

``ReproError``
    ``DecodeFault``             fetch stream violates the decode protocol
    ``TableIntegrityError``     TT/BBIT read fails a parity or bounds check
    ``BundleFormatError``       firmware bundle fails load-time validation
    ``DecodeVerificationError`` replayed decode did not restore the image
    ``EncodingError``           encoder-internal invariant violated
    ``SchemeTagError``          mixed-scheme region tag unknown/undecodable
    ``CampaignError``           fault-injection campaign misconfigured
    ``TableCapacityError``      table programming exceeds physical entries
    ``VerifyError``             verification campaign misconfigured
    ``StorageError``            a durability syscall failed
        ``StorageWriteError``       write returned EIO / short
        ``StorageSyncError``        fsync or flush failed (ack unsafe)
        ``StorageFullError``        ENOSPC anywhere on the write path
        ``StorageReplaceError``     atomic rename / unlink failed
"""

from __future__ import annotations

import errno as _errno


class ReproError(Exception):
    """Base class for every structured error in :mod:`repro`."""


class DecodeFault(ReproError, RuntimeError):
    """The fetch stream violates the decode protocol, e.g. jumping
    into the middle of an encoded basic block, or a trace ending while
    a block is still being decoded."""


class TableIntegrityError(ReproError, RuntimeError):
    """A TT or BBIT read failed an integrity check: the entry's parity
    word does not match its contents, or an index walked outside the
    table's populated range."""


class BundleFormatError(ReproError, ValueError):
    """A firmware bundle failed load-time validation (bad JSON,
    unsupported version, digest mismatch, dangling BBIT->TT reference,
    out-of-range words, ...)."""


class DecodeVerificationError(ReproError, RuntimeError):
    """The post-encode hardware replay failed to restore the original
    instruction stream bit-exactly."""


class EncodingError(ReproError, RuntimeError):
    """An encoder-internal invariant was violated (e.g. no feasible
    code word although identity is always feasible)."""


class SchemeTagError(ReproError, RuntimeError):
    """A mixed-scheme bundle region carries a scheme tag the fetch
    path cannot honour: the tag names no registered encoder backend
    (corruption, or a bundle built by a newer toolchain).  Strict-mode
    decoders raise this; recover-mode decoders fall back to the
    golden bundle for the tagged region."""


class CampaignError(ReproError, RuntimeError):
    """The fault-injection campaign was misconfigured or could not
    prepare its deployment target."""


class TableCapacityError(ReproError, ValueError):
    """Raised when a load exceeds the table's physical entry count."""


class VerifyError(ReproError, RuntimeError):
    """The differential verification campaign was misconfigured (an
    unknown mutation, an unreplayable counterexample, ...).  Actual
    divergences are never raised — they are recorded as
    counterexamples and reported."""


class StorageError(ReproError, OSError):
    """A durability syscall (write/flush/fsync/replace/unlink) on one
    of the storage surfaces — the WAL, an atomic report write, the
    bundle disk cache — failed.

    Dual-inherits :class:`OSError` so every pre-existing ``except
    OSError`` degradation path (the bundle cache) keeps working, while
    new callers can route on the typed subclass (``repro serve``
    degrades on :class:`StorageFullError` and nothing else).
    ``errno`` is preserved from the underlying failure when there is
    one."""

    def __init__(self, message: str, errno: int | None = None):
        super().__init__(message)
        if errno is not None:
            self.errno = errno


class StorageWriteError(StorageError):
    """A data write failed (EIO, short write, torn append)."""


class StorageSyncError(StorageError):
    """``fsync``/``flush`` failed.  Per POSIX the page-cache state is
    now *unknowable* — a caller must treat any data written since the
    last successful sync as lost, never retry the sync and call the
    data durable."""


class StorageFullError(StorageError):
    """The device is out of space (ENOSPC/EDQUOT).  The one storage
    failure that is expected to *clear on its own*, so callers may
    degrade and re-arm instead of dying."""


class StorageReplaceError(StorageError):
    """``os.replace``/``os.unlink`` on a durability surface failed;
    the destination still holds its complete previous content."""


def storage_error_for(err: OSError, op: str, path: object) -> StorageError:
    """Map a raw :class:`OSError` from a durability syscall to the
    matching typed :class:`StorageError` (cause preserved by the
    caller's ``raise ... from err``)."""
    code = err.errno
    message = f"storage {op} failed for {path}: {err}"
    if code in (_errno.ENOSPC, _errno.EDQUOT):
        return StorageFullError(message, errno=code)
    if op in ("fsync", "flush"):
        return StorageSyncError(message, errno=code)
    if op in ("replace", "unlink"):
        return StorageReplaceError(message, errno=code)
    return StorageWriteError(message, errno=code)
