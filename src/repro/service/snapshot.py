"""Versioned on-disk snapshots of the memoization tier.

The paper memoizes within one reconstruction; the service layer makes the
accumulated state *outlive* the process, because recurrence across jobs
(repeated scans of near-identical samples — IC inspection being the
motivating workload) is even stronger than recurrence across iterations.
This module is the persistence boundary: every stateful component exposes a
``state_dict()`` / ``from_state()`` hook pair (ANN indexes, key-value
stores, the memoization database, shard router, executors, the CNN key
encoder), and a snapshot is such a state tree in **one file**:

```
<path>/
  snapshot.mlr    header | payload

  header   magic (8s) | version (u16) | kind (32s, NUL-padded utf-8)
           | payload length (u64) | SHA-256 (32s)      little-endian, 82 bytes
  payload  the tree, as repro.kvstore.serialization.encode_tree writes it
```

The payload is the state-tree codec the memo wire already speaks
(:mod:`repro.kvstore.serialization`), so a tree has the same bytes in a
``MSG_SNAP_PUSH`` frame and on disk (format version 4 with wire protocol 3:
the flat memo-state tree of :mod:`repro.core.memo_shard`, one table per
partition; an older version is refused by number, there is no reader for
it), and the disk round trip is
structure-preserving: a tree read back is interchangeable with one taken
live (the scheduler's shared memo service passes live trees;
``MLRConfig(memo_snapshot=...)`` accepts either).  The SHA-256 covers the
header fields before it and every payload byte; format, version, kind,
length and digest are checked — in that order — before a payload byte is
interpreted, so a corrupted or truncated snapshot fails loudly, never
silently degrades hit rates.  One file also means one atomic rename
publishes a snapshot: a save interrupted anywhere leaves the previous
snapshot exactly as it was.

The contract, asserted by the test suite: a database restored from a
snapshot answers ``query`` / ``query_batch`` **bit-identically** to the
live instance that produced it — values, similarities, matched ids and
statistics alike — for every ANN index state (trained, mid-training, empty).
"""

from __future__ import annotations

import hashlib
import logging
import os
import struct

from ..faults import runtime as faults
from ..kvstore.serialization import TreeError, decode_tree, encode_tree
from ..obs import runtime as obs

__all__ = [
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "write_snapshot",
    "read_snapshot",
    "snapshot_exists",
    "quarantine_snapshot",
    "save_memo_snapshot",
    "load_memo_snapshot",
    "load_or_quarantine",
]

log = logging.getLogger("repro.service.snapshot")

#: 3 was the same checksummed file around the per-shard tree with every key
#: stored twice; 1 and 2 were a JSON manifest beside an npz
SNAPSHOT_VERSION = 4

_FILE = "snapshot.mlr"
_LEGACY_MANIFEST = "manifest.json"  # what a version-1/2 directory holds instead
_MAGIC = b"mLRsnap\0"
_PREFIX = struct.Struct("<8sH32sQ")  # magic, version, kind, payload length
_DIGEST_BYTES = hashlib.sha256().digest_size
_HEADER_BYTES = _PREFIX.size + _DIGEST_BYTES


class SnapshotError(RuntimeError):
    """A snapshot is missing, malformed, corrupted, or of the wrong kind."""


def _digest(prefix, payload) -> bytes:
    """SHA-256 over everything in the file but the digest itself."""
    h = hashlib.sha256(prefix)
    h.update(payload)
    return h.digest()


def _write_durable(target: str, raw: bytes) -> None:
    """Crash-safe file publish: write to a unique temp sibling, fsync the
    data, atomically replace, then fsync the directory so the rename itself
    survives power loss.  A crash at any point leaves either the old file
    or no file — never a torn one."""
    directory = os.path.dirname(target) or "."
    tmp = f"{target}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(raw)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    except OSError:  # some filesystems reject directory fsync; best effort
        pass
    finally:
        os.close(dir_fd)


def write_snapshot(path, tree: dict, kind: str) -> dict:
    """Persist one state tree under ``path`` (a directory, created as
    needed); returns the header fields written in front of it."""
    kind_raw = kind.encode("utf-8")
    if not 0 < len(kind_raw) <= 32 or b"\0" in kind_raw:
        raise SnapshotError(f"snapshot kind must be 1-32 bytes, got {kind!r}")
    try:
        payload = encode_tree(tree)
    except TreeError as exc:
        raise SnapshotError(f"state tree cannot be snapshotted: {exc}") from None
    prefix = _PREFIX.pack(_MAGIC, SNAPSHOT_VERSION, kind_raw, len(payload))
    digest = _digest(prefix, payload)
    os.makedirs(path, exist_ok=True)
    # the whole snapshot is one file behind one atomic rename: a save
    # interrupted at any step leaves the previous snapshot untouched, or —
    # on a fresh directory — no file at all, which reads as "no snapshot"
    raw = faults.on_snapshot_write(str(path), prefix + digest + payload)
    _write_durable(os.path.join(path, _FILE), raw)
    return {
        "version": SNAPSHOT_VERSION,
        "kind": kind,
        "nbytes": len(payload),
        "sha256": digest.hex(),
    }


def snapshot_exists(path) -> bool:
    """Whether ``path`` holds something written as a snapshot — of this or
    an older format version (which :func:`read_snapshot` refuses by name)."""
    return any(
        os.path.isfile(os.path.join(path, name)) for name in (_FILE, _LEGACY_MANIFEST)
    )


def read_snapshot(path, expect_kind: str | None = None) -> dict:
    """Load a state tree written by :func:`write_snapshot`.  Format,
    version, kind, length and SHA-256 are verified before the payload is
    decoded, and every way a snapshot can be broken — missing or unreadable
    file, junk, truncation, a flipped bit anywhere, an undecodable or
    over-deep payload — surfaces as :class:`SnapshotError`."""
    target = os.path.join(path, _FILE)
    if not os.path.isfile(target):
        if os.path.isfile(os.path.join(path, _LEGACY_MANIFEST)):
            raise SnapshotError(
                f"unsupported snapshot version at {path!r}: a version-1/2 "
                f"manifest directory (this build reads {SNAPSHOT_VERSION})"
            )
        raise SnapshotError(f"no snapshot at {path!r} (missing {_FILE})")
    try:
        with open(target, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SnapshotError(f"unreadable snapshot at {target!r}: {exc}") from exc
    raw = memoryview(faults.on_snapshot_read(str(path), raw))
    if len(raw) < _HEADER_BYTES:
        raise SnapshotError(
            f"snapshot at {target!r} is truncated inside its header "
            f"({len(raw)} of {_HEADER_BYTES} bytes)"
        )
    magic, version, kind_raw, length = _PREFIX.unpack_from(raw)
    if magic != _MAGIC:
        raise SnapshotError(f"not an mLR snapshot: magic {magic!r} at {target!r}")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot version {version!r} "
            f"(this build reads {SNAPSHOT_VERSION})"
        )
    kind = kind_raw.rstrip(b"\0").decode("utf-8", "replace")
    if expect_kind is not None and kind != expect_kind:
        raise SnapshotError(f"snapshot kind {kind!r}, expected {expect_kind!r}")
    payload = raw[_HEADER_BYTES:]
    if len(payload) != length:
        raise SnapshotError(
            f"snapshot at {target!r} is truncated or padded: holds "
            f"{len(payload)} payload bytes, header declares {length}"
        )
    if _digest(raw[: _PREFIX.size], payload) != raw[_PREFIX.size : _HEADER_BYTES]:
        raise SnapshotError(
            f"snapshot at {target!r} failed its checksum — snapshot corrupted"
        )
    try:
        return decode_tree(payload)
    except TreeError as exc:
        raise SnapshotError(f"undecodable snapshot payload at {target!r}: {exc}") from exc


def quarantine_snapshot(path) -> str | None:
    """Move a corrupt snapshot directory (or file) aside as ``<path>.corrupt``
    so the next boot cold-starts instead of tripping on it again; the evidence
    stays on disk for inspection.  Returns the quarantine path, or ``None``
    when there was nothing to move.  Never raises — quarantine runs on error
    paths where a second failure must not mask the first."""
    path = str(path)
    if not os.path.exists(path):
        return None
    dest = f"{path}.corrupt"
    n = 1
    while os.path.exists(dest):
        n += 1
        dest = f"{path}.corrupt.{n}"
    try:
        os.replace(path, dest)
    except OSError as exc:
        log.warning("could not quarantine snapshot %s: %s", path, exc)
        return None
    log.warning("quarantined corrupt snapshot %s -> %s", path, dest)
    return dest


# -- memoization-tier snapshots ----------------------------------------------------------


def save_memo_snapshot(path, executor) -> dict:
    """Snapshot an executor's whole database tier (every shard's partitions
    through its router).  A trained CNN key encoder rides in the tree
    (``encoder_state``, what warm starts auto-install)."""
    return write_snapshot(path, executor.memo_state(), kind="memo-state")


def load_memo_snapshot(path) -> dict:
    """Read a database-tier state tree back (not yet installed anywhere)."""
    return read_snapshot(path, expect_kind="memo-state")


def load_or_quarantine(path, where: str) -> dict | None:
    """Boot-time warm start: the memo-state tree at ``path``, or ``None``
    after moving an unusable snapshot aside (``<path>.corrupt``).  Warmth
    is an optimization — a damaged snapshot must neither take down the
    process booting from it nor be overwritten by its next save — so the
    failure is counted (``snapshot_quarantined_total{where}``) and logged,
    and the caller starts cold."""
    try:
        return load_memo_snapshot(path)
    except SnapshotError as exc:
        quarantined = quarantine_snapshot(path)
        obs.counter("snapshot_quarantined_total", where=where).inc()
        log.warning(
            "%s: warm-start snapshot %s unusable (%s) — quarantined to %s, "
            "starting cold", where, path, exc, quarantined,
        )
        return None
