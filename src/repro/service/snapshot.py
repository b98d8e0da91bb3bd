"""Versioned on-disk snapshots of the memoization tier.

The paper memoizes within one reconstruction; the service layer makes the
accumulated state *outlive* the process, because recurrence across jobs
(repeated scans of near-identical samples — IC inspection being the
motivating workload) is even stronger than recurrence across iterations.
This module is the persistence boundary: every stateful component exposes a
``state_dict()`` / ``from_state()`` hook pair (ANN indexes, key-value
stores, the memoization database, shard router, executors, the CNN key
encoder), and the functions here package those state trees into a durable
directory format:

```
<path>/
  manifest.json   format tag, version, kind, per-array dtype/shape metadata
                  and SHA-256 content checksums, and the structural tree
  arrays.npz      every ndarray (and bytes payload) referenced by the tree
```

State trees contain only ndarrays, ``bytes`` and JSON-able scalars /
lists / dicts, so the disk round trip is structure-preserving: a tree read
back from disk is interchangeable with one taken live (the scheduler's
shared memo service passes live trees; ``MLRConfig(memo_snapshot=...)``
accepts either).  Checksums and dtype/shape metadata are verified on load —
a corrupted or truncated snapshot fails loudly, never silently degrades
hit rates.

The contract, asserted by the test suite: a database restored from a
snapshot answers ``query`` / ``query_batch`` **bit-identically** to the
live instance that produced it — values, similarities, matched ids and
statistics alike — for every ANN index state (trained, mid-training, empty).
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import os
import zipfile

import numpy as np

from ..ann.flat import FlatIndex
from ..ann.ivf import IVFFlatIndex
from ..core.keying import CNNKeyEncoder
from ..core.memo_db import MemoDatabase
from ..core.memo_shard import memo_state_partitions
from ..faults import runtime as faults
from ..obs import runtime as obs

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "write_snapshot",
    "read_snapshot",
    "quarantine_snapshot",
    "save_memo_snapshot",
    "load_memo_snapshot",
    "load_or_quarantine",
    "save_database",
    "load_database",
    "save_index",
    "load_index",
    "save_encoder",
    "load_encoder",
]

log = logging.getLogger("repro.service.snapshot")

SNAPSHOT_FORMAT = "mlr-snapshot"
SNAPSHOT_VERSION = 2

_MANIFEST = "manifest.json"
_ARRAYS = "arrays.npz"

_INDEX_TYPES = {"flat": FlatIndex, "ivf": IVFFlatIndex}


class SnapshotError(RuntimeError):
    """A snapshot is missing, malformed, corrupted, or of the wrong kind."""


# -- state-tree packing ------------------------------------------------------------------


def _checksum(arr: np.ndarray) -> str:
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(arr.dtype.str.encode("ascii"))
    h.update(str(arr.shape).encode("ascii"))
    h.update(arr.tobytes())
    return h.hexdigest()


def _pack(node, arrays: dict):
    """Replace every ndarray/bytes in a state tree with an npz reference,
    collecting the payloads; everything else must be JSON-able."""
    if isinstance(node, np.ndarray):
        name = f"a{len(arrays)}"
        arrays[name] = node
        return {"__array__": name}
    if isinstance(node, (bytes, bytearray, memoryview)):
        name = f"a{len(arrays)}"
        arrays[name] = np.frombuffer(bytes(node), dtype=np.uint8)
        return {"__bytes__": name}
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            if not isinstance(key, str):
                raise SnapshotError(f"state-tree keys must be str, got {key!r}")
            out[key] = _pack(value, arrays)
        return out
    if isinstance(node, (list, tuple)):
        return [_pack(v, arrays) for v in node]
    if isinstance(node, (np.integer,)):
        return int(node)
    if isinstance(node, (np.floating,)):
        return float(node)
    if node is None or isinstance(node, (bool, int, float, str)):
        return node
    raise SnapshotError(f"state tree holds unserializable {type(node).__name__}")


def _unpack(node, arrays, meta: dict, verify: bool):
    if isinstance(node, dict):
        if "__array__" in node:
            return _load_array(node["__array__"], arrays, meta, verify)
        if "__bytes__" in node:
            return _load_array(node["__bytes__"], arrays, meta, verify).tobytes()
        return {k: _unpack(v, arrays, meta, verify) for k, v in node.items()}
    if isinstance(node, list):
        return [_unpack(v, arrays, meta, verify) for v in node]
    return node


def _load_array(name: str, arrays, meta: dict, verify: bool) -> np.ndarray:
    try:
        arr = arrays[name]
    except KeyError:
        raise SnapshotError(f"manifest references missing array {name!r}") from None
    info = meta.get(name)
    if info is None:
        raise SnapshotError(f"array {name!r} has no manifest metadata")
    if arr.dtype.str != info["dtype"] or list(arr.shape) != list(info["shape"]):
        raise SnapshotError(
            f"array {name!r}: stored {arr.dtype.str}{arr.shape} does not match "
            f"manifest {info['dtype']}{tuple(info['shape'])}"
        )
    if verify and _checksum(arr) != info["sha256"]:
        raise SnapshotError(f"array {name!r} failed its checksum — snapshot corrupted")
    return arr


def _write_durable(target: str, raw: bytes) -> None:
    """Crash-safe file publish: write to a unique temp sibling, fsync the
    data, atomically replace, then fsync the directory so the rename itself
    survives power loss.  A crash at any point leaves either the old file
    or no file — never a torn one."""
    directory = os.path.dirname(target) or "."
    tmp = f"{target}.tmp.{os.getpid()}"
    fh = open(tmp, "wb")
    try:
        fh.write(raw)
        fh.flush()
        os.fsync(fh.fileno())
    finally:
        fh.close()
    try:
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
    needed); returns the manifest written alongside the arrays."""
    os.makedirs(path, exist_ok=True)
    arrays: dict[str, np.ndarray] = {}
    packed = _pack(tree, arrays)
    manifest = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "kind": kind,
        "arrays": {
            name: {
                "dtype": np.ascontiguousarray(arr).dtype.str,
                "shape": list(arr.shape),
                "nbytes": int(arr.nbytes),
                "sha256": _checksum(arr),
            }
            for name, arr in arrays.items()
        },
        "tree": packed,
    }
    # whole-manifest self-digest: the per-array checksums only cover the
    # npz payload, so a bit flip inside the JSON tree itself (scalar lists,
    # heat metadata, config fields) would otherwise parse cleanly and load
    manifest["manifest_sha256"] = hashlib.sha256(
        json.dumps(manifest, sort_keys=True).encode("utf-8")
    ).hexdigest()
    buf = io.BytesIO()
    np.savez_compressed(buf, **arrays)
    # arrays land first: a crash between the two writes leaves the OLD
    # manifest pointing at old arrays (stale-but-consistent) or — on a
    # fresh directory — no manifest at all, which reads as "no snapshot"
    arrays_raw = faults.on_snapshot_write(str(path), buf.getvalue())
    _write_durable(os.path.join(path, _ARRAYS), arrays_raw)
    manifest_raw = json.dumps(manifest, indent=1).encode("utf-8")
    manifest_raw = faults.on_snapshot_write(f"{path}:{_MANIFEST}", manifest_raw)
    _write_durable(os.path.join(path, _MANIFEST), manifest_raw)
    return manifest


def read_snapshot(path, expect_kind: str | None = None, verify: bool = True) -> dict:
    """Load a state tree written by :func:`write_snapshot`, verifying the
    format version, per-array dtype/shape metadata, and content checksums.
    Every way a snapshot can be broken — missing files, undecodable JSON,
    a torn npz, checksum drift — surfaces as :class:`SnapshotError`."""
    manifest_path = os.path.join(path, _MANIFEST)
    if not os.path.isfile(manifest_path):
        raise SnapshotError(f"no snapshot at {path!r} (missing {_MANIFEST})")
    try:
        with open(manifest_path, "rb") as fh:
            manifest_raw = fh.read()
        manifest_raw = faults.on_snapshot_read(f"{path}:{_MANIFEST}", manifest_raw)
        manifest = json.loads(manifest_raw.decode("utf-8"))
    except (OSError, ValueError, UnicodeDecodeError) as exc:
        raise SnapshotError(f"unreadable manifest at {path!r}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise SnapshotError(f"manifest at {path!r} is not a JSON object")
    if manifest.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(f"not an mLR snapshot: format {manifest.get('format')!r}")
    if manifest.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot version {manifest.get('version')!r} "
            f"(this build reads {SNAPSHOT_VERSION})"
        )
    claimed = manifest.pop("manifest_sha256", None)
    if verify:
        if not isinstance(claimed, str):
            raise SnapshotError(f"manifest at {path!r} carries no self-digest")
        actual = hashlib.sha256(
            json.dumps(manifest, sort_keys=True).encode("utf-8")
        ).hexdigest()
        if actual != claimed:
            raise SnapshotError(
                f"manifest at {path!r} failed its whole-file checksum — "
                "snapshot corrupted"
            )
    if expect_kind is not None and manifest.get("kind") != expect_kind:
        raise SnapshotError(
            f"snapshot kind {manifest.get('kind')!r}, expected {expect_kind!r}"
        )
    arrays_path = os.path.join(path, _ARRAYS)
    try:
        with open(arrays_path, "rb") as fh:
            arrays_raw = fh.read()
        arrays_raw = faults.on_snapshot_read(str(path), arrays_raw)
        with np.load(io.BytesIO(arrays_raw)) as npz:
            arrays = {name: npz[name] for name in npz.files}
    except (OSError, ValueError, KeyError, zipfile.BadZipFile, EOFError) as exc:
        raise SnapshotError(f"unreadable arrays at {arrays_path!r}: {exc}") from exc
    try:
        tree = _unpack(manifest["tree"], arrays, manifest["arrays"], verify)
        _reject_serialized_values(tree, manifest.get("kind"))
    except (KeyError, TypeError, AttributeError) as exc:
        raise SnapshotError(f"malformed snapshot tree at {path!r}: {exc!r}") from exc
    return tree


def _reject_serialized_values(tree: dict, kind) -> None:
    """Databases snapshotted while the serialized value store existed carry
    a ``value_mode`` tag.  ``"array"`` is the representation that remains
    (such snapshots load as ever); one holding ``"bytes"`` values cannot be
    served and must fail as a snapshot problem, not deep inside a store."""
    if kind == "memo-database":
        dbs = [tree]
    elif kind == "memo-state":
        dbs = [part["db"] for part in memo_state_partitions(tree)]
    else:
        return
    for db in dbs:
        mode = db["config"].get("value_mode", "array")
        if mode != "array":
            raise SnapshotError(
                f"snapshot stores memo values as value_mode {mode!r}; this "
                "build reads only 'array' snapshots"
            )


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


_ENCODER_DIR = "encoder"


def save_memo_snapshot(path, executor) -> dict:
    """Snapshot an executor's whole database tier (single or sharded — the
    sharded executor snapshots per shard through its router).

    A trained CNN key encoder rides along twice: embedded in the state tree
    (``encoder_state``, what warm starts auto-install) and as a standalone
    :func:`save_encoder` snapshot under ``<path>/encoder/`` so the encoder
    stays independently loadable."""
    manifest = write_snapshot(path, executor.memo_state(), kind="memo-state")
    encoder = getattr(executor, "encoder", None)
    if isinstance(encoder, CNNKeyEncoder):
        save_encoder(os.path.join(path, _ENCODER_DIR), encoder)
    return manifest


def load_memo_snapshot(path) -> dict:
    """Read a database-tier state tree back (not yet installed anywhere).
    Snapshots whose tree predates the embedded ``encoder_state`` fall back
    to the standalone ``<path>/encoder/`` snapshot when one exists."""
    tree = read_snapshot(path, expect_kind="memo-state")
    enc_dir = os.path.join(path, _ENCODER_DIR)
    if not tree.get("encoder_state") and os.path.isfile(
        os.path.join(enc_dir, _MANIFEST)
    ):
        tree["encoder_state"] = read_snapshot(enc_dir, expect_kind="key-encoder")
    return tree


def load_or_quarantine(path, where: str, **context) -> dict | None:
    """Boot-time warm start: the memo-state tree at ``path``, or ``None``
    after moving an unusable snapshot aside (``<path>.corrupt``).  Warmth
    is an optimization — a damaged snapshot must neither take down the
    process booting from it nor be overwritten by its next save — so the
    failure is counted (``snapshot_quarantined_total{where}``),
    flight-recorded with ``context`` and logged, and the caller starts
    cold."""
    try:
        return load_memo_snapshot(path)
    except SnapshotError as exc:
        quarantined = quarantine_snapshot(path)
        obs.counter("snapshot_quarantined_total", where=where).inc()
        obs.flight_dump(
            "snapshot-quarantine", where=where, snapshot=str(path),
            error=str(exc), **context,
        )
        log.warning(
            "%s: warm-start snapshot %s unusable (%s) — quarantined to %s, "
            "starting cold", where, path, exc, quarantined,
        )
        return None


# -- single-component snapshots ----------------------------------------------------------


def save_database(path, db: MemoDatabase) -> dict:
    return write_snapshot(path, db.state_dict(), kind="memo-database")


def load_database(path) -> MemoDatabase:
    return MemoDatabase.from_state(read_snapshot(path, expect_kind="memo-database"))


def save_index(path, index) -> dict:
    """Snapshot one ANN index (Flat / IVF — trained or not)."""
    for tag, cls in _INDEX_TYPES.items():
        if type(index) is cls:
            return write_snapshot(
                path, {"index_type": tag, "state": index.state_dict()}, kind="ann-index"
            )
    raise SnapshotError(f"unknown index type {type(index).__name__}")


def load_index(path):
    tree = read_snapshot(path, expect_kind="ann-index")
    cls = _INDEX_TYPES.get(tree["index_type"])
    if cls is None:
        raise SnapshotError(f"unknown index_type {tree['index_type']!r}")
    return cls.from_state(tree["state"])


def save_encoder(path, encoder: CNNKeyEncoder) -> dict:
    """Snapshot the (INT8-quantized) CNN key encoder."""
    if not isinstance(encoder, CNNKeyEncoder):
        raise SnapshotError(
            f"only CNNKeyEncoder snapshots are supported, got {type(encoder).__name__}"
        )
    return write_snapshot(path, encoder.state_dict(), kind="key-encoder")


def load_encoder(path) -> CNNKeyEncoder:
    return CNNKeyEncoder.from_state(read_snapshot(path, expect_kind="key-encoder"))
