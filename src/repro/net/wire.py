"""Wire protocol of the remote memoization transport.

Every message between a compute host and the memo server travels as one
**frame**::

    magic (4s) | version (u8) | msg type (u8) | flags (u16, reserved)
    | request id (u64) | payload length (u64) | payload crc32 (u32)
    | payload (length bytes)

The header is fixed-size and little-endian; the payload is the state-tree
codec of :mod:`repro.kvstore.serialization` (``encode_tree`` — ``None`` /
bools / ints / floats / complex / str / bytes / lists / dicts, ndarrays as
the store's portable little-endian array frame), which this module only
wraps: :func:`pack_obj` / :func:`unpack_obj` are that codec with its
``TreeError`` raised as :class:`MessageError`.  A memo-state tree therefore
has the same bytes in a ``MSG_SNAP_PUSH`` frame and in a snapshot file.  A
crc32 over the payload catches truncation and corruption before any payload
byte is interpreted.

Failure behavior is the protocol's core contract: malformed input raises a
*typed* :class:`ProtocolError` subclass — :class:`FrameError` (bad magic,
header, or declared length), :class:`TruncatedFrame` (the peer vanished
mid-frame), :class:`ChecksumError`, :class:`MessageError` (undecodable
payload, over-deep nesting included), :class:`VersionMismatch` — and never
hangs a connection or leaks a partial frame into the next read.  A clean EOF
*between* frames raises :class:`ConnectionClosed`, which callers treat as an
orderly goodbye.

Request/response pairing is by ``request id``: a server echoes the id of
the request it is answering, which is what lets clients pipeline requests
(send several, drain the acknowledgements later) over one ordered TCP
stream.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from ..core.memo_db import MemoDBStats, QueryOutcome
from ..core.memo_shard import ShardInsert, ShardQuery
from ..kvstore.serialization import TreeError, decode_tree, encode_tree

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_PAYLOAD_BYTES",
    "MSG_HELLO",
    "MSG_HELLO_OK",
    "MSG_QUERY",
    "MSG_QUERY_OK",
    "MSG_INSERT",
    "MSG_INSERT_OK",
    "MSG_STATS",
    "MSG_STATS_OK",
    "MSG_SNAP_PUSH",
    "MSG_SNAP_PUSH_OK",
    "MSG_SNAP_PULL",
    "MSG_SNAP_PULL_OK",
    "MSG_PING",
    "MSG_PING_OK",
    "MSG_ERROR",
    "MESSAGE_NAMES",
    "trace_ctx_to_wire",
    "trace_ctx_from_wire",
    "ProtocolError",
    "FrameError",
    "TruncatedFrame",
    "FrameTimeout",
    "ChecksumError",
    "MessageError",
    "VersionMismatch",
    "ConnectionClosed",
    "RemoteError",
    "pack_obj",
    "unpack_obj",
    "encode_frame",
    "send_frame",
    "FrameReader",
    "parse_address",
    "parse_address_list",
    "queries_to_wire",
    "queries_from_wire",
    "inserts_to_wire",
    "inserts_from_wire",
    "outcomes_to_wire",
    "outcomes_from_wire",
    "stats_to_wire",
    "stats_from_wire",
]

#: 2: the wire carries memo traffic only — the telemetry pulls (message
#: types 13/14 and 17/18) are gone, served by the HTTP plane instead — and
#: HELLO_OK / the stats reply shed the fields that went with them.
#: 3: the snapshot messages carry the flat memo-state tree (one table per
#: partition, see :mod:`repro.core.memo_shard`); query / insert frames are
#: unchanged
PROTOCOL_VERSION = 3

#: refuse to allocate for absurd declared lengths (corrupt or hostile frames)
MAX_PAYLOAD_BYTES = 1 << 33  # 8 GiB

_MAGIC = b"mLRn"
_HEADER = struct.Struct("<4sBBHQQI")  # magic, version, type, flags, req id, len, crc

# -- message types -------------------------------------------------------------------------

MSG_HELLO = 1
MSG_HELLO_OK = 2
MSG_QUERY = 3
MSG_QUERY_OK = 4
MSG_INSERT = 5
MSG_INSERT_OK = 6
MSG_STATS = 7
MSG_STATS_OK = 8
MSG_SNAP_PUSH = 9
MSG_SNAP_PUSH_OK = 10
MSG_SNAP_PULL = 11
MSG_SNAP_PULL_OK = 12
MSG_PING = 15
MSG_PING_OK = 16
MSG_ERROR = 255

MESSAGE_NAMES = {
    MSG_HELLO: "hello",
    MSG_HELLO_OK: "hello_ok",
    MSG_QUERY: "query_batch",
    MSG_QUERY_OK: "query_batch_ok",
    MSG_INSERT: "insert_batch",
    MSG_INSERT_OK: "insert_batch_ok",
    MSG_STATS: "stats",
    MSG_STATS_OK: "stats_ok",
    MSG_SNAP_PUSH: "snapshot_push",
    MSG_SNAP_PUSH_OK: "snapshot_push_ok",
    MSG_SNAP_PULL: "snapshot_pull",
    MSG_SNAP_PULL_OK: "snapshot_pull_ok",
    MSG_PING: "ping",
    MSG_PING_OK: "pong",
    MSG_ERROR: "error",
}

# -- trace-context propagation -------------------------------------------------------------
#
# Distributed tracing rides requests as an OPTIONAL "trace" dict in the
# message body — never a new header field — so frames without it are
# byte-identical to pre-trace builds (observability off costs zero wire
# bytes).  Every protocol-version-2 server reads the field (its spans are
# read from its telemetry plane's ``/snapshot``) and dict bodies tolerate
# a missing or unknown key on both sides, so nothing is negotiated.


def trace_ctx_to_wire(ctx) -> dict | None:
    """Encode a ``(trace_id, span_id)`` pair as the request's optional
    ``"trace"`` field (``None`` passes through: nothing to propagate)."""
    if ctx is None:
        return None
    trace_id, span_id = ctx
    return {"tid": int(trace_id), "sid": int(span_id)}


def trace_ctx_from_wire(node) -> dict | None:
    """Validate an incoming ``"trace"`` field: both ids must be ints
    (bools excluded — they pack as ints' cousins but are never span ids).
    Anything malformed returns ``None``; a hostile peer must not be able
    to break a request handler through its trace annotation."""
    if not isinstance(node, dict):
        return None
    tid, sid = node.get("tid"), node.get("sid")
    if (
        isinstance(tid, int)
        and isinstance(sid, int)
        and not isinstance(tid, bool)
        and not isinstance(sid, bool)
    ):
        return {"tid": tid, "sid": sid}
    return None


# -- typed protocol errors -----------------------------------------------------------------


class ProtocolError(RuntimeError):
    """Base of every wire-level failure; connections raising it must close."""


class FrameError(ProtocolError):
    """Bad magic, malformed header, or an inadmissible declared length."""


class TruncatedFrame(ProtocolError):
    """The stream ended (or errored) in the middle of a frame."""


class FrameTimeout(ProtocolError):
    """The socket's recv deadline expired while waiting for frame bytes.

    Carries ``mid_frame``: ``False`` means the peer simply went quiet
    between frames (idle — the server reaps such connections), ``True``
    means it hung *inside* a frame, which poisons the stream exactly like
    a truncation would."""

    def __init__(self, message: str, mid_frame: bool = False) -> None:
        super().__init__(message)
        self.mid_frame = mid_frame


class ChecksumError(ProtocolError):
    """Payload bytes do not match the frame's crc32."""


class MessageError(ProtocolError):
    """The payload decoded, but not into a valid message object."""


class VersionMismatch(ProtocolError):
    """Peer speaks a different protocol version; fail fast, never guess."""


class ConnectionClosed(ProtocolError):
    """Orderly EOF at a frame boundary (distinct from a truncation)."""


class RemoteError(ProtocolError):
    """The server answered with an MSG_ERROR frame; carries its message."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.remote_message = message


# -- payload codec -------------------------------------------------------------------------
#
# A frame's payload is the state-tree codec of repro.kvstore.serialization —
# the same bytes a snapshot file holds — under the wire's own error type.


def pack_obj(obj) -> bytes:
    """Encode one message object (tree of plain python + ndarrays)."""
    try:
        return encode_tree(obj)
    except TreeError as exc:
        raise MessageError(str(exc)) from None


def unpack_obj(raw: bytes):
    """Decode one :func:`pack_obj` payload; trailing garbage is an error."""
    try:
        return decode_tree(raw)
    except TreeError as exc:
        raise MessageError(str(exc)) from None


# -- framing -------------------------------------------------------------------------------


def encode_frame(msg_type: int, request_id: int, obj) -> bytes:
    """One complete frame (header + payload) for ``obj``."""
    payload = pack_obj(obj)
    header = _HEADER.pack(
        _MAGIC,
        PROTOCOL_VERSION,
        msg_type,
        0,
        request_id,
        len(payload),
        zlib.crc32(payload) & 0xFFFFFFFF,
    )
    return header + payload


def send_frame(sock, msg_type: int, request_id: int, obj) -> None:
    """Frame and transmit one message on a connected socket."""
    sock.sendall(encode_frame(msg_type, request_id, obj))


class FrameReader:
    """Incremental frame decoder over a socket (per-connection framing state).

    Holds the partial-read buffer between calls, so one reader must own the
    receiving side of a connection for its whole life.  ``read_frame``
    blocks until a full frame is buffered and returns
    ``(msg_type, request_id, payload_obj)``.
    """

    def __init__(self, sock, max_payload: int = MAX_PAYLOAD_BYTES) -> None:
        self._sock = sock
        self._max_payload = max_payload
        self._buf = bytearray()
        # fault-injection seam: recv-side faults are decided once per frame,
        # not per recv() call (see FaultSocket.before_frame for why)
        self._before_frame = getattr(sock, "before_frame", None)

    def _fill(self, n: int, started: bool) -> None:
        """Buffer at least ``n`` bytes; EOF raises ConnectionClosed at a
        frame boundary (``started=False``) and TruncatedFrame inside one."""
        while len(self._buf) < n:
            try:
                chunk = self._sock.recv(1 << 18)
            except TimeoutError as exc:
                # a recv deadline expiring is a *liveness* signal, not a
                # malformed stream: between frames it means the peer is idle
                # (reapable), inside one it means the peer hung mid-message
                mid = started or bool(self._buf)
                raise FrameTimeout(
                    f"recv deadline expired "
                    f"{'mid-frame' if mid else 'between frames'} "
                    f"({len(self._buf)}/{n} bytes buffered)",
                    mid_frame=mid,
                ) from exc
            except OSError as exc:
                raise TruncatedFrame(f"connection lost mid-frame: {exc}") from exc
            if not chunk:
                if started or self._buf:
                    raise TruncatedFrame(
                        f"peer closed mid-frame ({len(self._buf)}/{n} bytes buffered)"
                    )
                raise ConnectionClosed("peer closed the connection")
            self._buf += chunk

    def read_frame(self):
        """Read and validate one frame; raises typed errors, never hangs on
        malformed input (a bad frame poisons the stream, so callers close)."""
        if self._before_frame is not None:
            try:
                self._before_frame()
            except OSError as exc:
                raise TruncatedFrame(f"connection lost mid-frame: {exc}") from exc
        self._fill(_HEADER.size, started=False)
        magic, version, msg_type, _flags, request_id, length, crc = _HEADER.unpack_from(
            self._buf, 0
        )
        if magic != _MAGIC:
            raise FrameError(
                f"bad frame magic {bytes(magic)!r} (expected {_MAGIC!r}) — "
                "peer is not speaking the mLR memo protocol"
            )
        if version != PROTOCOL_VERSION:
            raise VersionMismatch(
                f"peer speaks protocol version {version}, this build speaks "
                f"{PROTOCOL_VERSION} — upgrade the older side"
            )
        if length > self._max_payload:
            raise FrameError(
                f"declared payload of {length} bytes exceeds the "
                f"{self._max_payload}-byte limit"
            )
        self._fill(_HEADER.size + length, started=True)
        payload = bytes(self._buf[_HEADER.size : _HEADER.size + length])
        del self._buf[: _HEADER.size + length]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise ChecksumError("payload crc32 mismatch — frame corrupted in transit")
        return msg_type, request_id, unpack_obj(payload)


# -- typed message bodies ------------------------------------------------------------------
#
# The request/response payloads the daemon and clients exchange, as
# conversions between the core service types (ShardQuery / ShardInsert /
# QueryOutcome / MemoDBStats) and plain pack_obj trees.  Both ends share
# these, so a field added here is added to the whole protocol at once.


def _meta_to_wire(meta):
    """Reuse metadata on the wire: ``None`` or the engine's (AC, DC) pair."""
    if meta is None:
        return None
    try:
        ac, dc = meta
        return {"ac": float(ac), "dc": complex(dc)}
    except (TypeError, ValueError):
        raise MessageError(
            f"reuse metadata must be None or an (ac, dc) pair, got {meta!r}"
        ) from None


def _meta_from_wire(node):
    if node is None:
        return None
    if not isinstance(node, dict) or "ac" not in node or "dc" not in node:
        raise MessageError(f"bad reuse-metadata node {node!r}")
    return float(node["ac"]), complex(node["dc"])


def queries_to_wire(queries) -> list[dict]:
    """MSG_QUERY body: one coalesced key batch."""
    return [
        {"op": q.op, "location": int(q.location), "key": np.asarray(q.key)}
        for q in queries
    ]


def _wire_array(node, what: str) -> np.ndarray:
    if not isinstance(node, np.ndarray):
        raise MessageError(f"{what} must be an array payload, got {type(node).__name__}")
    return node


def queries_from_wire(items) -> list[ShardQuery]:
    try:
        return [
            ShardQuery(
                op=str(it["op"]),
                location=int(it["location"]),
                key=_wire_array(it["key"], "query key"),
            )
            for it in items
        ]
    except (TypeError, KeyError, ValueError) as exc:
        raise MessageError(f"malformed query batch: {exc!r}") from None


def inserts_to_wire(inserts) -> list[dict]:
    """MSG_INSERT body: one batched (key, value, meta) message."""
    return [
        {
            "op": ins.op,
            "location": int(ins.location),
            "key": np.asarray(ins.key),
            "value": np.asarray(ins.value),
            "meta": _meta_to_wire(ins.meta),
        }
        for ins in inserts
    ]


def inserts_from_wire(items) -> list[ShardInsert]:
    try:
        return [
            ShardInsert(
                op=str(it["op"]),
                location=int(it["location"]),
                key=_wire_array(it["key"], "insert key"),
                value=_wire_array(it["value"], "insert value"),
                meta=_meta_from_wire(it["meta"]),
            )
            for it in items
        ]
    except (TypeError, KeyError, ValueError) as exc:
        raise MessageError(f"malformed insert batch: {exc!r}") from None


def outcomes_to_wire(outcomes) -> list[dict]:
    """MSG_QUERY_OK body: per-key outcomes, hit values as array payloads."""
    return [
        {
            "value": o.value if o.hit else None,
            "similarity": float(o.similarity),
            "matched_id": int(o.matched_id),
            "n_entries": int(o.n_entries),
            "meta": _meta_to_wire(o.stored_meta),
        }
        for o in outcomes
    ]


def outcomes_from_wire(items) -> list[QueryOutcome]:
    try:
        return [
            QueryOutcome(
                value=None if it["value"] is None else _wire_array(it["value"], "hit value"),
                similarity=float(it["similarity"]),
                matched_id=int(it["matched_id"]),
                n_entries=int(it["n_entries"]),
                stored_meta=_meta_from_wire(it["meta"]),
            )
            for it in items
        ]
    except (TypeError, KeyError) as exc:
        raise MessageError(f"malformed outcome batch: {exc!r}") from None


def stats_to_wire(stats: MemoDBStats) -> dict:
    return stats.as_dict()


def stats_from_wire(node) -> MemoDBStats:
    try:
        return MemoDBStats(**{k: int(v) for k, v in node.items()})
    except (TypeError, AttributeError) as exc:
        raise MessageError(f"malformed stats node {node!r}: {exc!r}") from None


def parse_address(address) -> tuple[str, int]:
    """Normalize ``"host:port"`` strings and ``(host, port)`` pairs."""
    if isinstance(address, (tuple, list)) and len(address) == 2:
        return str(address[0]), int(address[1])
    if isinstance(address, str):
        host, sep, port = address.rpartition(":")
        # a remaining ':' in host means a bare IPv6 literal ('::1') or a
        # multi-colon typo — misparsing those into (host, port) buys a
        # confusing connect failure, so fail fast instead (IPv6 endpoints
        # can be passed as an explicit (host, port) pair)
        if sep and port.isdigit() and ":" not in host:
            return host or "127.0.0.1", int(port)
    raise ValueError(
        f"expected 'host:port' or a (host, port) pair, got {address!r}"
    )


def parse_address_list(addresses) -> list[tuple[str, int]]:
    """Normalize every accepted replica-list spelling into address pairs.

    Accepts a single ``"host:port"`` string, a comma-separated
    ``"h1:p1,h2:p2"`` string, one ``(host, port)`` pair, or a list/tuple
    mixing any single-address form.  Validation errors name the element
    that failed, so ``--server a:1,b`` reports ``'b'``, not the whole
    list.  Duplicate addresses are rejected: a replica set with the same
    endpoint twice silently halves its real redundancy."""
    if isinstance(addresses, str):
        items = [part.strip() for part in addresses.split(",") if part.strip()]
        if not items:
            raise ValueError(f"empty address list {addresses!r}")
    elif isinstance(addresses, (tuple, list)):
        if (
            len(addresses) == 2
            and isinstance(addresses[0], str)
            and isinstance(addresses[1], int)
        ):
            items = [addresses]  # one (host, port) pair, not two addresses
        else:
            items = list(addresses)
            if not items:
                raise ValueError("empty address list")
    else:
        raise ValueError(
            f"expected an address or list of addresses, got {addresses!r}"
        )
    parsed: list[tuple[str, int]] = []
    for item in items:
        try:
            addr = parse_address(item)
        except ValueError as exc:
            raise ValueError(f"bad address element {item!r}: {exc}") from None
        if addr in parsed:
            raise ValueError(
                f"duplicate address element {item!r} — each replica must be a "
                "distinct endpoint"
            )
        parsed.append(addr)
    return parsed
