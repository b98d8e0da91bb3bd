"""Remote memoization transport: the memo service as a network service.

The paper's memoization tier pays off most when tau-similar chunks recur
*across* scans and hosts; this package puts a wire protocol between the
compute side and the shard service so multiple beamline hosts share one
memo tier:

- :mod:`repro.net.wire` — length-prefixed, versioned, checksummed binary
  framing with typed request/response messages (array payloads reuse the
  kvstore ``encode_array`` codec),
- :mod:`repro.net.server` — :class:`MemoServerDaemon`, a threaded TCP
  daemon: the wire in front of a
  :class:`~repro.core.memo_shard.MemoShardRouter`, which hosts the
  partitions (run it with ``python -m repro.net.server``),
- :mod:`repro.net.client` — :class:`RemoteMemoClient`, the
  :class:`~repro.core.memo_shard.MemoTier` over one TCP connection, with
  request pipelining, reconnect-with-backoff, and fail-open degradation to
  cold compute; and :func:`connect_tier`, the one place an address list
  becomes a tier,
- :mod:`repro.net.replicated` — :class:`ReplicatedMemoClient`, replication
  (insert fan-out, per-shard query failover, circuit breakers, resync) as a
  wrapper over any list of tiers,
- :mod:`repro.net.snapshot_store` — :func:`pull_state`, reading a tier as
  a whole snapshot for cross-host warm starts (cold told from unreachable,
  with retries).

The wire carries memo traffic only (queries, inserts, stats, snapshot
push/pull, heartbeats); a daemon's metrics and spans are read from its
HTTP telemetry plane (:mod:`repro.obs.http`).

Select it with ``MemoConfig(transport="tcp", server_address=...)`` (compute
side) or ``ServiceConfig(memo_transport="tcp", memo_server=...)``
(scheduler side); ``transport="inproc"`` keeps everything in process and
bit-identical behavior is asserted between the two.
"""

from .client import NetClientStats, RemoteMemoClient, TransportUnavailable, connect_tier
from .replicated import ReplicatedMemoClient
from .snapshot_store import pull_state
from .wire import (
    MAX_PAYLOAD_BYTES,
    PROTOCOL_VERSION,
    ChecksumError,
    ConnectionClosed,
    FrameError,
    FrameReader,
    MessageError,
    ProtocolError,
    RemoteError,
    TruncatedFrame,
    VersionMismatch,
    parse_address,
)

__all__ = [
    "NetClientStats",
    "RemoteMemoClient",
    "ReplicatedMemoClient",
    "TransportUnavailable",
    "connect_tier",
    "MemoServerDaemon",
    "ServerStats",
    "pull_state",
    "MAX_PAYLOAD_BYTES",
    "PROTOCOL_VERSION",
    "ChecksumError",
    "ConnectionClosed",
    "FrameError",
    "FrameReader",
    "MessageError",
    "ProtocolError",
    "RemoteError",
    "TruncatedFrame",
    "VersionMismatch",
    "parse_address",
]


def __getattr__(name: str):
    # ``server`` is imported on first use, not here: ``python -m
    # repro.net.server`` imports this package first, and runpy warns when
    # the module it is about to run is already in ``sys.modules``
    if name in ("MemoServerDaemon", "ServerStats"):
        from . import server

        return getattr(server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
