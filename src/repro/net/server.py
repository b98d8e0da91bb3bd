"""The memo server daemon: one shared memoization service for many hosts.

:class:`MemoServerDaemon` puts the TCP wire protocol of
:mod:`repro.net.wire` in front of a
:class:`~repro.core.memo_shard.MemoShardRouter`, turning the in-process
memo tier into the multi-host deployment the paper's beamline setting
implies (detector node, compute nodes, storage nodes sharing one memory
node).  The router hosts the partitions, serialises access to them and
holds the tier's provenance (tau, key-encoder fingerprint and weights);
the daemon is transport and operations around it:

- **per-connection framing state** — every client connection gets its own
  handler thread and :class:`~repro.net.wire.FrameReader`; a malformed
  frame poisons only that connection (typed error back, then close), never
  the daemon.  A handler calls the router inline: each shard serialises its
  own sub-batches under its lock, so traffic for different shards overlaps
  across connections while a shard is always read at a batch boundary,
- **handshake and request gate** — protocol version, tau advert and the
  client's encoder fingerprint, re-checked per data request; a ``ValueError``
  out of the tier is its deterministic rejection of one request (tau /
  encoder mismatch, malformed tree, wrong key size) and is answered as an
  error frame on a connection that stays up,
- **insert-replay dedup** — at-least-once delivery on the wire,
  at-most-once application to the tier,
- **snapshot push/pull** — schedulers warm-start from the daemon and merge
  their finished tiers back into it (the router's own ``push_state`` merge:
  partition-level union, newest wins, heat kept), so the shared tier
  outlives any one job or host,
- **periodic persistence** — with ``snapshot_path`` set, the accumulated
  tier is written through :mod:`repro.service.snapshot` at a fixed cadence
  and on shutdown, and reloaded at boot, so the daemon itself warm-starts
  across restarts.

The wire carries memo traffic only; the daemon's metrics and spans leave
through its HTTP telemetry plane (``telemetry_port`` / ``--telemetry-port``:
``/metrics``, ``/snapshot``, ``/healthz``, ``/readyz``).

Run standalone with ``python -m repro.net.server --port 9876 --shards 4``.
"""

from __future__ import annotations

import argparse
import logging
import os
import socket
import threading
import time
from dataclasses import dataclass

from ..core.config import MemoConfig
from ..core.memo_engine import make_db_factory, memo_state_partitions
from ..core.memo_shard import MemoShardRouter
from ..faults import runtime as faults
from ..obs import runtime as obs
from .wire import (
    MESSAGE_NAMES,
    MSG_ERROR,
    MSG_HELLO,
    MSG_HELLO_OK,
    MSG_INSERT,
    MSG_INSERT_OK,
    MSG_PING,
    MSG_PING_OK,
    MSG_QUERY,
    MSG_QUERY_OK,
    MSG_SNAP_PULL,
    MSG_SNAP_PULL_OK,
    MSG_SNAP_PUSH,
    MSG_SNAP_PUSH_OK,
    MSG_STATS,
    MSG_STATS_OK,
    PROTOCOL_VERSION,
    ConnectionClosed,
    FrameReader,
    FrameTimeout,
    MessageError,
    ProtocolError,
    VersionMismatch,
    inserts_from_wire,
    outcomes_to_wire,
    queries_from_wire,
    send_frame,
    stats_to_wire,
    trace_ctx_from_wire,
)

__all__ = ["ServerStats", "MemoServerDaemon", "main"]

log = logging.getLogger("repro.net.server")


@dataclass
class ServerStats:
    """Aggregate daemon-side traffic counters (thread-safe via the lock)."""

    connections: int = 0
    active_connections: int = 0
    query_batches: int = 0
    queries: int = 0
    insert_batches: int = 0
    inserts: int = 0
    stats_pulls: int = 0
    snapshot_pushes: int = 0
    snapshot_pulls: int = 0
    protocol_errors: int = 0
    app_errors: int = 0
    snapshots_persisted: int = 0
    pings: int = 0
    idle_reaped: int = 0
    snapshots_quarantined: int = 0
    duplicate_insert_batches: int = 0


class MemoServerDaemon:
    """Threaded TCP daemon serving a sharded memoization database.

    ``port=0`` binds an ephemeral port; read :attr:`address` after
    construction.  The daemon is running as soon as the constructor
    returns, and is a context manager (``close()`` on exit).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        n_shards: int = 1,
        memo: MemoConfig | None = None,
        snapshot_path: str | os.PathLike | None = None,
        snapshot_interval_s: float | None = None,
        name: str = "memo-server",
        max_payload: int | None = None,
        idle_timeout_s: float | None = None,
        telemetry_port: int | None = None,
        telemetry_host: str = "127.0.0.1",
    ) -> None:
        if idle_timeout_s is not None and idle_timeout_s <= 0:
            raise ValueError(f"idle_timeout_s must be positive, got {idle_timeout_s}")
        self.memo = memo or MemoConfig()
        self.name = name
        self.router = MemoShardRouter(
            n_shards, make_db_factory(self.memo), tau=self.memo.tau, label=name
        )
        self.stats = ServerStats()  # guarded-by: self._lock
        self.snapshot_path = os.fspath(snapshot_path) if snapshot_path else None
        self.snapshot_interval_s = snapshot_interval_s
        self._max_payload = max_payload
        #: reap a connection that sends nothing for this long (None = never);
        #: a client sends no heartbeats by itself: a reaped one reconnects
        #: on its next request, and a caller that wants the connection kept
        #: across quiet spans sends MSG_PING (``RemoteMemoClient.ping``)
        self.idle_timeout_s = idle_timeout_s
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._conns: dict[int, socket.socket] = {}  # guarded-by: self._lock
        self._conn_seq = 0  # guarded-by: self._lock
        # recently applied insert-batch tags (dict as FIFO set): a client
        # that lost the ack replays the batch on reconnect — at-least-once
        # delivery on the wire, at-most-once application here.  Without
        # this, a replayed batch double-inserts its keys and the duplicate
        # keys perturb index training, so a faulted run's miss
        # similarities drift off the fault-free run's.
        self._applied_batches: dict[str, None] = {}  # guarded-by: self._lock
        self._dedup_window = 4096
        if self.snapshot_path:
            self._load_boot_snapshot()
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(64)
        self.address: tuple[str, int] = self._sock.getsockname()[:2]
        self._threads: list[threading.Thread] = []  # guarded-by: self._lock
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"{name}-accept", daemon=True
        )
        self._accept_thread.start()
        self._snapshot_thread = None
        if self.snapshot_path and self.snapshot_interval_s:
            self._snapshot_thread = threading.Thread(
                target=self._snapshot_loop, name=f"{name}-snapshot", daemon=True
            )
            self._snapshot_thread.start()
        # live telemetry plane: /metrics (traffic gauges + per-entry heat
        # histograms), /healthz, /readyz (accepting), /snapshot
        self.telemetry = None
        if telemetry_port is not None:
            from ..obs.http import TelemetryServer

            def accepting() -> tuple[bool, str]:
                ok = self.running
                return ok, "accepting" if ok else "shut down"

            accepting.probe_name = "accepting"
            self.telemetry = TelemetryServer(
                (telemetry_host, telemetry_port),
                collect=[self._telemetry_collect],
                readiness=[accepting],
                name=name,
            )

    # -- lifecycle -----------------------------------------------------------------------

    def __enter__(self) -> "MemoServerDaemon":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Graceful shutdown: stop accepting, unblock and join every
        connection handler, persist a final snapshot."""
        if self._stop.is_set():
            return
        self._stop.set()
        if self.telemetry is not None:
            try:
                self.telemetry.close()
            except OSError:
                pass
        try:
            # close() alone does not wake a thread blocked in accept() — the
            # fd stays open inside the syscall and the port stays LISTEN;
            # shutdown() forces accept() to return so the listener actually
            # releases the port
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        with self._lock:
            conns = list(self._conns.values())
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        self._accept_thread.join(timeout=5.0)
        with self._lock:
            handlers = list(self._threads)
        for t in handlers:
            t.join(timeout=5.0)
        if self._snapshot_thread is not None:
            self._snapshot_thread.join(timeout=5.0)
        if self.snapshot_path:
            try:
                self.save_snapshot()
            except Exception as exc:  # noqa: BLE001 — shutdown must not raise
                log.warning("final snapshot failed: %s", exc)

    @property
    def running(self) -> bool:
        return not self._stop.is_set()

    # -- persistence ---------------------------------------------------------------------

    def _load_boot_snapshot(self) -> None:
        from ..service.snapshot import load_or_quarantine, snapshot_exists

        if not snapshot_exists(self.snapshot_path):
            return
        tree = load_or_quarantine(self.snapshot_path, "server-boot", server=self.name)
        if tree is None:
            with self._lock:
                self.stats.snapshots_quarantined += 1
            return
        self.router.push_state(tree)
        log.info(
            "warm-started %d partitions from %s",
            len(memo_state_partitions(tree)),
            self.snapshot_path,
        )

    def save_snapshot(self) -> dict:
        """Persist the current tier under ``snapshot_path``."""
        from ..service.snapshot import write_snapshot

        if not self.snapshot_path:
            raise ValueError("daemon was started without a snapshot_path")
        header = write_snapshot(
            self.snapshot_path, self.router.state_dict(), kind="memo-state"
        )
        with self._lock:
            self.stats.snapshots_persisted += 1
        return header

    def _snapshot_loop(self) -> None:
        while not self._stop.wait(self.snapshot_interval_s):
            try:
                self.save_snapshot()
            except Exception as exc:  # noqa: BLE001 — persistence must not kill serving
                log.warning("periodic snapshot failed: %s", exc)

    # -- operations ----------------------------------------------------------------------

    def _telemetry_collect(self) -> list[dict]:
        """Telemetry-plane collect hook: publish the traffic counters as
        ``net_server_*`` gauges (side effect into the registry, picked up
        by the same scrape) and return fresh-per-scrape
        ``memo_entry_age_seconds`` histogram entries from the tier's
        per-entry heat metadata.  Runs on the scrape thread."""
        from ..obs.heat import age_histogram_entries

        with self._lock:
            stats_now = ServerStats(**vars(self.stats))
        # published from the copy: the registry lock never nests under ours
        obs.publish_gauges("net_server", stats_now, server=self.name)
        return age_histogram_entries(self.router.heat_records())

    # -- the connection protocol ---------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, peer = self._sock.accept()
            except OSError:
                return  # listener closed — shutting down
            with self._lock:
                self._conn_seq += 1
                conn_id = self._conn_seq
                self._conns[conn_id] = conn
                self.stats.connections += 1
                self.stats.active_connections += 1
            handler = threading.Thread(
                target=self._serve_connection,
                args=(conn, conn_id, peer),
                name=f"{self.name}-conn{conn_id}",
                daemon=True,
            )
            with self._lock:
                self._threads = [t for t in self._threads if t.is_alive()]
                self._threads.append(handler)
            handler.start()

    def _serve_connection(self, conn: socket.socket, conn_id: int, peer) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self.idle_timeout_s is not None:
            # a hung or vanished peer can then never park this handler
            # forever: the recv deadline turns silence into a FrameTimeout
            # we reap below
            conn.settimeout(self.idle_timeout_s)
        conn = faults.wrap_socket(conn, f"server:{self.name}:conn{conn_id}")
        reader = (
            FrameReader(conn)
            if self._max_payload is None
            else FrameReader(conn, max_payload=self._max_payload)
        )
        try:
            try:
                conn_fp = self._handshake(conn, reader)
            except ValueError as exc:
                # rejected client (conflicting encoder): answer clearly, close
                with self._lock:
                    self.stats.app_errors += 1
                send_frame(conn, MSG_ERROR, 0, {"kind": "app", "message": str(exc)})
                return
            while not self._stop.is_set():
                try:
                    msg_type, request_id, body = reader.read_frame()
                except ConnectionClosed:
                    return
                t0 = time.monotonic()
                type_name = MESSAGE_NAMES.get(msg_type, str(msg_type))
                # the optional trace field stitches this handler span (and
                # its shard children) under the client's request span in a
                # merged dump; absent/malformed context -> a local root
                trace_ctx = (
                    trace_ctx_from_wire(body.get("trace"))
                    if isinstance(body, dict)
                    else None
                )
                try:
                    with obs.server_span(
                        "net_server.request", trace_ctx, type=type_name, conn=conn_id
                    ):
                        reply_type, reply = self._dispatch(msg_type, body, conn_fp)
                except ValueError as exc:
                    # the tier's deterministic rejection of this one request
                    # (tau / encoder mismatch, malformed tree, wrong key
                    # size): answered, and the connection stays up
                    with self._lock:
                        self.stats.app_errors += 1
                    reply_type = MSG_ERROR
                    reply = {"kind": "app", "message": str(exc)}
                obs.histogram(
                    "net_server_request_seconds",
                    type=type_name,
                    conn=conn_id,
                ).observe(time.monotonic() - t0)
                send_frame(conn, reply_type, request_id, reply)
        except FrameTimeout as exc:
            # idle-connection reaping: quiet-between-frames is an expected
            # liveness event (the client reconnects on demand), mid-frame
            # silence is logged like any poisoned stream
            with self._lock:
                self.stats.idle_reaped += 1
            obs.counter("net_server_idle_reaped_total", server=self.name).inc()
            if exc.mid_frame:
                log.info("connection %d (%s): reaped %s", conn_id, peer, exc)
            self._bail(conn, exc)
        except ProtocolError as exc:
            with self._lock:
                self.stats.protocol_errors += 1
            log.info("connection %d (%s): %s", conn_id, peer, exc)
            self._bail(conn, exc)
        except OSError:
            pass  # peer vanished while we were replying
        except Exception as exc:  # noqa: BLE001 — a server bug must not hang the client
            log.exception("connection %d (%s): unexpected failure", conn_id, peer)
            self._bail(conn, ProtocolError(f"internal server error: {exc}"))
        finally:
            try:
                conn.close()
            except OSError:
                pass
            with self._lock:
                self._conns.pop(conn_id, None)
                self.stats.active_connections -= 1

    def _handshake(self, conn: socket.socket, reader: FrameReader) -> dict | None:
        """First frame must be a version-compatible HELLO; anything else is
        answered with a typed error and the connection closes.  Returns the
        client's encoder fingerprint (re-checked per data request)."""
        msg_type, request_id, body = reader.read_frame()
        if msg_type != MSG_HELLO:
            raise MessageError(
                f"expected a hello frame first, got message type {msg_type}"
            )
        client_version = body.get("version") if isinstance(body, dict) else None
        if client_version != PROTOCOL_VERSION:
            raise VersionMismatch(
                f"client speaks protocol version {client_version!r}, this server "
                f"speaks {PROTOCOL_VERSION} — upgrade the older side"
            )
        conn_fp = body.get("encoder")
        self.router.check_encoder(conn_fp)
        send_frame(
            conn,
            MSG_HELLO_OK,
            request_id,
            {
                "version": PROTOCOL_VERSION,
                "server": self.name,
                "n_shards": self.router.n_shards,
                "tau": self.memo.tau,
            },
        )
        return conn_fp

    def _bail(self, conn: socket.socket, exc: ProtocolError) -> None:
        """Best-effort typed error frame before closing a poisoned stream."""
        try:
            send_frame(
                conn, MSG_ERROR, 0, {"kind": type(exc).__name__, "message": str(exc)}
            )
        except OSError:
            pass

    @staticmethod
    def _body_field(body, field_name: str):
        if not isinstance(body, dict) or field_name not in body:
            raise MessageError(f"request body missing {field_name!r}")
        return body[field_name]

    def _claim_batch(self, body) -> bool:
        """Insert-replay dedup: False when the request's batch tag was
        already applied.  A tag must be ``str`` or ``int`` — anything else
        (unhashable or unstable under ``str``) is a malformed message."""
        tag = body.get("batch") if isinstance(body, dict) else None
        if tag is None:
            return True
        if isinstance(tag, bool) or not isinstance(tag, (str, int)):
            raise MessageError(
                f"insert batch tag must be str or int, got {type(tag).__name__}"
            )
        tag = str(tag)
        with self._lock:
            if tag in self._applied_batches:
                self.stats.duplicate_insert_batches += 1
                return False
            # reserve before applying: a replay racing the original
            # connection's in-flight application must not apply twice
            self._applied_batches[tag] = None
            while len(self._applied_batches) > self._dedup_window:
                self._applied_batches.pop(next(iter(self._applied_batches)))
        return True

    def _dispatch(self, msg_type: int, body, conn_fp: dict | None = None):
        if msg_type == MSG_QUERY:
            # an unpinned tier answers anyone (it can only miss); once data
            # pinned a provenance, conflicting clients must not read it
            self.router.check_encoder(conn_fp)
            queries = queries_from_wire(self._body_field(body, "queries"))
            outcomes = self.router.query_batch(queries)
            with self._lock:
                self.stats.query_batches += 1
                self.stats.queries += len(queries)
            return MSG_QUERY_OK, {"outcomes": outcomes_to_wire(outcomes)}
        if msg_type == MSG_INSERT:
            self.router.check_encoder(conn_fp, pin=True)  # first data pins
            if not self._claim_batch(body):
                obs.counter("net_server_duplicate_batches_total", server=self.name).inc()
                return MSG_INSERT_OK, {"ids": [], "duplicate": True}
            inserts = inserts_from_wire(self._body_field(body, "inserts"))
            ids = self.router.insert_batch(inserts)
            with self._lock:
                self.stats.insert_batches += 1
                self.stats.inserts += len(inserts)
            return MSG_INSERT_OK, {"ids": [int(i) for i in ids]}
        if msg_type == MSG_STATS:
            op = body.get("op") if isinstance(body, dict) else None
            op = None if op is None else str(op)
            per_shard = self.router.shard_stats(op)
            with self._lock:
                self.stats.stats_pulls += 1
            # per-shard statistics and entries (the client derives the
            # merged view)
            return MSG_STATS_OK, {
                "op": op,
                "per_shard": [stats_to_wire(s) for s, _n in per_shard],
                "entries": [int(n) for _s, n in per_shard],
            }
        if msg_type == MSG_SNAP_PUSH:
            tree = self._body_field(body, "tree")
            self.router.push_state(tree)
            with self._lock:
                self.stats.snapshot_pushes += 1
            return MSG_SNAP_PUSH_OK, {"partitions": len(memo_state_partitions(tree))}
        if msg_type == MSG_SNAP_PULL:
            tree = self.router.state_dict()
            with self._lock:
                self.stats.snapshot_pulls += 1
            return MSG_SNAP_PULL_OK, {"tree": tree}
        if msg_type == MSG_PING:
            with self._lock:
                self.stats.pings += 1
            return MSG_PING_OK, {"server": self.name}
        raise MessageError(f"unknown request type {msg_type}")


# -- standalone entry point ----------------------------------------------------------------


def main(argv=None) -> int:
    """``python -m repro.net.server``: run a memo server in the foreground."""
    parser = argparse.ArgumentParser(
        description=(
            "mLR memo server daemon: one shared memoization tier for many "
            "hosts — the TCP wire (handshake, insert-replay dedup, "
            "persistence, telemetry) in front of a sharded in-process memo "
            "tier, which hosts the partitions and checks tau / encoder "
            "provenance"
        )
    )
    parser.add_argument("--host", default="0.0.0.0", help="bind address")
    parser.add_argument("--port", type=int, default=9876, help="bind port (0 = ephemeral)")
    parser.add_argument(
        "--shards", type=int, default=4,
        help="database shards (each serialises its own traffic; requests "
             "for different shards overlap across connections)",
    )
    parser.add_argument("--tau", type=float, default=0.92, help="similarity threshold")
    parser.add_argument(
        "--snapshot", default=None,
        help="snapshot directory for boot warm-start and persistence",
    )
    parser.add_argument(
        "--snapshot-interval", type=float, default=300.0,
        help="seconds between periodic snapshots (with --snapshot)",
    )
    parser.add_argument(
        "--idle-timeout", type=float, default=None, metavar="SECONDS",
        help="reap connections idle longer than this (clients send no "
             "heartbeats by themselves and reconnect on their next request; "
             "default: never reap)",
    )
    parser.add_argument(
        "--telemetry-port", type=int, default=None, metavar="PORT",
        help="serve /metrics /healthz /readyz /snapshot on this HTTP port — "
             "the daemon's only telemetry egress: scrape it, or point "
             "`python -m repro.obs report` at it "
             "(0 = ephemeral; default: no telemetry server)",
    )
    parser.add_argument(
        "--telemetry-host", default="127.0.0.1",
        help="bind address for --telemetry-port (default: 127.0.0.1)",
    )
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(name)s %(message)s")
    daemon = MemoServerDaemon(
        host=args.host,
        port=args.port,
        n_shards=args.shards,
        memo=MemoConfig(tau=args.tau),
        snapshot_path=args.snapshot,
        snapshot_interval_s=args.snapshot_interval if args.snapshot else None,
        idle_timeout_s=args.idle_timeout,
        telemetry_port=args.telemetry_port,
        telemetry_host=args.telemetry_host,
    )
    host, port = daemon.address
    log.info(
        "memo server listening on %s:%d (%d shards, tau=%g)",
        host, port, daemon.router.n_shards, daemon.memo.tau,
    )
    if daemon.telemetry is not None:
        log.info("telemetry plane at %s", daemon.telemetry.url)
    try:
        threading.Event().wait()  # serve until interrupted
    except KeyboardInterrupt:
        log.info("shutting down")
    finally:
        daemon.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
