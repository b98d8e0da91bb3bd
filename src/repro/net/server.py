"""The memo server daemon: one shared memoization service for many hosts.

:class:`MemoServerDaemon` hosts a :class:`~repro.core.memo_shard.MemoShardRouter`
behind the TCP wire protocol of :mod:`repro.net.wire`, turning the
in-process memo service into the multi-host deployment the paper's beamline
setting implies (detector node, compute nodes, storage nodes sharing one
memory node):

- **shards map to worker threads** — each shard owns a single-thread
  executor, so traffic for different shards is serviced concurrently while
  each shard's partitions see strictly serialized access (the same
  consistency the in-process router gets from the GIL's per-call ordering),
- **per-connection framing state** — every client connection gets its own
  handler thread and :class:`~repro.net.wire.FrameReader`; a malformed
  frame poisons only that connection (typed error back, then close), never
  the daemon,
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
import contextvars
import logging
import os
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from ..core.config import MemoConfig
from ..core.memo_engine import make_db_factory, memo_state_partitions
from ..core.memo_shard import MemoShardRouter
from ..faults import runtime as faults
from ..obs import runtime as obs
from .wire import (
    FEATURE_TRACE,
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
    parse_address_list,
    queries_from_wire,
    send_frame,
    stats_to_wire,
    trace_ctx_from_wire,
)

__all__ = ["ServerStats", "MemoServerDaemon", "main"]

log = logging.getLogger("repro.net.server")


class _AppError(RuntimeError):
    """Request-level failure (config mismatch, bad snapshot): answered with
    an MSG_ERROR frame, the connection stays up."""


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
        self.router = MemoShardRouter(n_shards, make_db_factory(self.memo))
        self.stats = ServerStats()  # guarded-by: self._lock
        self.snapshot_path = os.fspath(snapshot_path) if snapshot_path else None
        self.snapshot_interval_s = snapshot_interval_s
        self._max_payload = max_payload
        #: reap a connection that sends nothing for this long (None = never);
        #: clients heartbeat with MSG_PING to stay alive across quiet spans
        self.idle_timeout_s = idle_timeout_s
        self._lock = threading.Lock()
        # provenance of the stored keys
        self._encoder_fp: dict | None = None  # guarded-by: self._lock
        # optional CNN encoder weights
        self._encoder_state: dict | None = None  # guarded-by: self._lock
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
        # one worker thread per shard: cross-shard concurrency, within-shard
        # serialization — snapshot/stat reads run on the same threads, so
        # they always observe a shard at a batch boundary
        self._shard_pools = [
            ThreadPoolExecutor(max_workers=1, thread_name_prefix=f"{name}-shard{s}")
            for s in range(n_shards)
        ]
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
        connection handler, persist a final snapshot, stop shard workers."""
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
        for pool in self._shard_pools:
            pool.shutdown(wait=True)

    @property
    def running(self) -> bool:
        return not self._stop.is_set()

    # -- persistence ---------------------------------------------------------------------

    def _load_boot_snapshot(self) -> None:
        from ..service.snapshot import SnapshotError, quarantine_snapshot, read_snapshot

        manifest = os.path.join(self.snapshot_path, "manifest.json")
        if not os.path.isfile(manifest):
            return
        try:
            tree = read_snapshot(self.snapshot_path, expect_kind="memo-state")
        except SnapshotError as exc:
            # a corrupt snapshot must neither kill the daemon nor be
            # overwritten by the next periodic save: move it aside
            # (<path>.corrupt) and cold-start
            quarantined = quarantine_snapshot(self.snapshot_path)
            with self._lock:
                self.stats.snapshots_quarantined += 1
            obs.counter("snapshot_quarantined_total", where="server-boot").inc()
            obs.flight_dump(
                "snapshot-quarantine",
                where="server-boot",
                server=self.name,
                snapshot=str(self.snapshot_path),
                error=str(exc),
            )
            log.warning(
                "boot snapshot at %s unusable (%s) — quarantined to %s, "
                "starting cold",
                self.snapshot_path, exc, quarantined,
            )
            return
        self.push_state(tree)
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
        manifest = write_snapshot(self.snapshot_path, self.pull_state(), kind="memo-state")
        with self._lock:
            self.stats.snapshots_persisted += 1
        return manifest

    def _snapshot_loop(self) -> None:
        while not self._stop.wait(self.snapshot_interval_s):
            try:
                self.save_snapshot()
            except Exception as exc:  # noqa: BLE001 — persistence must not kill serving
                log.warning("periodic snapshot failed: %s", exc)

    # -- sharded dispatch ----------------------------------------------------------------

    def _route(self, items: list, service) -> list:
        """Group ``items`` by owning shard, service every group on its
        shard's worker thread concurrently, reassemble in request order —
        the server-side mirror of ``MemoShardRouter``'s scatter/gather."""
        results: list = [None] * len(items)
        groups: dict[int, list[int]] = {}
        for i, item in enumerate(items):
            groups.setdefault(self.router.shard_of(item.location), []).append(i)
        if faults.installed():
            inner = service

            def stalled(sid: int, group: list):
                # slow-shard injection point: the stall runs on the shard's
                # own worker thread, so one slow shard delays only its group
                faults.maybe_stall(f"server:{self.name}:shard{sid}")
                return inner(sid, group)

            service = stalled
        if obs.enabled():
            traced = service

            def timed(sid: int, group: list):
                t0 = time.monotonic()
                try:
                    with obs.span("net_server.shard", shard=sid, items=len(group)):
                        return traced(sid, group)
                finally:
                    obs.histogram(
                        "net_server_shard_seconds", shard=sid
                    ).observe(time.monotonic() - t0)

            # each submission runs under a fresh copy of this handler
            # thread's contextvars, so the shard span parents under the
            # request span even though pool threads start with an empty
            # context.  One copy per submission: a Context object cannot
            # be entered concurrently from two threads
            futures = {
                sid: self._shard_pools[sid].submit(
                    contextvars.copy_context().run,
                    timed,
                    sid,
                    [items[i] for i in idxs],
                )
                for sid, idxs in groups.items()
            }
        else:
            futures = {
                sid: self._shard_pools[sid].submit(
                    service, sid, [items[i] for i in idxs]
                )
                for sid, idxs in groups.items()
            }
        for sid, idxs in groups.items():
            for i, res in zip(idxs, futures[sid].result()):
                results[i] = res
        return results

    def _on_all_shards(self, fn) -> list:
        """Run ``fn(shard)`` on every shard's worker thread; results in
        shard order.  Snapshot and stats reads go through here so they see
        each shard quiesced at a message boundary."""
        futures = [
            pool.submit(fn, shard)
            for pool, shard in zip(self._shard_pools, self.router.shards)
        ]
        return [f.result() for f in futures]

    def serve_query_batch(self, queries) -> list:
        return self._route(
            queries, lambda sid, group: self.router.shards[sid].query_batch(group)
        )

    def serve_insert_batch(self, inserts) -> list[int]:
        return self._route(
            inserts, lambda sid, group: self.router.shards[sid].insert_batch(group)
        )

    # -- snapshot / stats service --------------------------------------------------------

    def pull_state(self) -> dict:
        """The full tier as a ``memo_state()``-compatible tree (sharded
        layout), including key-encoder provenance when one was pushed."""
        shard_states = self._on_all_shards(lambda shard: shard.state_dict())
        tree = {
            "layout": "sharded",
            "n_shards": self.router.n_shards,
            "shards": shard_states,
        }
        with self._lock:
            if self._encoder_fp is not None:
                tree["encoder"] = dict(self._encoder_fp)
            if self._encoder_state is not None:
                tree["encoder_state"] = self._encoder_state
        return tree

    def _check_encoder_fp(self, fp: dict | None, how: str, pin: bool) -> None:
        """One encoder feeds a shared tier: reject a fingerprint conflicting
        with the pinned one.  Keys from different encoders never tau-match,
        so mixing them silently poisons every client's hit decisions.

        Pinning happens only on *data* (``pin=True``: inserts, snapshot
        pushes, boot snapshots) — a handshake or query against a still-empty
        tier must not lock every differently-keyed client out forever."""
        if not fp:
            return
        with self._lock:
            known = self._encoder_fp
            if known is None:
                if pin:
                    self._encoder_fp = dict(fp)
                return
        for field_name in ("kind", "dim", "weights"):
            ours, theirs = known.get(field_name), fp.get(field_name)
            if ours and theirs and ours != theirs:
                raise _AppError(
                    f"{how} keys come from a different encoder "
                    f"({field_name}: {theirs!r} != {ours!r}) — a shared tier "
                    "must be fed by one encoder"
                )

    def _check_push(self, tree: dict) -> None:
        """Reject a pushed tree that would silently change memoization
        semantics: a tau mismatch, or keys from a different encoder than
        the tier already holds."""
        if not isinstance(tree, dict) or "layout" not in tree:
            raise _AppError("snapshot push payload is not a memo-state tree")
        try:
            partitions = memo_state_partitions(tree)
        except (KeyError, TypeError) as exc:
            raise _AppError(f"malformed memo-state tree: {exc!r}") from None
        for part in partitions:
            try:
                tau = float(part["db"]["config"]["tau"])
            except (KeyError, TypeError, ValueError) as exc:
                raise _AppError(f"malformed partition in push: {exc!r}") from None
            if tau != self.memo.tau:
                raise _AppError(
                    f"pushed partition tau {tau} != server tau {self.memo.tau}"
                )
        self._check_encoder_fp(tree.get("encoder"), "pushed", pin=True)

    def _remember_encoder(self, tree: dict) -> None:
        with self._lock:
            if tree.get("encoder"):
                self._encoder_fp = dict(tree["encoder"])
            if tree.get("encoder_state"):
                self._encoder_state = tree["encoder_state"]

    def check_client_encoder(self, fp: dict | None, pin: bool = False) -> None:
        """Provenance gate for hot-path (query/insert) clients — the
        snapshot-push check alone would let two hosts with different CNN
        trainings quietly co-mingle keys in one tier.  Checked at handshake
        and on every query; checked *and pinned* on every insert (first
        data wins)."""
        self._check_encoder_fp(fp, "client", pin=pin)

    def push_state(self, tree: dict) -> int:
        """Merge a pushed tier into the live router — the router's own
        :meth:`~repro.core.memo_shard.MemoShardRouter.push_state`, with each
        shard's install run on that shard's worker thread; returns the
        number of partitions installed.  A malformed partition is answered
        as a request-level error and leaves the tier untouched."""
        self._check_push(tree)
        try:
            self.router.push_state(
                tree,
                on_shard=lambda sid, fn: self._shard_pools[sid].submit(fn).result(),
            )
        except ValueError as exc:
            raise _AppError(str(exc)) from None
        self._remember_encoder(tree)
        return len(memo_state_partitions(tree))

    def resync_from(self, peers) -> int:
        """Anti-entropy resync: pull a peer replica's merged tier and merge
        it into this daemon (partition-level union, peer's partitions win
        for conflicts — the rejoining side is the stale one by definition).

        ``peers`` is anything :func:`parse_address_list` accepts; peers are
        tried in order and the first reachable one is used.  Returns the
        number of partitions installed (0 when every peer is down or the
        first reachable peer is cold — a rejoin must come up regardless)."""
        from .client import RemoteMemoClient

        installed = 0
        for host, port in parse_address_list(peers):
            if (host, port) == tuple(self.address):
                continue  # resyncing from ourselves is a no-op
            try:
                with RemoteMemoClient(
                    (host, port),
                    expect_tau=self.memo.tau,
                    fail_open=False,
                    client_name=f"{self.name}-resync",
                ) as peer_client:
                    tree = peer_client.state_dict()
            except (OSError, ProtocolError) as exc:
                log.info("resync peer %s:%d unreachable: %s", host, port, exc)
                continue
            if memo_state_partitions(tree) or tree.get("encoder_state"):
                installed = self.push_state(tree)
            log.info(
                "resynced %d partitions from peer %s:%d", installed, host, port
            )
            obs.counter("net_server_resync_total", server=self.name).inc()
            return installed
        log.info("%s: no reachable resync peer — serving cold", self.name)
        return 0

    def _telemetry_collect(self) -> list[dict]:
        """Telemetry-plane collect hook: publish the traffic counters as
        ``net_server_*`` gauges (side effect into the registry, picked up
        by the same scrape) and return fresh-per-scrape
        ``memo_entry_age_seconds`` histogram entries from the per-entry
        heat metadata.  Runs on the scrape thread; the heat walk hops to
        each shard's worker thread so stores are read quiesced."""
        from ..obs.heat import age_histogram_entries, entry_records_from_store

        with self._lock:
            stats_now = ServerStats(**vars(self.stats))
        # published from the copy: the registry lock never nests under ours
        obs.publish_gauges("net_server", stats_now, server=self.name)

        def walk(shard) -> list[dict]:
            records: list[dict] = []
            for (op, loc), db in shard._dbs.items():
                records.extend(
                    entry_records_from_store(db.values, op, shard.shard_id, loc)
                )
            return records

        all_records = [r for recs in self._on_all_shards(walk) for r in recs]
        return age_histogram_entries(all_records)

    def serve_stats(self, op: str | None) -> dict:
        """Per-shard statistics, entries and message counters in one body
        (the client derives the merged view)."""
        per_shard = self._on_all_shards(
            lambda shard: (shard.stats(op), shard.entries(op))
        )
        return {
            "op": op,
            "per_shard": [stats_to_wire(s) for s, _n in per_shard],
            "entries": [int(n) for _s, n in per_shard],
            "query_messages": [int(s.query_messages) for s in self.router.shards],
            "insert_messages": [int(s.insert_messages) for s in self.router.shards],
        }

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
            # a hung or vanished peer can then never park this handler (or,
            # through a blocking read, a shard worker) forever: the recv
            # deadline turns silence into a FrameTimeout we reap below
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
            except _AppError as exc:
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
                except _AppError as exc:
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
        self.check_client_encoder(conn_fp)
        send_frame(
            conn,
            MSG_HELLO_OK,
            request_id,
            {
                "version": PROTOCOL_VERSION,
                "server": self.name,
                "n_shards": self.router.n_shards,
                "tau": self.memo.tau,
                # capability advert: clients attach trace context only when
                # the feature is listed, so old servers never see the key
                "features": [FEATURE_TRACE],
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

    def _dispatch(self, msg_type: int, body, conn_fp: dict | None = None):
        if msg_type == MSG_QUERY:
            # an unpinned tier answers anyone (it can only miss); once data
            # pinned a provenance, conflicting clients must not read it
            self.check_client_encoder(conn_fp)
            queries = queries_from_wire(self._body_field(body, "queries"))
            outcomes = self.serve_query_batch(queries)
            with self._lock:
                self.stats.query_batches += 1
                self.stats.queries += len(queries)
            return MSG_QUERY_OK, {"outcomes": outcomes_to_wire(outcomes)}
        if msg_type == MSG_INSERT:
            self.check_client_encoder(conn_fp, pin=True)  # first data pins
            batch_tag = body.get("batch") if isinstance(body, dict) else None
            if batch_tag is not None:
                with self._lock:
                    if batch_tag in self._applied_batches:
                        self.stats.duplicate_insert_batches += 1
                        obs.counter(
                            "net_server_duplicate_batches_total", server=self.name
                        ).inc()
                        return MSG_INSERT_OK, {"ids": [], "duplicate": True}
                    # reserve before applying: a replay racing the original
                    # connection's in-flight application must not apply twice
                    self._applied_batches[str(batch_tag)] = None
                    while len(self._applied_batches) > self._dedup_window:
                        self._applied_batches.pop(next(iter(self._applied_batches)))
            inserts = inserts_from_wire(self._body_field(body, "inserts"))
            ids = self.serve_insert_batch(inserts)
            with self._lock:
                self.stats.insert_batches += 1
                self.stats.inserts += len(inserts)
            return MSG_INSERT_OK, {"ids": [int(i) for i in ids]}
        if msg_type == MSG_STATS:
            op = body.get("op") if isinstance(body, dict) else None
            with self._lock:
                self.stats.stats_pulls += 1
            return MSG_STATS_OK, self.serve_stats(None if op is None else str(op))
        if msg_type == MSG_SNAP_PUSH:
            installed = self.push_state(self._body_field(body, "tree"))
            with self._lock:
                self.stats.snapshot_pushes += 1
            return MSG_SNAP_PUSH_OK, {"partitions": installed}
        if msg_type == MSG_SNAP_PULL:
            tree = self.pull_state()
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
        description="mLR memo server daemon: shared remote memoization service"
    )
    parser.add_argument("--host", default="0.0.0.0", help="bind address")
    parser.add_argument("--port", type=int, default=9876, help="bind port (0 = ephemeral)")
    parser.add_argument("--shards", type=int, default=4, help="database shards")
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
        help="reap connections idle longer than this (clients heartbeat "
             "with MSG_PING; default: never reap)",
    )
    parser.add_argument(
        "--peer", default=None, metavar="HOST:PORT[,HOST:PORT...]",
        help="replica peer(s) to anti-entropy resync from at boot "
             "(first reachable peer wins; unreachable peers are skipped)",
    )
    parser.add_argument(
        "--telemetry-port", type=int, default=None, metavar="PORT",
        help="serve /metrics /healthz /readyz /snapshot on this HTTP port — "
             "the daemon's only telemetry egress: scrape it, or point "
             "`python -m repro.obs report|top` at it "
             "(0 = ephemeral; default: no telemetry server)",
    )
    parser.add_argument(
        "--telemetry-host", default="127.0.0.1",
        help="bind address for --telemetry-port (default: 127.0.0.1)",
    )
    args = parser.parse_args(argv)
    if args.peer is not None:
        # fail fast on a malformed list (the error names the bad element)
        # before binding a port the operator then has to clean up
        parse_address_list(args.peer)
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
    if args.peer is not None:
        try:
            daemon.resync_from(args.peer)
        except Exception as exc:  # noqa: BLE001 — a failed resync must not kill boot
            log.warning("peer resync failed (%s) — serving with local state", exc)
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
