"""Remote memo client: a :class:`~repro.core.memo_shard.MemoTier` over a
TCP connection to a :class:`~repro.net.server.MemoServerDaemon`.

:class:`RemoteMemoClient` supplies the tier's primitives over the wire —
``query_batch`` / ``insert_batch`` / ``shard_stats`` / ``state_dict`` /
``push_state`` — so every caller above it is transport-blind;
:func:`connect_tier` is the one place an address list becomes a tier (one
address: this client; more: the replication tier of
:mod:`repro.net.replicated` over one client per daemon).

Three behaviors define it:

- **request pipelining** — insert batches (asynchronous in the paper:
  nothing in a sweep depends on them) are transmitted without waiting for
  the acknowledgement; acks are drained opportunistically before the next
  synchronous request, so the insert round trip overlaps the next sweep's
  compute,
- **reconnect with backoff** — a lost connection schedules an exponentially
  backed-off retry; every call transparently reconnects once the retry
  window opens,
- **fail-open** — with ``fail_open=True`` (the default) a dead or
  unreachable server degrades queries to all-miss outcomes and drops
  inserts/stats on the floor: the reconstruction continues on cold compute
  and *never* fails because the memo tier did.  Deterministic
  misconfiguration (protocol version skew, tau mismatch against the
  server) always raises — a mismatched tier would silently change
  hit/miss decisions, which is worse than unavailability.

The wire carries memo traffic only: this client's transport counters are
``net_stats`` (published as ``net_client_*`` gauges by the solver), and a
daemon's own metrics and spans are read from its HTTP telemetry plane.
"""

from __future__ import annotations

import itertools
import logging
import os
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass

from ..core.memo_db import MemoDBStats, QueryOutcome
from ..core.memo_shard import MemoTier, empty_memo_state
from ..faults import runtime as faults
from ..obs import runtime as obs
from .policy import RetryPolicy, seed_from_name
from .wire import (
    MESSAGE_NAMES,
    MSG_ERROR,
    MSG_HELLO,
    MSG_HELLO_OK,
    MSG_INSERT,
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
    FrameReader,
    MessageError,
    ProtocolError,
    RemoteError,
    VersionMismatch,
    inserts_to_wire,
    outcomes_from_wire,
    parse_address,
    parse_address_list,
    queries_to_wire,
    send_frame,
    stats_from_wire,
    trace_ctx_to_wire,
)

__all__ = ["NetClientStats", "RemoteMemoClient", "TransportUnavailable", "connect_tier"]

log = logging.getLogger("repro.net.client")

# distinguishes same-named client instances (two solvers sharing one tier)
# in the insert-batch tags the server dedups replays by
_instance_seq = itertools.count(1)


class TransportUnavailable(ConnectionError):
    """The memo server cannot be reached (raised only with fail_open=False)."""


@dataclass
class NetClientStats:
    """Client-side transport counters (reconnects, degradation, pipelining)."""

    connects: int = 0
    connect_failures: int = 0
    requests: int = 0
    degraded_query_batches: int = 0
    degraded_queries: int = 0
    degraded_insert_batches: int = 0
    degraded_stats_pulls: int = 0
    pipelined_inserts: int = 0
    drained_acks: int = 0
    retries: int = 0
    replayed_insert_batches: int = 0
    dropped_replays: int = 0


class RemoteMemoClient(MemoTier):
    """One host's connection to the shared memo service.

    ``expect_tau`` (usually the local
    :class:`~repro.core.config.MemoConfig`'s) is checked against the
    server's advertised configuration at handshake; a mismatch raises
    ``ValueError`` regardless of ``fail_open``, because serving hits gated
    by a different tau would silently change memoization decisions.

    ``encoder_fingerprint`` (the executor's ``_encoder_fingerprint()``) is
    sent at handshake; the server pins the first one it sees and rejects
    conflicting clients, so two hosts with different CNN trainings cannot
    quietly co-mingle keys in one tier.  ``n_shards_hint`` labels shard ids
    (for event traces) until the first successful handshake reports the
    server's true shard count.
    """

    def __init__(
        self,
        address,
        expect_tau: float | None = None,
        encoder_fingerprint: dict | None = None,
        fail_open: bool = True,
        n_shards_hint: int = 1,
        connect_timeout: float = 5.0,
        io_timeout: float | None = 60.0,
        max_inflight: int = 8,
        client_name: str = "memo-client",
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self.address = parse_address(address)
        self.label = f"{self.address[0]}:{self.address[1]}"
        self.expect_tau = expect_tau
        self.encoder_fingerprint = encoder_fingerprint
        self.fail_open = fail_open
        self.connect_timeout = connect_timeout
        self.io_timeout = io_timeout
        self.max_inflight = max_inflight
        self.client_name = client_name
        self.retry_policy = retry_policy or RetryPolicy()
        self.net_stats = NetClientStats()  # guarded-by: self._lock
        self._n_shards = max(1, int(n_shards_hint))
        # fault-injection site keyed by the client NAME, not host:port — the
        # chaos suite replays plans across runs whose daemons sit on fresh
        # ephemeral ports, and the per-site RNG streams must line up
        self._fault_site = f"client:{client_name}"
        # insert batches are tagged so the server can skip replayed
        # duplicates (at-least-once wire delivery, at-most-once application)
        self._batch_tag = f"{client_name}#{os.getpid()}.{next(_instance_seq)}"
        self._insert_seq = 0  # guarded-by: self._lock
        self._lock = threading.RLock()
        self._sock: socket.socket | None = None  # guarded-by: self._lock
        self._reader: FrameReader | None = None  # guarded-by: self._lock
        # (request id, wire body) of unacked pipelined inserts — the body
        # rides along so a dropped connection can replay them on reconnect
        self._pending: deque[tuple[int, dict]] = deque()  # guarded-by: self._lock
        # unacked insert bodies salvaged from a dropped connection
        self._replay: list[dict] = []  # guarded-by: self._lock
        self._req_seq = 0  # guarded-by: self._lock
        # seeded decorrelated-jitter schedule: reproducible per client name,
        # different across clients (no thundering herd on daemon restart)
        self._backoff_state = self.retry_policy.backoff(  # guarded-by: self._lock
            seed_from_name(f"{client_name}@{self.label}")
        )
        # monotonic deadline for the next connect try
        self._next_attempt = 0.0  # guarded-by: self._lock
        self._closed = False  # guarded-by: self._lock
        self._outage_logged = False  # guarded-by: self._lock
        # eager first connect: deterministic misconfiguration (version/tau
        # skew) surfaces at construction; a merely-down server follows the
        # fail-open rules like any later call
        try:
            self._ensure_locked()
        except VersionMismatch:
            raise
        except (OSError, ProtocolError):
            if not fail_open:
                raise

    # -- connection management -----------------------------------------------------------

    @property
    def connected(self) -> bool:
        with self._lock:
            return self._sock is not None

    @property
    def n_shards(self) -> int:
        """The server's shard count once a handshake reported it, the
        constructor hint before that (``shard_of`` labels with it)."""
        return self._n_shards

    def reset_backoff(self) -> None:
        """Forget the current backoff window so the next call retries
        immediately — for callers that *know* the server just came back
        (tests, operator tooling) rather than waiting out the schedule."""
        with self._lock:
            self._backoff_state.reset()
            self._next_attempt = 0.0

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._drop_locked()
            self._replay.clear()

    def _drop_locked(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._reader = None
        if self._pending:
            # salvage unacked insert bodies for replay on reconnect — the
            # server may or may not have applied them; re-applying is safe
            # (inserts are idempotent at the memo level: same key, same
            # value) while dropping them silently cools the shared tier
            self._replay.extend(body for _rid, body in self._pending)
            cap = 4 * self.max_inflight
            if len(self._replay) > cap:
                dropped = len(self._replay) - cap
                self._replay = self._replay[-cap:]
                self.net_stats.dropped_replays += dropped
        self._pending.clear()

    def _fail_locked(self, exc: Exception, arm_backoff: bool = True) -> None:
        """Connection-level failure: drop the socket and — for failed
        *connect* attempts — arm the backoff window (decorrelated jitter
        under the hard cap, see RetryPolicy).  A dropped *established*
        connection passes ``arm_backoff=False``: the server may be
        perfectly healthy (a faulted frame, a reset), so the next request
        reconnects immediately; only if that connect itself fails does the
        window arm.  This is what keeps a recoverable fault from degrading
        queries that a live server would have answered."""
        self._drop_locked()
        self.net_stats.connect_failures += 1
        if arm_backoff:
            self._next_attempt = time.monotonic() + self._backoff_state.next_delay()
        else:
            self._next_attempt = 0.0
        if not self._outage_logged:
            log.warning(
                "%s: memo server %s:%d unavailable (%s) — degrading to cold "
                "compute, will keep retrying",
                self.client_name, self.address[0], self.address[1], exc,
            )
            self._outage_logged = True

    def _ensure_locked(self) -> bool:
        """Connect + handshake if disconnected; False while backing off or
        unreachable (after arming the next retry)."""
        if self._closed:
            raise TransportUnavailable("client is closed")
        if self._sock is not None:
            return True
        if time.monotonic() < self._next_attempt:
            return False
        try:
            faults.on_connect(self._fault_site)
            sock = socket.create_connection(self.address, timeout=self.connect_timeout)
        except OSError as exc:
            self._fail_locked(exc)
            return False
        sock = faults.wrap_socket(sock, self._fault_site)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(self.connect_timeout)
            reader = FrameReader(sock)
            send_frame(
                sock, MSG_HELLO, 0,
                {
                    "version": PROTOCOL_VERSION,
                    "client": self.client_name,
                    "encoder": self.encoder_fingerprint,
                },
            )
            msg_type, _rid, body = reader.read_frame()
            if msg_type == MSG_ERROR:
                self._raise_remote(body)
            if msg_type != MSG_HELLO_OK or not isinstance(body, dict):
                raise MessageError(f"unexpected handshake reply type {msg_type}")
            self._check_server(body)
            sock.settimeout(self.io_timeout)
        except VersionMismatch:
            sock.close()
            raise  # deterministic: retrying cannot help, fail fast
        except ValueError:
            sock.close()
            raise  # configuration mismatch — never degrade past it
        except RemoteError as exc:
            # the server answered the handshake with a rejection (conflicting
            # encoder provenance): deterministic, so never fail open past it
            sock.close()
            raise ValueError(
                f"memo server rejected this client: {exc.remote_message}"
            ) from None
        except (OSError, ProtocolError) as exc:
            sock.close()
            self._fail_locked(exc)
            return False
        self._sock = sock
        self._reader = reader
        self._n_shards = max(1, int(body.get("n_shards", self._n_shards)))
        self._backoff_state.reset()
        self._outage_logged = False
        self.net_stats.connects += 1
        if self._replay:
            # re-transmit insert bodies that were in flight when the last
            # connection died — this is what keeps a faulted run's tier
            # identical to the fault-free run's (re-applying an already
            # applied insert is harmless: same key, same value)
            replay, self._replay = self._replay, []
            for i, replay_body in enumerate(replay):
                try:
                    with obs.span(
                        "net_client.request", type="insert_batch",
                        pipelined=True, replayed=True,
                    ):
                        rid = self._send_locked(MSG_INSERT, replay_body)
                except (OSError, ProtocolError) as exc:
                    # _fail_locked salvages the already-sent bodies (they
                    # sit in _pending); the unsent remainder goes back too
                    self._fail_locked(exc, arm_backoff=False)
                    self._replay.extend(replay[i:])
                    return False
                self._pending.append((rid, replay_body))
                self.net_stats.replayed_insert_batches += 1
        return True

    def _check_server(self, info: dict) -> None:
        if info.get("version") != PROTOCOL_VERSION:
            raise VersionMismatch(
                f"server speaks protocol version {info.get('version')!r}, this "
                f"client speaks {PROTOCOL_VERSION} — upgrade the older side"
            )
        if self.expect_tau is not None and float(info.get("tau")) != self.expect_tau:
            raise ValueError(
                f"memo server at {self.address[0]}:{self.address[1]} runs "
                f"tau={info.get('tau')}, this client is configured for "
                f"tau={self.expect_tau} — hits would be gated differently"
            )

    @staticmethod
    def _raise_remote(body) -> None:
        kind = body.get("kind", "error") if isinstance(body, dict) else "error"
        message = body.get("message", "") if isinstance(body, dict) else repr(body)
        if kind == "VersionMismatch":
            raise VersionMismatch(message)
        raise RemoteError(kind, message)

    # -- request plumbing ----------------------------------------------------------------

    def _trace_field_locked(self) -> dict | None:
        """The outgoing request's optional trace-context field: attached
        only when observability is enabled and a span is open in this
        context, so tracing-off runs put byte-identical frames on the
        wire."""
        if not obs.enabled():
            return None
        return trace_ctx_to_wire(obs.current_trace_context())

    def _send_locked(self, msg_type: int, body) -> int:
        trace = self._trace_field_locked()
        if trace is not None and isinstance(body, dict):
            body = {**body, "trace": trace}
        self._req_seq += 1
        rid = self._req_seq
        send_frame(self._sock, msg_type, rid, body)
        self.net_stats.requests += 1
        return rid

    def _read_until_locked(self, rid: int):
        """Drain the ordered response stream up to request ``rid``; earlier
        frames must be acks of pipelined inserts (popped as they pass).
        Returns without popping ``rid`` itself even if it is the pending
        head — the caller owns that bookkeeping."""
        while True:
            msg_type, got_rid, body = self._reader.read_frame()
            if got_rid != rid:
                if self._pending and got_rid == self._pending[0][0]:
                    self._pending.popleft()
                    self.net_stats.drained_acks += 1
                    if msg_type == MSG_ERROR:
                        log.warning("pipelined insert %d rejected: %s", got_rid, body)
                    continue
                raise MessageError(
                    f"response for unknown request {got_rid} (awaiting {rid})"
                )
            if msg_type == MSG_ERROR:
                self._raise_remote(body)
            return msg_type, body

    def _sync_request(self, msg_type: int, body, expect_type: int):
        """One synchronous round trip under the lock; transport failures
        propagate as the underlying exception (callers decide fail-open).

        Failures on an *established* connection are retried under
        ``retry_policy`` (reconnect after the jittered backoff window, up
        to ``max_attempts`` within ``deadline_s``) — a mid-frame drop or a
        recv timeout recovers transparently.  An initially unreachable
        server is NOT retried here: that is the fail-open path, and the
        backoff window already rations connect attempts."""
        policy = self.retry_policy
        type_name = MESSAGE_NAMES.get(msg_type, str(msg_type))
        with self._lock:
            if not self._ensure_locked():
                raise TransportUnavailable(
                    f"memo server {self.address[0]}:{self.address[1]} is "
                    "unreachable (backing off)"
                )
            deadline = (
                None
                if policy.deadline_s is None
                else time.monotonic() + policy.deadline_s
            )
            last_exc: Exception | None = None
            for attempt in range(1, policy.max_attempts + 1):
                if self._sock is None:
                    # reconnect for a retry attempt: wait out the (short,
                    # jittered) backoff window unless that blows the deadline
                    delay = max(0.0, self._next_attempt - time.monotonic())
                    if deadline is not None and time.monotonic() + delay > deadline:
                        break
                    if delay > 0:
                        time.sleep(delay)
                    self._next_attempt = 0.0
                    if not self._ensure_locked():
                        last_exc = TransportUnavailable(
                            f"memo server {self.address[0]}:{self.address[1]} "
                            "refused the retry reconnect"
                        )
                        continue
                    self.net_stats.retries += 1
                    obs.counter(
                        "net_client_retries_total", type=type_name
                    ).inc()
                t0 = time.monotonic()
                try:
                    # the request span is the hop's client-side half: the
                    # server span it parents (via the trace field read
                    # INSIDE it by _send_locked) subtracts out to the
                    # wire+queue cost in the stitched report.  Each retry
                    # attempt is its own span; all share the caller's trace
                    with obs.span(
                        "net_client.request", type=type_name, attempt=attempt
                    ):
                        rid = self._send_locked(msg_type, body)
                        reply_type, reply = self._read_until_locked(rid)
                except RemoteError:
                    raise  # the connection is fine; the request was rejected
                except (OSError, ProtocolError) as exc:
                    self._fail_locked(exc, arm_backoff=False)
                    if attempt >= policy.max_attempts:
                        raise
                    last_exc = exc
                    continue
                finally:
                    # wire round trip as seen by the caller (includes any
                    # pipelined-insert acks drained on the way to this reply)
                    obs.histogram(
                        "net_client_request_seconds", type=type_name
                    ).observe(time.monotonic() - t0)
                if reply_type != expect_type:
                    exc = MessageError(
                        f"expected reply type {expect_type}, got {reply_type}"
                    )
                    self._fail_locked(exc, arm_backoff=False)
                    raise exc
                return reply
            raise last_exc if last_exc is not None else TransportUnavailable(
                f"memo server {self.address[0]}:{self.address[1]}: "
                f"{policy.max_attempts} attempts exhausted"
            )

    def _drain_one_locked(self) -> None:
        """Block until the oldest pipelined insert is acknowledged."""
        rid = self._pending[0][0]
        try:
            self._read_until_locked(rid)
        except RemoteError as exc:
            log.warning("pipelined insert %d rejected: %s", rid, exc)
        if self._pending and self._pending[0][0] == rid:
            self._pending.popleft()
            self.net_stats.drained_acks += 1

    def flush(self) -> None:
        """Drain every outstanding pipelined insert acknowledgement.  With
        ``fail_open=False`` an undrainable connection raises (the replicated
        tier uses that to mark the replica dirty for resync); fail-open
        callers just lose the acks, like every other degraded path."""
        with self._lock:
            if self._sock is None:
                if self._replay and not self.fail_open:
                    raise TransportUnavailable(
                        f"{len(self._replay)} unacked insert batches await replay"
                    )
                return
            try:
                while self._pending:
                    self._drain_one_locked()
            except (OSError, ProtocolError) as exc:
                self._fail_locked(exc, arm_backoff=False)
                if not self.fail_open:
                    raise

    # -- the batched memo service surface ------------------------------------------------

    def query_batch(self, queries) -> list[QueryOutcome]:
        """One coalesced key batch -> outcomes in request order; a dead
        server answers all-miss (cold compute) instead of raising."""
        queries = list(queries)
        if not queries:
            return []
        try:
            reply = self._sync_request(
                MSG_QUERY, {"queries": queries_to_wire(queries)}, MSG_QUERY_OK
            )
            outcomes = outcomes_from_wire(reply.get("outcomes"))
            if len(outcomes) != len(queries):
                raise MessageError(
                    f"server answered {len(outcomes)} outcomes for "
                    f"{len(queries)} queries"
                )
            return outcomes
        except (VersionMismatch, RemoteError):
            raise
        except (OSError, ProtocolError):
            # TransportUnavailable is an OSError: unreachable and broken
            # servers degrade the same way
            if not self.fail_open:
                raise
            # the degraded counters are part of the lock-guarded stats:
            # solver threads and stats pulls race these increments otherwise
            with self._lock:
                self.net_stats.degraded_query_batches += 1
                self.net_stats.degraded_queries += len(queries)
            obs.counter("net_client_degraded_total", kind="query_batch").inc()
            obs.counter("net_client_degraded_total", kind="query").inc(len(queries))
            return [QueryOutcome(None, -2.0, -1, 0) for _ in queries]

    def insert_batch(self, inserts) -> list[int]:
        """Transmit one batched insertion message, pipelined: the call
        returns once the frame is written; the ack is drained before a later
        synchronous request.  Returns ``-1`` placeholder ids (the real ids
        live on the server; no caller consumes them remotely)."""
        inserts = list(inserts)
        if not inserts:
            return []
        with self._lock:
            # serialized (and tagged) up front so a mid-transmission failure
            # can still park the exact batch for replay — losing it would
            # cool the shared tier and make a faulted run's hit/miss
            # decisions diverge from fault-free; the tag lets the server
            # skip the replay if the original actually arrived
            self._insert_seq += 1
            wire_body = {
                "inserts": inserts_to_wire(inserts),
                "batch": f"{self._batch_tag}:{self._insert_seq}",
            }
            try:
                if not self._ensure_locked():
                    raise TransportUnavailable("backing off")
                while len(self._pending) >= self.max_inflight:
                    self._drain_one_locked()
                # pipelined: the span covers only the transmit (the ack is
                # drained later by whoever's _read_until_locked passes it);
                # the server-side handler span still parents under it via
                # the trace field, so stitched trees show fire-and-forget
                # inserts as near-zero client spans with real server work
                with obs.span("net_client.request", type="insert", pipelined=True):
                    rid = self._send_locked(MSG_INSERT, wire_body)
                self._pending.append((rid, wire_body))
                self.net_stats.pipelined_inserts += len(inserts)
            except (VersionMismatch, RemoteError):
                raise
            except TransportUnavailable:
                if not self.fail_open:
                    raise
                self.net_stats.degraded_insert_batches += 1
                obs.counter("net_client_degraded_total", kind="insert_batch").inc()
            except (OSError, ProtocolError) as exc:
                self._fail_locked(exc, arm_backoff=False)
                # the batch was never acknowledged: park it so the next
                # reconnect replays it (idempotent server-side)
                self._replay.append(wire_body)
                cap = 4 * self.max_inflight
                if len(self._replay) > cap:
                    self._replay = self._replay[-cap:]
                    self.net_stats.dropped_replays += 1
                if not self.fail_open:
                    raise
                self.net_stats.degraded_insert_batches += 1
                obs.counter("net_client_degraded_total", kind="insert_batch").inc()
        return [-1] * len(inserts)

    # -- everything off the hot path -----------------------------------------------------

    def _request_or_none(self, msg_type: int, body, expect_type: int):
        """One synchronous request under the fail-open rule the calls below
        share: deterministic rejections (version skew, a server-side
        MSG_ERROR) raise; a transport failure raises only with
        ``fail_open=False`` and otherwise answers ``None`` — the caller
        substitutes its cold value."""
        try:
            return self._sync_request(msg_type, body, expect_type)
        except (VersionMismatch, RemoteError):
            raise
        except (OSError, ProtocolError) as exc:
            # TransportUnavailable is an OSError: unreachable and broken
            # servers degrade the same way
            if not self.fail_open:
                raise
            log.info(
                "%s: %s degraded (server unreachable): %s",
                self.client_name, MESSAGE_NAMES.get(msg_type, msg_type), exc,
            )
            return None

    def ping(self) -> bool:
        """One MSG_PING/MSG_PING_OK heartbeat round trip.  ``True`` means
        the server answered; ``False`` (fail-open) that it is unreachable."""
        return isinstance(self._request_or_none(MSG_PING, {}, MSG_PING_OK), dict)

    def shard_stats(self, op: str | None = None) -> list[tuple[MemoDBStats, int]]:
        """One MSG_STATS round trip; an unreachable server (fail-open) reads
        as empty shards."""
        body = self._request_or_none(MSG_STATS, {"op": op}, MSG_STATS_OK)
        if body is None:
            with self._lock:
                self.net_stats.degraded_stats_pulls += 1
            obs.counter("net_client_degraded_total", kind="stats_pull").inc()
            return [(MemoDBStats(), 0) for _ in range(self._n_shards)]
        return [
            (stats_from_wire(s), int(n))
            for s, n in zip(body["per_shard"], body["entries"])
        ]

    def state_dict(self) -> dict:
        """Pull the server's full tier (``memo_state()``-compatible tree).
        Fail-open returns an *empty* tree when the server is unreachable —
        callers persisting it will persist a cold tier."""
        reply = self._request_or_none(MSG_SNAP_PULL, {}, MSG_SNAP_PULL_OK)
        if reply is None:
            return empty_memo_state(self.n_shards)
        if not isinstance(reply.get("tree"), dict):
            raise MessageError("snapshot pull returned no tree")
        return reply["tree"]

    def push_state(self, tree: dict) -> bool:
        """Merge a tier into the server (its router's own ``push_state``).
        Returns False (fail-open) when the server is unreachable;
        server-side rejections (tau / encoder mismatch, a malformed
        partition) raise ``ValueError``."""
        try:
            reply = self._request_or_none(
                MSG_SNAP_PUSH, {"tree": tree}, MSG_SNAP_PUSH_OK
            )
        except RemoteError as exc:
            raise ValueError(exc.remote_message) from None
        return reply is not None


def connect_tier(
    addresses,
    replication: int | None = None,
    heartbeat_interval_s: float | None = None,
    fail_open: bool = True,
    **client_kwargs,
) -> MemoTier:
    """The one place an address list becomes a memo tier.

    ``addresses`` is anything :func:`~repro.net.wire.parse_address_list`
    accepts.  One address is a :class:`RemoteMemoClient`; more — or
    ``replication=N``, which uses the first N — are one client each inside
    a :class:`~repro.net.replicated.ReplicatedMemoClient` (the only taker
    of ``heartbeat_interval_s``).  ``client_kwargs`` go to every client.
    A merely-down daemon is tolerated either way (the tier degrades);
    deterministic misconfiguration raises immediately.
    """
    addrs = parse_address_list(addresses)
    if replication is None and len(addrs) == 1:
        return RemoteMemoClient(addrs[0], fail_open=fail_open, **client_kwargs)
    if replication is not None:
        if not (1 <= replication <= len(addrs)):
            raise ValueError(
                f"replication={replication} needs between 1 and "
                f"{len(addrs)} addresses, got {len(addrs)}"
            )
        addrs = addrs[:replication]
    from .replicated import ReplicatedMemoClient  # it imports this module

    name = client_kwargs.pop("client_name", "memo-client")
    replicas = []
    for i, addr in enumerate(addrs):
        # constructed fail-open so a down replica does not abort the set
        # (deterministic misconfig still raises through), then flipped to
        # fail-closed: later transport failures must surface in the
        # wrapper, where the failover/breaker logic decides what degrades
        client = RemoteMemoClient(
            addr, fail_open=True, client_name=f"{name}-r{i}", **client_kwargs
        )
        client.fail_open = False
        replicas.append(client)
    return ReplicatedMemoClient(
        replicas,
        retry_policy=client_kwargs.get("retry_policy"),
        heartbeat_interval_s=heartbeat_interval_s,
        fail_open=fail_open,
    )
