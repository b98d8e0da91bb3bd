"""Replicated memo tier: one client fanned over N memo server replicas.

:class:`ReplicatedMemoClient` speaks the exact
:class:`~repro.core.memo_shard.MemoShardRouter` surface the single-server
:class:`~repro.net.client.RemoteMemoClient` does, so the memoized
executor builds it instead when
``MemoConfig(server_address=[addr, ...], replication=N)`` names more than
one daemon.  Semantics:

- **inserts fan out to every live replica** — each replica accumulates
  the *full* tier, which is what makes failover reads answer identically
  to the no-fault run (memo hits are approximate reuse; a partial replica
  would change hit decisions, not just latency),
- **queries fail over per shard** — shard ``s`` prefers replica
  ``s % N`` (spreading read load deterministically) and walks the ring on
  failure, publishing ``net_client_failover_total{shard}``,
- **per-replica circuit breakers** (:class:`~repro.net.policy.CircuitBreaker`)
  gate every call: a replica that keeps failing is skipped without a
  connect attempt until its half-open probe succeeds; transitions publish
  the ``circuit_state{replica}`` gauge (0=closed, 1=half-open, 2=open),
- **background health loop + anti-entropy resync** — with
  ``heartbeat_interval_s`` set, a daemon thread pings every replica
  (MSG_PING), forces half-open probes, and when a replica that missed
  inserts (its *dirty* flag) comes back, pushes it a clean peer's full
  tier (partition-level union — the merge the snapshot path already
  speaks).  Leave it ``None`` for strictly deterministic runs (the chaos
  suite's bit-identity tests do): resync then happens on the next
  explicit :meth:`resync` call.

Fail-open mirrors the single-server client: all replicas down degrades
queries to all-miss and drops inserts (``fail_open=True``), while
deterministic misconfiguration — protocol version skew, tau / value-mode /
encoder mismatch on *any* replica — always raises.
"""

from __future__ import annotations

import logging
import threading

from ..core.memo_db import MemoDBStats, QueryOutcome
from ..core.memo_shard import shard_of_location
from ..obs import runtime as obs
from .client import NetClientStats, RemoteMemoClient, TransportUnavailable
from .policy import CIRCUIT_OPEN, RetryPolicy
from .wire import ProtocolError, RemoteError, VersionMismatch, parse_address_list

__all__ = ["ReplicatedMemoClient"]

log = logging.getLogger("repro.net.replicated")


class ReplicatedMemoClient:
    """Replica fan-out over :class:`RemoteMemoClient` instances.

    ``addresses`` is anything :func:`~repro.net.wire.parse_address_list`
    accepts; ``replication=N`` uses the first N entries (``None`` = all).
    Constructor semantics match the single client: a merely-down replica
    is tolerated (even all of them — the set degrades), deterministic
    misconfiguration raises immediately.
    """

    def __init__(
        self,
        addresses,
        replication: int | None = None,
        expect_tau: float | None = None,
        expect_value_mode: str | None = None,
        encoder_fingerprint: dict | None = None,
        fail_open: bool = True,
        n_shards_hint: int = 1,
        connect_timeout: float = 5.0,
        io_timeout: float | None = 60.0,
        backoff_initial_s: float = 0.05,
        backoff_max_s: float = 5.0,
        max_inflight: int = 8,
        client_name: str = "memo-client",
        retry_policy: RetryPolicy | None = None,
        heartbeat_interval_s: float | None = None,
    ) -> None:
        addrs = parse_address_list(addresses)
        if replication is not None:
            if not (1 <= replication <= len(addrs)):
                raise ValueError(
                    f"replication={replication} needs between 1 and "
                    f"{len(addrs)} addresses, got {len(addrs)}"
                )
            addrs = addrs[:replication]
        if heartbeat_interval_s is not None and heartbeat_interval_s <= 0:
            raise ValueError(
                f"heartbeat_interval_s must be positive, got {heartbeat_interval_s}"
            )
        self.addresses = addrs
        self.fail_open = fail_open
        self.client_name = client_name
        self.retry_policy = retry_policy or RetryPolicy(
            backoff_initial_s=backoff_initial_s, backoff_max_s=backoff_max_s
        )
        self.heartbeat_interval_s = heartbeat_interval_s
        # inner clients are constructed fail-open so a down replica does not
        # abort the set (deterministic misconfig still raises through), then
        # flipped to fail-closed: later transport failures must surface HERE,
        # where the failover/breaker logic decides what degrades
        self._clients: list[RemoteMemoClient] = []
        for i, addr in enumerate(addrs):
            client = RemoteMemoClient(
                addr,
                expect_tau=expect_tau,
                expect_value_mode=expect_value_mode,
                encoder_fingerprint=encoder_fingerprint,
                fail_open=True,
                n_shards_hint=n_shards_hint,
                connect_timeout=connect_timeout,
                io_timeout=io_timeout,
                backoff_initial_s=backoff_initial_s,
                backoff_max_s=backoff_max_s,
                max_inflight=max_inflight,
                client_name=f"{client_name}-r{i}",
                retry_policy=self.retry_policy,
            )
            client.fail_open = False
            self._clients.append(client)
        self._check_topology()
        self._breakers = [self.retry_policy.breaker() for _ in self._clients]
        self._lock = threading.Lock()
        #: replicas that missed one or more insert fan-outs while down and
        #: need an anti-entropy resync before they count as warm again
        self._dirty = [False] * len(self._clients)  # guarded-by: self._lock
        self._stop = threading.Event()
        self._health_thread: threading.Thread | None = None
        if heartbeat_interval_s is not None:
            self._health_thread = threading.Thread(
                target=self._health_loop,
                name=f"{client_name}-health",
                daemon=True,
            )
            self._health_thread.start()

    def _check_topology(self) -> None:
        """Replicas disagreeing on shard count would route the same location
        to different shards — a deterministic misconfig, never degraded past."""
        counts = {
            c.n_shards for c in self._clients if c.server_info is not None
        }
        if len(counts) > 1:
            raise ValueError(
                f"replicas disagree on shard count ({sorted(counts)}) — "
                "every replica must run the same topology"
            )

    # -- replica health ------------------------------------------------------------------

    def _publish_circuit(self, r: int) -> None:
        host, port = self.addresses[r]
        obs.gauge("circuit_state", replica=f"{host}:{port}").set(
            self._breakers[r].state
        )

    def _allow(self, r: int) -> bool:
        ok = self._breakers[r].allow()
        self._publish_circuit(r)
        return ok

    def _success(self, r: int) -> None:
        self._breakers[r].record_success()
        self._publish_circuit(r)

    def _failure(self, r: int, exc: Exception) -> None:
        breaker = self._breakers[r]
        was_open = breaker.state == CIRCUIT_OPEN
        breaker.record_failure()
        self._publish_circuit(r)
        host, port = self.addresses[r]
        if not was_open and breaker.state == CIRCUIT_OPEN:
            # flight-record the moment the set loses a replica: the recent
            # spans show exactly what traffic was in flight when the breaker
            # tripped (a failed half-open probe re-dumps — each re-open is
            # its own incident)
            obs.flight_dump(
                "circuit-open",
                replica=f"{host}:{port}",
                client=self.client_name,
                error=f"{type(exc).__name__}: {exc}",
            )
        log.debug("%s: replica %s:%d failed: %s", self.client_name, host, port, exc)

    def _mark_dirty(self, r: int) -> None:
        with self._lock:
            self._dirty[r] = True

    def health(self) -> dict:
        """Replica -> {circuit, dirty, connected} — the health map."""
        with self._lock:
            dirty = list(self._dirty)
        return {
            f"{host}:{port}": {
                "circuit": self._breakers[r].state_name,
                "dirty": dirty[r],
                "connected": self._clients[r].connected,
            }
            for r, (host, port) in enumerate(self.addresses)
        }

    # -- the router surface --------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return max(c.n_shards for c in self._clients)

    def shard_of(self, location: int) -> int:
        return shard_of_location(location, self.n_shards)

    @property
    def connected(self) -> bool:
        return any(c.connected for c in self._clients)

    def replica_for(self, shard: int) -> int:
        """The preferred replica of ``shard`` (failover walks the ring)."""
        return shard % len(self._clients)

    def reset_backoff(self) -> None:
        for client in self._clients:
            client.reset_backoff()
        for breaker in self._breakers:
            breaker.force_probe()

    def query_batch(self, queries) -> list[QueryOutcome]:
        """Outcomes in request order; per-shard failover across replicas.
        Only when *every* replica fails does the batch degrade to all-miss
        (fail-open) — a single live replica keeps the run warm."""
        queries = list(queries)
        if not queries:
            return []
        n_replicas = len(self._clients)
        results: list[QueryOutcome | None] = [None] * len(queries)
        groups: dict[int, list[int]] = {}
        for i, q in enumerate(queries):
            groups.setdefault(
                self.replica_for(self.shard_of(q.location)), []
            ).append(i)
        for primary, idxs in groups.items():
            sub = [queries[i] for i in idxs]
            outcomes = None
            for k in range(n_replicas):
                r = (primary + k) % n_replicas
                if not self._allow(r):
                    continue
                try:
                    outcomes = self._clients[r].query_batch(sub)
                except (VersionMismatch, RemoteError, ValueError):
                    raise  # deterministic rejection — failover can't fix it
                except (OSError, ProtocolError) as exc:
                    self._failure(r, exc)
                    continue
                self._success(r)
                if k > 0:
                    for shard in {self.shard_of(q.location) for q in sub}:
                        obs.counter(
                            "net_client_failover_total", shard=shard
                        ).inc()
                break
            if outcomes is None:
                if not self.fail_open:
                    raise TransportUnavailable(
                        f"all {n_replicas} memo replicas are unreachable"
                    )
                obs.counter(
                    "net_client_degraded_total", kind="query_batch"
                ).inc()
                outcomes = [QueryOutcome(None, -2.0, -1, 0) for _ in sub]
            for i, outcome in zip(idxs, outcomes):
                results[i] = outcome
        return results

    def insert_batch(self, inserts) -> list[int]:
        """Fan one insert batch to every live replica; replicas that miss
        it are marked dirty for anti-entropy resync when they rejoin."""
        inserts = list(inserts)
        if not inserts:
            return []
        delivered = 0
        for r, client in enumerate(self._clients):
            if not self._allow(r):
                self._mark_dirty(r)
                continue
            try:
                client.insert_batch(inserts)
            except (VersionMismatch, RemoteError, ValueError):
                raise
            except (OSError, ProtocolError) as exc:
                self._failure(r, exc)
                self._mark_dirty(r)
                continue
            self._success(r)
            delivered += 1
        if delivered == 0:
            if not self.fail_open:
                raise TransportUnavailable(
                    f"all {len(self._clients)} memo replicas are unreachable"
                )
            obs.counter("net_client_degraded_total", kind="insert_batch").inc()
        return [-1] * len(inserts)

    def flush(self) -> None:
        for r, client in enumerate(self._clients):
            try:
                client.flush()
            except (OSError, ProtocolError) as exc:
                self._failure(r, exc)
                self._mark_dirty(r)

    # -- single-replica reads (stats / snapshots), with failover -------------------------

    def _first_live(self, fn, *, what: str):
        """Run ``fn(client)`` against replicas in ring order, returning the
        first success; raises the last transport error when all fail."""
        last_exc: Exception | None = None
        for r, client in enumerate(self._clients):
            if not self._allow(r):
                continue
            try:
                result = fn(client)
            except (VersionMismatch, RemoteError, ValueError):
                raise
            except (OSError, ProtocolError) as exc:
                self._failure(r, exc)
                last_exc = exc
                continue
            self._success(r)
            return result
        raise (
            last_exc
            if last_exc is not None
            else TransportUnavailable(f"no live replica for {what}")
        )

    def _stats_body(self, op: str | None):
        try:
            return self._first_live(
                lambda c: c._stats_body(op), what="stats"
            )
        except (VersionMismatch, RemoteError, ValueError):
            raise
        except (OSError, ProtocolError):
            if not self.fail_open:
                raise
            obs.counter("net_client_degraded_total", kind="stats_pull").inc()
            return None

    def stats(self, op: str | None = None) -> MemoDBStats:
        body = self._stats_body(op)
        if body is None:
            return MemoDBStats()
        from .wire import stats_from_wire

        return MemoDBStats.merged(stats_from_wire(s) for s in body["per_shard"])

    def per_shard_stats(self, op: str | None = None) -> list[MemoDBStats]:
        body = self._stats_body(op)
        if body is None:
            return [MemoDBStats() for _ in range(self.n_shards)]
        from .wire import stats_from_wire

        return [stats_from_wire(s) for s in body["per_shard"]]

    def entries(self, op: str | None = None) -> int:
        return sum(self.per_shard_entries(op))

    def per_shard_entries(self, op: str | None = None) -> list[int]:
        body = self._stats_body(op)
        if body is None:
            return [0] * self.n_shards
        return [int(n) for n in body["per_shard_entries"]]

    def metrics(self) -> dict | None:
        """Every live replica's observability view, merged into one body:
        each replica's metric entries gain a ``replica="host:port"`` label
        (the replicas run identical workloads, so unlabeled copies would
        collide in a report), and the per-replica daemon counters ride under
        ``"replicas"``.  Each replica's daemon counters are also published
        into *this* process's registry as ``net_server_*{replica=...}``
        gauges, so a scheduler fronting a replicated tier surfaces them on
        its own ``/metrics`` scrape instead of burying them in the JSON
        body.  Pulls fail open *per replica* — a dead replica is skipped,
        not fatal; ``None`` only when no replica answered at all.  The
        single-server ``"server"`` key keeps the first replica's counters
        so existing callers read the merged body unchanged."""
        merged: list[dict] = []
        per_replica: dict[str, dict] = {}
        obs_any = False
        first_server: dict | None = None
        for r, client in enumerate(self._clients):
            if not self._allow(r):
                continue
            host, port = self.addresses[r]
            tag = f"{host}:{port}"
            try:
                payload = client.metrics()
            except (VersionMismatch, RemoteError, ValueError):
                raise
            except (OSError, ProtocolError) as exc:
                self._failure(r, exc)
                continue
            self._success(r)
            if not isinstance(payload, dict):
                continue
            if first_server is None:
                first_server = payload.get("server")
            per_replica[tag] = payload.get("server") or {}
            self._publish_replica_counters(tag, per_replica[tag])
            obs_any = obs_any or bool(payload.get("obs_enabled"))
            for entry in payload.get("metrics") or []:
                if isinstance(entry, dict):
                    entry = dict(entry)
                    entry["labels"] = {**(entry.get("labels") or {}), "replica": tag}
                    merged.append(entry)
        if not per_replica:
            if not self.fail_open:
                raise TransportUnavailable("no live replica for metrics")
            return None
        return {
            "server": first_server,
            "replicas": per_replica,
            "obs_enabled": obs_any,
            "metrics": merged,
        }

    @staticmethod
    def _publish_replica_counters(tag: str, counters: dict) -> None:
        """Mirror one replica's daemon counters into the local registry via
        the same ``ServerStats.publish`` seam the daemon itself uses, with
        the replica tag as the distinguishing label.  Fields are filtered
        to the ones this build knows so a version-skewed replica degrades
        to partial gauges instead of a crash."""
        if not obs.enabled() or not counters:
            return
        from dataclasses import fields

        from .server import ServerStats  # lazy: client side must not need daemon code at import

        known = {f.name for f in fields(ServerStats)}
        ServerStats(
            **{k: v for k, v in counters.items() if k in known}
        ).publish(replica=tag)

    def trace_pull(self) -> dict | None:
        """Drain the span buffers of every live replica into one body.
        Spans already carry their origin process (the ``proc`` field), so
        the merge is a plain concatenation; replicas that predate the trace
        feature contribute nothing.  ``None`` when no replica answered."""
        spans: list[dict] = []
        servers: list[str] = []
        dropped = 0
        obs_any = False
        answered = False
        for r, client in enumerate(self._clients):
            if not self._allow(r):
                continue
            try:
                reply = client.trace_pull()
            except (VersionMismatch, RemoteError, ValueError):
                raise
            except (OSError, ProtocolError) as exc:
                self._failure(r, exc)
                continue
            self._success(r)
            if not isinstance(reply, dict):
                continue  # pre-trace replica: nothing to drain
            answered = True
            servers.append(str(reply.get("server")))
            obs_any = obs_any or bool(reply.get("obs_enabled"))
            spans.extend(
                s for s in (reply.get("spans") or []) if isinstance(s, dict)
            )
            dropped += int(reply.get("dropped") or 0)
        if not answered:
            if not self.fail_open:
                raise TransportUnavailable("no live replica for trace pull")
            return None
        return {
            "server": ",".join(servers),
            "servers": servers,
            "obs_enabled": obs_any,
            "spans": spans,
            "dropped": dropped,
        }

    @property
    def net_stats(self) -> NetClientStats:
        """Transport counters summed across all replica connections."""
        total = NetClientStats()
        for client in self._clients:
            for field_name, value in vars(client.net_stats).items():
                setattr(total, field_name, getattr(total, field_name) + value)
        return total

    def per_replica_net_stats(self) -> list[NetClientStats]:
        return [NetClientStats(**vars(c.net_stats)) for c in self._clients]

    # -- snapshot surface ----------------------------------------------------------------

    def state_dict(self) -> dict:
        """The merged tier, read from the first live replica (replicas are
        kept identical by the fan-out + resync invariant)."""
        try:
            return self._first_live(lambda c: c.state_dict(), what="snapshot pull")
        except (VersionMismatch, RemoteError, ValueError):
            raise
        except (OSError, ProtocolError) as exc:
            if not self.fail_open:
                raise
            log.warning("replicated snapshot pull degraded to empty: %s", exc)
            return {"layout": "single", "partitions": []}

    def push_state(self, tree: dict) -> bool:
        """Seed every live replica with ``tree`` (the others go dirty)."""
        pushed = False
        for r, client in enumerate(self._clients):
            if not self._allow(r):
                self._mark_dirty(r)
                continue
            try:
                client.push_state(tree)
            except (VersionMismatch, RemoteError, ValueError):
                raise
            except (OSError, ProtocolError) as exc:
                self._failure(r, exc)
                self._mark_dirty(r)
                continue
            self._success(r)
            pushed = True
        if not pushed and not self.fail_open:
            raise TransportUnavailable("no live replica accepted the push")
        return pushed

    # -- anti-entropy --------------------------------------------------------------------

    def resync(self, replica: int | None = None) -> int:
        """Push a clean replica's full tier to dirty replicas that answer
        again.  ``replica`` targets one index (``None`` = every dirty one).
        Returns how many replicas were resynced."""
        with self._lock:
            targets = [
                r
                for r in range(len(self._clients))
                if self._dirty[r] and (replica is None or r == replica)
            ]
        if not targets:
            return 0
        # a donor is a live replica that never missed a fan-out
        with self._lock:
            donors = [
                r for r in range(len(self._clients)) if not self._dirty[r]
            ]
        tree = None
        for r in donors:
            if not self._allow(r):
                continue
            try:
                tree = self._clients[r].state_dict()
            except (OSError, ProtocolError) as exc:
                self._failure(r, exc)
                continue
            self._success(r)
            break
        if tree is None:
            return 0
        resynced = 0
        for r in targets:
            if not self._allow(r):
                continue
            try:
                self._clients[r].push_state(tree)
            except (VersionMismatch, RemoteError, ValueError):
                raise
            except (OSError, ProtocolError) as exc:
                self._failure(r, exc)
                continue
            self._success(r)
            with self._lock:
                self._dirty[r] = False
            resynced += 1
            host, port = self.addresses[r]
            log.info(
                "%s: resynced rejoined replica %s:%d",
                self.client_name, host, port,
            )
            obs.counter("net_client_resync_total", replica=f"{host}:{port}").inc()
        return resynced

    def _health_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval_s):
            for r, client in enumerate(self._clients):
                breaker = self._breakers[r]
                if breaker.state == CIRCUIT_OPEN:
                    # the health loop IS the probe driver: collapse the open
                    # window instead of waiting out reset_timeout_s
                    breaker.force_probe()
                if not self._allow(r):
                    continue
                try:
                    client.reset_backoff()  # health checks skip the connect window
                    ok = client.ping()
                except (VersionMismatch, RemoteError, ValueError):
                    # a replica reconfigured underneath us: keep it out of
                    # rotation (breaker opens), but never kill the caller's
                    # run from a background thread
                    self._breakers[r].record_failure()
                    self._publish_circuit(r)
                    continue
                except (OSError, ProtocolError) as exc:
                    self._failure(r, exc)
                    continue
                if ok:
                    self._success(r)
                else:
                    self._failure(r, TransportUnavailable("ping failed"))
            with self._lock:
                any_dirty = any(self._dirty)
            if any_dirty:
                try:
                    self.resync()
                except (VersionMismatch, RemoteError, ValueError) as exc:
                    log.warning(
                        "%s: background resync rejected: %s", self.client_name, exc
                    )

    # -- lifecycle -----------------------------------------------------------------------

    def close(self) -> None:
        self._stop.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=5.0)
        for client in self._clients:
            client.close()

    def __enter__(self) -> "ReplicatedMemoClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReplicatedMemoClient({self.address_str!r}, "
            f"live={sum(c.connected for c in self._clients)}/{len(self._clients)})"
        )

    @property
    def address_str(self) -> str:
        return ",".join(f"{h}:{p}" for h, p in self.addresses)
