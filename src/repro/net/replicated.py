"""Replicated memo tier: replication as a wrapper over any list of tiers.

:class:`ReplicatedMemoClient` is itself a
:class:`~repro.core.memo_shard.MemoTier` and wraps N others — TCP clients
to N memo daemons in production (:func:`repro.net.connect_tier` builds
that when ``MemoConfig(server_address=[addr, ...], replication=N)`` names
more than one daemon), in-process routers in the tests of the semantics
below, which need no sockets.  Semantics:

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
  ``heartbeat_interval_s`` set, a daemon thread pings every replica,
  forces half-open probes, and when a replica that missed inserts (its
  *dirty* flag) comes back, pushes it a clean peer's full tier (the
  tier's own ``push_state`` merge).  Leave it ``None`` for strictly
  deterministic runs (the chaos suite's bit-identity tests do): resync
  then happens on the next explicit :meth:`resync` call.

Every replica call passes one guard, :meth:`_on_replica`.  A replica
*fails* by raising ``OSError`` / ``ProtocolError`` — so the wrapped tiers
must surface transport failures rather than degrade on their own
(``connect_tier`` flips its clients to ``fail_open=False``).  All replicas
down degrades queries to all-miss and drops inserts (``fail_open=True``),
while deterministic misconfiguration — protocol version skew, tau /
encoder mismatch on *any* replica — always raises.
"""

from __future__ import annotations

import logging
import threading
from operator import methodcaller

from ..core.memo_db import MemoDBStats, QueryOutcome
from ..core.memo_shard import MemoTier, _scatter_gather, empty_memo_state
from ..obs import runtime as obs
from .client import TransportUnavailable
from .policy import CIRCUIT_OPEN, RetryPolicy
from .wire import ProtocolError, RemoteError, VersionMismatch

__all__ = ["ReplicatedMemoClient"]

log = logging.getLogger("repro.net.replicated")

#: what :meth:`ReplicatedMemoClient._on_replica` answers for a replica that
#: was skipped (breaker open) or failed
_MISSED = object()


class ReplicatedMemoClient(MemoTier):
    """Replica fan-out over ``tiers`` (replica ``r`` is ``tiers[r]``,
    named ``tiers[r].label`` in health maps and gauge labels)."""

    def __init__(
        self,
        tiers,
        retry_policy: RetryPolicy | None = None,
        heartbeat_interval_s: float | None = None,
        fail_open: bool = True,
    ) -> None:
        self._tiers: list[MemoTier] = list(tiers)
        if not self._tiers:
            raise ValueError("a replicated tier needs at least one replica")
        if heartbeat_interval_s is not None and heartbeat_interval_s <= 0:
            raise ValueError(
                f"heartbeat_interval_s must be positive, got {heartbeat_interval_s}"
            )
        self.labels = [t.label or f"replica{r}" for r, t in enumerate(self._tiers)]
        self.fail_open = fail_open
        self.retry_policy = retry_policy or RetryPolicy()
        self.heartbeat_interval_s = heartbeat_interval_s
        # replicas disagreeing on shard count would route the same location
        # to different shards — a deterministic misconfig, never degraded
        # past (a replica that is down has not reported its count yet)
        counts = {t.n_shards for t in self._tiers if t.connected}
        if len(counts) > 1:
            raise ValueError(
                f"replicas disagree on shard count ({sorted(counts)}) — "
                "every replica must run the same topology"
            )
        self._breakers = [self.retry_policy.breaker() for _ in self._tiers]
        self._lock = threading.Lock()
        #: replicas that missed one or more insert fan-outs while down and
        #: need an anti-entropy resync before they count as warm again
        self._dirty = [False] * len(self._tiers)  # guarded-by: self._lock
        self._stop = threading.Event()
        self._health_thread: threading.Thread | None = None
        if heartbeat_interval_s is not None:
            self._health_thread = threading.Thread(
                target=self._health_loop, name="memo-replicas-health", daemon=True
            )
            self._health_thread.start()

    # -- the replica guard ---------------------------------------------------------------

    def _publish_circuit(self, r: int) -> None:
        obs.gauge("circuit_state", replica=self.labels[r]).set(self._breakers[r].state)

    def _failure(self, r: int, exc: Exception) -> None:
        breaker = self._breakers[r]
        was_open = breaker.state == CIRCUIT_OPEN
        breaker.record_failure()
        self._publish_circuit(r)
        if not was_open and breaker.state == CIRCUIT_OPEN:
            # flight-record the moment the set loses a replica: the recent
            # spans show exactly what traffic was in flight when the breaker
            # tripped (a failed half-open probe re-dumps — each re-open is
            # its own incident)
            obs.flight_dump(
                "circuit-open",
                replica=self.labels[r],
                error=f"{type(exc).__name__}: {exc}",
            )
        log.debug("replica %s failed: %s", self.labels[r], exc)

    def _on_replica(self, r: int, fn, writes: bool = False):
        """Run ``fn(tier)`` on replica ``r`` under its circuit breaker.

        Returns ``fn``'s result, or ``_MISSED`` when the breaker refused
        the call or the replica failed (recorded against the breaker).  A
        missed *write* leaves the replica dirty until :meth:`resync`.
        Deterministic rejections are no replica failure — another replica
        would reject the same way — and propagate."""
        allowed = self._breakers[r].allow()
        self._publish_circuit(r)
        if allowed:
            try:
                result = fn(self._tiers[r])
            except (VersionMismatch, RemoteError, ValueError):
                raise
            except (OSError, ProtocolError) as exc:
                self._failure(r, exc)
            else:
                self._breakers[r].record_success()
                self._publish_circuit(r)
                return result
        if writes:
            with self._lock:
                self._dirty[r] = True
        return _MISSED

    def _degrade(self, kind: str) -> None:
        """No replica served a ``kind`` call: raise unless failing open."""
        if not self.fail_open:
            raise TransportUnavailable(
                f"all {len(self._tiers)} memo replicas are unreachable ({kind})"
            )
        obs.counter("net_client_degraded_total", kind=kind).inc()

    def _first_live(self, fn, replicas=None):
        """``fn``'s result from the first replica (in ring order, or of
        ``replicas``) that serves it; ``_MISSED`` when none does."""
        for r in (range(len(self._tiers)) if replicas is None else replicas):
            result = self._on_replica(r, fn)
            if result is not _MISSED:
                return result
        return _MISSED

    def health(self) -> dict:
        with self._lock:
            dirty = list(self._dirty)
        return {
            label: {
                "circuit": self._breakers[r].state_name,
                "dirty": dirty[r],
                "connected": self._tiers[r].connected,
            }
            for r, label in enumerate(self.labels)
        }

    # -- the tier surface ----------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return max(t.n_shards for t in self._tiers)

    @property
    def connected(self) -> bool:
        return any(t.connected for t in self._tiers)

    def replica_for(self, shard: int) -> int:
        """The preferred replica of ``shard`` (failover walks the ring)."""
        return shard % len(self._tiers)

    def reset_backoff(self) -> None:
        for tier, breaker in zip(self._tiers, self._breakers):
            tier.reset_backoff()
            breaker.force_probe()

    def query_batch(self, queries) -> list[QueryOutcome]:
        """Outcomes in request order; per-shard failover across replicas.
        Only when *every* replica fails does the batch degrade to all-miss
        (fail-open) — a single live replica keeps the run warm."""
        n_replicas = len(self._tiers)

        def ask(primary: int, sub: list) -> list[QueryOutcome]:
            call = methodcaller("query_batch", sub)
            for k in range(n_replicas):
                outcomes = self._on_replica((primary + k) % n_replicas, call)
                if outcomes is not _MISSED:
                    if k > 0:
                        for shard in {self.shard_of(q.location) for q in sub}:
                            obs.counter(
                                "net_client_failover_total", shard=shard
                            ).inc()
                    return outcomes
            self._degrade("query_batch")
            return [QueryOutcome(None, -2.0, -1, 0) for _ in sub]

        return _scatter_gather(
            list(queries), lambda q: self.replica_for(self.shard_of(q.location)), ask
        )

    def _fan_out(self, fn) -> int:
        """A write to every replica; how many took it (the rest go dirty)."""
        return sum(
            self._on_replica(r, fn, writes=True) is not _MISSED
            for r in range(len(self._tiers))
        )

    def insert_batch(self, inserts) -> list[int]:
        """Fan one insert batch to every live replica; replicas that miss
        it are marked dirty for anti-entropy resync when they rejoin."""
        inserts = list(inserts)
        if inserts and not self._fan_out(lambda t: t.insert_batch(inserts)):
            self._degrade("insert_batch")
        return [-1] * len(inserts)

    def flush(self) -> None:
        """Drain every replica's in-flight acknowledgements; one that cannot
        confirm them may have lost inserts, so it goes dirty."""
        self._fan_out(lambda t: t.flush())

    def shard_stats(self, op: str | None = None) -> list[tuple[MemoDBStats, int]]:
        """Each shard is read from the replica that serves its queries — its
        primary, failing over along the same ring — because a replica only
        counts the queries routed to it: without faults the counters are
        exactly the unreplicated tier's."""
        n_replicas = len(self._tiers)
        pulled: dict[int, object] = {}  # one stats call per replica, at most
        rows = []
        for shard in range(self.n_shards):
            row = None
            for k in range(n_replicas):
                r = (self.replica_for(shard) + k) % n_replicas
                if r not in pulled:
                    pulled[r] = self._on_replica(r, lambda t: t.shard_stats(op))
                if pulled[r] is not _MISSED:
                    row = pulled[r][shard]
                    break
            rows.append(row)
        if None in rows:
            self._degrade("stats_pull")
        return [row or (MemoDBStats(), 0) for row in rows]

    @property
    def net_stats(self):
        """Transport counters summed across the replicas that have any."""
        parts = [t.net_stats for t in self._tiers if t.net_stats is not None]
        if not parts:
            return None
        total = type(parts[0])()
        for part in parts:
            for name, value in vars(part).items():
                setattr(total, name, getattr(total, name) + value)
        return total

    def state_dict(self) -> dict:
        """The merged tier, read from the first live replica (replicas are
        kept identical by the fan-out + resync invariant)."""
        tree = self._first_live(lambda t: t.state_dict())
        if tree is _MISSED:
            self._degrade("snapshot_pull")
            return empty_memo_state(self.n_shards)
        return tree

    def push_state(self, tree: dict) -> bool:
        """Seed every live replica with ``tree`` (the others go dirty)."""
        if self._fan_out(lambda t: t.push_state(tree)):
            return True
        self._degrade("snapshot_push")
        return False

    # -- anti-entropy --------------------------------------------------------------------

    def resync(self, replica: int | None = None) -> int:
        """Push a clean replica's full tier to dirty replicas that answer
        again.  ``replica`` targets one index (``None`` = every dirty one).
        Returns how many replicas were resynced."""
        with self._lock:
            targets = [
                r
                for r, dirty in enumerate(self._dirty)
                if dirty and (replica is None or r == replica)
            ]
            # a donor is a live replica that never missed a fan-out
            donors = [r for r, dirty in enumerate(self._dirty) if not dirty]
        if not targets:
            return 0
        tree = self._first_live(lambda t: t.state_dict(), donors)
        if tree is _MISSED:
            return 0
        resynced = 0
        for r in targets:
            if self._on_replica(r, lambda t: t.push_state(tree)) is _MISSED:
                continue
            with self._lock:
                self._dirty[r] = False
            resynced += 1
            log.info("resynced rejoined replica %s", self.labels[r])
            obs.counter("net_client_resync_total", replica=self.labels[r]).inc()
        return resynced

    def _health_loop(self) -> None:
        def probe(tier: MemoTier) -> None:
            tier.reset_backoff()  # health checks skip the connect window
            if not tier.ping():
                raise TransportUnavailable("ping failed")

        while not self._stop.wait(self.heartbeat_interval_s):
            for r, breaker in enumerate(self._breakers):
                if breaker.state == CIRCUIT_OPEN:
                    # the health loop IS the probe driver: collapse the open
                    # window instead of waiting out reset_timeout_s
                    breaker.force_probe()
                try:
                    self._on_replica(r, probe)
                except (VersionMismatch, RemoteError, ValueError):
                    # a replica reconfigured underneath us: keep it out of
                    # rotation (breaker opens), but never kill the caller's
                    # run from a background thread
                    breaker.record_failure()
                    self._publish_circuit(r)
            with self._lock:
                any_dirty = any(self._dirty)
            if any_dirty:
                try:
                    self.resync()
                except (VersionMismatch, RemoteError, ValueError) as exc:
                    log.warning("background resync rejected: %s", exc)

    # -- lifecycle -----------------------------------------------------------------------

    def close(self) -> None:
        self._stop.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=5.0)
        for tier in self._tiers:
            tier.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReplicatedMemoClient({','.join(self.labels)}, "
            f"live={sum(t.connected for t in self._tiers)}/{len(self._tiers)})"
        )
