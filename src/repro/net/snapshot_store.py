"""Remote snapshot tier: schedulers on different hosts sharing one memo tier.

:class:`RemoteSnapshotStore` gives the reconstruction service's
:class:`~repro.service.scheduler.SharedMemoService` a cross-host backing:
instead of holding the accumulated database tier in process memory, the
scheduler pushes each finished job's tier to a
:class:`~repro.net.server.MemoServerDaemon` (which merges it,
partition-level union) and pulls the merged tier to seed the next job.  Two
beamline hosts pointed at the same daemon therefore warm-start from each
other's scans, and the daemon's own on-disk persistence makes the tier
survive every process involved.  The store's tier is whatever
:func:`~repro.net.client.connect_tier` builds for its address(es): a
comma-separated address list (or list of addresses) gets the replicated
tier — pushes fan out, pulls fail over.

The store is fail-open by default: an unreachable daemon makes ``pull``
return ``None`` (jobs start cold) and ``push`` return ``False`` (the tier
update is dropped) — scheduling never fails because the memo tier did.
Unreachable is distinguished from genuinely cold, though: when the daemon
cannot be reached, ``pull`` retries under the store's
:class:`~repro.net.policy.RetryPolicy` (jittered backoff, bounded by the
policy deadline) before giving up, because seeding from a daemon that was
restarting costs seconds while a cold reconstruction costs the whole warm
fraction.  Semantic rejections (tau / encoder mismatch against the daemon)
still raise, exactly like the in-process seed path.
"""

from __future__ import annotations

import logging
import time

from ..core.memo_engine import memo_state_partitions
from .client import connect_tier
from .policy import RetryPolicy, seed_from_name

__all__ = ["RemoteSnapshotStore"]

log = logging.getLogger("repro.net.snapshot_store")


class RemoteSnapshotStore:
    """Push/pull memo-state trees against one or more memo server daemons."""

    def __init__(
        self,
        address,
        fail_open: bool = True,
        client_name: str = "snapshot-store",
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self.retry_policy = retry_policy or RetryPolicy()
        self._client = connect_tier(
            address,
            fail_open=fail_open,
            client_name=client_name,
            retry_policy=self.retry_policy,
        )
        self._backoff = self.retry_policy.backoff(seed_from_name(client_name))

    @property
    def connected(self) -> bool:
        return self._client.connected

    def health(self) -> dict:
        return self._client.health()

    def pull(self) -> dict | None:
        """The daemon's merged tier, or ``None`` when it is cold or stays
        unreachable past the retry policy (both mean: start this job cold).

        An *empty* tree from a connected daemon is trusted immediately —
        that daemon really is cold.  An empty tree while disconnected means
        the fail-open client papered over a transport failure, so the store
        backs off and retries before accepting a cold start."""
        policy = self.retry_policy
        deadline = (
            None if policy.deadline_s is None else time.monotonic() + policy.deadline_s
        )
        self._backoff.reset()
        for attempt in range(policy.max_attempts):
            tree = self._client.state_dict()
            if memo_state_partitions(tree) or tree.get("encoder_state"):
                return tree
            if self._client.connected:
                return None  # genuinely cold tier, not a transport artifact
            delay = self._backoff.next_delay()
            if attempt + 1 >= policy.max_attempts or (
                deadline is not None and time.monotonic() + delay >= deadline
            ):
                break
            log.debug(
                "snapshot pull found no reachable daemon, retrying in %.2fs",
                delay,
            )
            time.sleep(delay)
            self._client.reset_backoff()
        log.warning("snapshot pull gave up after %d attempts — seeding cold",
                    policy.max_attempts)
        return None

    def push(self, tree: dict) -> bool:
        """Merge one finished job's tier into the daemon; False when the
        daemon is unreachable (fail-open drop)."""
        return bool(self._client.push_state(tree))

    def close(self) -> None:
        self._client.close()

    def __enter__(self) -> "RemoteSnapshotStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
