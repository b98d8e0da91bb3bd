"""Reading a memo tier as snapshots: cold versus unreachable.

A scheduler's :class:`~repro.service.scheduler.SharedMemoService` — and
anyone warm-starting a solver from a daemon without a scheduler — reads
its tier as whole state trees.  Pushing, health and closing are the tier's
own (:class:`~repro.core.memo_shard.MemoTier`); what is left for this
module is the one thing that is not a forward to it: :func:`pull_state`
tells a tier that is genuinely *cold* from one that is merely
*unreachable*.  A fail-open remote tier answers an unreachable daemon with
an empty tree (jobs start cold, scheduling never fails because the memo
tier did) — but seeding from a daemon that was restarting costs seconds
while a cold reconstruction costs the whole warm fraction, so the pull
retries under a :class:`~repro.net.policy.RetryPolicy` (jittered backoff,
bounded by the policy deadline) before it gives up.  Semantic rejections
(tau / encoder mismatch against the daemon) still raise.  Over TCP the
tier is what :func:`~repro.net.client.connect_tier` builds for an address
list (more than one address: the replicated tier, whose pulls fail over).
"""

from __future__ import annotations

import logging
import time

from ..core.memo_shard import MemoTier, memo_state_partitions
from .policy import RetryPolicy

__all__ = ["pull_state"]

log = logging.getLogger("repro.net.snapshot_store")


def pull_state(tier: MemoTier, policy: RetryPolicy | None = None) -> dict | None:
    """``tier``'s merged state tree, or ``None`` when it is cold or stays
    unreachable past ``policy`` (both mean: start this job cold).

    An *empty* tree from a connected tier is trusted immediately — that
    tier really is cold (an in-process router always answers here).  An
    empty tree while disconnected means a fail-open client papered over a
    transport failure, so the pull backs off and retries before accepting
    a cold start."""
    policy = policy or RetryPolicy()
    deadline = (
        None if policy.deadline_s is None else time.monotonic() + policy.deadline_s
    )
    backoff = policy.backoff("snapshot-store")
    for attempt in range(policy.max_attempts):
        tree = tier.state_dict()
        if memo_state_partitions(tree) or tree.get("encoder_state"):
            return tree
        if tier.connected:
            return None  # genuinely cold tier, not a transport artifact
        delay = backoff.next_delay()
        if attempt + 1 >= policy.max_attempts or (
            deadline is not None and time.monotonic() + delay >= deadline
        ):
            break
        log.debug(
            "snapshot pull found no reachable daemon, retrying in %.2fs", delay
        )
        time.sleep(delay)
        tier.reset_backoff()
    log.warning("snapshot pull gave up after %d attempts — seeding cold",
                policy.max_attempts)
    return None

