"""Unified retry / timeout policy for the network tier.

Every degraded-mode decision in :mod:`repro.net` used to be ad-hoc: the
memo client kept its own exponential backoff, the snapshot store had none,
and the scheduler never retried anything.  :class:`RetryPolicy` is the one
description of *how to wait* that all of them now share:

- **deadline** — a retried operation never stretches past ``deadline_s``
  of total elapsed time; callers degrade (fail open) or raise after it,
- **exponential backoff with decorrelated jitter** — successive delays
  grow from ``backoff_initial_s`` toward the hard cap ``backoff_max_s``,
  each drawn from a *seeded* RNG (``uniform(base, 3 * previous)``, the
  AWS architecture-blog "decorrelated jitter" schedule), so a thousand
  clients reconnecting to a restarted daemon spread out instead of
  thundering in lockstep — while any single client's schedule is exactly
  reproducible from its seed.

:class:`BackoffState` is the mutable per-connection realization of the
schedule.  It is deterministic given the seed, which is what lets the
fault-injection suite replay an identical fault trace from an identical
plan.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

__all__ = ["RetryPolicy", "BackoffState"]


def seed_from_name(name: str) -> int:
    """A stable integer seed derived from a client name, so every
    named client gets a distinct but reproducible jitter stream."""
    return zlib.crc32(name.encode("utf-8"))


@dataclass(frozen=True)
class RetryPolicy:
    """How the network tier waits: attempts, deadline, backoff.

    max_attempts:
        Total tries for one retryable operation (1 = no retry).
    deadline_s:
        Wall-clock budget across all attempts of one operation; ``None``
        means only ``max_attempts`` bounds it.
    backoff_initial_s / backoff_max_s:
        First delay and the hard cap every delay is clamped to.
    """

    max_attempts: int = 3
    deadline_s: float | None = 30.0
    backoff_initial_s: float = 0.05
    backoff_max_s: float = 5.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {self.deadline_s}")
        if self.backoff_initial_s < 0:
            raise ValueError(
                f"backoff_initial_s must be >= 0, got {self.backoff_initial_s}"
            )
        if self.backoff_max_s < self.backoff_initial_s:
            raise ValueError(
                f"backoff_max_s ({self.backoff_max_s}) must be >= "
                f"backoff_initial_s ({self.backoff_initial_s})"
            )

    def backoff(self, seed: int | str = 0) -> "BackoffState":
        """A fresh per-connection backoff schedule seeded by ``seed``."""
        return BackoffState(self, seed)


class BackoffState:
    """Mutable decorrelated-jitter schedule (deterministic per seed).

    Not thread-safe by itself; callers advance it under their own lock
    (the memo client does) or from a single thread.
    """

    def __init__(self, policy: RetryPolicy, seed: int | str = 0) -> None:
        self.policy = policy
        if isinstance(seed, str):
            seed = seed_from_name(seed)
        self._seed = seed
        self._rng = random.Random(seed)
        self._prev = 0.0
        self.attempts = 0

    def next_delay(self) -> float:
        """The next sleep in seconds: ``min(cap, uniform(base, 3 * prev))``,
        never below ``base`` (the policy's ``backoff_initial_s`` /
        ``backoff_max_s``)."""
        base, cap = self.policy.backoff_initial_s, self.policy.backoff_max_s
        hi = max(base, min(cap, 3.0 * self._prev))
        delay = self._rng.uniform(base, hi) if hi > base else base
        self._prev = max(delay, base)
        self.attempts += 1
        return delay

    def reset(self) -> None:
        """Back to the initial schedule (the connection came back)."""
        self._prev = 0.0
        self.attempts = 0

