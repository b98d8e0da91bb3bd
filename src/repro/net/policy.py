"""Unified retry / timeout / circuit-breaker policy for the network tier.

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
  reproducible from its seed,
- **per-replica circuit breaker** — ``failure_threshold`` consecutive
  failures open the circuit (calls are refused locally, no connect
  attempts); after ``reset_timeout_s`` one half-open probe is allowed
  through, and its outcome closes or re-opens the circuit.

:class:`BackoffState` is the mutable per-connection realization of the
schedule; :class:`CircuitBreaker` the per-replica health automaton.  Both
are deterministic given the seed, which is what lets the fault-injection
suite replay an identical fault trace from an identical plan.
"""

from __future__ import annotations

import random
import threading
import time
import zlib
from dataclasses import dataclass

__all__ = [
    "RetryPolicy",
    "BackoffState",
    "CircuitBreaker",
    "CIRCUIT_CLOSED",
    "CIRCUIT_HALF_OPEN",
    "CIRCUIT_OPEN",
]

#: circuit states as published to the ``circuit_state{replica}`` gauge
CIRCUIT_CLOSED = 0
CIRCUIT_HALF_OPEN = 1
CIRCUIT_OPEN = 2

_STATE_NAMES = {
    CIRCUIT_CLOSED: "closed",
    CIRCUIT_HALF_OPEN: "half-open",
    CIRCUIT_OPEN: "open",
}


def seed_from_name(name: str) -> int:
    """A stable integer seed derived from a client/replica name, so every
    named client gets a distinct but reproducible jitter stream."""
    return zlib.crc32(name.encode("utf-8"))


@dataclass(frozen=True)
class RetryPolicy:
    """How the network tier waits: attempts, deadline, backoff, breaker.

    max_attempts:
        Total tries for one retryable operation (1 = no retry).
    deadline_s:
        Wall-clock budget across all attempts of one operation; ``None``
        means only ``max_attempts`` bounds it.
    backoff_initial_s / backoff_max_s:
        First delay and the hard cap every delay is clamped to.
    failure_threshold / reset_timeout_s:
        Circuit breaker: consecutive failures to open, and how long an
        open circuit waits before allowing one half-open probe.
    """

    max_attempts: int = 3
    deadline_s: float | None = 30.0
    backoff_initial_s: float = 0.05
    backoff_max_s: float = 5.0
    failure_threshold: int = 3
    reset_timeout_s: float = 1.0

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
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.reset_timeout_s < 0:
            raise ValueError(
                f"reset_timeout_s must be >= 0, got {self.reset_timeout_s}"
            )

    def backoff(self, seed: int | str = 0) -> "BackoffState":
        """A fresh per-connection backoff schedule seeded by ``seed``."""
        return BackoffState(self, seed)

    def breaker(self, clock=time.monotonic) -> "CircuitBreaker":
        """A fresh per-replica circuit breaker under this policy."""
        return CircuitBreaker(self, clock=clock)


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


class CircuitBreaker:
    """Per-replica failure gate: closed -> open -> half-open -> closed.

    Thread-safe.  ``allow()`` answers "may a call go to this replica right
    now" — always in ``closed``, never in ``open`` until
    ``reset_timeout_s`` elapsed, and for exactly one in-flight probe in
    ``half-open`` (a second caller is refused until the probe resolves).
    """

    def __init__(self, policy: RetryPolicy, clock=time.monotonic) -> None:
        self.policy = policy
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CIRCUIT_CLOSED  # guarded-by: self._lock
        self._failures = 0  # guarded-by: self._lock
        self._opened_at = 0.0  # guarded-by: self._lock
        self._probe_inflight = False  # guarded-by: self._lock
        self.transitions = 0  # guarded-by: self._lock

    @property
    def state(self) -> int:
        with self._lock:
            return self._effective_state_locked()

    @property
    def state_name(self) -> str:
        return _STATE_NAMES[self.state]

    def _effective_state_locked(self) -> int:
        if (
            self._state == CIRCUIT_OPEN
            and self._clock() - self._opened_at >= self.policy.reset_timeout_s
        ):
            self._state = CIRCUIT_HALF_OPEN
            self._probe_inflight = False
            self.transitions += 1
        return self._state

    def allow(self) -> bool:
        """True if a call may proceed (and, in half-open, claims the probe)."""
        with self._lock:
            state = self._effective_state_locked()
            if state == CIRCUIT_CLOSED:
                return True
            if state == CIRCUIT_HALF_OPEN and not self._probe_inflight:
                self._probe_inflight = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            if self._state != CIRCUIT_CLOSED:
                self.transitions += 1
            self._state = CIRCUIT_CLOSED
            self._failures = 0
            self._probe_inflight = False

    def record_failure(self) -> None:
        with self._lock:
            state = self._effective_state_locked()
            self._failures += 1
            self._probe_inflight = False
            if state == CIRCUIT_HALF_OPEN or (
                state == CIRCUIT_CLOSED
                and self._failures >= self.policy.failure_threshold
            ):
                self._state = CIRCUIT_OPEN
                self._opened_at = self._clock()
                self.transitions += 1

    def force_probe(self) -> None:
        """Collapse the open window (operator tooling / tests: "the replica
        just came back") so the next ``allow()`` grants a probe."""
        with self._lock:
            if self._state == CIRCUIT_OPEN:
                self._state = CIRCUIT_HALF_OPEN
                self._probe_inflight = False
                self.transitions += 1
