"""RetryPolicy / BackoffState / CircuitBreaker + replica-address parsing.

The jitter regression (satellite of the fault-tolerance PR): every delay
stays within ``[base, cap]``, the cap is *hard* (no attempt count blows
past it), schedules are reproducible per seed and **non-identical across
differently-seeded clients** — the no-thundering-herd property.
"""

from __future__ import annotations

import pytest

from repro.net.client import connect_tier
from repro.net.policy import (
    CIRCUIT_CLOSED,
    CIRCUIT_HALF_OPEN,
    CIRCUIT_OPEN,
    BackoffState,
    CircuitBreaker,
    RetryPolicy,
    seed_from_name,
)
from repro.net.snapshot_store import pull_state
from repro.net.wire import parse_address, parse_address_list


class TestBackoff:
    def test_delays_capped_and_floored(self):
        policy = RetryPolicy(backoff_initial_s=0.05, backoff_max_s=0.4)
        state = policy.backoff(seed=1)
        delays = [state.next_delay() for _ in range(50)]
        assert all(0.05 <= d <= 0.4 for d in delays)
        # the schedule actually grows toward the cap, then saturates there
        assert max(delays) > 0.2

    def test_reproducible_per_seed(self):
        policy = RetryPolicy()
        a = [policy.backoff(seed=9).next_delay() for _ in range(1)]
        s1, s2 = policy.backoff(seed=9), policy.backoff(seed=9)
        assert [s1.next_delay() for _ in range(10)] == [
            s2.next_delay() for _ in range(10)
        ]

    def test_seeded_clients_do_not_thunder_in_lockstep(self):
        """Differently-named clients draw different jitter schedules."""
        policy = RetryPolicy(backoff_initial_s=0.01, backoff_max_s=2.0)
        schedules = []
        for name in ("client-a@h:1", "client-b@h:1", "client-c@h:1"):
            state = policy.backoff(seed_from_name(name))
            schedules.append(tuple(state.next_delay() for _ in range(8)))
        assert len(set(schedules)) == len(schedules)

    def test_reset_restarts_schedule(self):
        state = RetryPolicy(backoff_initial_s=0.1, backoff_max_s=10.0).backoff(5)
        first = [state.next_delay() for _ in range(5)]
        state.reset()
        again = [state.next_delay() for _ in range(5)]
        assert again[0] == pytest.approx(0.1)  # back at the base
        assert state.attempts == 5

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="deadline_s"):
            RetryPolicy(deadline_s=0)
        with pytest.raises(ValueError, match="backoff_max_s"):
            RetryPolicy(backoff_initial_s=1.0, backoff_max_s=0.5)
        with pytest.raises(ValueError, match="failure_threshold"):
            RetryPolicy(failure_threshold=0)


class TestDeadlineIsOptional:
    @pytest.mark.parametrize("n_daemons", [1, 2])
    def test_pull_without_a_deadline_is_bounded_by_attempts(self, n_daemons):
        """``deadline_s=None`` is a documented policy ("only ``max_attempts``
        bounds it"): a pull against dead addresses must give up cold after
        its attempts, not trip over ``monotonic() + None`` — over one
        client and over the replicated tier two addresses make (which is
        disconnected only when every replica is)."""
        import socket

        dead = []
        for _ in range(n_daemons):
            with socket.socket() as s:  # a port nothing listens on
                s.bind(("127.0.0.1", 0))
                dead.append(s.getsockname())
        policy = RetryPolicy(
            max_attempts=2, deadline_s=None, backoff_initial_s=0.0, backoff_max_s=0.01
        )
        with connect_tier(dead, retry_policy=policy) as tier:
            assert pull_state(tier, policy) is None
            assert not tier.connected


class TestCircuitBreaker:
    def make(self, **over):
        t = [0.0]
        policy = RetryPolicy(failure_threshold=3, reset_timeout_s=1.0, **over)
        return policy.breaker(clock=lambda: t[0]), t

    def test_opens_after_threshold(self):
        breaker, _ = self.make()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CIRCUIT_CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == CIRCUIT_OPEN
        assert not breaker.allow()

    def test_half_open_single_probe_then_close(self):
        breaker, t = self.make()
        for _ in range(3):
            breaker.record_failure()
        t[0] = 1.5  # past reset_timeout_s
        assert breaker.state == CIRCUIT_HALF_OPEN
        assert breaker.allow()  # the single probe
        assert not breaker.allow()  # second caller refused while probing
        breaker.record_success()
        assert breaker.state == CIRCUIT_CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens(self):
        breaker, t = self.make()
        for _ in range(3):
            breaker.record_failure()
        t[0] = 1.5
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CIRCUIT_OPEN
        assert not breaker.allow()

    def test_success_resets_failure_streak(self):
        breaker, _ = self.make()
        for _ in range(2):
            breaker.record_failure()
        breaker.record_success()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CIRCUIT_CLOSED  # streaks don't accumulate

    def test_force_probe_collapses_open_window(self):
        breaker, _ = self.make()
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()
        breaker.force_probe()
        assert breaker.state == CIRCUIT_HALF_OPEN
        assert breaker.allow()

    def test_transition_count(self):
        breaker, t = self.make()
        for _ in range(3):
            breaker.record_failure()  # -> open
        t[0] = 1.5
        breaker.allow()  # -> half-open
        breaker.record_success()  # -> closed
        assert breaker.transitions == 3


class TestAddressParsing:
    def test_single_forms(self):
        assert parse_address_list("h:1") == [("h", 1)]
        assert parse_address_list(("h", 1)) == [("h", 1)]
        assert parse_address_list(["h:1"]) == [("h", 1)]

    def test_comma_list_and_mixed(self):
        assert parse_address_list("a:1, b:2,c:3") == [("a", 1), ("b", 2), ("c", 3)]
        assert parse_address_list(["a:1", ("b", 2)]) == [("a", 1), ("b", 2)]

    def test_error_names_bad_element(self):
        with pytest.raises(ValueError, match=r"bad address element 'b'"):
            parse_address_list("a:1,b")
        with pytest.raises(ValueError, match=r"bad address element"):
            parse_address_list([("a", 1), 42])

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_address_list("a:1,a:1")
        with pytest.raises(ValueError, match="empty"):
            parse_address_list(" , ")
        with pytest.raises(ValueError, match="empty"):
            parse_address_list([])

    def test_single_pair_is_not_two_addresses(self):
        # the classic ambiguity: ("host", 9000) is ONE address
        assert parse_address_list(("memo-host", 9000)) == [("memo-host", 9000)]

    def test_parse_address_still_rejects_ipv6_strings(self):
        with pytest.raises(ValueError):
            parse_address("::1")
