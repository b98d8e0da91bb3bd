"""RetryPolicy / BackoffState + daemon-address parsing.

The jitter regression (satellite of the fault-tolerance PR): every delay
stays within ``[base, cap]``, the cap is *hard* (no attempt count blows
past it), schedules are reproducible per seed and **non-identical across
differently-seeded clients** — the no-thundering-herd property.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.core import MemoConfig, MemoShardRouter
from repro.core.memo_engine import make_db_factory
from repro.core.memo_shard import ShardInsert, empty_memo_state, memo_state_partitions
from repro.net.client import RemoteMemoClient
from repro.net.policy import RetryPolicy, seed_from_name
from repro.net.snapshot_store import pull_state
from repro.net.wire import parse_address
from repro.service import ServiceConfig


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


class TestDeadlineIsOptional:
    def test_pull_without_a_deadline_is_bounded_by_attempts(self):
        """``deadline_s=None`` is a documented policy ("only ``max_attempts``
        bounds it"): a pull against a dead address must give up cold after
        its attempts, not trip over ``monotonic() + None``."""
        import socket

        with socket.socket() as s:  # a port nothing listens on
            s.bind(("127.0.0.1", 0))
            dead = s.getsockname()
        policy = RetryPolicy(
            max_attempts=2, deadline_s=None, backoff_initial_s=0.0, backoff_max_s=0.01
        )
        with RemoteMemoClient(dead, fail_open=True, retry_policy=policy) as tier:
            assert pull_state(tier, policy) is None
            assert not tier.connected


class _WakingTier(MemoShardRouter):
    """A one-entry tier that reads like a fail-open client of a daemon
    answering from its ``up_at``-th pull on: empty and disconnected before."""

    def __init__(self, up_at: int) -> None:
        super().__init__(1, make_db_factory(MemoConfig(index_train_min=4)))
        self.insert_batch([ShardInsert(
            "Fu1D", 0, np.ones(12, np.float32), np.ones((2, 2), np.complex64), (1.0, 0j)
        )])
        self.up_at, self.pulls, self.resets = up_at, 0, 0

    def reset_backoff(self) -> None:
        self.resets += 1

    @property
    def connected(self) -> bool:
        return self.pulls >= self.up_at

    def state_dict(self) -> dict:
        self.pulls += 1
        return super().state_dict() if self.connected else empty_memo_state(1)


class TestPullRetries:
    POLICY = RetryPolicy(max_attempts=3, deadline_s=None, backoff_initial_s=0.0,
                         backoff_max_s=0.0)

    def test_an_unreachable_daemon_is_asked_again(self):
        """An empty tree while disconnected is a transport artifact, not a
        cold tier: the pull backs off and asks again, and takes the tree
        once the daemon answers."""
        tier = _WakingTier(up_at=3)
        tree = pull_state(tier, self.POLICY)
        assert tier.pulls == 3 and len(memo_state_partitions(tree)) == 1
        assert tier.resets == 2  # the client's reconnect window, before each retry

    def test_it_gives_up_cold_after_its_attempts(self):
        tier = _WakingTier(up_at=4)
        assert pull_state(tier, self.POLICY) is None
        assert (tier.pulls, tier.resets) == (3, 2)


#: spellings of one daemon's address -> the (host, port) they name
ACCEPTED = [
    ("h:1", ("h", 1)),
    (":123", ("127.0.0.1", 123)),
    ("h:0", ("h", 0)),
    ("h:65535", ("h", 65535)),
    (("memo-host", 9000), ("memo-host", 9000)),  # ONE address, not two
    (["h", 9], ("h", 9)),
]

#: spellings that name no single daemon: each is a ValueError naming it
REFUSED = [
    "h:70000",  # getaddrinfo would wrap it onto port 4464
    "h:65536",
    ("h", 70000),
    ("h", -1),
    ("h", True),
    ("h", "9"),
    ("", 1),
    ("::1", 80),
    "a:1,b:2",  # a list of daemons is not one address
    [("a", 1), ("b", 2)],
    ["a:1", "b:2"],
    [],
    ("h",),
    ("h", 80, 0),
    "::1",
    "1:2:3",
    "[::1]:80",
    "nohost",
    "h:port",
    "h:-1",
    123,
]

#: every surface that takes one daemon's address
ENTRY_POINTS = {
    "parse_address": parse_address,
    "MemoConfig": lambda a: MemoConfig(transport="tcp", server_address=a),
    "ServiceConfig": lambda a: ServiceConfig(memo_transport="tcp", memo_server=a),
}


class TestAddressParsing:
    @pytest.mark.parametrize("spelling, want", ACCEPTED)
    def test_one_address(self, spelling, want):
        assert parse_address(spelling) == want
        for make in ENTRY_POINTS.values():
            make(spelling)

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    @pytest.mark.parametrize("bad", REFUSED, ids=repr)
    def test_refused_naming_the_input(self, entry, bad):
        with pytest.raises(ValueError, match="one address.*" + re.escape(repr(bad))):
            ENTRY_POINTS[entry](bad)
