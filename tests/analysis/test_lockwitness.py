"""Runtime lock-order witness: unit protocol tests + integration runs.

The witness patches the ``threading`` lock factories, so every test here
restores the previous state — including the case where the whole session
already runs under ``REPRO_LOCKWITNESS=1``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.analysis import lockwitness
from repro.analysis.lockwitness import LockOrderError

WAIT = 30.0


@pytest.fixture()
def fresh_witness():
    was = lockwitness.installed()
    lockwitness.install()
    lockwitness.reset()
    yield
    if was:
        lockwitness.install()
        lockwitness.reset()
    else:
        lockwitness.uninstall()


class TestOrderCycles:
    def test_opposite_orders_raise(self, fresh_witness):
        lock_a = threading.Lock()
        lock_b = threading.Lock()
        with lock_a:
            with lock_b:
                pass
        with lock_b:
            with pytest.raises(LockOrderError) as exc:
                lock_a.acquire()
        assert len(exc.value.cycle) == 2

    def test_raise_happens_before_blocking(self, fresh_witness):
        # another thread holds a; main holds b and asks for a after the
        # a -> b order was witnessed: without the pre-acquire check this
        # is an actual deadlock shape, not just a recorded inversion
        lock_a = threading.Lock()
        lock_b = threading.Lock()
        with lock_a:
            with lock_b:
                pass
        holder_in = threading.Event()
        holder_out = threading.Event()

        def holder():
            with lock_a:
                holder_in.set()
                holder_out.wait(WAIT)

        t = threading.Thread(target=holder)
        t.start()
        assert holder_in.wait(WAIT)
        try:
            with lock_b:
                with pytest.raises(LockOrderError):
                    lock_a.acquire()
        finally:
            holder_out.set()
            t.join(WAIT)

    def test_consistent_order_never_raises(self, fresh_witness):
        lock_a = threading.Lock()
        lock_b = threading.Lock()
        for _ in range(3):
            with lock_a:
                with lock_b:
                    pass
        assert len(lockwitness.graph_edges()) == 1

    def test_same_site_locks_are_one_node(self, fresh_witness):
        # two shards whose locks come from the same line: locking one
        # while holding the other must not be reported as a cycle
        def make():
            return threading.Lock()

        shard_a, shard_b = make(), make()
        with shard_a:
            with shard_b:
                pass
        with shard_b:
            with shard_a:
                pass

    def test_three_lock_cycle(self, fresh_witness):
        lock_a = threading.Lock()
        lock_b = threading.Lock()
        lock_c = threading.Lock()
        with lock_a:
            with lock_b:
                pass
        with lock_b:
            with lock_c:
                pass
        with lock_c:
            with pytest.raises(LockOrderError) as exc:
                lock_a.acquire()
        assert len(exc.value.cycle) == 3

    def test_reset_forgets_recorded_edges(self, fresh_witness):
        lock_a = threading.Lock()
        lock_b = threading.Lock()
        with lock_a:
            with lock_b:
                pass
        lockwitness.reset()
        assert lockwitness.graph_edges() == {}
        with lock_b:
            with lock_a:  # the opposite order is fine after a reset
                pass


class TestLockProtocol:
    def test_self_deadlock_raises(self, fresh_witness):
        lock = threading.Lock()
        lock.acquire()
        with pytest.raises(LockOrderError, match="self-deadlock"):
            lock.acquire()
        lock.release()

    def test_nonblocking_reacquire_just_fails(self, fresh_witness):
        lock = threading.Lock()
        lock.acquire()
        assert lock.acquire(blocking=False) is False
        lock.release()

    def test_rlock_reentry_is_fine(self, fresh_witness):
        rlock = threading.RLock()
        with rlock:
            with rlock:
                assert rlock._is_owned()

    def test_locked_query(self, fresh_witness):
        lock = threading.Lock()
        assert not lock.locked()
        with lock:
            assert lock.locked()

    def test_contended_lock_across_threads(self, fresh_witness):
        lock = threading.Lock()
        hits = []

        def worker():
            for _ in range(50):
                with lock:
                    hits.append(1)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(WAIT)
        assert len(hits) == 200

    def test_factories_restored_after_uninstall(self):
        was = lockwitness.installed()
        lockwitness.install()
        assert lockwitness.installed()
        assert isinstance(threading.Lock(), object)
        lockwitness.uninstall()
        assert not lockwitness.installed()
        try:
            assert type(threading.Lock()).__name__ == "lock"
        finally:
            if was:
                lockwitness.install()

    def test_witness_context_manager(self):
        was = lockwitness.installed()
        with lockwitness.witness():
            assert lockwitness.installed()
        assert lockwitness.installed() == was

    def test_enabled_from_env(self, monkeypatch):
        for value, expect in [
            ("1", True), ("true", True), ("on", True),
            ("0", False), ("", False),
        ]:
            monkeypatch.setenv(lockwitness.ENV_VAR, value)
            assert lockwitness.enabled_from_env() is expect
        monkeypatch.delenv(lockwitness.ENV_VAR)
        assert lockwitness.enabled_from_env() is False


class TestConditionProtocol:
    def test_wait_notify_over_default_rlock(self, fresh_witness):
        cond = threading.Condition()
        box: list[int] = []

        def waiter():
            with cond:
                while not box:
                    cond.wait(WAIT)
                box.append(2)

        t = threading.Thread(target=waiter)
        t.start()
        with cond:
            box.append(1)
            cond.notify_all()
        t.join(WAIT)
        assert box == [1, 2]

    def test_wait_notify_over_witnessed_lock(self, fresh_witness):
        # the SpillManager pattern: Condition sharing an explicit Lock
        lock = threading.Lock()
        cond = threading.Condition(lock)
        state = {"ready": False}

        def setter():
            with lock:
                state["ready"] = True
                cond.notify_all()

        t = threading.Thread(target=setter)
        with cond:
            t.start()
            while not state["ready"]:
                cond.wait(WAIT)
        t.join(WAIT)
        assert state["ready"]

    def test_wait_releases_all_recursion_levels(self, fresh_witness):
        cond = threading.Condition()
        box: list[int] = []

        def notifier():
            with cond:
                box.append(1)
                cond.notify_all()

        def waiter():
            with cond:
                with cond:  # two levels deep: wait() must shed both
                    threading.Thread(target=notifier).start()
                    while not box:
                        cond.wait(WAIT)
                    box.append(2)

        t = threading.Thread(target=waiter)
        t.start()
        t.join(WAIT)
        assert box == [1, 2]


class TestIntegration:
    def test_spill_manager_roundtrip(self, fresh_witness, tmp_path):
        from repro.memio import SpillManager

        rng = np.random.default_rng(5)
        arrays = {f"v{i}": rng.normal(size=(16, 16)) for i in range(6)}
        with SpillManager(str(tmp_path)) as mgr:
            for name, arr in arrays.items():
                mgr.spill(name, arr)

            def reader(names):
                for name in names:
                    mgr.prefetch(name)
                    np.testing.assert_array_equal(mgr.fetch(name), arrays[name])

            names = sorted(arrays)
            threads = [
                threading.Thread(target=reader, args=(names[:3],)),
                threading.Thread(target=reader, args=(names[3:],)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(WAIT)
