"""One memo tier, composed: the same behaviour out of every implementation.

- **conformance** — one put/get/stats/state round trip over the in-process
  router and the TCP client, with equal outcomes and ``shard_stats``,
- **one merge-on-push** — the in-process router and the daemon install a
  pushed tree identically: all or nothing, heat unioned,
- **the scheduler's tier** — ``SharedMemoService`` over a router in process
  and over a loopback daemon, one test body: absorb/seed are the tier's
  push/state, chained and concurrent jobs merge as ``MemoShard.install``
  says,
- **the router is a concurrent object** — threads of mixed traffic end
  with the serial run's contents, and every snapshot taken on the way sees
  each shard at a batch boundary.
"""

from __future__ import annotations

import contextlib
import copy
import sys
import threading

import numpy as np
import pytest

from repro.core import MemoConfig, MemoShardRouter
from repro.core.memo_engine import make_db_factory
from repro.core.memo_shard import (
    MemoTier,
    ShardInsert,
    ShardQuery,
    memo_state_partitions,
)
from repro.net import MemoServerDaemon, RemoteMemoClient
from repro.obs import runtime as obs
from repro.service import SharedMemoService

MEMO = MemoConfig(index_train_min=4, index_clusters=2, index_nprobe=2)
N_SHARDS = 2


@pytest.fixture(autouse=True)
def pristine_obs():
    obs.reset()
    yield
    obs.reset()


def router() -> MemoShardRouter:
    return MemoShardRouter(N_SHARDS, make_db_factory(MEMO))


def mk_items(rng, n, op="Fu1D", first_loc=0):
    out = []
    for i in range(n):
        key = rng.normal(size=12).astype(np.float32)
        val = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))).astype(np.complex64)
        out.append(ShardInsert(op, first_loc + i, key, val, meta=(1.0 + i, 1j * i)))
    return out


def queries_for(inserts):
    return [ShardQuery(i.op, i.location, i.key) for i in inserts]


def freeze(node):
    """A state tree as plain comparable data (arrays by dtype/shape/bytes)."""
    if isinstance(node, dict):
        return {k: freeze(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [freeze(v) for v in node]
    if isinstance(node, np.ndarray):
        return (node.dtype.str, node.shape, node.tobytes())
    return node


# -- conformance ----------------------------------------------------------------------------


@contextlib.contextmanager
def _inproc():
    with router() as tier:
        yield tier


@contextlib.contextmanager
def _tcp():
    with MemoServerDaemon(n_shards=N_SHARDS, memo=MEMO) as srv:
        with RemoteMemoClient(srv.address, expect_tau=MEMO.tau) as tier:
            yield tier


TOPOLOGIES = {"router": _inproc, "tcp": _tcp}


def _round_trip(tier: MemoTier, rng) -> dict:
    """Put, get, read the statistics, pull the state and push it into a
    fresh router — everything observable of one tier, as plain data."""
    inserts = mk_items(rng, 6) + mk_items(rng, 3, op="Fu2D")
    assert tier.insert_batch(inserts[:5]) is not None
    tier.insert_batch(inserts[5:])
    tier.flush()
    probes = queries_for(inserts) + [
        ShardQuery("Fu1D", 1, rng.normal(size=12).astype(np.float32))
    ]
    outcomes = tier.query_batch(probes)
    tree = tier.state_dict()
    restored = router()
    assert restored.push_state(tree)
    return {
        "n_shards": tier.n_shards,
        "shard_of": [tier.shard_of(loc) for loc in range(5)],
        "outcomes": [
            (o.hit, o.similarity, o.matched_id, o.n_entries, o.stored_meta,
             None if o.value is None else o.value.tobytes())
            for o in outcomes
        ],
        "shard_stats": tier.shard_stats(),
        "shard_stats_one_op": tier.shard_stats("Fu2D"),
        "stats": tier.stats().as_dict(),
        "entries": (tier.entries(), tier.entries("Fu2D")),
        "partitions": sorted(
            (p["op"], p["location"]) for p in memo_state_partitions(tree)
        ),
        "restored": [(st.inserts, st.bytes_inserted, n) for st, n in restored.shard_stats()],
    }


def _append(column, value):
    return np.append(column, np.asarray([value], dtype=column.dtype), axis=0)


#: every way a partition table can disagree with itself: name -> edit of a
#: trained six-entry partition's ``db`` state (dim 12, ids 0..5)
MALFORMATIONS = {
    "short heat column": lambda db: db["values"].update(
        heat_last=db["values"]["heat_last"][:3]),
    "long heat column": lambda db: db["values"].update(
        heat_hits=_append(db["values"]["heat_hits"], 0)),
    "short vals": lambda db: db["values"].update(vals=db["values"]["vals"][:5]),
    "short metadata column": lambda db: db.update(meta_ac=db["meta_ac"][:5]),
    "long metadata column": lambda db: db.update(meta_has=_append(db["meta_has"], 1)),
    "short keys": lambda db: db.update(keys=db["keys"][:5]),
    "keys of another dim": lambda db: db.update(keys=db["keys"][:, :11]),
    "flat keys": lambda db: db.update(keys=db["keys"].ravel()),
    "key_ids with a hole": lambda db: db.update(
        key_ids=np.array([0, 1, 2, 3, 4, 99])),
    "store ids another set": lambda db: db["values"].update(
        ids=np.array([0, 1, 2, 3, 4, 99])),
    "IVF id outside [0, n)": lambda db: db["index"]["list_ids"][0].__setitem__(0, 99),
    "IVF id twice": lambda db: db["index"]["list_ids"].__setitem__(
        0, _append(db["index"]["list_ids"][0], 0)),
    "IVF list missing": lambda db: db["index"]["list_ids"].pop(),
}


def malformed_trees(rng) -> dict:
    """name -> a tree whose first partition is sound and whose second is
    malformed in exactly one way."""
    donor = router()
    donor.insert_batch(mk_items(rng, 1, op="Fu2D", first_loc=7))
    donor.insert_batch([
        ShardInsert("Fu2D", 8, ins.key, ins.value, ins.meta) for ins in mk_items(rng, 6)
    ])
    sound, trained = sorted(
        memo_state_partitions(donor.state_dict()), key=lambda p: p["location"]
    )
    assert trained["db"]["index"]["trained"] and len(trained["db"]["key_ids"]) == 6
    trees = {}
    for name, edit in MALFORMATIONS.items():
        bad = copy.deepcopy(trained)
        edit(bad["db"])
        trees[name] = {"n_shards": N_SHARDS, "partitions": [sound, bad]}
    assert router().push_state({"n_shards": N_SHARDS, "partitions": [sound, trained]})
    return trees


class TestTierConformance:
    def test_same_round_trip_over_every_topology(self):
        results = {}
        for name, topology in TOPOLOGIES.items():
            with topology() as tier:
                results[name] = _round_trip(tier, np.random.default_rng(11))
        want = results["router"]
        assert want["entries"] == (9, 3) and sum(o[0] for o in want["outcomes"]) == 9
        for name, got in results.items():
            assert got == want, name

    @pytest.mark.parametrize("topology", list(TOPOLOGIES))
    def test_a_malformed_push_is_a_value_error_and_changes_nothing(self, topology, rng):
        """``push_state`` validates every partition's columns before it
        installs the first: whatever the disagreement and whichever tier
        takes the push, it is a ``ValueError`` and the tier reads exactly as
        before — the sound partition travelling with it included."""
        trees = malformed_trees(rng)
        with TOPOLOGIES[topology]() as tier:
            tier.insert_batch(mk_items(rng, 3, op="Fu2D", first_loc=6))
            tier.flush()
            before = (tier.entries(), tier.shard_stats(), freeze(tier.state_dict()))
            for name, tree in trees.items():
                with pytest.raises(ValueError):
                    tier.push_state(tree)
                after = (tier.entries(), tier.shard_stats(), freeze(tier.state_dict()))
                assert after == before, name


# -- one merge-on-push -----------------------------------------------------------------------


@contextlib.contextmanager
def _daemon_tier():
    with MemoServerDaemon(n_shards=N_SHARDS, memo=MEMO) as srv:
        with RemoteMemoClient(srv.address, fail_open=False) as client:
            yield client, srv.router


@contextlib.contextmanager
def _router_tier():
    live = router()
    yield live, live


MERGE_TIERS = {"router": _router_tier, "daemon": _daemon_tier}


def heat_of(live: MemoShardRouter, op: str, loc: int) -> list[tuple]:
    return [(r["last"], r["hits"]) for r in live.heat_records()
            if (r["op"], r["location"]) == (op, loc)]


@pytest.mark.parametrize("kind", list(MERGE_TIERS))
class TestMergeOnPush:
    def test_malformed_push_leaves_the_tier_untouched(self, kind, rng):
        donor = router()
        donor.insert_batch(mk_items(rng, 2))
        tree = donor.state_dict()
        parts = memo_state_partitions(tree)
        assert len(parts) == 2
        del parts[1]["db"]["index"]  # valid config, nothing to rebuild from
        with MERGE_TIERS[kind]() as (tier, live):
            with pytest.raises(ValueError, match="malformed"):
                tier.push_state(tree)
            assert live.entries() == 0
            # a request-level rejection: the same connection keeps serving
            assert tier.entries() == 0 and tier.connected

    def test_valid_push_over_a_hot_partition_keeps_its_heat(self, kind, rng, monkeypatch):
        from repro.kvstore import store

        now = [1000.0]
        monkeypatch.setattr(store, "_heat_clock", lambda: now[0])
        inserts = mk_items(rng, 1)
        with MERGE_TIERS[kind]() as (tier, live):
            tier.insert_batch(inserts)
            tier.flush()
            cold = tier.state_dict()  # the partition as pushed back later
            now[0] = 2000.0
            assert tier.query_batch(queries_for(inserts) * 3)[0].hit
            assert heat_of(live, "Fu1D", 0) == [(2000.0, 3)]
            # the pushed copy saw one hit of its own, earlier
            peer = router()
            peer.push_state(cold)
            now[0] = 1500.0
            peer.query_batch(queries_for(inserts))
            now[0] = 3000.0
            assert tier.push_state(peer.state_dict())
            assert live.entries() == 1
            assert heat_of(live, "Fu1D", 0) == [(2000.0, 4)]  # max(last), sum(hits)


# -- the scheduler's tier --------------------------------------------------------------------


@pytest.fixture()
def clock(monkeypatch):
    """Deterministic heat clock: advance with ``clock[0] = t``."""
    from repro.kvstore import store

    now = [1000.0]
    monkeypatch.setattr(store, "_heat_clock", lambda: now[0])
    return now


FINGERPRINT = {"kind": "PoolKeyEncoder", "dim": 12, "weights": None}


class Job:
    """What the service uses of an executor — ``memo_state`` /
    ``load_memo_state`` — over a real router standing in for its tier."""

    def __init__(self, encoder_state=None) -> None:
        self.router = router()
        self.encoder_state = encoder_state

    def memo_state(self) -> dict:
        return {
            **self.router.state_dict(),
            "encoder": FINGERPRINT,
            "encoder_state": self.encoder_state,
        }

    def load_memo_state(self, tree: dict) -> None:
        self.router.push_state(tree)

    def run(self, inserts=(), hits=()) -> "Job":
        if inserts:
            self.router.insert_batch(list(inserts))
        if hits:
            assert all(o.hit for o in self.router.query_batch(queries_for(hits)))
        return self


@contextlib.contextmanager
def _service_inproc():
    service = SharedMemoService()
    yield service
    service.close()


@contextlib.contextmanager
def _service_daemon():
    with MemoServerDaemon(n_shards=N_SHARDS, memo=MEMO) as srv:
        service = SharedMemoService(RemoteMemoClient(srv.address, expect_tau=MEMO.tau))
        yield service
        service.close()


SERVICES = {"inproc": _service_inproc, "daemon": _service_daemon}


def partitions_of(tree: dict) -> dict:
    return {
        (p["op"], int(p["location"])): freeze(p["db"])
        for p in memo_state_partitions(tree)
    }


def heat_in(tree: dict, op: str, loc: int) -> list[tuple]:
    (values,) = [
        p["db"]["values"] for p in memo_state_partitions(tree)
        if (p["op"], int(p["location"])) == (op, loc)
    ]
    return list(zip(values["heat_last"].tolist(), values["heat_hits"].tolist()))


@pytest.mark.parametrize("kind", list(SERVICES))
class TestSchedulerTier:
    """``SharedMemoService`` is a tier read and written as whole trees: one
    body over a router in process and over a loopback daemon."""

    def test_cold_service_seeds_nothing_and_saves_nothing(self, kind, tmp_path):
        with SERVICES[kind]() as service:
            assert service.state() is None
            assert service.seed(Job()) is False
            with pytest.raises(ValueError, match="cold"):
                service.save(tmp_path / "m")
            assert service.generation == 0

    def test_absorb_then_seed_is_push_then_state(self, kind, rng, clock):
        donor = Job().run(mk_items(rng, 4) + mk_items(rng, 2, op="Fu2D"))
        donor.run(hits=mk_items(np.random.default_rng(1234), 2))
        bare = router()
        bare.push_state(donor.memo_state())
        want = partitions_of(bare.state_dict())
        with SERVICES[kind]() as service:
            service.absorb(donor)
            assert service.generation == 1
            assert partitions_of(service.state()) == want
            seeded = Job()
            assert service.seed(seeded) is True
            got = partitions_of(seeded.router.state_dict())
        # ... except that a job counts its own hits from zero (what it
        # pushes back is then its own traffic, see the chained test)
        hits = {key: heat_in(bare.state_dict(), *key) for key in want}
        assert sum(h for rows in hits.values() for _last, h in rows) == 2
        for key, part in want.items():
            part["values"]["heat_hits"] = freeze(np.zeros(len(hits[key]), dtype=np.int64))
        assert got == want

    def test_chained_job_subsumes_the_tier(self, kind, rng, clock):
        first = mk_items(rng, 3)
        with SERVICES[kind]() as service:
            service.absorb(Job().run(first, hits=first[:2]))  # hits at t=1000
            job = Job()
            service.seed(job)
            clock[0] = 2000.0
            added = mk_items(rng, 2, first_loc=1)  # new entries at locations 1, 2
            job.run(added, hits=first[1:] + added[:1])
            service.absorb(job)
            assert service.generation == 2
            tree = service.state()
        # the job held everything the tier held: the tier is now the job's
        # partitions, entry for entry ...
        mine = partitions_of(job.memo_state())
        now = partitions_of(tree)
        assert now.keys() == mine.keys()
        for key in mine:
            for field in ("key_ids", "keys", "index", "stats"):
                assert now[key][field] == mine[key][field], (key, field)
            assert now[key]["values"]["vals"] == mine[key]["values"]["vals"]
        # ... and inherited hits are counted once, however long the chain
        assert heat_in(tree, "Fu1D", 0) == [(1000.0, 1)]
        assert heat_in(tree, "Fu1D", 1) == [(2000.0, 2), (2000.0, 1)]
        assert heat_in(tree, "Fu1D", 2) == [(2000.0, 1), (2000.0, 0)]

    def test_concurrent_completions_union_newest_partition_wins(self, kind, rng, clock):
        """Two jobs that both started cold must not wipe each other's
        partitions when they absorb: partitions only the earlier job holds
        are kept, a partition both hold is the newer job's wholesale, with
        heat unioned (max last-hit, summed hits) for the entries both
        numbered alike."""
        a_items = mk_items(rng, 2)  # (Fu1D, 0), (Fu1D, 1)
        b_items = mk_items(rng, 1, first_loc=1) + mk_items(rng, 1, op="Fu2D", first_loc=2)
        a = Job().run(a_items, hits=a_items)  # hit at t=1000
        clock[0] = 4000.0
        b = Job().run(b_items, hits=b_items)  # hit at t=4000
        with SERVICES[kind]() as service:
            service.absorb(a)
            service.absorb(b)
            tree = service.state()
        got = partitions_of(tree)
        mine_a, mine_b = partitions_of(a.memo_state()), partitions_of(b.memo_state())
        assert got.keys() == {("Fu1D", 0), ("Fu1D", 1), ("Fu2D", 2)}
        assert got[("Fu1D", 0)] == mine_a[("Fu1D", 0)]  # only in the earlier job: kept
        assert got[("Fu2D", 2)] == mine_b[("Fu2D", 2)]
        # conflict: the newest partition's entries ...
        assert got[("Fu1D", 1)]["keys"] == mine_b[("Fu1D", 1)]["keys"]
        assert got[("Fu1D", 1)]["keys"] != mine_a[("Fu1D", 1)]["keys"]
        # ... with the losing job's traffic still informing the planner
        assert heat_in(tree, "Fu1D", 1) == [(4000.0, 2)]

    def test_encoder_weights_are_carried_forward(self, kind, rng):
        weights = {"encoder": {"w": np.arange(4, dtype=np.float32)}, "quantized": True}
        with SERVICES[kind]() as service:
            service.absorb(Job(encoder_state=weights).run(mk_items(rng, 1)))
            service.absorb(Job().run(mk_items(rng, 1, first_loc=3)))  # carries none
            tree = service.state()
        assert freeze(tree["encoder_state"]) == freeze(weights)
        assert tree["encoder"] == FINGERPRINT

    def test_save_load_round_trip_merges_into_a_tier(self, kind, rng, tmp_path):
        with SERVICES[kind]() as service:
            service.absorb(Job().run(mk_items(rng, 3)))
            service.save(tmp_path / "m")
            want = partitions_of(service.state())
        with SERVICES[kind]() as fresh:
            fresh.tier.push_state(Job().run(mk_items(rng, 1, op="Fu2D", first_loc=5)).memo_state())
            fresh.load(tmp_path / "m")
            got = partitions_of(fresh.state())
            assert fresh.generation == 1
        assert got.pop(("Fu2D", 5))  # what the tier held is kept
        assert got == want

    def test_a_tier_has_one_tau(self, kind, rng):
        other = MemoShardRouter(1, make_db_factory(MemoConfig(tau=0.5, index_train_min=4)))
        other.insert_batch(mk_items(rng, 1))
        with SERVICES[kind]() as service:
            service.absorb(Job().run(mk_items(rng, 1)))
            with pytest.raises(ValueError, match="tau"):
                service.tier.push_state(other.state_dict())
            assert len(partitions_of(service.state())) == 1


# -- the router is a concurrent object -------------------------------------------------------


N_THREADS = 8
BATCH = 3


def thread_script(t: int) -> list[tuple]:
    """Thread ``t``'s operations.  It owns locations ``t`` and
    ``t + N_THREADS`` (disjoint partitions, on shards it shares with every
    other thread), so its own order alone determines their contents."""
    rng = np.random.default_rng(100 + t)
    donor = router()
    donor.insert_batch(mk_items(rng, 1, op="Fu2D", first_loc=t + N_THREADS))
    script = []
    for round_ in range(6):
        batch = [
            ShardInsert(op, loc, rng.normal(size=12).astype(np.float32),
                        rng.normal(size=(2, 2)).astype(np.complex64), meta=(1.0, 0j))
            for loc in (t, t + N_THREADS)
            for op in ("Fu1D",) * BATCH
        ]
        script.append(("insert_batch", batch))
        script.append(("query_batch", queries_for(batch[::2])))
        script.append(("state_dict",))
        if round_ == 2:
            script.append(("push_state", donor.state_dict()))
        script.append(("shard_stats",))
    return script


def play(tier: MemoShardRouter, script: list[tuple], snapshots: list) -> None:
    for name, *args in script:
        result = getattr(tier, name)(*args)
        if name == "state_dict":
            snapshots.append(result)


class TestRouterIsConcurrent:
    def test_threads_of_mixed_traffic_end_with_the_serial_contents(self, clock):
        scripts = [thread_script(t) for t in range(N_THREADS)]
        serial = router()
        for script in scripts:
            play(serial, script, [])

        live, snapshots, errors = router(), [], []

        def worker(script):
            try:
                play(live, script, snapshots)
            except BaseException as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in scripts]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more interleavings than cores would give
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(th.is_alive() for th in threads)

        assert partitions_of(live.state_dict()) == partitions_of(serial.state_dict())
        assert live.shard_stats() == serial.shard_stats()
        assert live.stats().inserts == N_THREADS * (6 * 2 * BATCH + 1)
        assert [(s.query_messages, s.insert_messages) for s in live.shards] == [
            (s.query_messages, s.insert_messages) for s in serial.shards
        ]
        # every snapshot taken on the way saw each shard between two
        # sub-batches: no partition is ever caught mid-insert
        assert len(snapshots) == N_THREADS * 6
        for tree in snapshots:
            for part in memo_state_partitions(tree):
                db = part["db"]
                if part["op"] == "Fu1D":
                    assert db["stats"]["inserts"] % BATCH == 0
                assert (
                    db["stats"]["inserts"] == len(db["key_ids"])
                    == len(db["values"]["ids"])
                )
