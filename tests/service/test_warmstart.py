"""Executor-level memo-state snapshots and MLRConfig warm-start wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MemoConfig, MLRConfig, MLRSolver
from repro.kvstore.serialization import encode_tree
from repro.lamino import LaminoGeometry, brain_like, simulate_data
from repro.service import load_memo_snapshot, save_memo_snapshot
from repro.solvers import ADMMConfig

MEMO = dict(tau=0.9, warmup_iterations=1, index_train_min=8,
            index_clusters=4, index_nprobe=2)
ADMM = ADMMConfig(n_outer=4, n_inner=2, step_max_rel=4.0)


@pytest.fixture(scope="module")
def problem():
    n = 16
    geometry = LaminoGeometry((n, n, n), n_angles=12, det_shape=(n, n), tilt_deg=61.0)
    truth = brain_like(geometry.vol_shape, seed=7)
    d1 = simulate_data(truth, geometry, noise_level=0.02, seed=1)
    d2 = simulate_data(truth, geometry, noise_level=0.02, seed=2)
    return geometry, d1, d2


def by_partition(tree: dict) -> dict:
    """``(op, location) -> db state`` as its one byte representation."""
    return {(p["op"], int(p["location"])): encode_tree(p["db"]) for p in tree["partitions"]}


def config(**over) -> MLRConfig:
    return MLRConfig(chunk_size=4, memo=MemoConfig(**MEMO), **over)


@pytest.fixture(scope="module")
def first_job(problem):
    """A completed first reconstruction (1 worker x 1 shard)."""
    geometry, d1, _ = problem
    solver = MLRSolver(geometry, config(), admm=ADMM)
    solver.reconstruct(d1)
    return solver


class TestMemoState:
    def test_state_round_trip_preserves_everything(self, first_job, tmp_path):
        executor = first_job.memo_executor
        save_memo_snapshot(tmp_path / "m", executor)
        tree = load_memo_snapshot(tmp_path / "m")
        assert tree["n_shards"] == 1
        assert len(tree["partitions"]) == 16  # 4 ops x 4 locations
        fresh = MLRSolver(first_job.geometry, config(), admm=ADMM)
        fresh.memo_executor.load_memo_state(tree)
        assert fresh.memo_executor.db_entries_total() == executor.db_entries_total()
        assert (fresh.memo_executor.db_stats_total().as_dict()
                == executor.db_stats_total().as_dict())

    def test_warm_start_beats_cold(self, problem, first_job, tmp_path):
        """The acceptance bar: a second job warm-started from the first
        job's snapshot has a strictly higher db hit rate than its cold
        run."""
        geometry, _d1, d2 = problem
        cold = MLRSolver(geometry, config(), admm=ADMM)
        cold.reconstruct(d2)
        cold_rate = cold.executor.db_stats_total().hit_rate

        first_job.save_memo_snapshot(tmp_path / "m")
        warm = MLRSolver(geometry, config(memo_snapshot=str(tmp_path / "m")),
                         admm=ADMM)
        baseline = warm.executor.db_stats_total()
        warm.reconstruct(d2)
        delta = warm.executor.db_stats_total().delta(baseline)
        assert delta.queries > 0
        assert delta.hit_rate > cold_rate

    def test_in_memory_tree_accepted(self, problem, first_job):
        geometry, _d1, _d2 = problem
        tree = first_job.memo_executor.memo_state()
        warm = MLRSolver(geometry, config(memo_snapshot=tree), admm=ADMM)
        assert (warm.memo_executor.db_entries_total()
                == first_job.memo_executor.db_entries_total())

    def test_mismatched_tau_fails_fast(self, problem, first_job):
        geometry, _d1, _d2 = problem
        tree = first_job.memo_executor.memo_state()
        memo = MemoConfig(**{**MEMO, "tau": 0.95})
        with pytest.raises(ValueError, match="tau"):
            MLRSolver(geometry, MLRConfig(chunk_size=4, memo=memo,
                                          memo_snapshot=tree), admm=ADMM)

    def test_unknown_op_fails_fast(self, problem, first_job):
        geometry, _d1, _d2 = problem
        tree = first_job.memo_executor.memo_state()
        memo = MemoConfig(**MEMO, memo_ops=("Fu1D",))
        with pytest.raises(ValueError, match="not memoized"):
            MLRSolver(geometry, MLRConfig(chunk_size=4, memo=memo,
                                          memo_snapshot=tree), admm=ADMM)

    def test_mismatched_encoder_fails_fast(self, problem, first_job):
        """Keys from a different encoder never tau-match, so loading a
        snapshot across encoder kinds (or key dims) must fail at load, not
        silently run at ~0% hit rate."""
        geometry, _d1, _d2 = problem
        tree = dict(first_job.memo_executor.memo_state())
        assert tree["encoder"]["kind"] == "PoolKeyEncoder"
        tree["encoder"] = {"kind": "CNNKeyEncoder", "dim": 60}
        with pytest.raises(ValueError, match="encoder"):
            MLRSolver(geometry, MLRConfig(chunk_size=4, memo=MemoConfig(**MEMO),
                                          memo_snapshot=tree), admm=ADMM)
        tree["encoder"] = {"kind": "PoolKeyEncoder", "dim": 2}
        with pytest.raises(ValueError, match="dimensionality"):
            MLRSolver(geometry, MLRConfig(chunk_size=4, memo=MemoConfig(**MEMO),
                                          memo_snapshot=tree), admm=ADMM)
        # provenance-free trees (bare router state) still load
        tree.pop("encoder")
        MLRSolver(geometry, MLRConfig(chunk_size=4, memo=MemoConfig(**MEMO),
                                      memo_snapshot=tree), admm=ADMM)


class TestShardedMemoState:
    @pytest.fixture(scope="class")
    def sharded_job(self, problem):
        geometry, d1, _ = problem
        solver = MLRSolver(geometry, config(n_workers=2, n_shards=2), admm=ADMM)
        solver.reconstruct(d1)
        return solver

    def test_sharded_restore_keeps_entries_and_stats(self, problem, sharded_job):
        geometry, _d1, _d2 = problem
        tree = sharded_job.memo_executor.memo_state()
        fresh = MLRSolver(geometry, config(n_workers=2, n_shards=2,
                                           memo_snapshot=tree), admm=ADMM)
        router = fresh.memo_executor.router
        src = sharded_job.memo_executor.router
        assert router.entries() == src.entries()
        assert router.shard_stats() == src.shard_stats()

    def test_a_resharded_warm_start_hits(self, problem, first_job, sharded_job):
        """Partitions are keyed by (op, location) and shard membership is
        routing, so real solver partitions taken at one shard count land
        whole on any other — entry for entry, byte for byte (generated
        trees: ``test_state_tree_properties.py::
        test_a_tree_restores_onto_any_shard_count``) — and the resharded
        warm start actually hits."""
        geometry, _d1, d2 = problem
        for source, shape in [
            (first_job, dict(n_workers=1, n_shards=2)),
            (sharded_job, dict()),  # two shards onto 1 x 1
            (sharded_job, dict(n_workers=1, n_shards=3)),
        ]:
            tree = source.memo_executor.memo_state()
            resharded = MLRSolver(geometry, config(memo_snapshot=tree, **shape), admm=ADMM)
            executor = resharded.memo_executor
            assert executor.db_entries_total() == source.memo_executor.db_entries_total()
            saved = executor.memo_state()
            assert set(saved) == {"n_shards", "partitions", "encoder", "encoder_state"}
            assert saved["n_shards"] == shape.get("n_shards", 1)
            assert by_partition(saved) == by_partition(tree)
        baseline = resharded.executor.db_stats_total()
        resharded.reconstruct(d2)
        assert resharded.executor.db_stats_total().delta(baseline).hits > 0

    def test_loaded_partitions_answer_bit_identically(self, sharded_job, tmp_path):
        save_memo_snapshot(tmp_path / "m", sharded_job.memo_executor)
        tree = load_memo_snapshot(tmp_path / "m")
        fresh = MLRSolver(sharded_job.geometry, config(n_workers=2, n_shards=2),
                          admm=ADMM)
        fresh.memo_executor.load_memo_state(tree)
        rng = np.random.default_rng(5)
        checked = 0
        for shard, restored_shard in zip(sharded_job.memo_executor.router.shards,
                                         fresh.memo_executor.router.shards):
            for key_id, live in shard._dbs.items():
                restored = restored_shard._dbs[key_id]
                probes = list(np.array(live._keys.view[:4], copy=True))
                probes += [p + rng.normal(0, 1e-3, p.shape).astype(np.float32)
                           for p in probes[:2]]
                if not probes:
                    continue
                for a, b in zip(live.query_batch(probes),
                                restored.query_batch(probes)):
                    assert a.similarity == b.similarity
                    assert a.matched_id == b.matched_id
                    assert a.n_entries == b.n_entries
                    assert a.stored_meta == b.stored_meta
                    assert (a.value is None) == (b.value is None)
                    if a.value is not None:
                        assert np.array_equal(a.value, b.value)
                    checked += 1
        assert checked > 0
