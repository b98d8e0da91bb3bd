"""Snapshot-aware key-encoder lifecycle (ROADMAP item).

A CNN-keyed deployment's memo snapshot must carry the trained encoder, and
a warm start must auto-install it — keys from a different training never
tau-match, so without this a warm start silently runs at ~0% hit rate (or,
worse, re-trains).  The fingerprint check covers the restored weights.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import CNNKeyEncoder, MemoConfig, MLRConfig, MLRSolver
from repro.core.memo_engine import MemoizedExecutor
from repro.lamino import LaminoGeometry, LaminoOperators, brain_like, simulate_data
from repro.nn import ChunkEncoder
from repro.service import load_memo_snapshot, save_memo_snapshot
from repro.solvers import ADMMConfig

ADMM = ADMMConfig(n_outer=3, n_inner=2, step_max_rel=4.0)


def cnn_encoder(seed: int = 5) -> CNNKeyEncoder:
    return CNNKeyEncoder(ChunkEncoder(input_hw=8, embed_dim=10, seed=seed),
                         quantized=True)


def memo_cfg(**over) -> MemoConfig:
    base = dict(encoder="cnn", warmup_iterations=1, index_train_min=4,
                index_clusters=2, index_nprobe=2)
    base.update(over)
    return MemoConfig(**base)


@pytest.fixture(scope="module")
def problem():
    n = 16
    g = LaminoGeometry((n, n, n), n_angles=12, det_shape=(n, n), tilt_deg=61.0)
    ops = LaminoOperators(g)
    d = simulate_data(brain_like(g.vol_shape, seed=7), g, noise_level=0.03, seed=1)
    return g, ops, d


class TestWeightsDigest:
    def test_digest_is_deterministic_and_weight_sensitive(self):
        assert cnn_encoder(5).weights_digest() == cnn_encoder(5).weights_digest()
        assert cnn_encoder(5).weights_digest() != cnn_encoder(6).weights_digest()

    def test_digest_survives_state_roundtrip(self):
        enc = cnn_encoder()
        restored = CNNKeyEncoder.from_state(enc.state_dict())
        assert restored.weights_digest() == enc.weights_digest()

    def test_fingerprint_carries_weights(self, tiny_ops):
        ex = MemoizedExecutor(tiny_ops, config=memo_cfg(), chunk_size=4,
                              encoder=cnn_encoder())
        fp = ex._encoder_fingerprint()
        assert fp["kind"] == "CNNKeyEncoder"
        assert fp["weights"] == ex.encoder.weights_digest()
        # the pool encoder is stateless: no weights digest
        pool_ex = MemoizedExecutor(tiny_ops, config=MemoConfig(), chunk_size=4)
        assert pool_ex._encoder_fingerprint()["weights"] is None


class TestSnapshotCarriesEncoder:
    def test_memo_state_embeds_encoder_state(self, problem):
        g, ops, d = problem
        solver = MLRSolver(g, MLRConfig(chunk_size=4, memo=memo_cfg()),
                           admm=ADMM, ops=ops, encoder=cnn_encoder())
        solver.reconstruct(d)
        state = solver.memo_executor.memo_state()
        assert state["encoder_state"] is not None
        restored = CNNKeyEncoder.from_state(state["encoder_state"])
        assert restored.weights_digest() == solver.memo_executor.encoder.weights_digest()

    def test_disk_snapshot_roundtrips_encoder(self, problem, tmp_path):
        g, ops, d = problem
        solver = MLRSolver(g, MLRConfig(chunk_size=4, memo=memo_cfg()),
                           admm=ADMM, ops=ops, encoder=cnn_encoder())
        solver.reconstruct(d)
        save_memo_snapshot(tmp_path / "snap", solver.memo_executor)
        # the encoder rides inside the one snapshot file, nowhere else
        assert os.listdir(tmp_path / "snap") == ["snapshot.mlr"]
        tree = load_memo_snapshot(tmp_path / "snap")
        assert tree["encoder_state"] is not None
        # the raw disk tree digests identically to the live encoder — what
        # lets warm starts skip rebuilding an encoder just to compare
        from repro.core.keying import state_digest

        assert state_digest(tree["encoder_state"]) == (
            solver.memo_executor.encoder.weights_digest()
        )


class TestAutoInstall:
    def test_warm_start_installs_encoder_without_retrain(self, problem, tmp_path):
        """encoder='cnn' + memo_snapshot used to be unconstructible without
        an explicit encoder; now the snapshot's encoder auto-installs and
        keys match bit for bit (warm run actually hits)."""
        g, ops, d = problem
        enc = cnn_encoder()
        first = MLRSolver(g, MLRConfig(chunk_size=4, memo=memo_cfg()),
                          admm=ADMM, ops=ops, encoder=enc)
        first.reconstruct(d)
        path = tmp_path / "snap"
        first.save_memo_snapshot(path)

        warm = MLRSolver(
            g, MLRConfig(chunk_size=4, memo=memo_cfg(), memo_snapshot=path),
            admm=ADMM, ops=ops,
        )  # no encoder passed, no train_encoder call
        installed = warm.memo_executor.encoder
        assert isinstance(installed, CNNKeyEncoder)
        assert installed.weights_digest() == enc.weights_digest()
        probe = (np.ones((4, 12, 16)) + 0j).astype(np.complex64)
        np.testing.assert_array_equal(installed.encode(probe), enc.encode(probe))

        res = warm.reconstruct(d)
        served = res.case_counts.get("db_hit", 0) + res.case_counts.get("cache_hit", 0)
        assert warm.memo_executor.db_entries_total() > 0
        assert served > 0  # restored keys actually match

    def test_matching_encoder_not_reinstalled(self, problem, tmp_path):
        g, ops, d = problem
        enc = cnn_encoder()
        first = MLRSolver(g, MLRConfig(chunk_size=4, memo=memo_cfg()),
                          admm=ADMM, ops=ops, encoder=enc)
        first.reconstruct(d)
        tree = first.memo_executor.memo_state()

        same = MLRSolver(g, MLRConfig(chunk_size=4, memo=memo_cfg()),
                         admm=ADMM, ops=ops, encoder=enc)
        same.load_memo_snapshot(tree)
        assert same.memo_executor.encoder is enc  # kept, not replaced
        assert same.memo_executor.db_entries_total() > 0

    def test_mismatched_weights_fail_fast_without_auto_install(self, problem):
        """An executor already running *different* CNN weights must not
        silently accept keys from another training."""
        g, ops, d = problem
        first = MLRSolver(g, MLRConfig(chunk_size=4, memo=memo_cfg()),
                          admm=ADMM, ops=ops, encoder=cnn_encoder(seed=5))
        first.reconstruct(d)
        tree = first.memo_executor.memo_state()
        other = MemoizedExecutor(ops, config=memo_cfg(), chunk_size=4,
                                 encoder=cnn_encoder(seed=99))
        with pytest.raises(ValueError, match="weights"):
            other.load_memo_state(tree)

    def test_solver_path_replaces_mismatched_weights(self, problem):
        """Through MLRSolver the snapshot's encoder wins: the executor's
        stale encoder is replaced (reset included) instead of failing."""
        g, ops, d = problem
        first = MLRSolver(g, MLRConfig(chunk_size=4, memo=memo_cfg()),
                          admm=ADMM, ops=ops, encoder=cnn_encoder(seed=5))
        first.reconstruct(d)
        tree = first.memo_executor.memo_state()

        stale = MLRSolver(g, MLRConfig(chunk_size=4, memo=memo_cfg()),
                          admm=ADMM, ops=ops, encoder=cnn_encoder(seed=99))
        stale.load_memo_snapshot(tree)
        assert (
            stale.memo_executor.encoder.weights_digest()
            == first.memo_executor.encoder.weights_digest()
        )
        assert stale.memo_executor.db_entries_total() > 0

    def test_pool_snapshot_unaffected(self, problem, tmp_path):
        g, ops, d = problem
        solver = MLRSolver(g, MLRConfig(chunk_size=4), admm=ADMM, ops=ops)
        solver.reconstruct(d)
        path = tmp_path / "pool-snap"
        solver.save_memo_snapshot(path)
        assert not (path / "encoder").exists()
        warm = MLRSolver(g, MLRConfig(chunk_size=4, memo_snapshot=path),
                         admm=ADMM, ops=ops)
        assert warm.memo_executor.db_entries_total() > 0
