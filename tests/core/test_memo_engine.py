"""Memoized executor: correctness invariants against the direct executor,
fleet-shape (workers x shards) equivalence, and the tier seam."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    KeyCoalescer,
    MemoConfig,
    MemoizedExecutor,
    MemoShardRouter,
    MLRConfig,
    MLRSolver,
    shard_of_location,
)
from repro.core.memo_engine import make_db_factory
from repro.core.memo_shard import MemoTier, memo_state_partitions
from repro.lamino import LaminoGeometry, LaminoOperators, brain_like, simulate_data
from repro.lamino.chunking import Chunk, iter_chunks
from repro.solvers import ADMMConfig, ADMMSolver, DirectExecutor, accuracy


@pytest.fixture(scope="module")
def problem():
    n = 16
    g = LaminoGeometry((n, n, n), n_angles=12, det_shape=(n, n), tilt_deg=61.0)
    ops = LaminoOperators(g)
    truth = brain_like(g.vol_shape, seed=7)
    d = simulate_data(truth, g, noise_level=0.03, seed=1)
    return g, ops, truth, d


def memo_cfg(**over):
    base = dict(
        tau=0.92, warmup_iterations=1, index_train_min=4, index_clusters=2,
        index_nprobe=2,
    )
    base.update(over)
    return MemoConfig(**base)


ADMM = ADMMConfig(n_outer=6, n_inner=3, step_max_rel=4.0)


def run_chunk(ex, op, payload, hi):
    """One single-chunk sweep of ``op`` through the public seam."""
    chunk = Chunk(index=0, axis=0, lo=0, hi=hi)
    [(_chunk, out)] = list(ex.sweep_stream(op, [(chunk, payload)], n_chunks=1))
    return out


def rand_chunk(seed, shape=(4, 16, 16)):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
        np.complex64
    )


@pytest.fixture(scope="module")
def reference(problem):
    """The 1 worker x 1 shard run every fleet shape is compared to."""
    g, ops, truth, d = problem
    ex = MemoizedExecutor(ops, config=memo_cfg(), chunk_size=4)
    res = ADMMSolver(ops, ADMM, executor=ex).run(d)
    return ex, res


class TestEquivalence:
    def test_impossible_tau_matches_direct_bitwise(self, problem):
        """With tau -> 1 nothing is ever served, so mLR must equal the
        original ADMM-FFT bit for bit (the Section 3 claim)."""
        g, ops, truth, d = problem
        ref = ADMMSolver(ops, ADMM, executor=DirectExecutor(ops, chunk_size=4)).run(d)
        ex = MemoizedExecutor(ops, config=memo_cfg(tau=1.0), chunk_size=4)
        res = ADMMSolver(ops, ADMM, executor=ex).run(d)
        np.testing.assert_array_equal(ref.u, res.u)

    def test_warmup_iterations_bypass_memoization(self, problem):
        g, ops, truth, d = problem
        ex = MemoizedExecutor(ops, config=memo_cfg(warmup_iterations=100), chunk_size=4)
        ADMMSolver(ops, ADMM, executor=ex).run(d)
        assert set(ev.case for ev in ex.events) == {"direct"}

    def test_memoization_preserves_reconstruction(self, problem):
        g, ops, truth, d = problem
        ref = ADMMSolver(ops, ADMM).run(d)
        solver = MLRSolver(
            g, MLRConfig(chunk_size=4, memo=memo_cfg()), admm=ADMM, ops=ops
        )
        res = solver.reconstruct(d)
        assert accuracy(ref.u.real, res.u.real) > 0.5
        assert res.memoized_fraction > 0.2


class TestEventTrace:
    def test_events_cover_all_ops_and_iterations(self, problem):
        g, ops, truth, d = problem
        ex = MemoizedExecutor(ops, config=memo_cfg(), chunk_size=4)
        ADMMSolver(ops, ADMM, executor=ex).run(d)
        ops_seen = {ev.op for ev in ex.events}
        assert ops_seen == {"Fu1D", "Fu2D", "Fu2D*", "Fu1D*"}
        outers = {ev.outer for ev in ex.events}
        assert outers == set(range(ADMM.n_outer))

    def test_case_counts_sum_to_events(self, problem):
        g, ops, truth, d = problem
        ex = MemoizedExecutor(ops, config=memo_cfg(), chunk_size=4)
        ADMMSolver(ops, ADMM, executor=ex).run(d)
        counts = ex.case_counts()
        assert sum(counts.values()) == len(ex.events)

    def test_bounded_staleness_forces_refresh(self, problem):
        """No location may be served more than max_consecutive_reuse times
        in a row."""
        g, ops, truth, d = problem
        cfg = memo_cfg(max_consecutive_reuse=2)
        ex = MemoizedExecutor(ops, config=cfg, chunk_size=4)
        ADMMSolver(ops, ADMM, executor=ex).run(d)
        streak: dict = {}
        for ev in ex.events:
            k = (ev.op, ev.chunk)
            if ev.case in ("db_hit", "cache_hit"):
                streak[k] = streak.get(k, 0) + 1
                assert streak[k] <= 2, f"{k} served {streak[k]} times consecutively"
            else:
                streak[k] = 0

    def test_similarity_census_tracks_history(self, problem):
        g, ops, truth, d = problem
        cfg = memo_cfg(track_similarity_census=True, warmup_iterations=100)
        ex = MemoizedExecutor(ops, config=cfg, chunk_size=4)
        ADMMSolver(ops, ADMM, executor=ex).run(d)
        census = ex.similarity_census("Fu2D", tau=0.9)
        assert len(census) == 4  # 16/4 chunk locations
        for counts in census.values():
            assert counts[0] == 0  # first key has no priors
            assert all(c <= i for i, c in enumerate(counts))


class TestAffineReuse:
    def test_scaled_input_served_exactly(self, problem):
        """A pure rescaling of a stored chunk must be served (nearly)
        exactly — the linearity property affine reuse exploits."""
        g, ops, truth, d = problem
        cfg = memo_cfg(warmup_iterations=0, max_consecutive_reuse=100)
        ex = MemoizedExecutor(ops, config=cfg, chunk_size=4)
        ex.begin_outer(1)  # past warmup
        x = rand_chunk(0)
        run_chunk(ex, "Fu1D", x, 4)
        served = run_chunk(ex, "Fu1D", (2.0 * x).astype(np.complex64), 4)
        true = ops.fu1d(2.0 * x)
        assert ex.events[-1].case in ("db_hit", "cache_hit")
        assert np.linalg.norm(served - true) < 1e-3 * np.linalg.norm(true)

    def test_dc_shift_served_exactly(self, problem):
        """Adding a DC offset to a stored chunk is handled exactly by the
        dc-basis correction."""
        g, ops, truth, d = problem
        cfg = memo_cfg(warmup_iterations=0, max_consecutive_reuse=100)
        ex = MemoizedExecutor(ops, config=cfg, chunk_size=4)
        ex.begin_outer(1)
        x = rand_chunk(1)
        run_chunk(ex, "Fu1D", x, 4)
        shifted = (x + (0.5 - 0.25j)).astype(np.complex64)
        served = run_chunk(ex, "Fu1D", shifted, 4)
        true = ops.fu1d(shifted)
        assert ex.events[-1].case in ("db_hit", "cache_hit")
        assert np.linalg.norm(served - true) < 1e-2 * np.linalg.norm(true)

    def test_fused_subtraction_applied_after_reuse(self, problem):
        """The fused Fu2D kernel's dhat slab rides in the payload and is
        subtracted outside the memoized (linear) region."""
        g, ops, truth, d = problem
        cfg = memo_cfg(warmup_iterations=0, max_consecutive_reuse=100)
        ex = MemoizedExecutor(ops, config=cfg, chunk_size=16)
        ex.begin_outer(1)
        x = rand_chunk(2, (16, 16, 16))
        sub = (np.random.default_rng(2).standard_normal(g.data_shape) + 0j).astype(
            np.complex64
        )
        run_chunk(ex, "Fu2D", (x, None), 16)  # prime
        out = run_chunk(ex, "Fu2D", (x, sub), 16)  # cache hit + subtraction outside
        assert ex.events[-1].case == "cache_hit"
        want = ops.fu2d(x) - sub
        assert np.linalg.norm(out - want) < 1e-3 * np.linalg.norm(want)


class TestCoalescerFlush:
    @staticmethod
    def drained(ex):
        return all(w.coalescer.pending == 0 and not w.pending for w in ex.workers)

    def test_no_pending_keys_after_each_sweep(self, problem):
        """Regression: the tail batch of every op sweep must be force-emitted
        — a leaked tail skews the Figure 11 message statistics."""
        g, ops, truth, d = problem
        ex = MemoizedExecutor(
            ops, config=memo_cfg(warmup_iterations=0), chunk_size=4, n_workers=2
        )
        ex.begin_outer(1)
        rng = np.random.default_rng(0)
        u = (rng.standard_normal((16, 16, 16)) + 0j).astype(np.complex64)
        for sweep in (ex.fu1d, ex.fu1d_adj):
            sweep(u)
            assert self.drained(ex)
        r = (rng.standard_normal(g.data_shape) + 0j).astype(np.complex64)
        ex.fu2d_adj(r)
        assert self.drained(ex)

    def test_begin_inner_flushes(self, problem):
        g, ops, truth, d = problem
        ex = MemoizedExecutor(ops, config=memo_cfg(), chunk_size=4)
        coalescer = ex.workers[0].coalescer
        coalescer.offer(("Fu1D", 0))
        assert coalescer.pending == 1
        ex.begin_inner(0)
        assert coalescer.pending == 0
        assert ex.coalesce_stats().messages == 1

    def test_message_count_for_non_multiple_key_stream(self, problem):
        """A 7-chunk sweep at 3 keys/message must leave as exactly 3
        messages (2 full + 1 tail), every key reaching the database."""
        g, ops, truth, d = problem
        cfg = memo_cfg(warmup_iterations=0, cache=None)
        ex = MemoizedExecutor(ops, config=cfg, chunk_size=2)
        ex.workers[0].coalescer = KeyCoalescer(key_bytes=100, payload_bytes=300)
        ex.begin_outer(1)
        u = rand_chunk(3, (14, 16, 16))
        chunks = [Chunk(index=i, axis=0, lo=2 * i, hi=2 * i + 2) for i in range(7)]
        outs = list(ex.sweep_stream("Fu1D", [(c, u[c.slice]) for c in chunks], 7))
        assert len(outs) == 7
        stats = ex.coalesce_stats()
        assert stats.keys == 7
        assert stats.messages == 3
        assert stats.batch_sizes == [3, 3, 1]
        assert stats.mean_batch == pytest.approx(7 / 3)
        assert ex.db_stats("Fu1D").queries == 7
        assert self.drained(ex)

    def test_abandoned_sweep_discards_buffered_keys(self, problem):
        """A dead sweep must not leak keys into the next sweep's messages."""
        g, ops, truth, d = problem
        cfg = memo_cfg(warmup_iterations=0, cache=None)
        ex = MemoizedExecutor(ops, config=cfg, chunk_size=4)
        ex.begin_outer(1)
        u = rand_chunk(4, (16, 16, 16))
        chunks = [Chunk(index=i, axis=0, lo=4 * i, hi=4 * i + 4) for i in range(4)]

        def broken():
            yield chunks[0], u[chunks[0].slice]
            yield chunks[1], u[chunks[1].slice]
            raise RuntimeError("reader died")

        with pytest.raises(RuntimeError, match="reader died"):
            list(ex.sweep_stream("Fu1D", broken(), 4))
        assert self.drained(ex)
        stats = ex.coalesce_stats()
        assert (stats.keys, stats.messages) == (0, 0)

    def test_full_run_leaves_nothing_pending_and_counts_every_key(self, reference):
        ex, _res = reference
        stats = ex.coalesce_stats()
        assert self.drained(ex)
        assert stats.keys > 0
        assert stats.keys == sum(stats.batch_sizes)
        # every offered key reached the database as a query
        assert stats.keys == ex.db_stats_total().queries


class TestPerOpLocationCounts:
    def test_fu1d_counts_follow_volume_axis(self):
        """Regression: Fu1D/Fu1D* chunk along the volume x-axis, not the
        detector rows — the counts diverge when the heights differ."""
        g = LaminoGeometry((24, 16, 16), n_angles=12, det_shape=(16, 16), tilt_deg=61.0)
        ops = LaminoOperators(g)
        ex = MemoizedExecutor(ops, config=memo_cfg(), chunk_size=4)
        assert len(ex.op_grid("Fu1D")) == 6
        assert len(ex.op_grid("Fu1D*")) == 6
        assert len(ex.op_grid("Fu2D")) == 4
        assert len(ex.op_grid("Fu2D*")) == 4

    def test_global_cache_capacity_sized_per_op(self):
        g = LaminoGeometry((24, 16, 16), n_angles=12, det_shape=(16, 16), tilt_deg=61.0)
        ops = LaminoOperators(g)
        ex = MemoizedExecutor(ops, config=memo_cfg(cache="global"), chunk_size=4)
        assert ex.workers[0].caches["Fu1D"].capacity == 6
        assert ex.workers[0].caches["Fu2D"].capacity == 4
        # a fleet's total cache memory equals the single-worker baseline
        ex = MemoizedExecutor(
            ops, config=memo_cfg(cache="global"), chunk_size=4, n_workers=2
        )
        assert [w.caches["Fu1D"].capacity for w in ex.workers] == [3, 3]
        assert [w.caches["Fu2D"].capacity for w in ex.workers] == [2, 2]

    @pytest.mark.parametrize("cache", ["private", "global", None])
    @pytest.mark.parametrize(
        "vol_shape, det_shape, chunk_size, n_fu1d, n_fu2d",
        [
            # a volume taller than the detector: the two axes' counts differ
            ((24, 16, 16), (16, 16), 4, 6, 4),
            # a chunk size dividing neither axis: a 1-row last chunk, whose
            # pool key is shorter than a full chunk's
            ((16, 8, 16), (16, 16), 3, 6, 6),
            # a 16-row last chunk beside 24-row ones: the keys agree in
            # shape, the values do not
            ((40, 8, 16), (40, 16), 24, 2, 2),
        ],
        ids=["tall", "ragged-1-row", "ragged-16-rows"],
    )
    def test_ragged_volume_runs_end_to_end(
        self, cache, vol_shape, det_shape, chunk_size, n_fu1d, n_fu2d
    ):
        """Every sweep location is reached, whatever the chunk grid, with
        every cache mode: a global-cache entry only serves a query from a
        chunk of its own extent."""
        g = LaminoGeometry(vol_shape, n_angles=12, det_shape=det_shape, tilt_deg=61.0)
        ops = LaminoOperators(g)
        truth = brain_like(g.vol_shape, seed=3)
        d = simulate_data(truth, g, noise_level=0.03, seed=1)
        ex = MemoizedExecutor(ops, config=memo_cfg(cache=cache), chunk_size=chunk_size)
        res = ADMMSolver(
            ops, ADMMConfig(n_outer=3, n_inner=2, step_max_rel=4.0), executor=ex
        ).run(d)
        fu1d_locs = {ev.chunk for ev in ex.events if ev.op == "Fu1D"}
        fu2d_locs = {ev.chunk for ev in ex.events if ev.op == "Fu2D"}
        assert fu1d_locs == set(range(n_fu1d))
        assert fu2d_locs == set(range(n_fu2d))
        assert np.all(np.isfinite(res.u))


class TestReconstructEdgeCases:
    def _executor(self, ops, **over):
        cfg = memo_cfg(warmup_iterations=0, max_consecutive_reuse=100, **over)
        ex = MemoizedExecutor(ops, config=cfg, chunk_size=4)
        ex.begin_outer(1)
        return ex

    def test_zero_ac_stored_chunk_serves_dc_exactly(self, problem):
        """Stored pair with ac_a == 0 (a pure constant chunk): the AC scale
        factor degenerates to 0 and the served value must be exactly
        dc_q * basis — the DC-only reconstruction."""
        g, ops, truth, d = problem
        ex = self._executor(ops)
        chunk = Chunk(index=0, axis=0, lo=0, hi=4)
        dc_a, dc_q = 0.7 - 0.2j, -0.3 + 0.5j
        ones = np.ones((4, 16, 16), dtype=np.complex64)
        stored_value = (np.complex64(dc_a) * ops.fu1d(ones)).astype(np.complex64)
        query = np.full((4, 16, 16), dc_q, dtype=np.complex64)
        served = ex._reconstruct(
            "Fu1D", chunk, query, stored_value, (0.0, dc_a), ex._chunk_meta(query)
        )
        true = ops.fu1d(query)
        assert np.linalg.norm(served - true) < 1e-3 * np.linalg.norm(true)

    def test_scale_correction_off_returns_raw_copy(self, problem):
        g, ops, truth, d = problem
        ex = self._executor(ops, scale_correction=False)
        x = rand_chunk(5)
        stored = run_chunk(ex, "Fu1D", x, 4)
        served = run_chunk(ex, "Fu1D", (2.0 * x).astype(np.complex64), 4)
        assert ex.events[-1].case in ("db_hit", "cache_hit")
        # raw reuse: the stored value verbatim, not a rescaled estimate
        np.testing.assert_array_equal(served, stored)
        served[0, 0, 0] = 99.0  # must be a copy, not an alias of the cache
        again = run_chunk(ex, "Fu1D", (2.0 * x).astype(np.complex64), 4)
        assert again[0, 0, 0] != 99.0

    def test_served_value_preserves_dtype(self, problem):
        g, ops, truth, d = problem
        ex = self._executor(ops)
        x = rand_chunk(6)
        run_chunk(ex, "Fu1D", x, 4)
        served = run_chunk(ex, "Fu1D", (1.5 * x).astype(np.complex64), 4)
        assert ex.events[-1].case in ("db_hit", "cache_hit")
        assert served.dtype == np.complex64

    def test_none_meta_returns_copy(self, problem):
        """A stored value without reuse metadata falls back to raw reuse."""
        g, ops, truth, d = problem
        ex = self._executor(ops)
        chunk = Chunk(index=0, axis=0, lo=0, hi=4)
        value = np.arange(8, dtype=np.complex64)
        out = ex._reconstruct("Fu1D", chunk, value, value, None, (1.0, 0j))
        np.testing.assert_array_equal(out, value)
        assert out is not value


class TestMissOutputIsFrozen:
    """A miss's output is one array in three places — the private cache,
    the pending tier insert and the consumer's hands — so it is read-only
    before it reaches any of them."""

    N = 16

    def _run(self, ops, consume):
        """A sweep of misses then a sweep of hits, per op, through the
        public seam; ``consume`` sees every chunk the miss sweep yields."""
        cfg = memo_cfg(warmup_iterations=0, max_consecutive_reuse=100)
        ex = MemoizedExecutor(ops, config=cfg, chunk_size=4)
        ex.begin_outer(1)
        chunks = list(iter_chunks(self.N, 4))
        u, r = rand_chunk(3, (self.N,) * 3), rand_chunk(4, ops.geometry.data_shape)
        operands = {  # a kernel that returns a view, and one that owns its output
            "Fu1D": lambda c, s: (s * u[c.slice]).astype(np.complex64),
            "Fu2D*": lambda c, s: (s * r[:, c.slice, :]).astype(np.complex64),
        }
        yielded = []
        for op, operand in operands.items():
            for scale in (1.0, 1.5):
                items = [(c, operand(c, scale)) for c in chunks]
                for _chunk, out in ex.sweep_stream(op, items, n_chunks=len(chunks)):
                    yielded.append(out.copy())
                    if scale == 1.0:
                        consume(out)
        assert Counter(ev.case for ev in ex.events) == {"miss": 8, "cache_hit": 8}
        return ex, yielded

    @staticmethod
    def _tier_values(ex):
        return [
            v
            for part in memo_state_partitions(ex.memo_state())
            for v in part["db"]["values"]["vals"]
        ]

    def test_a_consumer_cannot_write_what_the_cache_and_the_tier_hold(self, problem):
        g, ops, truth, d = problem
        refused = []

        def scribble(out):
            assert not out.flags.writeable
            try:
                out[...] = 0
            except ValueError as exc:
                refused.append(exc)

        clean, clean_out = self._run(ops, lambda out: None)
        dirty, dirty_out = self._run(ops, scribble)
        assert len(refused) == 8  # every miss chunk, view or owner
        for a, b in zip(clean_out, dirty_out, strict=True):
            np.testing.assert_array_equal(a, b)  # later hits included
        for a, b in zip(self._tier_values(clean), self._tier_values(dirty), strict=True):
            np.testing.assert_array_equal(a, b)
        for op in ("Fu1D", "Fu2D*"):
            ca, cb = (e.workers[0].caches[op]._items for e in (clean, dirty))
            assert ca.keys() == cb.keys()
            for loc in ca:
                np.testing.assert_array_equal(ca[loc][1], cb[loc][1])

    def test_the_in_process_tier_keeps_an_owning_output_without_a_copy(self, problem):
        g, ops, truth, d = problem
        held = []
        ex, _ = self._run(ops, held.append)
        stored = self._tier_values(ex)
        shared = [any(v is out for v in stored) for out in held]
        # Fu1D's kernel returns a transposed view (borrowed: detached),
        # Fu2D*'s an array that owns its buffer (shared)
        assert shared == [False] * 4 + [True] * 4


class TestGeometryOnlyStateOnTheOperator:
    """The DC bases are geometry-only, so they live in the operator state
    beside the plans (``ops.once``): computed by the first executor of any
    equal stack that needs one, keyed by chunk *range* so two chunk grids
    on one operator never collide."""

    @staticmethod
    def _bases(ops):
        return {k: v for k, v in ops._state.memo.items() if k[0] == "dc_basis"}

    def _solve(self, g, d, ops, chunk):
        ex = MemoizedExecutor(ops, config=memo_cfg(), chunk_size=chunk)
        res = ADMMSolver(ops, ADMM, executor=ex).run(d)
        return res.u, event_trace(ex.events)

    def test_two_chunk_grids_on_one_operator_get_their_own_bases(
        self, problem, operator_registry
    ):
        g, _ops, truth, d = problem
        shared = LaminoOperators(g)
        got = {c: self._solve(g, d, shared, c) for c in (4, 8)}
        bases = self._bases(shared)
        assert bases and all(not b.flags.writeable for b in bases.values())
        widths = {hi - lo for (_tag, _op, lo, hi, _shape) in bases}
        assert widths == {4, 8}
        # location 0 of both grids: same index, different range and image
        first = {k[3]: v for k, v in bases.items() if k[1] == "Fu1D" and k[2] == 0}
        assert set(first) == {4, 8} and first[4].shape != first[8].shape
        for c in (4, 8):
            operator_registry.clear()  # a fresh registry: nothing shared
            fresh = LaminoOperators(g)
            assert fresh._state is not shared._state
            u, trace = self._solve(g, d, fresh, c)
            np.testing.assert_array_equal(got[c][0], u)
            assert got[c][1] == trace

    def test_a_second_job_on_an_equal_stack_computes_no_basis(self, problem, monkeypatch):
        g, _ops, truth, d = problem
        calls = Counter()
        for name in ("fu1d", "fu1d_adj", "fu2d", "fu2d_adj"):
            real = getattr(LaminoOperators, name)
            monkeypatch.setattr(
                LaminoOperators, name,
                lambda self, *a, _n=name, _r=real, **kw: calls.update([_n]) or _r(self, *a, **kw),
            )
        results = []
        for _job in range(2):
            ops = LaminoOperators(g)  # a stack per job, as the scheduler builds
            solver = MLRSolver(g, MLRConfig(chunk_size=4, memo=memo_cfg()), admm=ADMM, ops=ops)
            calls.clear()  # construction (the first job's Lipschitz passes) is not the run
            res = solver.reconstruct(d)
            computed = res.case_counts.get("miss", 0) + res.case_counts.get("direct", 0)
            results.append((res, sum(calls.values()) - computed, self._bases(ops)))
        (first, first_extra, bases), (second, second_extra, after) = results
        assert first_extra == len(bases) > 0  # one raw-kernel call per basis, no more
        assert second_extra == 0
        assert after.keys() == bases.keys()
        assert all(after[k] is bases[k] for k in bases)  # the same arrays, read
        np.testing.assert_array_equal(first.u, second.u)
        assert first.case_counts == second.case_counts


class TestSimilarityCensusVectorized:
    def test_matches_bruteforce_pairwise_loop(self, problem):
        from repro.solvers.metrics import cosine_similarity

        g, ops, truth, d = problem
        cfg = memo_cfg(track_similarity_census=True, warmup_iterations=100)
        ex = MemoizedExecutor(ops, config=cfg, chunk_size=4)
        ADMMSolver(ops, ADMM, executor=ex).run(d)
        for tau in (0.5, 0.9, 0.99):
            census = ex.similarity_census("Fu2D", tau=tau)
            for location, keys in ex._state["Fu2D"].key_history.items():
                brute = [
                    sum(1 for prev in keys[:i] if cosine_similarity(k, prev) > tau)
                    for i, k in enumerate(keys)
                ]
                assert census[location] == brute

    def test_zero_keys_count_nothing(self, problem):
        g, ops, truth, d = problem
        cfg = memo_cfg(track_similarity_census=True)
        ex = MemoizedExecutor(ops, config=cfg, chunk_size=4)
        zero = np.zeros(8, dtype=np.float32)
        ex._state["Fu2D"].key_history[0] = [zero, zero, zero]
        census = ex.similarity_census("Fu2D", tau=0.5)
        assert census[0] == [0, 0, 0]

# -- fleet shape: workers x shards is pure routing -----------------------------------------


def event_trace(events):
    """The event trace minus the routing tags (worker, shard)."""
    return [
        (e.outer, e.inner, e.op, e.chunk, e.case, e.similarity, e.key_bytes,
         e.value_bytes)
        for e in events
    ]


class TestFleetShapeEquivalence:
    _refs: dict = {}

    def ref(self, problem, chunk_size):
        """The 1 x 1, private-cache, monolithic run at ``chunk_size``."""
        if chunk_size not in self._refs:
            g, ops, truth, d = problem
            solver = MLRSolver(
                g, MLRConfig(chunk_size=chunk_size, memo=memo_cfg()), admm=ADMM, ops=ops
            )
            res = solver.reconstruct(d)
            self._refs[chunk_size] = (
                res.u, event_trace(res.events), solver.memo_executor.db_stats_total()
            )
        return self._refs[chunk_size]

    @given(
        n_workers=st.integers(1, 4),
        n_shards=st.integers(1, 3),
        chunk_size=st.sampled_from([3, 4, 8, 16]),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_shape_reproduces_one_by_one(self, problem, n_workers, n_shards, chunk_size):
        """Private caches scope reuse to a location, and a location is owned
        by one worker and one shard — so the fleet shape changes which
        worker/shard a decision is tagged with and nothing else:
        reconstruction, event trace and database traffic equal the 1 x 1
        run's."""
        g, ops, truth, d = problem
        ref_u, ref_trace, ref_db = self.ref(problem, chunk_size)
        cfg = MLRConfig(
            chunk_size=chunk_size, memo=memo_cfg(), n_workers=n_workers,
            n_shards=n_shards,
        )
        solver = MLRSolver(g, cfg, admm=ADMM, ops=ops)
        ex = solver.memo_executor
        assert (ex.n_workers, ex.router.n_shards) == (n_workers, n_shards)
        res = solver.reconstruct(d)
        np.testing.assert_array_equal(ref_u, res.u)
        assert event_trace(res.events) == ref_trace
        assert ex.db_stats_total().as_dict() == ref_db.as_dict()

    def test_aggregated_stats_match_one_by_one(self, problem, reference):
        g, ops, truth, d = problem
        ref_ex, _ = reference
        ex = MemoizedExecutor(
            ops, config=memo_cfg(), chunk_size=4, n_workers=4, n_shards=2
        )
        ADMMSolver(ops, ADMM, executor=ex).run(d)
        for op in ("Fu1D", "Fu2D", "Fu2D*", "Fu1D*"):
            assert ex.db_stats(op).as_dict() == ref_ex.db_stats(op).as_dict()
            assert ex.db_entries(op) == ref_ex.db_entries(op)
            ref_cache = ref_ex.cache_stats(op)
            cache = ex.cache_stats(op)
            assert (cache.hits, cache.misses) == (ref_cache.hits, ref_cache.misses)

    def test_invalid_counts_rejected(self, problem):
        g, ops, truth, d = problem
        with pytest.raises(ValueError):
            MemoizedExecutor(ops, config=memo_cfg(), n_workers=0)
        with pytest.raises(ValueError):
            MemoizedExecutor(ops, config=memo_cfg(), n_shards=0)
        with pytest.raises(ValueError):
            MLRConfig(n_shards=0)


class TestWorkersAndShards:
    @pytest.fixture(scope="class")
    def run(self, problem):
        g, ops, truth, d = problem
        ex = MemoizedExecutor(
            ops, config=memo_cfg(), chunk_size=4, n_workers=4, n_shards=2
        )
        ADMMSolver(ops, ADMM, executor=ex).run(d)
        return ex

    def test_events_tag_owning_worker(self, run):
        for ev in run.events:
            assign = run.assignment_for(ev.op, len(run.op_grid(ev.op)))
            assert ev.worker == assign.owner_of(ev.chunk)

    def test_events_tag_owning_shard(self, run):
        for ev in run.events:
            assert ev.shard == shard_of_location(ev.chunk, run.n_shards)

    def test_every_worker_executed_and_coalesced(self, run):
        workers = {ev.worker for ev in run.events}
        assert workers == set(range(4))
        for stats in run.per_worker_coalesce_stats():
            assert stats.keys > 0
            assert stats.messages > 0
            assert stats.keys == sum(stats.batch_sizes)

    def test_coalescers_drained_after_run(self, run):
        assert TestCoalescerFlush.drained(run)

    def test_shard_traffic_partitions_cleanly(self, run):
        per = [s for s, _n in run.router.shard_stats()]
        agg = run.router.stats()
        assert sum(s.queries for s in per) == agg.queries
        assert sum(s.inserts for s in per) == agg.inserts
        assert all(s.queries > 0 for s in per)

    def test_shard_locations_respect_routing(self, run):
        records = run.router.heat_records()
        assert records
        for rec in records:
            assert shard_of_location(rec["location"], run.n_shards) == rec["shard"]

    def test_aggregated_coalesce_stats_cover_all_workers(self, run):
        agg = run.coalesce_stats()
        per = run.per_worker_coalesce_stats()
        assert agg.keys == sum(s.keys for s in per) > 0
        assert agg.messages == sum(s.messages for s in per) > 0
        assert agg.keys == sum(agg.batch_sizes)

    def test_reset_state_clears_service(self, run, problem):
        g, ops, truth, d = problem
        ex = MemoizedExecutor(
            ops, config=memo_cfg(), chunk_size=4, n_workers=2, n_shards=2
        )
        ADMMSolver(ops, ADMM, executor=ex).run(d)
        assert ex.router.entries() > 0
        ex.reset_state()
        assert ex.router.entries() == 0
        assert TestCoalescerFlush.drained(ex)
        assert ex.cache_stats("Fu1D").hits == 0


# -- the tier seam --------------------------------------------------------------------------

#: what the executor may call on its tier: the primitives an implementation
#: supplies plus the part MemoTier derives from them
TIER_PRIMITIVES = (
    "query_batch", "insert_batch", "shard_stats", "state_dict", "push_state", "close",
)
TIER_DERIVED = ("shard_of", "stats", "entries")


class RecordingTier(MemoTier):
    """A memo tier implementing *only* the primitives: everything else the
    executor uses has to come out of the ``MemoTier`` base."""

    def __init__(self, n_shards: int) -> None:
        self.n_shards = n_shards
        self._router = MemoShardRouter(n_shards, make_db_factory(memo_cfg()))
        self.calls: Counter = Counter()

    def _call(self, name, *args):
        self.calls[name] += 1
        return getattr(self._router, name)(*args)

    def query_batch(self, queries):
        return self._call("query_batch", queries)

    def insert_batch(self, inserts):
        return self._call("insert_batch", inserts)

    def shard_stats(self, op=None):
        return self._call("shard_stats", op)

    def state_dict(self):
        return self._call("state_dict")

    def push_state(self, tree):
        return self._call("push_state", tree)

    def close(self):
        return self._call("close")


class TestTierSeam:
    def test_primitives_only_tier_runs_solve_and_state_round_trip(self, problem, reference):
        g, ops, truth, d = problem
        ref_ex, ref = reference
        assert set(MemoTier.__abstractmethods__) == set(TIER_PRIMITIVES)
        assert {n for n in vars(RecordingTier) if not n.startswith("_")} == set(
            TIER_PRIMITIVES
        )
        ex = MemoizedExecutor(ops, config=memo_cfg(), chunk_size=4, n_workers=2)
        tier = ex.router = RecordingTier(n_shards=2)
        res = ADMMSolver(ops, ADMM, executor=ex).run(d)
        np.testing.assert_array_equal(res.u, ref.u)
        assert ex.case_counts() == ref_ex.case_counts()
        assert ex.db_stats_total().as_dict() == ref_ex.db_stats_total().as_dict()
        assert ex.db_entries_total() == ref_ex.db_entries_total()

        fresh = MemoizedExecutor(ops, config=memo_cfg(), chunk_size=4)
        fresh.router = RecordingTier(n_shards=1)
        fresh.load_memo_state(ex.memo_state())
        assert fresh.db_entries_total() == ex.db_entries_total()
        assert fresh.db_stats_total().as_dict() == ex.db_stats_total().as_dict()
        assert fresh.router.calls["push_state"] == 1

        ex.close()
        assert set(tier.calls + fresh.router.calls) == set(TIER_PRIMITIVES)

    def test_derived_half_is_written_once(self):
        """``shard_of`` / ``stats`` / ``entries`` / context manager come from
        the base for both tiers and the fake; the in-process answers of the
        transport half hold for a router."""
        from repro.net import RemoteMemoClient

        for cls in (MemoShardRouter, RemoteMemoClient, RecordingTier):
            assert issubclass(cls, MemoTier)
            for name in TIER_DERIVED + ("__enter__", "__exit__"):
                assert name not in vars(cls), (cls.__name__, name)
        with MemoShardRouter(2, make_db_factory(memo_cfg())) as router:
            assert router.net_stats is None
            assert router.connected and router.flush() is None
            assert [router.shard_of(loc) for loc in range(4)] == [0, 1, 0, 1]


# -- a snapshot the executor must refuse ----------------------------------------------------
# (that a tree loads onto any worker x shard count is pinned on generated trees in
# tests/service/test_state_tree_properties.py and on solver partitions in test_warmstart.py)


class TestSnapshotRefusal:
    @pytest.fixture(scope="class")
    def tree(self, reference):
        ex, _ = reference
        live = ex.memo_state()
        assert len(live["partitions"]) == 16  # 4 ops x 4 locations
        return live

    def test_mismatched_snapshot_rejected_before_install(self, problem, tree):
        g, ops, truth, d = problem
        for over, match in (
            (dict(tau=0.95), "tau"),
            (dict(memo_ops=("Fu2D", "Fu2D*")), "not memoized here"),
        ):
            ex = MemoizedExecutor(ops, config=memo_cfg(**over), chunk_size=4)
            with pytest.raises(ValueError, match=match):
                ex.load_memo_state(tree)
            assert ex.router.entries() == 0


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tau": 0.0},
            {"tau": 1.5},
            {"encoder": "transformer"},
            {"cache": "both"},
            {"key_hw": 1},
            {"warmup_iterations": -1},
        ],
    )
    def test_invalid_memo_config(self, kwargs):
        with pytest.raises(ValueError):
            MemoConfig(**kwargs)

    def test_invalid_cache_names_the_value(self):
        with pytest.raises(ValueError, match=r"or None, got 'both'"):
            MemoConfig(cache="both")

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            MLRConfig(chunk_size=0)

    def test_cnn_without_encoder_instance_rejected(self, problem):
        g, ops, *_ = problem
        with pytest.raises(ValueError):
            MemoizedExecutor(ops, config=memo_cfg(encoder="cnn"))
