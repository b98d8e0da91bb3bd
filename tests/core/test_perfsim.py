"""Trace-driven performance simulation: calibration anchors and shapes."""

from __future__ import annotations

import pytest

from repro.cluster import ProblemDims
from repro.core import distribute_chunks, simulate_iteration
from repro.core.memo_engine import MemoEvent


DIMS = ProblemDims(n=1024, n_chunks=64)


def synthetic_trace(pattern=("miss", "db_hit", "cache_hit", "cache_hit"), n_chunks=8):
    trace = []
    for inner in range(4):
        for op in ("Fu1D", "Fu2D", "Fu2D*", "Fu1D*"):
            for c in range(n_chunks):
                trace.append(
                    MemoEvent(0, inner, op, c, pattern[c % len(pattern)], 0.95, 4096, 2**20)
                )
    return trace


class TestDistribution:
    def test_even_split(self):
        a = distribute_chunks(64, 4)
        assert a.max_load == a.min_load == 16

    def test_uneven_split_balanced(self):
        a = distribute_chunks(10, 3)
        assert a.max_load - a.min_load <= 1
        assert sum(len(c) for c in a.per_gpu) == 10

    def test_owner_lookup(self):
        a = distribute_chunks(8, 2)
        assert a.owner_of(0) == 0
        assert a.owner_of(7) == 1
        with pytest.raises(KeyError):
            a.owner_of(99)

    def test_invalid(self):
        with pytest.raises(ValueError):
            distribute_chunks(0, 2)


class TestCalibrationAnchors:
    def test_alg1_iteration_near_68s(self):
        """Figure 8(a): original ADMM-FFT at (1K)^3 ~ 68 s per iteration."""
        perf = simulate_iteration(DIMS, variant="alg1", n_inner=4)
        assert perf.iteration_time == pytest.approx(68.0, rel=0.15)

    def test_transfer_exposure_near_47pct(self):
        """Section 2: exposed transfers are ~47% of the total at (1K)^3."""
        perf = simulate_iteration(DIMS, variant="alg1", n_inner=4)
        assert 0.35 < perf.exposed_fraction < 0.6

    def test_lsp_dominates_iteration(self):
        perf = simulate_iteration(DIMS, variant="alg1", n_inner=4)
        assert perf.lsp_time / perf.iteration_time > 0.67

    def test_scaling_with_problem_size(self):
        """2K^3 / 1K^3 runtime ratio ~ 8-9x (O(N^3 log N) growth, paper:
        599/68 = 8.8)."""
        small = simulate_iteration(DIMS, variant="alg1").iteration_time
        big = simulate_iteration(
            ProblemDims(n=2048, n_chunks=64), variant="alg1"
        ).iteration_time
        assert 6.0 < big / small < 12.0


class TestVariants:
    def test_cancellation_reduces_lsp(self):
        alg1 = simulate_iteration(DIMS, variant="alg1").lsp_time
        fused = simulate_iteration(DIMS, variant="canc_fused").lsp_time
        assert fused < alg1

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            simulate_iteration(DIMS, variant="magic")

    def test_memoization_speeds_up_iteration(self):
        base = simulate_iteration(DIMS, variant="canc_fused").iteration_time
        memo = simulate_iteration(
            DIMS, variant="canc_fused", trace=synthetic_trace()
        ).iteration_time
        assert memo < base

    def test_all_miss_trace_close_to_no_memo(self):
        """Failed memoization costs little (paper: <2.5% difference)."""
        base = simulate_iteration(DIMS, variant="canc_fused").iteration_time
        allmiss = simulate_iteration(
            DIMS, variant="canc_fused", trace=synthetic_trace(("miss",))
        ).iteration_time
        assert allmiss == pytest.approx(base, rel=0.05)

    def test_coalescing_helps_under_memoization(self):
        on = simulate_iteration(
            DIMS, trace=synthetic_trace(("miss", "db_hit")), coalesce=True
        ).lsp_time
        off = simulate_iteration(
            DIMS, trace=synthetic_trace(("miss", "db_hit")), coalesce=False
        ).lsp_time
        assert on <= off * 1.01


class TestMultiGPU:
    def test_intra_node_speedup(self):
        t1 = simulate_iteration(DIMS, n_gpus=1).lsp_time
        t4 = simulate_iteration(DIMS, n_gpus=4).lsp_time
        assert t1 / t4 > 2.0

    def test_inter_node_diminishing_returns(self):
        trace = synthetic_trace(("miss", "db_hit", "db_hit", "cache_hit"))
        t4 = simulate_iteration(DIMS, n_gpus=4, trace=trace).lsp_time
        t8 = simulate_iteration(DIMS, n_gpus=8, trace=trace).lsp_time
        intra = simulate_iteration(DIMS, n_gpus=1, trace=trace).lsp_time / t4
        inter = t4 / t8
        assert inter < intra  # crossing nodes costs (paper Figure 14)

    def test_memory_nic_utilization_grows(self):
        trace = synthetic_trace(("miss", "db_hit", "db_hit", "cache_hit"))
        u1 = simulate_iteration(DIMS, n_gpus=1, trace=trace).memory_nic_utilization()
        u16 = simulate_iteration(DIMS, n_gpus=16, trace=trace).memory_nic_utilization()
        assert u16 > u1  # Figure 15

    def test_query_latencies_recorded(self):
        perf = simulate_iteration(DIMS, trace=synthetic_trace())
        assert len(perf.query_latencies) > 0
        assert all(v >= 0 for v in perf.query_latencies)


class TestShardedMemoryNode:
    TRACE = staticmethod(lambda: synthetic_trace(("miss", "db_hit", "db_hit", "cache_hit")))

    def test_single_shard_identical_to_default(self):
        base = simulate_iteration(DIMS, n_gpus=8, trace=self.TRACE(), db_keys=10**6)
        one = simulate_iteration(
            DIMS, n_gpus=8, trace=self.TRACE(), db_keys=10**6, n_shards=1
        )
        assert one.lsp_time == base.lsp_time
        assert len(one.query_latencies) == len(base.query_latencies)

    def test_sharding_never_slows_the_iteration(self):
        for g in (4, 16):
            t1 = simulate_iteration(
                DIMS, n_gpus=g, trace=self.TRACE(), db_keys=10**8, n_shards=1
            ).lsp_time
            t4 = simulate_iteration(
                DIMS, n_gpus=g, trace=self.TRACE(), db_keys=10**8, n_shards=4
            ).lsp_time
            assert t4 <= t1 * 1.001

    def test_shard_resources_materialized_and_used(self):
        perf = simulate_iteration(
            DIMS, n_gpus=8, trace=self.TRACE(), db_keys=10**6, n_shards=4
        )
        names = set(perf.timeline.resources)
        assert {"memnode/index", "memnode/index/1", "memnode/index/2",
                "memnode/index/3"} <= names
        for name in ("memnode/index", "memnode/index/1"):
            assert perf.timeline.resources[name].busy_time > 0

    def test_all_queries_answered_regardless_of_shards(self):
        base = simulate_iteration(DIMS, n_gpus=8, trace=self.TRACE(), db_keys=10**6)
        sharded = simulate_iteration(
            DIMS, n_gpus=8, trace=self.TRACE(), db_keys=10**6, n_shards=3
        )
        assert len(sharded.query_latencies) == len(base.query_latencies)

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            simulate_iteration(DIMS, n_shards=0)


class TestTraceByLocation:
    def test_location_mapping_preserves_block_structure(self):
        """An all-miss lower half / all-hit upper half sim trace must map to
        the same split at paper scale (round-robin would interleave it)."""
        trace = []
        for inner in range(2):
            for op in ("Fu1D", "Fu2D"):
                for c in range(8):
                    case = "miss" if c < 4 else "db_hit"
                    trace.append(MemoEvent(0, inner, op, c, case, 0.9, 4096, 2**20))
        from repro.core.perfsim import _trace_lookup

        lookup = _trace_lookup(trace, 64, by_location=True)
        for paper_chunk in range(32):
            assert lookup(0, "Fu1D", paper_chunk) == "miss"
        for paper_chunk in range(32, 64):
            assert lookup(0, "Fu1D", paper_chunk) == "db_hit"

    def test_ragged_ops_scale_by_their_own_location_count(self):
        """Regression: location counts are per op (Fu1D sweeps the volume
        axis, Fu2D the detector rows).  An op with fewer sim locations must
        still cover the whole paper chunk range instead of falling off the
        end into CASE_MISS."""
        from repro.core.perfsim import _trace_lookup

        trace = []
        for c in range(6):  # Fu1D: 6 locations, all hits
            trace.append(MemoEvent(0, 0, "Fu1D", c, "db_hit", 0.9, 4096, 2**20))
        for c in range(4):  # Fu2D: 4 locations, all hits
            trace.append(MemoEvent(0, 0, "Fu2D", c, "db_hit", 0.9, 4096, 2**20))
        lookup = _trace_lookup(trace, 64, by_location=True)
        for paper_chunk in range(64):
            assert lookup(0, "Fu1D", paper_chunk) == "db_hit"
            assert lookup(0, "Fu2D", paper_chunk) == "db_hit"

    def test_unknown_op_defaults_to_miss(self):
        from repro.core.perfsim import _trace_lookup

        lookup = _trace_lookup(
            [MemoEvent(0, 0, "Fu1D", 0, "db_hit", 0.9, 4096, 2**20)], 64,
            by_location=True,
        )
        assert lookup(3, "Fu2D*", 0) == "miss"

    def test_runs_end_to_end(self):
        perf = simulate_iteration(
            DIMS, n_gpus=4, trace=synthetic_trace(), db_keys=10**6,
            n_shards=2, trace_by_location=True,
        )
        assert perf.lsp_time > 0
