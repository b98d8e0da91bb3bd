"""Smoke-scale runs of every table/figure regenerator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.harness import experiments as E
from repro.harness.datasets import DATASETS, DatasetSpec, build

TINY = DatasetSpec(name="tiny", paper_n=1024, sim_n=16, sim_chunk=4)


class TestDatasets:
    def test_registry(self):
        assert set(DATASETS) == {"small", "medium", "large"}
        assert DATASETS["small"].paper_n == 1024

    def test_build_deterministic(self):
        g1, t1, d1 = build(TINY, seed=5)
        g2, t2, d2 = build(TINY, seed=5)
        np.testing.assert_array_equal(t1, t2)
        np.testing.assert_array_equal(d1, d2)

    def test_dims_paper_scale(self):
        assert TINY.dims.n == 1024
        assert TINY.geometry.vol_shape == (16, 16, 16)


class TestExperimentsSmoke:
    def test_fig02(self):
        r = E.fig02_memory_breakdown(TINY)
        assert r.lsp_fraction > 0.5
        assert r.total_bytes > 0
        assert "psi" in r.report()

    def test_fig04(self):
        r = E.fig04_chunk_similarity(TINY, n_outer=8, quick=True)
        assert set(r.counts) == {"top", "middle", "bottom"}
        assert all(v[0] == 0 for v in r.counts.values())

    @pytest.mark.slow  # three datasets; the 13 s tail of the unit suite
    def test_fig08(self):
        r = E.fig08_overall(n_outer=10, sim_outer=4, quick=True)
        assert len(r.rows) == 3
        assert all(row[3] < 1.5 for row in r.rows)
        assert "normalized" in r.report()

    def test_fig09(self):
        r = E.fig09_cancellation()
        assert len(r.rows) == 12  # 2 datasets x 2 workloads x 3 variants

    def test_fig10(self):
        r = E.fig10_memo_breakdown(TINY, sim_outer=4)
        assert set(r.data) == {"Fu1D", "Fu2D", "Fu2D*", "Fu1D*"}
        for cases in r.data.values():
            assert set(cases) == {"orig", "fail", "suc", "cached"}

    def test_fig11(self):
        r = E.fig11_coalesce(TINY)
        assert 0.0 < r.improvement < 1.0

    def test_fig12(self):
        r = E.fig12_cache_hitrate(TINY, n_outer=6)
        assert r.global_comparisons > r.private_comparisons

    def test_fig13(self):
        r = E.fig13_offload(TINY)
        assert set(r.outcomes) == {
            "ADMM (no offload)", "ADMM greedy offload", "ADMM LRU offload", "ADMM-Offload",
        }

    def test_fig14_15_16(self):
        r = E.fig14_scaling(TINY, gpu_counts=(1, 4), sim_outer=3, quick=True)
        assert r.gpu_counts == [1, 4]
        assert r.overall[1] < r.overall[0]
        assert len(r.nic_utilization) == 2
        assert set(r.latencies) == {1, 4}

    def test_tab01(self):
        r = E.tab01_accuracy(TINY, taus=(0.9, 0.96), n_outer=6, quick=False)
        assert len(r.taus) == 2
        assert all(np.isfinite(a) for a in r.accuracies)

    def test_fig17(self):
        r = E.fig17_convergence(TINY, n_outer=5, quick=True)
        assert len(r.loss_without) == 5
        assert len(r.loss_with) == 5
        assert r.loss_without[-1] < r.loss_without[0]

    def test_fig18(self):
        r = E.fig18_pipeline_overlap(
            TINY, queue_depths=(1, 2), worker_counts=(1, 2), sim_outer=3, quick=True
        )
        assert r.bitwise_identical
        assert r.streaming_identical
        assert r.io_time > 0
        for perf in r.perfs.values():
            assert perf.pipelined_time < perf.serial_time
            assert perf.speedup <= perf.speedup_bound * (1 + 1e-9)
        assert "Figure 18" in r.report()


class TestReportHelpers:
    def test_table_alignment(self):
        from repro.harness.report import table

        out = table(["a", "bb"], [[1, 2.5], [10, 0.001]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_cdf_rows(self):
        from repro.harness.report import cdf_rows

        rows = cdf_rows(list(range(100)))
        assert rows[0][0] == 0.25
        assert rows[-1][1] >= rows[0][1]

    def test_cdf_rows_empty(self):
        from repro.harness.report import cdf_rows

        rows = cdf_rows([])
        assert all(np.isnan(v) for _, v in rows)
