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
    """Every regenerator at smoke scale: its values and its rendered report."""

    def test_fig02(self):
        r = E.fig02_memory_breakdown(TINY)
        v = r.values
        assert v["lsp_fraction"] > 0.5
        assert v["total_bytes"] > 0
        assert "psi" in r.report()

    def test_fig04(self):
        r = E.fig04_chunk_similarity(TINY, n_outer=8, quick=True)
        counts = r.values["counts"]
        assert set(counts) == {"top", "middle", "bottom"}
        assert all(c[0] == 0 for c in counts.values())
        assert "Figure 4" in r.report()

    @pytest.mark.slow  # three datasets; the 13 s tail of the unit suite
    def test_fig08(self):
        r = E.fig08_overall(n_outer=10, sim_outer=4, quick=True)
        rows = r.values["rows"]
        assert len(rows) == 3
        assert all(row[3] < 1.5 for row in rows)
        assert "normalized" in r.report()

    def test_fig09(self):
        r = E.fig09_cancellation()
        assert len(r.values["rows"]) == 12  # 2 datasets x 2 workloads x 3 variants
        assert "LSP(4xFFT)" in r.report()

    def test_fig10(self):
        r = E.fig10_memo_breakdown(TINY, sim_outer=4)
        data = r.values["data"]
        assert set(data) == {"Fu1D", "Fu2D", "Fu2D*", "Fu1D*"}
        for cases in data.values():
            assert set(cases) == {"orig", "fail", "suc", "cached"}
        assert "case distribution: " in r.report()

    def test_fig11(self):
        r = E.fig11_coalesce(TINY)
        assert 0.0 < r.values["improvement"] < 1.0
        assert r.report().splitlines()[-1].startswith("improvement: ")

    def test_fig12(self):
        r = E.fig12_cache_hitrate(TINY, n_outer=6)
        assert r.values["global_comparisons"] > r.values["private_comparisons"]
        assert "similarity comparisons: private=" in r.report()

    def test_fig13(self):
        r = E.fig13_offload(TINY)
        assert set(r.values["outcomes"]) == {
            "ADMM (no offload)", "ADMM greedy offload", "ADMM LRU offload", "ADMM-Offload",
        }
        assert "ADMM-Offload" in r.report()

    def test_fig14_15_16(self):
        r = E.fig14_scaling(TINY, gpu_counts=(1, 4), sim_outer=3, quick=True)
        v = r.values
        assert v["gpu_counts"] == [1, 4]
        assert v["overall"][1] < v["overall"][0]
        assert len(v["nic_utilization"]) == 2
        assert set(v["latencies"]) == {1, 4}
        text = r.report()
        assert "Figure 15" in text
        assert "Figure 16: query latency CDF at 4 GPUs" in text

    def test_fig14_sharded(self):
        r = E.fig14_sharded(
            TINY, n_workers=2, n_shards=2, grid_workers=(1, 2), grid_shards=(1, 2),
            sim_outer=3,
        )
        v = r.values
        assert len(v["shard_queries"]) == 2 and len(v["worker_keys"]) == 2
        assert set(v["lsp_times"]) == {(1, 1), (1, 2), (2, 1), (2, 2)}
        assert "Per-worker key coalescing" in r.report()

    def test_tab01(self):
        r = E.tab01_accuracy(TINY, taus=(0.9, 0.96), n_outer=6, quick=False)
        assert len(r.values["taus"]) == 2
        assert all(np.isfinite(a) for a in r.values["accuracies"])
        assert "served of memoized-op lookups" in r.report()

    def test_fig17(self):
        r = E.fig17_convergence(TINY, n_outer=5, quick=True)
        v = r.values
        assert len(v["loss_without"]) == 5
        assert len(v["loss_with"]) == 5
        assert v["loss_without"][-1] < v["loss_without"][0]
        assert "loss w/ memoization" in r.report()


class TestReportHelpers:
    def test_table_alignment(self):
        from repro.obs.report import table

        out = table(["a", "bb"], [[1, 2.5], [10, 0.001]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert lines[3] == "10  0.001"

    def test_table_title_strings_and_trailing_spaces(self):
        from repro.obs.report import table

        out = table(["name", "value"], [["a-long-name", "x"], ["b", 1234.5]], "Title")
        assert out.splitlines() == [
            "Title",
            "name         value",
            "-----------  ---------",
            "a-long-name  x",
            "b            1.234e+03",
        ]

    def test_figure_report_is_tables_then_notes(self):
        fig = E.Figure(
            tables=[("T1", ["a"], [[1]]), ("T2", ["b"], [[0.5]])], notes=["n1", "n2"]
        )
        assert fig.report() == "T1\na\n-\n1\n\nT2\nb\n---\n0.5\nn1\nn2"

    def test_cdf_rows(self):
        from repro.harness.experiments import cdf_rows

        rows = cdf_rows(list(range(100)))
        assert rows[0][0] == 0.25
        assert rows[-1][1] >= rows[0][1]

    def test_cdf_rows_empty(self):
        from repro.harness.experiments import cdf_rows

        rows = cdf_rows([])
        assert all(np.isnan(v) for _, v in rows)
