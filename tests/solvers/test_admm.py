"""ADMM end-to-end: convergence, history, adaptive rho, config validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.solvers import ADMMConfig, ADMMSolver, DirectExecutor


class TestConfigValidation:
    def test_defaults_valid(self):
        ADMMConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": -1.0},
            {"rho": 0.0},
            {"n_outer": 0},
            {"n_inner": 0},
            {"cancellation": False, "fusion": True},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            ADMMConfig(**kwargs)


@pytest.fixture(scope="module")
def solved(request):
    """One shared 8-iteration solve on the tiny problem."""
    from repro.lamino import LaminoGeometry, LaminoOperators, brain_like, simulate_data

    g = LaminoGeometry((16, 16, 16), n_angles=12, det_shape=(16, 16), tilt_deg=61.0)
    ops = LaminoOperators(g)
    truth = brain_like(g.vol_shape, seed=7)
    d = simulate_data(truth, g, noise_level=0.01, seed=1)
    cfg = ADMMConfig(alpha=1e-3, rho=0.5, n_outer=8, n_inner=4)
    solver = ADMMSolver(ops, cfg)
    result = solver.run(d)
    return g, ops, truth, d, result


class TestConvergence:
    def test_loss_decreases(self, solved):
        *_, result = solved
        loss = result.history["loss"]
        assert loss[-1] < 0.2 * loss[0]

    def test_reconstruction_correlates_with_truth(self, solved):
        _, _, truth, _, result = solved
        rec = result.u.real.ravel()
        t = truth.ravel()
        corr = np.corrcoef(rec, t)[0, 1]
        assert corr > 0.8

    def test_history_lengths(self, solved):
        *_, result = solved
        for key in ("loss", "data_loss", "tv", "primal_res", "dual_res", "rho"):
            assert len(result.history[key]) == 8

    def test_result_dtype_and_shape(self, solved):
        g, *_ , result = solved
        assert result.u.shape == g.vol_shape
        assert result.u.dtype == np.complex64

    def test_op_counts_recorded(self, solved):
        *_, result = solved
        # 8 outer * 4 inner calls of each of the 4 cancelled-pipeline ops,
        # plus the single upfront F2D of the data.
        assert result.op_counts["Fu1D"] == 32
        assert result.op_counts["F2D"] == 1


class TestBehaviours:
    def test_data_shape_validated(self, solved):
        _, ops, _, d, _ = solved
        solver = ADMMSolver(ops, ADMMConfig(n_outer=1))
        with pytest.raises(ValueError):
            solver.run(np.zeros((2, 3, 4), dtype=np.float32))
        n1, n0, n2 = ops.geometry.vol_shape
        with pytest.raises(ValueError, match=r"u0 shape \(\d+, \d+, \d+\) != "):
            solver.run(d, u0=np.zeros((n1, n0, n2 + 1), dtype=np.complex64))

    def test_warm_start_improves_first_loss(self, solved):
        _, ops, truth, d, result = solved
        solver = ADMMSolver(ops, ADMMConfig(n_outer=1, n_inner=2))
        cold = solver.run(d)
        solver2 = ADMMSolver(ops, ADMMConfig(n_outer=1, n_inner=2))
        warm = solver2.run(d, u0=result.u)
        assert warm.history["loss"][0] < cold.history["loss"][0]

    def test_callback_invoked_each_iteration(self, solved):
        _, ops, _, d, _ = solved
        seen = []
        solver = ADMMSolver(ops, ADMMConfig(n_outer=3, n_inner=1))
        solver.run(d, callback=lambda it, u, h: seen.append((it, h["rho"])))
        assert [s[0] for s in seen] == [0, 1, 2]

    def test_adaptive_rho_stays_positive(self, solved):
        *_, result = solved
        assert all(r > 0 for r in result.history["rho"])

    def test_tv_regularization_smooths(self, solved):
        """Higher alpha must yield a lower-TV reconstruction."""
        _, ops, _, d, _ = solved
        from repro.solvers import tv_norm

        lo = ADMMSolver(ops, ADMMConfig(alpha=1e-5, n_outer=6, n_inner=2)).run(d)
        hi = ADMMSolver(ops, ADMMConfig(alpha=3e-2, n_outer=6, n_inner=2)).run(d)
        assert tv_norm(hi.u.real) < tv_norm(lo.u.real)

    def test_executor_iteration_markers(self, solved):
        _, ops, _, d, _ = solved
        ex = DirectExecutor(ops)
        ADMMSolver(ops, ADMMConfig(n_outer=2, n_inner=3), executor=ex).run(d)
        assert ex.outer_iteration == 1
        assert ex.inner_iteration == 2
