"""TV prox (RSP) correctness: closed-form checks and prox properties."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solvers import grad3, rsp_update, shrink_isotropic, tv_norm
from repro.solvers.grad import grad_norm


class TestTVNorm:
    def test_constant_volume_has_zero_tv(self):
        assert tv_norm(np.full((6, 6, 6), 2.5)) == 0.0

    def test_step_edge_tv_value(self):
        """A single axis-0 step of height 1 across an (n,n,n) periodic volume
        contributes 2*n*n (two wrap-around jumps)."""
        n = 8
        u = np.zeros((n, n, n))
        u[: n // 2] = 1.0
        assert tv_norm(u) == pytest.approx(2 * n * n)

    def test_tv_scales_linearly(self, rng):
        u = rng.standard_normal((6, 6, 6))
        assert tv_norm(3.0 * u) == pytest.approx(3.0 * tv_norm(u), rel=1e-6)


class TestShrink:
    def test_zero_threshold_is_identity(self, rng):
        z = rng.standard_normal((3, 4, 4, 4))
        np.testing.assert_allclose(shrink_isotropic(z, 0.0), z)

    def test_large_threshold_kills_everything(self, rng):
        z = rng.standard_normal((3, 4, 4, 4))
        out = shrink_isotropic(z, 1e9)
        assert np.allclose(out, 0.0)

    def test_negative_threshold_rejected(self, rng):
        with pytest.raises(ValueError):
            shrink_isotropic(rng.standard_normal((3, 2, 2, 2)), -1.0)

    def test_magnitude_reduced_by_exactly_kappa(self, rng):
        z = rng.standard_normal((3, 4, 4, 4)) * 10  # well above threshold
        kappa = 0.5
        out = shrink_isotropic(z, kappa)
        mag_in = np.sqrt((z**2).sum(axis=0))
        mag_out = np.sqrt((out**2).sum(axis=0))
        np.testing.assert_allclose(mag_out, mag_in - kappa, rtol=1e-6)

    def test_direction_preserved(self, rng):
        z = rng.standard_normal((3, 4, 4, 4)) * 10
        out = shrink_isotropic(z, 0.3)
        cos = (z * out).sum(axis=0) / (
            np.sqrt((z**2).sum(axis=0)) * np.sqrt((out**2).sum(axis=0))
        )
        np.testing.assert_allclose(cos, 1.0, rtol=1e-6)

    @given(seed=st.integers(0, 2**31 - 1), kappa=st.floats(0.0, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_nonexpansive(self, seed, kappa):
        """prox operators are firmly non-expansive: |S(a)-S(b)| <= |a-b|."""
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, 3, 3, 3))
        b = rng.standard_normal((3, 3, 3, 3))
        d_out = np.linalg.norm(shrink_isotropic(a, kappa) - shrink_isotropic(b, kappa))
        assert d_out <= np.linalg.norm(a - b) + 1e-9

    def test_complex_field_shrinks_by_magnitude(self, rng):
        z = (rng.standard_normal((3, 4, 4, 4)) + 1j * rng.standard_normal((3, 4, 4, 4))) * 10
        out = shrink_isotropic(z, 1.0)
        mag_in = np.sqrt((np.abs(z) ** 2).sum(axis=0))
        mag_out = np.sqrt((np.abs(out) ** 2).sum(axis=0))
        np.testing.assert_allclose(mag_out, mag_in - 1.0, rtol=1e-5)

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_keeps_the_dtype_and_copies_the_field_once(self, rng, dtype):
        shape = (3, 32, 32, 32)  # large enough that arrays, not objects, set the peak
        z = ((rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 3).astype(dtype)
        mag = grad_norm(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = np.where(mag > 0.0, np.maximum(1.0 - 0.7 / mag, 0.0), 0.0)
        want = (z * factor[None]).astype(z.dtype)
        tracemalloc.start()
        try:
            out = shrink_isotropic(z, 0.7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.dtype == dtype
        np.testing.assert_array_equal(out.view(np.uint8), want.view(np.uint8))
        # the shrunk field plus per-voxel scalars: no second full-field copy
        assert peak < 1.8 * z.nbytes


class TestRSPUpdate:
    def test_solves_prox_subproblem(self, rng):
        """psi must minimize alpha*||psi||_1 + rho/2 ||grad u + lam/rho - psi||^2:
        compare objective against random perturbations."""
        u = rng.standard_normal((5, 5, 5))
        lam = rng.standard_normal((3, 5, 5, 5)) * 0.1
        alpha, rho = 0.3, 0.7
        psi = rsp_update(u, lam, alpha, rho)
        z = grad3(u) + lam / rho

        def objective(p):
            return alpha * np.sqrt((p**2).sum(axis=0)).sum() + 0.5 * rho * np.sum(
                (z - p) ** 2
            )

        base = objective(psi)
        for _ in range(5):
            assert base <= objective(psi + 0.01 * rng.standard_normal(psi.shape)) + 1e-9

    def test_invalid_rho_rejected(self, rng):
        with pytest.raises(ValueError):
            rsp_update(rng.standard_normal((4, 4, 4)), np.zeros((3, 4, 4, 4)), 0.1, 0.0)
