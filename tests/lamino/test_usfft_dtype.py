"""Hot-path execution discipline of the USFFT kernels.

Covers the vectorization pass: complex64 preservation end to end (no hidden
complex128 temporaries at the FFT boundary), cached dtype variants on the
plans, fast-vs-reference kernel agreement, the adjoint dot-product identity
under the scipy FFT backend, and the FFT configuration surface itself.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lamino import LaminoGeometry, LaminoOperators
from repro.lamino import usfft as U


def _rand_c64(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
        np.complex64
    )


@pytest.fixture()
def plan1d(rng):
    return U.USFFT1DPlan(16, rng.uniform(-8, 8, size=11))


@pytest.fixture()
def plan2d(rng):
    return U.USFFT2DPlan((8, 12), rng.uniform(-4, 4, size=(5, 17, 2)))


class TestConfig:
    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            U.configure_fft(backend="fftw")

    def test_configure_returns_previous_and_context_restores(self):
        before = U.fft_config()
        with U.fft_backend(backend="numpy", workers=2, reference=True):
            assert U.fft_config() == {"backend": "numpy", "workers": 2, "reference": True}
        assert U.fft_config() == before

    def test_reference_kernels_context(self):
        before = U.fft_config()
        with U.reference_kernels():
            cfg = U.fft_config()
            assert cfg["backend"] == "numpy" and cfg["reference"]
        assert U.fft_config() == before


class TestDtypePreservation:
    """complex64 in -> complex64 out, with complex64 *internals*."""

    def test_usfft1d_roundtrip_dtypes(self, plan1d, rng):
        f = _rand_c64(rng, (3, 16))
        F = U.usfft1d_type2(f, plan1d)
        assert F.dtype == np.complex64
        assert U.usfft1d_type1(F, plan1d).dtype == np.complex64

    def test_usfft2d_roundtrip_dtypes(self, plan2d, rng):
        f = _rand_c64(rng, (5, 8, 12))
        F = U.usfft2d_type2(f, plan2d)
        assert F.dtype == np.complex64
        assert U.usfft2d_type1(F, plan2d).dtype == np.complex64

    def test_complex128_still_complex128(self, plan1d, plan2d, rng):
        f = (rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16)))
        assert U.usfft1d_type2(f, plan1d).dtype == np.complex128
        g = rng.standard_normal((5, 8, 12)) + 1j * rng.standard_normal((5, 8, 12))
        assert U.usfft2d_type2(g, plan2d).dtype == np.complex128

    def test_no_complex128_fft_temporaries(self, plan1d, plan2d, rng, monkeypatch):
        """Every FFT-boundary array of a complex64 call must be complex64."""
        seen: list[np.dtype] = []
        orig_fwd, orig_adj = U._fftn_raw, U._ifftn_raw

        def spy_fwd(a, axes, overwrite=False):
            seen.append(a.dtype)
            out = orig_fwd(a, axes, overwrite)
            seen.append(out.dtype)
            return out

        def spy_adj(a, axes, overwrite=False):
            seen.append(a.dtype)
            out = orig_adj(a, axes, overwrite)
            seen.append(out.dtype)
            return out

        monkeypatch.setattr(U, "_fftn_raw", spy_fwd)
        monkeypatch.setattr(U, "_ifftn_raw", spy_adj)
        F1 = U.usfft1d_type2(_rand_c64(rng, (2, 16)), plan1d)
        U.usfft1d_type1(F1, plan1d)
        F2 = U.usfft2d_type2(_rand_c64(rng, (5, 8, 12)), plan2d)
        U.usfft2d_type1(F2, plan2d)
        assert seen and all(dt == np.complex64 for dt in seen)

    def test_cached_casts_are_compute_dtype(self, plan1d, plan2d):
        assert plan1d.corr_for(np.float32).dtype == np.float32
        assert plan1d.interp_for(np.complex64).dtype == np.complex64
        assert plan1d.interp_for(np.complex64, transpose=True).shape == (
            plan1d.fine_n,
            plan1d.ns,
        )
        # the Kaiser--Bessel weights are real: a block carries the *real*
        # dtype of the compute precision, in both directions
        for cdtype, rdtype in [(np.complex64, np.float32), (np.complex128, np.float64)]:
            g = plan2d.block_gather(0, plan2d.nslices, cdtype)
            s = plan2d.block_scatter(1, 4, cdtype)
            assert g.dtype == rdtype and s.dtype == rdtype
            assert g.format == "csr" and s.format == "csc"

    def test_cast_caches_are_reused(self, plan1d, plan2d):
        assert plan1d.corr_for(np.float32) is plan1d.corr_for(np.float32)
        assert plan1d.interp_for(np.complex64) is plan1d.interp_for(np.complex64)
        assert plan2d.block_gather(0, 2, np.complex64) is plan2d.block_gather(
            0, 2, np.complex64
        )

    def test_operators_preserve_complex64(self, rng):
        g = LaminoGeometry((8, 8, 8), n_angles=6, det_shape=(8, 8), tilt_deg=61.0)
        ops = LaminoOperators(g)
        u = _rand_c64(rng, g.vol_shape)
        d = _rand_c64(rng, g.data_shape)
        assert ops.fu1d(u).dtype == np.complex64
        assert ops.fu1d_adj(u).dtype == np.complex64
        assert ops.fu2d(u).dtype == np.complex64
        assert ops.fu2d_adj(d).dtype == np.complex64
        assert ops.f2d(d).dtype == np.complex64
        assert ops.f2d_adj(d).dtype == np.complex64
        assert ops.forward(u).dtype == np.complex64
        assert ops.adjoint(d).dtype == np.complex64


class TestFastVsReference:
    """The vectorized kernels agree with the pre-vectorization baseline."""

    def test_usfft1d_matches_reference(self, plan1d, rng):
        f = _rand_c64(rng, (4, 16))
        fast2 = U.usfft1d_type2(f, plan1d)
        with U.reference_kernels():
            ref2 = U.usfft1d_type2(f, plan1d)
        np.testing.assert_allclose(fast2, ref2, rtol=2e-5, atol=2e-5)
        fast1 = U.usfft1d_type1(fast2, plan1d)
        with U.reference_kernels():
            ref1 = U.usfft1d_type1(ref2, plan1d)
        np.testing.assert_allclose(fast1, ref1, rtol=2e-4, atol=2e-4)

    def test_usfft2d_matches_reference(self, plan2d, rng):
        f = _rand_c64(rng, (5, 8, 12))
        fast2 = U.usfft2d_type2(f, plan2d)
        with U.reference_kernels():
            ref2 = U.usfft2d_type2(f, plan2d)
        np.testing.assert_allclose(fast2, ref2, rtol=2e-4, atol=2e-4)
        fast1 = U.usfft2d_type1(fast2, plan2d)
        with U.reference_kernels():
            ref1 = U.usfft2d_type1(ref2, plan2d)
        np.testing.assert_allclose(fast1, ref1, rtol=2e-4, atol=2e-4)

    def test_usfft2d_chunked_matches_reference(self, plan2d, rng):
        f = _rand_c64(rng, (3, 8, 12))
        fast = U.usfft2d_type2(f, plan2d, slices=slice(1, 4))
        with U.reference_kernels():
            ref = U.usfft2d_type2(f, plan2d, slices=slice(1, 4))
        np.testing.assert_allclose(fast, ref, rtol=2e-4, atol=2e-4)

    def test_float64_matches_reference_tightly(self, plan1d, rng):
        f = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
        fast = U.usfft1d_type2(f, plan1d)
        with U.reference_kernels():
            ref = U.usfft1d_type2(f, plan1d)
        np.testing.assert_allclose(fast, ref, rtol=1e-12, atol=1e-12)


class TestWorkspaceReuse:
    """The preallocated padded workspace must not leak state across calls."""

    def test_repeated_1d_calls_identical(self, plan1d, rng):
        f = _rand_c64(rng, (3, 16))
        first = U.usfft1d_type2(f, plan1d)
        np.testing.assert_array_equal(first, U.usfft1d_type2(f, plan1d))

    def test_repeated_2d_calls_identical(self, plan2d, rng):
        f = _rand_c64(rng, (5, 8, 12))
        first = U.usfft2d_type2(f, plan2d)
        np.testing.assert_array_equal(first, U.usfft2d_type2(f, plan2d))

    def test_interleaved_dtypes_do_not_collide(self, plan1d, rng):
        f32 = _rand_c64(rng, (2, 16))
        f64 = f32.astype(np.complex128)
        a = U.usfft1d_type2(f32, plan1d)
        b = U.usfft1d_type2(f64, plan1d)
        np.testing.assert_array_equal(a, U.usfft1d_type2(f32, plan1d))
        np.testing.assert_array_equal(b, U.usfft1d_type2(f64, plan1d))

    def test_invalid_block_range_rejected(self, plan2d):
        with pytest.raises(ValueError):
            plan2d.block_gather(3, 2, np.complex64)
        with pytest.raises(ValueError):
            plan2d.block_scatter(0, plan2d.nslices + 1, np.complex64)


class TestSplitPlaneOperands:
    """The 2-D interpolation is a real block applied to the operand's real
    and imaginary planes; operands that are not C-contiguous complex arrays
    must come out as if they were."""

    @pytest.mark.parametrize(
        "real,cplx", [(np.float32, np.complex64), (np.float64, np.complex128)]
    )
    def test_type2_takes_real_input(self, plan2d, rng, real, cplx, monkeypatch):
        seen: list[np.dtype] = []
        orig = U._fftn_raw

        def spy(a, axes, overwrite=False):
            out = orig(a, axes, overwrite)
            seen.extend([a.dtype, out.dtype])
            return out

        monkeypatch.setattr(U, "_fftn_raw", spy)
        f = rng.standard_normal((5, 8, 12)).astype(real)
        got = U.usfft2d_type2(f, plan2d)
        assert got.dtype == cplx and seen == [cplx, cplx]
        np.testing.assert_array_equal(got, U.usfft2d_type2(f.astype(cplx), plan2d))

    def test_type2_takes_fortran_ordered_input(self, plan2d, rng):
        f = _rand_c64(rng, (5, 8, 12))
        got = U.usfft2d_type2(np.asfortranarray(f), plan2d)
        assert got.dtype == np.complex64 and got.flags.c_contiguous
        np.testing.assert_array_equal(got, U.usfft2d_type2(f, plan2d))

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_type1_takes_strided_input(self, plan2d, rng, dtype):
        wide = _rand_c64(rng, (5, 2 * plan2d.npts)).astype(dtype)
        F = wide[:, ::2]
        assert not F.flags.c_contiguous
        got = U.usfft2d_type1(F, plan2d)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, U.usfft2d_type1(np.ascontiguousarray(F), plan2d))
        np.testing.assert_array_equal(F, wide[:, ::2])  # operand untouched

    def test_type1_takes_real_input(self, plan2d, rng):
        F = rng.standard_normal((5, plan2d.npts)).astype(np.float32)
        got = U.usfft2d_type1(F, plan2d)
        assert got.dtype == np.complex64
        np.testing.assert_array_equal(got, U.usfft2d_type1(F.astype(np.complex64), plan2d))

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_empty_row_range(self, plan2d, dtype):
        rows = slice(2, 2)
        F = U.usfft2d_type2(np.zeros((0, 8, 12), dtype), plan2d, slices=rows)
        assert F.shape == (0, plan2d.npts) and F.dtype == dtype
        f = U.usfft2d_type1(F, plan2d, slices=rows)
        assert f.shape == (0, 8, 12) and f.dtype == dtype

    @pytest.mark.parametrize("dtype,tol", [(np.complex64, 1e-4), (np.complex128, 1e-12)])
    def test_dot_product_on_awkward_operands(self, plan2d, rng, dtype, tol):
        rows = slice(1, 4)
        x = np.asfortranarray(_rand_c64(rng, (3, 8, 12)).astype(dtype))
        y = _rand_c64(rng, (3, 2 * plan2d.npts)).astype(dtype)[:, 1::2]
        lhs = np.vdot(y, U.usfft2d_type2(x, plan2d, slices=rows))
        rhs = np.vdot(U.usfft2d_type1(y, plan2d, slices=rows), x)
        assert abs(lhs - rhs) <= tol * max(abs(lhs), 1.0)


class TestAdjointUnderNewBackend:
    """The dot-product identity, re-run explicitly on the scipy backend in
    both precisions (complex128 keeps the double-precision bound; complex64
    meets a single-precision bound)."""

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_1d_dot_product_complex64(self, seed):
        rng = np.random.default_rng(seed)
        n, ns = 16, 13
        plan = U.USFFT1DPlan(n, rng.uniform(-n, n, size=ns), half_width=4)
        x = _rand_c64(rng, (n,))
        y = _rand_c64(rng, (ns,))
        with U.fft_backend(backend="scipy"):
            lhs = np.vdot(y, U.usfft1d_type2(x, plan))
            rhs = np.vdot(U.usfft1d_type1(y, plan), x)
        assert abs(lhs - rhs) <= 1e-4 * max(abs(lhs), 1.0)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_2d_dot_product_complex64(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-8, 8, size=(2, 17, 2))
        plan = U.USFFT2DPlan((8, 8), pts, half_width=3)
        x = _rand_c64(rng, (2, 8, 8))
        y = _rand_c64(rng, (2, 17))
        with U.fft_backend(backend="scipy"):
            lhs = np.vdot(y, U.usfft2d_type2(x, plan))
            rhs = np.vdot(U.usfft2d_type1(y, plan), x)
        assert abs(lhs - rhs) <= 1e-4 * max(abs(lhs), 1.0)

    def test_1d_dot_product_complex128_stays_double_grade(self, rng):
        n, ns = 16, 9
        plan = U.USFFT1DPlan(n, rng.uniform(-n, n, size=ns), half_width=4)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(ns) + 1j * rng.standard_normal(ns)
        lhs = np.vdot(y, U.usfft1d_type2(x, plan))
        rhs = np.vdot(U.usfft1d_type1(y, plan), x)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)
