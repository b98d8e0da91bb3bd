"""USFFT correctness: direct-DFT equivalence, exact adjointness, linearity."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lamino import usfft as U


def _rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestKernelParams:
    def test_beta_positive_and_monotone_in_half_width(self):
        betas = [U._kernel_beta(k, 2) for k in (1, 3, 5, 9)]
        assert all(b > 0 for b in betas)
        assert betas == sorted(betas)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_invalid_half_width_rejected(self, bad):
        with pytest.raises(ValueError):
            U._kernel_beta(bad, 2)

    def test_invalid_oversample_rejected(self):
        with pytest.raises(ValueError):
            U._kernel_beta(4, 1)


class TestPlan1D:
    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            U.USFFT1DPlan(15, np.arange(4.0))

    def test_interp_shape(self):
        plan = U.USFFT1DPlan(16, np.linspace(-7, 7, 9))
        assert plan.interp.shape == (9, 32)
        assert plan.ns == 9

    def test_interp_rows_have_bounded_support(self):
        plan = U.USFFT1DPlan(16, np.array([0.3]), half_width=4)
        nnz = np.count_nonzero(plan.interp[0] > 1e-300)
        assert nnz <= 2 * 4 + 1


class TestType2Accuracy1D:
    # Kaiser--Bessel envelopes (two decades per tap pair); a Gaussian window
    # of the same width misses each by more than a decade
    @pytest.mark.parametrize("half_width,tol", [(2, 2e-4), (3, 3e-6), (4, 5e-8)])
    def test_matches_direct_dtft(self, rng, half_width, tol):
        n = 32
        f = _rand_complex(rng, (2, n))
        s = rng.uniform(-n / 2, n / 2, size=23)
        plan = U.USFFT1DPlan(n, s, half_width=half_width)
        got = U.usfft1d_type2(f, plan, axis=-1)
        want = U.dtft1d_direct(f, s, axis=-1)
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < tol

    def test_integer_freqs_recover_ortho_dft(self, rng):
        n = 32
        f = _rand_complex(rng, (n,))
        s = (np.arange(n) - n // 2).astype(float)
        plan = U.USFFT1DPlan(n, s, half_width=7)
        got = U.usfft1d_type2(f, plan)
        # the ortho DFT is the oracle this test compares against
        # analysis: ignore[direct-fft]
        want = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(f), norm="ortho"))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6 * np.abs(want).max())

    def test_periodic_frequency_wraparound(self, rng):
        # Frequencies n apart sample the same DTFT value (period n).
        n = 16
        f = _rand_complex(rng, (n,))
        plan = U.USFFT1DPlan(n, np.array([3.3, 3.3 - n]), half_width=7)
        got = U.usfft1d_type2(f, plan)
        np.testing.assert_allclose(got[0], got[1], rtol=1e-5)

    def test_applies_along_middle_axis(self, rng):
        n = 16
        f = _rand_complex(rng, (3, n, 5))
        s = rng.uniform(-n / 2, n / 2, size=9)
        plan = U.USFFT1DPlan(n, s)
        got = U.usfft1d_type2(f, plan, axis=1)
        assert got.shape == (3, 9, 5)
        want = U.dtft1d_direct(f, s, axis=1)
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-4

    def test_wrong_axis_length_raises(self, rng):
        plan = U.USFFT1DPlan(16, np.arange(4.0))
        with pytest.raises(ValueError):
            U.usfft1d_type2(np.zeros((3, 8)), plan, axis=-1)

    def test_linearity(self, rng):
        n = 16
        plan = U.USFFT1DPlan(n, rng.uniform(-8, 8, size=6))
        a = _rand_complex(rng, (n,))
        b = _rand_complex(rng, (n,))
        lhs = U.usfft1d_type2(2.0 * a + 3j * b, plan)
        rhs = 2.0 * U.usfft1d_type2(a, plan) + 3j * U.usfft1d_type2(b, plan)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_float32_input_gives_complex64(self, rng):
        plan = U.USFFT1DPlan(16, np.arange(4.0))
        out = U.usfft1d_type2(rng.standard_normal(16).astype(np.float32), plan)
        assert out.dtype == np.complex64


class TestAdjoint1D:
    @given(seed=st.integers(0, 2**31 - 1), ns=st.integers(1, 40))
    @settings(max_examples=25, deadline=None)
    def test_dot_product_identity(self, seed, ns):
        rng = np.random.default_rng(seed)
        n = 16
        s = rng.uniform(-n, n, size=ns)  # including out-of-band frequencies
        plan = U.USFFT1DPlan(n, s, half_width=4)
        x = _rand_complex(rng, (n,))
        y = _rand_complex(rng, (ns,))
        lhs = np.vdot(y, U.usfft1d_type2(x, plan))
        rhs = np.vdot(U.usfft1d_type1(y, plan), x)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_wrong_ns_raises(self):
        plan = U.USFFT1DPlan(16, np.arange(4.0))
        with pytest.raises(ValueError):
            U.usfft1d_type1(np.zeros(5, dtype=complex), plan)

    def test_adjoint_matches_direct_adjoint(self, rng):
        n = 16
        s = rng.uniform(-n / 2, n / 2, size=11)
        plan = U.USFFT1DPlan(n, s, half_width=7)
        y = _rand_complex(rng, (11,))
        got = U.usfft1d_type1(y, plan)
        # direct adjoint: conj-transpose of the direct DTFT matrix
        x = np.arange(n) - n // 2
        A = np.exp(-2j * np.pi * np.outer(s, x) / n) / np.sqrt(n)
        want = A.conj().T @ y
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-6


class TestPlan2D:
    def test_bad_points_shape_rejected(self):
        with pytest.raises(ValueError):
            U.USFFT2DPlan((8, 8), np.zeros((4, 10)))

    def test_odd_shape_rejected(self):
        with pytest.raises(ValueError):
            U.USFFT2DPlan((7, 8), np.zeros((1, 3, 2)))

    def test_interp_matrices_per_slice(self):
        pts = np.zeros((3, 5, 2))
        plan = U.USFFT2DPlan((8, 8), pts, half_width=3)
        assert plan.nslices == 3 and plan.npts == 5
        assert plan._interp is None  # built on first access, for the reference kernels
        assert len(plan.interp) == 3
        assert plan.interp[0].shape == (5, 16 * 16)
        assert plan.interp[0].nnz == 5 * 7 * 7


class TestType2Accuracy2D:
    @pytest.mark.parametrize("half_width,tol", [(2, 3e-4), (4, 5e-8)])
    def test_matches_direct_dtft(self, rng, half_width, tol):
        n0, n1 = 12, 16
        nsl, npts = 3, 40
        f = _rand_complex(rng, (nsl, n0, n1))
        pts = np.stack(
            [
                rng.uniform(-n0 / 2, n0 / 2, size=(nsl, npts)),
                rng.uniform(-n1 / 2, n1 / 2, size=(nsl, npts)),
            ],
            axis=-1,
        )
        plan = U.USFFT2DPlan((n0, n1), pts, half_width=half_width)
        got = U.usfft2d_type2(f, plan)
        want = U.dtft2d_direct(f, pts)
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < tol

    def test_chunked_equals_full(self, rng):
        n0 = n1 = 8
        nsl, npts = 6, 20
        f = _rand_complex(rng, (nsl, n0, n1))
        pts = rng.uniform(-4, 4, size=(nsl, npts, 2))
        plan = U.USFFT2DPlan((n0, n1), pts)
        full = U.usfft2d_type2(f, plan)
        part = np.concatenate(
            [
                U.usfft2d_type2(f[0:2], plan, slices=slice(0, 2)),
                U.usfft2d_type2(f[2:6], plan, slices=slice(2, 6)),
            ]
        )
        np.testing.assert_array_equal(full, part)

    def test_wrong_shape_raises(self, rng):
        plan = U.USFFT2DPlan((8, 8), np.zeros((2, 3, 2)))
        with pytest.raises(ValueError):
            U.usfft2d_type2(np.zeros((2, 8, 10), dtype=complex), plan)

    def test_strided_slice_selection_rejected(self, rng):
        plan = U.USFFT2DPlan((8, 8), np.zeros((4, 3, 2)))
        with pytest.raises(ValueError):
            U.usfft2d_type2(np.zeros((2, 8, 8), dtype=complex), plan, slices=slice(0, 4, 2))


class TestAdjoint2D:
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_dot_product_identity(self, seed):
        rng = np.random.default_rng(seed)
        n0 = n1 = 8
        nsl, npts = 2, 17
        pts = rng.uniform(-8, 8, size=(nsl, npts, 2))
        plan = U.USFFT2DPlan((n0, n1), pts, half_width=3)
        x = _rand_complex(rng, (nsl, n0, n1))
        y = _rand_complex(rng, (nsl, npts))
        lhs = np.vdot(y, U.usfft2d_type2(x, plan))
        rhs = np.vdot(U.usfft2d_type1(y, plan), x)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_shape_validation(self):
        plan = U.USFFT2DPlan((8, 8), np.zeros((2, 3, 2)))
        with pytest.raises(ValueError):
            U.usfft2d_type1(np.zeros((2, 5), dtype=complex), plan)

    def test_dtype_complex64_path(self, rng):
        plan = U.USFFT2DPlan((8, 8), rng.uniform(-4, 4, (2, 5, 2)))
        y = _rand_complex(rng, (2, 5)).astype(np.complex64)
        out = U.usfft2d_type1(y, plan)
        assert out.dtype == np.complex64
