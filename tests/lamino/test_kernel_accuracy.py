"""The Kaiser--Bessel gridding window at the stack default width: operator
error against the brute-force DTFT at both perf-ledger geometries, exact
adjointness, the stencil size, and the window's edge cases."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lamino import LaminoGeometry, LaminoOperators
from repro.lamino import usfft as U

#: (vol_shape, det_shape) of the ledger's solver and service problems, 32 angles
LEDGER_GEOMETRIES = [((64, 32, 64), (32, 64)), ((64, 16, 64), (16, 64))]

#: relative l2 error of the 15-tap Gaussian stack this window replaced,
#: measured at the same geometries: {dtype: (1-D, 2-D)}
GAUSSIAN_ERR = {np.complex64: (1.4e-7, 3.7e-7), np.complex128: (3.6e-8, 4.5e-8)}

#: dot-test tolerance per compute dtype (a few hundred ulps of the sum)
ADJOINT_TOL = {np.complex64: 2e-5, np.complex128: 1e-12}


def _rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.fixture(scope="module", params=LEDGER_GEOMETRIES, ids=["solver", "service"])
def case(request):
    """Default operator stack, random inputs and their brute-force transforms."""
    vol, det = request.param
    ops = LaminoOperators(LaminoGeometry(vol, n_angles=32, det_shape=det))
    rng = np.random.default_rng(0)
    u = _rand_complex(rng, vol)
    slabs = _rand_complex(rng, (det[0], vol[0], vol[2]))  # (h, n1, n2)
    return {
        "ops": ops,
        "u": u,
        "slabs": slabs,
        "want1d": U.dtft1d_direct(u, ops.plan1d.freqs, axis=1),
        "want2d": U.dtft2d_direct(slabs, ops.plan2d.points),
    }


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
class TestLedgerGeometries:
    def test_no_worse_than_the_gaussian_stack(self, case, dtype):
        ops = case["ops"]
        tol1d, tol2d = GAUSSIAN_ERR[dtype]
        got1d = ops.fu1d(case["u"].astype(dtype))
        got2d = U.usfft2d_type2(case["slabs"].astype(dtype), ops.plan2d)
        assert got1d.dtype == got2d.dtype == dtype
        assert _rel(got1d, case["want1d"]) <= tol1d
        assert _rel(got2d, case["want2d"]) <= tol2d

    def test_adjoint_pairs_to_rounding(self, case, dtype):
        ops = case["ops"]
        g = ops.geometry
        rng = np.random.default_rng(1)
        u = case["u"].astype(dtype)
        u1 = _rand_complex(rng, (g.vol_shape[0], g.det_shape[0], g.vol_shape[2])).astype(dtype)
        u2 = _rand_complex(rng, g.data_shape).astype(dtype)
        for fwd, adj, x, y in (
            (ops.fu1d, ops.fu1d_adj, u, u1),
            (ops.fu2d, ops.fu2d_adj, u1, u2),
        ):
            lhs, rhs = np.vdot(y, fwd(x)), np.vdot(adj(y), x)
            assert abs(lhs - rhs) <= ADJOINT_TOL[dtype] * abs(lhs)

    def test_stencil_is_nine_taps_per_axis(self, case, dtype):
        plan = case["ops"].plan2d
        assert plan.half_width == case["ops"].plan1d.half_width == U.DEFAULT_HALF_WIDTH == 4
        block = plan.block_gather(0, 4, dtype)
        nnz_per_row = block.nnz / block.shape[0]
        if dtype == np.complex128:
            assert nnz_per_row == 81
        else:
            assert nnz_per_row < 81  # corners pruned below single-precision resolution


#: targets ``k + 1/4`` and ``k + 3/4`` sit exactly halfway between fine-grid
#: nodes at ``oversample=2``: a tap lands on the window's edge ``|t| == W``
def _with_half_node_lattice(rng, lo, hi, n_random, n_lattice):
    lattice = rng.integers(lo, hi, size=n_lattice) + rng.choice([0.25, 0.75], size=n_lattice)
    return np.concatenate([rng.uniform(lo, hi, size=n_random), lattice])


class TestWindowEdges:
    @given(seed=st.integers(0, 2**31 - 1), half_width=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_1d_half_node_and_out_of_band_targets(self, seed, half_width):
        rng = np.random.default_rng(seed)
        n = 16
        s = _with_half_node_lattice(rng, -2 * n, 2 * n, 9, 12)  # beyond [-n/2, n/2)
        plan = U.USFFT1DPlan(n, s, half_width=half_width)
        assert np.isfinite(plan.interp).all() and (plan.interp >= 0).all()
        assert np.count_nonzero(plan.interp, axis=1).max() <= 2 * half_width + 1
        f = _rand_complex(rng, (n,))
        y = _rand_complex(rng, (s.size,))
        got = U.usfft1d_type2(f, plan)
        # two decades per tap pair, from ~6e-3 at one pair
        assert _rel(got, U.dtft1d_direct(f, s)) <= 5e-2 * 100.0 ** (1 - half_width)
        lhs, rhs = np.vdot(y, got), np.vdot(U.usfft1d_type1(y, plan), f)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_2d_half_node_and_out_of_band_targets(self, seed):
        rng = np.random.default_rng(seed)
        n0, n1, nsl = 8, 12, 2
        pts = np.stack(
            [
                np.stack([_with_half_node_lattice(rng, -n, n, 7, 10) for _ in range(nsl)])
                for n in (n0, n1)
            ],
            axis=-1,
        )
        plan = U.USFFT2DPlan((n0, n1), pts)
        for w in plan._tap_w:  # per axis, (nslices, npts, taps)
            assert w.shape == (nsl, pts.shape[1], 2 * plan.half_width + 1)
            assert np.isfinite(w).all() and (w >= 0).all()
        f = _rand_complex(rng, (nsl, n0, n1))
        y = _rand_complex(rng, (nsl, pts.shape[1]))
        got = U.usfft2d_type2(f, plan)
        assert _rel(got, U.dtft2d_direct(f, pts)) <= 5e-8
        lhs, rhs = np.vdot(y, got), np.vdot(U.usfft2d_type1(y, plan), f)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("oversample", [2, 3, 4])
    @pytest.mark.parametrize("half_width", range(1, 13))
    def test_correction_is_real_and_positive_for_every_valid_width(self, half_width, oversample):
        n = 16
        beta = U._kernel_beta(half_width, oversample)
        corr = U._space_correction(n, oversample * n, half_width, beta)
        assert np.isfinite(corr).all() and (corr > 0).all()

    def test_beta_too_small_for_the_band_is_rejected(self):
        # pi*W/m = 7.07 at half_width=4, oversample=2: the window transform
        # would change sign inside the band
        with pytest.raises(ValueError, match="beta"):
            U._space_correction(16, 32, 4, 7.0)
