"""Gradient/divergence adjointness — the identity ADMM relies on."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solvers import div3, grad3, grad_norm


class TestShapes:
    def test_grad_adds_component_axis(self, rng):
        u = rng.standard_normal((4, 5, 6))
        assert grad3(u).shape == (3, 4, 5, 6)

    def test_div_removes_component_axis(self, rng):
        p = rng.standard_normal((3, 4, 5, 6))
        assert div3(p).shape == (4, 5, 6)

    def test_div_validates_leading_axis(self, rng):
        import pytest

        with pytest.raises(ValueError):
            div3(rng.standard_normal((2, 4, 4, 4)))


def _roll_grad3(u):
    """The definition: what ``grad3`` computed before it wrote slice
    differences straight into its output."""
    return np.stack([np.roll(u, -1, axis=c) - u for c in range(3)])


def _roll_div3(p):
    out = np.zeros(p.shape[1:], dtype=p.dtype)
    for c in range(3):
        out += p[c] - np.roll(p[c], 1, axis=c)
    return out


#: every axis from the shortest periodic one (2) up; 1 is the degenerate case
_shapes = st.tuples(*[st.integers(1, 7)] * 3) | st.permutations([2, 3, 6]).map(tuple)


def _field(rng, shape, dtype):
    x = rng.standard_normal(shape)
    if np.issubdtype(dtype, np.complexfloating):
        x = x + 1j * rng.standard_normal(shape)
    return x.astype(dtype)


class TestSliceDifferenceForm:
    @given(shape=_shapes, seed=st.integers(0, 2**31 - 1),
           dtype=st.sampled_from([np.complex64, np.complex128, np.float32]))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_roll_form(self, shape, seed, dtype):
        rng = np.random.default_rng(seed)
        u, p = _field(rng, shape, dtype), _field(rng, (3,) + shape, dtype)
        g, d = grad3(u), div3(p)
        assert g.dtype == u.dtype and d.dtype == p.dtype
        assert np.array_equal(g, _roll_grad3(u))
        assert np.array_equal(d, _roll_div3(p))

    def test_equals_the_roll_form_at_the_ledger_shape(self, rng):
        u = _field(rng, (64, 32, 64), np.complex64)
        p = _field(rng, (3, 64, 32, 64), np.complex64)
        assert np.array_equal(grad3(u), _roll_grad3(u))
        assert np.array_equal(div3(p), _roll_div3(p))

    def test_operands_are_not_written(self, rng):
        u, p = _field(rng, (4, 2, 6), np.complex64), _field(rng, (3, 4, 2, 6), np.complex64)
        u.setflags(write=False)
        p.setflags(write=False)
        grad3(u), div3(p)
        # a non-contiguous operand (a chunk view) reads the same
        wide = _field(rng, (4, 4, 6), np.complex64)
        assert np.array_equal(grad3(wide[:, ::2]), _roll_grad3(wide[:, ::2]))


class TestAdjointness:
    @given(shape=_shapes, seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_div_is_negative_adjoint_of_grad_on_any_shape(self, shape, seed):
        rng = np.random.default_rng(seed)
        u, p = _field(rng, shape, np.complex128), _field(rng, (3,) + shape, np.complex128)
        lhs = np.vdot(p, grad3(u))
        rhs = np.vdot(-div3(p), u)
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_div_is_negative_adjoint_of_grad(self, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((6, 5, 4)) + 1j * rng.standard_normal((6, 5, 4))
        p = rng.standard_normal((3, 6, 5, 4)) + 1j * rng.standard_normal((3, 6, 5, 4))
        lhs = np.vdot(p, grad3(u))
        rhs = np.vdot(-div3(p), u)
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)

    def test_constant_field_has_zero_gradient(self):
        u = np.full((4, 4, 4), 3.7)
        assert np.allclose(grad3(u), 0.0)

    def test_grad_norm_nonnegative(self, rng):
        g = grad3(rng.standard_normal((4, 4, 4)))
        assert (grad_norm(g) >= 0).all()

    def test_laplacian_eigenvalue_bound(self, rng):
        """lambda_max(grad^T grad) <= 12 — the bound LSP's step sizing uses."""
        u = rng.standard_normal((8, 8, 8))
        for _ in range(30):
            v = -div3(grad3(u))
            u = v / np.linalg.norm(v)
        lam = np.vdot(u, -div3(grad3(u))).real
        assert lam <= 12.0 + 1e-9
