"""Key pipeline: pooling fidelity, linearity, encoder contracts."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PoolKeyEncoder, chunk_to_image, chunk_to_stack, pool3d
from repro.solvers.metrics import cosine_similarity


def _rand_chunk(rng, shape=(4, 16, 16)):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
        np.complex64
    )


class TestPool3D:
    def test_target_shape(self, rng):
        out = pool3d(_rand_chunk(rng, (8, 16, 16)), (4, 8, 8))
        assert out.shape == (4, 8, 8)

    def test_thin_axes_kept(self, rng):
        out = pool3d(_rand_chunk(rng, (2, 16, 16)), (8, 8, 8))
        assert out.shape == (2, 8, 8)

    def test_preserves_mean(self, rng):
        c = _rand_chunk(rng, (4, 8, 8))
        out = pool3d(c, (2, 4, 4))
        assert np.isclose(out.mean(), c.mean(), rtol=1e-5)

    def test_constant_chunk_pools_to_constant(self):
        c = np.full((4, 8, 8), 2.5 + 1j, dtype=np.complex64)
        out = pool3d(c, (2, 4, 4))
        np.testing.assert_allclose(out, 2.5 + 1j, rtol=1e-6)

    def test_rejects_non_3d(self, rng):
        with pytest.raises(ValueError):
            pool3d(rng.standard_normal((4, 4)), (2, 2, 2))

    def test_linearity(self, rng):
        a = _rand_chunk(rng)
        b = _rand_chunk(rng)
        lhs = pool3d(2 * a + 3 * b, (2, 4, 4))
        rhs = 2 * pool3d(a, (2, 4, 4)) + 3 * pool3d(b, (2, 4, 4))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-4)

    def test_padding_path(self, rng):
        # non-divisible shapes pad with zeros and still produce target bins
        out = pool3d(_rand_chunk(rng, (5, 9, 7)), (2, 4, 4))
        assert out.shape == (2, 4, 4)


class TestChunkToImage:
    def test_shape(self, rng):
        img = chunk_to_image(_rand_chunk(rng), 8)
        assert img.shape == (8, 8)

    def test_stack_shape(self, rng):
        st_ = chunk_to_stack(_rand_chunk(rng, (8, 16, 16)), 8, depth=4)
        assert st_.shape == (4, 8, 8)


class TestPoolKeyEncoder:
    def test_key_is_float32_vector(self, rng):
        enc = PoolKeyEncoder(key_hw=4, depth=4)
        key = enc.encode(_rand_chunk(rng))
        assert key.dtype == np.float32
        assert key.ndim == 1

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PoolKeyEncoder(key_hw=1)
        with pytest.raises(ValueError):
            PoolKeyEncoder(depth=0)

    def test_key_is_mean_removed(self, rng):
        enc = PoolKeyEncoder(key_hw=4, depth=2)
        key = enc.encode(_rand_chunk(rng) + 100.0)  # huge DC offset
        # mean removal: adding a constant must not change the key direction
        key0 = enc.encode(_rand_chunk(rng))
        assert abs(key.mean()) < 1e-3 * np.abs(key).max()
        del key0

    def test_dc_invariance(self, rng):
        enc = PoolKeyEncoder(key_hw=4, depth=2)
        c = _rand_chunk(rng)
        k1 = enc.encode(c)
        k2 = enc.encode(c + (3.0 - 2.0j))
        np.testing.assert_allclose(k1, k2, atol=1e-3)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_key_similarity_tracks_chunk_similarity(self, seed):
        """The gate-fidelity property: cosine similarity of keys approximates
        cosine similarity of (mean-removed) chunks."""
        rng = np.random.default_rng(seed)
        base = _rand_chunk(rng, (4, 16, 16))
        other = base + 0.3 * _rand_chunk(rng, (4, 16, 16))
        enc = PoolKeyEncoder(key_hw=16, depth=4)
        key_cs = cosine_similarity(enc.encode(base), enc.encode(other))
        a = base - base.mean()
        b = other - other.mean()
        chunk_cs = cosine_similarity(a, b)
        assert key_cs == pytest.approx(chunk_cs, abs=0.05)

    def test_identical_chunks_have_cs_one(self, rng):
        enc = PoolKeyEncoder()
        c = _rand_chunk(rng, (16, 16, 16))
        # the default keeps the memo engine's 16 depth bins of a deep chunk
        assert enc.encode(c).size == enc.dim == 2 * 16 * 8 * 8
        assert cosine_similarity(enc.encode(c), enc.encode(c.copy())) == pytest.approx(1.0)
