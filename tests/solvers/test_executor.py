"""One sweep driver: every full-array op, on either executor, returns the
values *and* the memory layout of the hand-sliced, concatenate-in-chunk-order
loop the executor is specified by."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.core import MemoConfig, MemoizedExecutor
from repro.lamino import LaminoGeometry, LaminoOperators, iter_chunks
from repro.lamino.chunking import SlabAssembler
from repro.solvers.executor import SWEEP_AXIS, DirectExecutor, operand_shape

# the sweep axes are 24, 16 and 12 long; the chunkings of them:
CHUNKS = {
    "ragged": 5,  # the last slab of every grid is short
    "even": 4,  # every slab is full
    "unit": 1,  # one row per slab
    "one-slab": 64,  # a single slab spans the whole axis
}

METHODS = {
    "Fu1D": "fu1d",
    "Fu1D*": "fu1d_adj",
    "Fu2D": "fu2d",
    "Fu2D*": "fu2d_adj",
    "F2D": "f2d",
    "F2D*": "f2d_adj",
}

def _direct(ops, chunk):
    return DirectExecutor(ops, chunk_size=chunk)


def _memo_2x2(ops, chunk):
    cfg = MemoConfig(
        tau=0.92, warmup_iterations=1, index_train_min=4, index_clusters=2,
        index_nprobe=2,
    )
    ex = MemoizedExecutor(ops, config=cfg, chunk_size=chunk, n_workers=2, n_shards=2)
    ex.begin_outer(1)  # past warmup: the sweeps really memoize
    ex.begin_inner(0)
    return ex


EXECUTORS = {"direct": _direct, "memo2x2": _memo_2x2}


@pytest.fixture(scope="module")
def ops():
    # a volume taller than the detector: the three sweep axes all differ
    return LaminoOperators(
        LaminoGeometry((24, 16, 16), n_angles=12, det_shape=(16, 16), tilt_deg=61.0)
    )


def _operand(shape, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
        np.complex64
    )


def _by_hand(ex, op, x, sub, chunk):
    """The executor's specification: slice the operand along its sweep axis,
    sweep the slabs through ``_sweep``, concatenate its output slabs in
    chunk order."""
    axis = SWEEP_AXIS[op]
    chunks = list(iter_chunks(x.shape[axis], chunk, axis=axis))
    if op == "Fu2D":
        slabs = {c.index: (c.take(x), c.take(sub)) for c in chunks}
    else:
        slabs = {c.index: c.take(x) for c in chunks}
    outs = {}
    assemble = SlabAssembler.__call__

    def tap(sink, c, out):
        outs[c.index] = out
        assemble(sink, c, out)

    with mock.patch.object(SlabAssembler, "__call__", tap):
        ex._sweep(op, x, lambda c: slabs[c.index])
    assert list(outs) == sorted(outs) == list(slabs)  # every chunk, in order
    return np.concatenate([outs[c.index] for c in chunks], axis=axis)


@pytest.mark.parametrize("make", EXECUTORS.values(), ids=EXECUTORS.keys())
@pytest.mark.parametrize("chunk", CHUNKS.values(), ids=CHUNKS.keys())
@pytest.mark.parametrize("op", METHODS)
def test_sweep_matches_the_hand_sliced_loop(ops, op, chunk, make):
    g = ops.geometry
    x = _operand(operand_shape(op, g), seed=1)
    sub = _operand(g.data_shape, seed=2) if op == "Fu2D" else None
    ref, ex = make(ops, chunk), make(ops, chunk)
    # twice: a memoized executor misses on the first sweep, serves the second
    for scale in (1.0, 1.5):
        xs = np.complex64(scale) * x
        want = _by_hand(ref, op, xs, sub, chunk)
        args = (xs, sub) if op == "Fu2D" else (xs,)
        got = getattr(ex, METHODS[op])(*args)
        assert np.array_equal(got, want)
        assert got.strides == want.strides  # the layout invariant
    assert ex.op_counts == ref.op_counts
    if isinstance(ex, MemoizedExecutor):
        assert ex.events == ref.events

