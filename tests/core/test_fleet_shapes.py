"""The fleet shape (workers x shards) of the one memoized executor.

A reconstruction is bit-identical at every fleet shape, a trained encoder
lands on the one executor, and a memoized sweep that dies inside — an
encoder failing in phase A, a kernel failing in phase B, a tier call
failing at a message boundary — leaks no buffered query or coalesced key
into the executor's next sweep.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MemoConfig, MemoizedExecutor, MLRConfig, MLRSolver
from repro.lamino import LaminoGeometry, LaminoOperators, brain_like, simulate_data
from repro.solvers import ADMMConfig

N = 16


@pytest.fixture(scope="module")
def problem():
    geometry = LaminoGeometry((N, N, N), n_angles=N, det_shape=(N, N), tilt_deg=61.0)
    truth = brain_like(geometry.vol_shape, seed=3)
    data = simulate_data(truth, geometry, noise_level=0.05, seed=1)
    return geometry, LaminoOperators(geometry), data


def _memo(**over):
    return MemoConfig(
        tau=0.92, warmup_iterations=1, index_train_min=8,
        index_clusters=4, index_nprobe=2, **over,
    )


def _solver(problem, n_workers=1, n_shards=1, n_outer=4):
    geometry, ops, _data = problem
    cfg = MLRConfig(chunk_size=4, memo=_memo(), n_workers=n_workers, n_shards=n_shards)
    admm = ADMMConfig(n_outer=n_outer, n_inner=3, step_max_rel=4.0)
    return MLRSolver(geometry, cfg, admm=admm, ops=ops)


@pytest.fixture(scope="module")
def serial(problem):
    return _solver(problem).reconstruct(problem[2])


class TestFleetShapes:
    def test_memoization_active(self, serial):
        served = serial.case_counts.get("db_hit", 0) + serial.case_counts.get("cache_hit", 0)
        assert served > 0  # the equivalences below are exercised on memoized sweeps

    @pytest.mark.parametrize("n_workers,n_shards", [(2, 1), (2, 2), (3, 2)])
    def test_bit_identical_distributed_shapes(self, problem, serial, n_workers, n_shards):
        dist = _solver(problem, n_workers=n_workers, n_shards=n_shards).reconstruct(problem[2])
        assert np.array_equal(serial.u, dist.u)
        assert serial.case_counts == dist.case_counts

    def test_train_encoder_reaches_the_executor(self, problem):
        """The trained encoder is installed on ``solver.executor`` itself —
        the one executor the ADMM driver sweeps through."""
        solver = _solver(problem, n_outer=2)
        encoder = solver.train_encoder(problem[2], harvest_iterations=1, n_epochs=1)
        assert solver.executor is solver.memo_executor
        assert solver.executor is solver.solver.executor
        assert solver.executor.encoder is encoder
        assert np.isfinite(solver.reconstruct(problem[2]).u).all()


FLEETS = {"1x1": (1, 1), "2x1": (2, 1), "2x2": (2, 2), "3x2": (3, 2)}


def _executor(ops, n_workers, n_shards):
    # the sweeps below are Fu1D's, which the default does not memoize
    memo = _memo(memo_ops=("Fu1D", "Fu2D", "Fu2D*", "Fu1D*"))
    ex = MemoizedExecutor(
        ops, config=memo, chunk_size=4, n_workers=n_workers, n_shards=n_shards
    )
    ex.begin_outer(ex.config.warmup_iterations)  # past warmup: the sweeps memoize
    ex.begin_inner(0)
    return ex


def _volume(seed):
    rng = np.random.default_rng(seed)
    shape = (N, N, N)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(np.complex64)


def _assert_no_leak(ex):
    assert all(not w.pending and not w.coalescer.pending for w in ex.workers)
    stats = ex.coalesce_stats()
    assert stats.keys == sum(stats.batch_sizes)  # only *sent* keys are counted


def _fu1d_sweep(ex, x):
    """One ``Fu1D`` sweep, and what it added to the executor's record: its
    events, its key messages and its tier traffic."""
    n_events, msgs, db = len(ex.events), ex.coalesce_stats(), ex.db_stats_total()
    out = ex.fu1d(x)
    after = ex.coalesce_stats()
    sent = (after.keys - msgs.keys, after.messages - msgs.messages,
            after.bytes_sent - msgs.bytes_sent, after.batch_sizes[len(msgs.batch_sizes):])
    return out, ex.events[n_events:], sent, ex.db_stats_total().delta(db).as_dict()


@pytest.mark.parametrize("fleet", FLEETS.values(), ids=FLEETS.keys())
@pytest.mark.parametrize("where", ["encoder", "encoder-first", "kernel", "tier"])
def test_a_sweep_that_dies_inside_leaks_nothing(problem, fleet, where):
    """A memoized sweep dies inside: the encoder at the last chunk of the
    first worker's phase A (with keys buffered behind its coalescer) or at
    its first chunk (nothing buffered yet), the kernel at the first miss of
    phase B, or the tier at the first message.  It leaves no pending query
    or coalesced key, and the next sweep is a healthy twin's, bit for bit."""
    ops = problem[1]
    x1, x2 = _volume(1), _volume(2)
    ex, twin = _executor(ops, *fleet), _executor(ops, *fleet)
    ex.fu1d(x1)  # a healthy sweep fills each cache and tier
    twin.fu1d(x1)
    first_block = len(ex.assignment_for("Fu1D", N // 4).per_gpu[0])
    target, name, fail_at = {
        "encoder": (ex.encoder, "encode", first_block),
        "encoder-first": (ex.encoder, "encode", 1),
        "kernel": (ex, "_run_fu1d", 1),
        "tier": (ex.router, "query_batch", 1),
    }[where]
    real, calls, buffered = getattr(target, name), [], []

    def failing(*args):
        calls.append(args)
        if len(calls) == fail_at:
            buffered.append(sum(len(w.pending) for w in ex.workers))
            raise OSError(f"{where} died")
        return real(*args)

    setattr(target, name, failing)
    with pytest.raises(OSError, match=f"{where} died"):
        ex.fu1d(x2)
    delattr(target, name)
    # encoder and tier die with queries buffered; phase B runs after the
    # flush, and the first encode comes before any query
    assert (buffered[0] > 0) == (where in ("encoder", "tier"))
    _assert_no_leak(ex)
    # the next sweep is the healthy twin's: output, events, messages, tier traffic
    got, want = _fu1d_sweep(ex, x2), _fu1d_sweep(twin, x2)
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]
