"""Streaming ingest and the memoized sweep, against the batch solver.

The acceptance properties of streaming ingest: a reconstruction fed block
by block from an acquisition thread is bit-identical to the batch one; a
consumer that fails, or is handed an ingest for another scan shape, never
leaves the producer blocked; and a memoized sweep abandoned mid-stream
leaks no state into the next one.  Alongside: the fleet shape (workers x
shards) changes nothing, and a trained encoder lands on the one executor.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import MemoConfig, MemoizedExecutor, MLRConfig, MLRSolver
from repro.lamino import LaminoGeometry, LaminoOperators, brain_like, iter_chunks, simulate_data
from repro.lamino.chunking import ArraySource
from repro.pipeline import QueueClosed, StreamingIngest
from repro.solvers import ADMMConfig

N = 16


@pytest.fixture(scope="module")
def problem():
    geometry = LaminoGeometry((N, N, N), n_angles=N, det_shape=(N, N), tilt_deg=61.0)
    truth = brain_like(geometry.vol_shape, seed=3)
    data = simulate_data(truth, geometry, noise_level=0.05, seed=1)
    return geometry, LaminoOperators(geometry), data


def _memo():
    return MemoConfig(
        tau=0.92, warmup_iterations=1, index_train_min=8,
        index_clusters=4, index_nprobe=2,
    )


def _admm(n_outer=4, **over):
    return ADMMConfig(n_outer=n_outer, n_inner=3, step_max_rel=4.0, **over)


def _solver(problem, n_workers=1, n_shards=1, n_outer=4, **admm_over):
    geometry, ops, _data = problem
    cfg = MLRConfig(chunk_size=4, memo=_memo(), n_workers=n_workers, n_shards=n_shards)
    return MLRSolver(geometry, cfg, admm=_admm(n_outer, **admm_over), ops=ops)


@pytest.fixture(scope="module")
def serial(problem):
    return _solver(problem).reconstruct(problem[2])


def _feed(ingest, blocks):
    """Push ``blocks`` from a producer thread; the returned list gains
    ``"unblocked"`` if the consumer tore the stream down under it."""
    outcome: list[str] = []

    def produce():
        try:
            for block in blocks:
                ingest.push(block)
            ingest.finish()
        except QueueClosed:
            outcome.append("unblocked")

    feeder = threading.Thread(target=produce)
    feeder.start()
    return feeder, outcome


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


class TestStreamingIngest:
    @pytest.mark.parametrize("cancellation", [True, False], ids=["cancel", "no-cancel"])
    @pytest.mark.parametrize(
        "block",
        [1, 3, 4, N],
        ids=["single-angle", "misaligned-blocks", "aligned-blocks", "whole-scan"],
    )
    def test_streaming_ingest_matches_batch(self, problem, block, cancellation):
        """Under cancellation the ``F2D`` sweep runs off the stream; without
        it (Algorithm 1) the stream only assembles ``d``."""
        data = problem[2]
        batch = _solver(problem, cancellation=cancellation, fusion=cancellation).reconstruct(data)
        solver = _solver(problem, cancellation=cancellation, fusion=cancellation)
        ingest = solver.make_ingest()
        feeder, outcome = _feed(ingest, [data[lo:lo + block] for lo in range(0, N, block)])
        result = solver.reconstruct_streaming(ingest)
        feeder.join(timeout=10)
        assert not feeder.is_alive()
        assert outcome == []
        assert np.array_equal(batch.u, result.u)
        assert batch.op_counts == result.op_counts

    def test_consumer_failure_unblocks_producer(self, problem):
        """If reconstruction dies mid-stream, the ingest is torn down so a
        producer blocked in push() sees QueueClosed instead of deadlocking."""
        data = problem[2]
        solver = _solver(problem)
        kernel = solver.executor.chunk_kernel("F2D")

        def failing_kernel(op):
            def run(chunk, payload):
                if chunk.index == 1:
                    raise OSError("transform died")
                return kernel(chunk, payload)

            return run

        solver.executor.chunk_kernel = failing_kernel  # the streamed F2D sweep's kernel
        ingest = solver.make_ingest(queue_depth=1)
        feeder, outcome = _feed(ingest, [data[lo:lo + 4] for lo in range(0, N, 4)])
        with pytest.raises(OSError, match="transform died"):
            solver.reconstruct_streaming(ingest)
        feeder.join(timeout=10)
        assert not feeder.is_alive()
        assert outcome == ["unblocked"]

    @pytest.mark.parametrize("cancellation", [True, False], ids=["cancel", "no-cancel"])
    @pytest.mark.parametrize(
        "scan",
        [(N // 2, N, N), (N + 4, N, N), (N, N, N + 4), (N, N - 4, N)],
        ids=["short-scan", "long-scan", "wider-frames", "shorter-frames"],
    )
    def test_mismatched_ingest_is_refused(self, problem, cancellation, scan):
        """An ingest declared for another scan shape is refused before
        anything is consumed — never reconstructed from uninitialised rows —
        and its producer is released."""
        solver = _solver(problem, cancellation=cancellation, fusion=cancellation)
        ingest = StreamingIngest(scan, chunk_size=4, queue_depth=1)
        blocks = [np.zeros((4, *scan[1:]), np.complex64)] * (scan[0] // 4)
        feeder, outcome = _feed(ingest, blocks)
        with pytest.raises(ValueError, match=r"ingest declares a .* scan, the geometry needs"):
            solver.reconstruct_streaming(ingest)
        feeder.join(timeout=10)
        assert not feeder.is_alive()
        assert outcome == ["unblocked"]


FLEETS = {"1x1": (1, 1), "2x1": (2, 1), "2x2": (2, 2), "3x2": (3, 2)}


def _executor(ops, n_workers, n_shards):
    ex = MemoizedExecutor(
        ops, config=_memo(), chunk_size=4, n_workers=n_workers, n_shards=n_shards
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


@pytest.mark.parametrize("fleet", FLEETS.values(), ids=FLEETS.keys())
class TestAbandonedSweep:
    """A memoized ``sweep_stream`` that dies mid-flight must not leak its
    buffered queries or coalesced keys into the executor's next sweep."""

    def test_source_dies_in_phase_a(self, problem, fleet):
        ops = problem[1]
        x1, x2 = _volume(1), _volume(2)
        ex, twin = _executor(ops, *fleet), _executor(ops, *fleet)
        ex.fu1d(x1)  # a healthy sweep fills each cache and tier
        twin.fu1d(x1)
        first_block = len(ex.assignment_for("Fu1D", N // 4).per_gpu[0])
        buffered = []

        def dying_source():
            for chunk, slab in ArraySource(x2, list(iter_chunks(N, 4))):
                if chunk.index == first_block - 1:
                    buffered.append(ex.workers[0].coalescer.pending)
                    raise OSError("detector link lost")
                yield chunk, slab

        with pytest.raises(OSError, match="detector link lost"):
            for _ in ex.sweep_stream("Fu1D", dying_source(), N // 4):
                pass
        assert buffered[0] > 0  # it died with queries buffered behind the coalescer
        _assert_no_leak(ex)
        # the next sweep is the healthy twin's, bit for bit
        assert np.array_equal(ex.fu1d(x2), twin.fu1d(x2))
        assert ex.events == twin.events
        assert ex.coalesce_stats() == twin.coalesce_stats()
        assert ex.db_stats_total().as_dict() == twin.db_stats_total().as_dict()

    def test_consumer_stops_mid_block(self, problem, fleet):
        ops = problem[1]
        x = _volume(1)
        ex, twin = _executor(ops, *fleet), _executor(ops, *fleet)
        ex.fu1d(x)
        twin.fu1d(x)
        sweep = ex.sweep_stream("Fu1D", ArraySource(x, list(iter_chunks(N, 4))), N // 4)
        next(sweep)  # one output of the first worker's block, then walk away
        sweep.close()
        _assert_no_leak(ex)
        twin.fu1d(x)  # the twin finishes that sweep healthily
        assert np.array_equal(ex.fu1d(x), twin.fu1d(x))
        assert ex.events[-(N // 4):] == twin.events[-(N // 4):]
        assert ex.coalesce_stats() == twin.coalesce_stats()
        assert ex.db_stats_total().as_dict() == twin.db_stats_total().as_dict()
