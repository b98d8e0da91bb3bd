"""Pipelined execution is bit-identical to the monolithic solver path.

The acceptance property of the streaming subsystem: for every executor
shape (single-worker memoized, distributed workers x shards) and every
queue depth, `pipeline=` mode reproduces the serial reconstruction bit for
bit — same volume, same memoization events — and the streaming-ingest
entry point matches the batch one.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import MemoConfig, MLRConfig, MLRSolver, PipelineConfig
from repro.lamino import LaminoGeometry, LaminoOperators, brain_like, simulate_data
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


def _admm(n_outer=4):
    return ADMMConfig(n_outer=n_outer, n_inner=3, step_max_rel=4.0)


def _solve(problem, pipeline=None, n_workers=1, n_shards=1, n_outer=4, admm=None):
    geometry, ops, data = problem
    cfg = MLRConfig(
        chunk_size=4, memo=_memo(), pipeline=pipeline,
        n_workers=n_workers, n_shards=n_shards,
    )
    solver = MLRSolver(geometry, cfg, admm=admm or _admm(n_outer), ops=ops)
    return solver, solver.reconstruct(data)


@pytest.fixture(scope="module")
def serial(problem):
    return _solve(problem)[1]


class TestPipelineEquivalence:
    @pytest.mark.parametrize("queue_depth", [1, 2, 4])
    def test_bit_identical_across_queue_depths(self, problem, serial, queue_depth):
        solver, result = _solve(problem, pipeline=PipelineConfig(queue_depth=queue_depth))
        assert np.array_equal(serial.u, result.u)
        assert serial.events == result.events
        assert serial.case_counts == result.case_counts
        stats = solver.executor.pipeline_stats()
        assert stats.items > 0 and stats.sweeps > 0

    def test_bit_identical_without_cancellation(self, problem):
        """Algorithm 1's space-domain residual runs all six operations —
        ``F2D`` / ``F2D*`` included — through the pipeline."""
        admm = ADMMConfig(n_outer=2, n_inner=2, step_max_rel=4.0, cancellation=False, fusion=False)
        _, plain = _solve(problem, admm=admm)
        solver, piped = _solve(problem, pipeline=PipelineConfig(queue_depth=2), admm=admm)
        assert np.array_equal(plain.u, piped.u)
        assert plain.events == piped.events
        assert {"F2D", "F2D*"} <= set(solver.executor.pipeline_op_stats)

    @pytest.mark.parametrize("n_workers,n_shards", [(2, 1), (2, 2), (3, 2)])
    def test_bit_identical_distributed_shapes(self, problem, serial, n_workers, n_shards):
        _, dist_serial = _solve(problem, n_workers=n_workers, n_shards=n_shards)
        _, dist_piped = _solve(
            problem, pipeline=PipelineConfig(queue_depth=2),
            n_workers=n_workers, n_shards=n_shards,
        )
        # the distributed sweep itself stays faithful to the 1x1 engine...
        assert np.array_equal(serial.u, dist_serial.u)
        # ...and pipelining it changes nothing, events included
        assert np.array_equal(dist_serial.u, dist_piped.u)
        assert dist_serial.events == dist_piped.events

    def test_memoization_active(self, serial):
        served = serial.case_counts.get("db_hit", 0) + serial.case_counts.get("cache_hit", 0)
        assert served > 0  # the equivalence is exercised on memoized sweeps

    def test_streaming_ingest_matches_batch(self, problem, serial):
        geometry, ops, data = problem
        cfg = MLRConfig(chunk_size=4, memo=_memo())
        solver = MLRSolver(geometry, cfg, admm=_admm(), ops=ops)
        ingest = solver.make_ingest()

        def produce():
            with ingest:
                for lo in range(0, N, 3):  # misaligned with chunk_size=4
                    ingest.push(data[lo:lo + 3])

        feeder = threading.Thread(target=produce)
        feeder.start()
        result = solver.reconstruct_streaming(ingest)
        feeder.join()
        assert np.array_equal(serial.u, result.u)
        assert serial.op_counts == result.op_counts

    def test_streaming_ingest_pipelined_executor(self, problem, serial):
        geometry, ops, data = problem
        cfg = MLRConfig(chunk_size=4, memo=_memo(), pipeline=PipelineConfig())
        solver = MLRSolver(geometry, cfg, admm=_admm(), ops=ops)
        ingest = solver.make_ingest()

        def produce():
            with ingest:
                ingest.push(data)  # whole scan in one block

        feeder = threading.Thread(target=produce)
        feeder.start()
        result = solver.reconstruct_streaming(ingest)
        feeder.join()
        assert np.array_equal(serial.u, result.u)

    def test_consumer_failure_unblocks_producer(self, problem):
        """If reconstruction dies mid-stream, the ingest is torn down so a
        producer blocked in push() sees QueueClosed instead of deadlocking."""
        from repro.pipeline import QueueClosed, StreamingIngest

        geometry, ops, data = problem
        solver = MLRSolver(geometry, MLRConfig(chunk_size=4, memo=_memo()),
                           admm=_admm(), ops=ops)
        # an ingest taller than the geometry: the consumer's slab placement
        # fails on the first out-of-range chunk
        ingest = StreamingIngest((2 * N, N, N), chunk_size=4, queue_depth=1)
        outcome = []

        def produce():
            try:
                for _lo in range(0, 2 * N, 4):
                    ingest.push(np.zeros((4, N, N), dtype=np.complex64))
                ingest.finish()
            except QueueClosed:
                outcome.append("unblocked")

        feeder = threading.Thread(target=produce)
        feeder.start()
        with pytest.raises(ValueError):
            solver.reconstruct_streaming(ingest)
        feeder.join(timeout=10)
        assert not feeder.is_alive()
        assert outcome == ["unblocked"]

    def test_abandoned_sweep_leaks_no_state(self, problem):
        """A pipelined sweep that dies mid-flight must not leak buffered
        queries/keys into the executor's next sweep."""
        from repro.core.memo_engine import MemoizedExecutor
        from repro.lamino import iter_chunks
        from repro.pipeline import ArraySource, ChunkPipeline

        geometry, ops, data = problem
        for make in (
            lambda: MemoizedExecutor(ops, config=_memo(), chunk_size=4),
            lambda: MemoizedExecutor(
                ops, config=_memo(), chunk_size=4, n_workers=2, n_shards=2
            ),
        ):
            ex = make()
            ex.begin_outer(ex.config.warmup_iterations)  # past warmup
            ex.begin_inner(0)
            u = np.zeros(geometry.vol_shape, dtype=np.complex64)
            ref = ex.fu1d(u)  # a healthy sweep populates the DB

            def dying_sink(chunk, value):
                raise OSError("disk full")

            pipe = ChunkPipeline(
                source=ArraySource(u, iter_chunks(N, 4)),
                sweep=lambda items: ex.sweep_stream("Fu1D", items, 4),
                sink=dying_sink,
                queue_depth=1,
            )
            with pytest.raises(OSError):
                pipe.run()
            assert all(not w.pending for w in ex.workers)
            assert ex.coalesce_stats().keys == sum(
                b for b in ex.coalesce_stats().batch_sizes
            )  # only *sent* keys are counted after the dead sweep
            # and the executor still works, bit-identically
            out = ex.fu1d(u)
            assert np.array_equal(ref, out)

    def test_train_encoder_reaches_the_pipelined_executor(self, problem):
        """Pipelining is a mode of the one executor: the trained encoder is
        installed on ``solver.executor`` itself, and the pipelined run then
        matches the serial one bit for bit."""
        geometry, ops, data = problem

        def trained_run(pipeline):
            cfg = MLRConfig(chunk_size=4, memo=_memo(), pipeline=pipeline)
            solver = MLRSolver(geometry, cfg, admm=_admm(n_outer=2), ops=ops)
            encoder = solver.train_encoder(data, harvest_iterations=1, n_epochs=1)
            assert solver.executor is solver.memo_executor
            assert solver.executor.encoder is encoder
            return solver.reconstruct(data)

        serial, piped = trained_run(None), trained_run(PipelineConfig())
        assert np.array_equal(serial.u, piped.u)
        assert serial.events == piped.events
