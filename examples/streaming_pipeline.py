"""Streaming ingest: reconstruct while the scan is still arriving.

Projections arrive block by block from a producer thread (the "detector"),
the ``F2D`` preprocessing runs on early chunks before the scan finishes,
and the reconstruction matches the batch run bit for bit (asserted below).
An ingest declared for another scan shape is refused before anything is
consumed, and its producer is released.

Run:  python examples/streaming_pipeline.py [--quick]
"""

import argparse
import threading

import numpy as np

from repro.core import MemoConfig, MLRConfig, MLRSolver
from repro.lamino import LaminoGeometry, LaminoOperators, brain_like, simulate_data
from repro.pipeline import QueueClosed, StreamingIngest
from repro.solvers import ADMMConfig


def feed(ingest, data, block) -> threading.Thread:
    """Push ``data`` in ``block``-angle blocks from a detector thread."""

    def detector() -> None:
        try:
            with ingest:
                for lo in range(0, data.shape[0], block):
                    ingest.push(data[lo:lo + block])
        except QueueClosed:
            print("  detector released: the consumer tore the stream down")

    feeder = threading.Thread(target=detector, name="detector")
    feeder.start()
    return feeder


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller/faster run")
    args = parser.parse_args()

    n = 16 if args.quick else 32
    n_outer = 4 if args.quick else 10
    geometry = LaminoGeometry((n, n, n), n_angles=n, det_shape=(n, n), tilt_deg=61.0)
    data = simulate_data(brain_like(geometry.vol_shape, seed=3), geometry,
                         noise_level=0.05, seed=1)
    ops = LaminoOperators(geometry)
    admm = ADMMConfig(n_outer=n_outer, n_inner=4, step_max_rel=4.0)
    memo = MemoConfig(tau=0.92, warmup_iterations=2,
                      index_train_min=8, index_clusters=4, index_nprobe=2)
    config = MLRConfig(chunk_size=4, memo=memo)

    batch = MLRSolver(geometry, config, admm=admm, ops=ops).reconstruct(data)

    # -- reconstruct while the scan arrives ---------------------------------------
    solver = MLRSolver(geometry, config, admm=admm, ops=ops)
    ingest = solver.make_ingest()
    feeder = feed(ingest, data, block=3)  # deliberately misaligned with the chunk grid
    try:
        streamed = solver.reconstruct_streaming(ingest)
    finally:
        feeder.join()
    assert np.array_equal(batch.u, streamed.u), "streaming must match batch"
    print(f"streaming ingest ({ingest.n_chunks} chunks, 3-angle blocks) == "
          f"batch reconstruction bit-for-bit, memoization served "
          f"{100 * streamed.memoized_fraction:.0f}% of chunk-ops")

    # -- a scan of the wrong shape is refused up front ------------------------------
    short = StreamingIngest((n // 2, n, n), chunk_size=4, queue_depth=1)
    feeder = feed(short, data[: n // 2], block=4)
    try:
        solver.reconstruct_streaming(short)
    except ValueError as exc:
        print(f"short scan refused: {exc}")
    else:
        raise AssertionError("a short scan must be refused")
    finally:
        feeder.join()


if __name__ == "__main__":
    main()
