"""Figure 18: streaming pipelined reconstruction — overlap study."""

import pytest

from benchmarks._util import emit
from repro.harness import experiments as E

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def overlap():
    return E.fig18_pipeline_overlap(
        queue_depths=(1, 2, 4),
        worker_counts=(1, 2, 4),
        sim_outer=8,
        quick=False,
    )


def test_fig18_pipeline_overlap(benchmark, overlap):
    result = benchmark.pedantic(lambda: overlap, iterations=1, rounds=1)
    emit("fig18_pipeline_overlap", result.report())
    # timing-dependent, so printed here and kept out of the saved report
    print(f"{result.read_backpressure} reader backpressure stalls")

    # the functional pipelined run is bit-identical to the monolithic path,
    # and the streaming-ingest run matches the batch reconstruction
    assert result.bitwise_identical
    assert result.streaming_identical
    assert result.pipeline_items > 0

    # memoization still served chunk-ops through the pipeline
    served = result.case_counts.get("db_hit", 0) + result.case_counts.get("cache_hit", 0)
    assert served > 0


def test_fig18_overlap_model(overlap):
    # modeled I/O is nonzero, so pipelining must beat the serial makespan...
    assert overlap.io_time > 0
    for perf in overlap.perfs.values():
        assert perf.pipelined_time < perf.serial_time
        # ...but never beyond what hiding all-but-the-bottleneck permits
        assert perf.speedup <= perf.speedup_bound * (1 + 1e-9)
        assert perf.pipelined_time >= perf.bottleneck_time * (1 - 1e-9)

    # deeper queues never hurt at fixed worker count
    for w in overlap.worker_counts:
        times = [overlap.perfs[(q, w)].pipelined_time for q in overlap.queue_depths]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(times, times[1:]))
