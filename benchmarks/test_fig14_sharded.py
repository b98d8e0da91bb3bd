"""Figure 14 companion: multi-worker execution over a sharded memo service."""

import pytest

from benchmarks._util import emit
from repro.harness import experiments as E

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def sharded():
    return E.fig14_sharded(
        n_workers=4,
        n_shards=2,
        grid_workers=(1, 2, 4, 8, 16),
        grid_shards=(1, 2, 4),
        sim_outer=10,
        quick=False,
    )


def test_fig14_sharded(benchmark, sharded):
    result = benchmark.pedantic(lambda: sharded, iterations=1, rounds=1)
    emit("fig14_sharded", result.report())

    # the numeric run really executed >= 4 workers x >= 2 shards
    assert result.n_workers >= 4 and result.n_shards >= 2

    # every shard served traffic and reports a sane hit rate
    assert len(result.shard_hit_rates) == result.n_shards
    assert all(q > 0 for q in result.shard_queries)
    assert all(0.0 <= hr <= 1.0 for hr in result.shard_hit_rates)
    assert sum(result.shard_entries) > 0

    # every worker coalesced keys into messages (batch stats are per worker)
    assert len(result.worker_keys) == result.n_workers
    assert all(k > 0 for k in result.worker_keys)
    assert all(m > 0 for m in result.worker_messages)
    assert all(b >= 1.0 for b in result.worker_mean_batch)

    # memoization actually served chunk-ops in the numeric run
    served = result.case_counts.get("db_hit", 0) + result.case_counts.get("cache_hit", 0)
    assert served > 0


def test_fig14_sharded_scaling_surface(sharded):
    # workers scale: more workers never slow the iteration down
    for s in sharded.grid_shards:
        times = [sharded.lsp_times[(w, s)] for w in sharded.grid_workers]
        assert times[-1] < times[0]
    # shards scale: at any worker count, sharding the index never hurts
    for w in sharded.grid_workers:
        t1 = sharded.lsp_times[(w, sharded.grid_shards[0])]
        tn = sharded.lsp_times[(w, sharded.grid_shards[-1])]
        assert tn <= t1 * 1.001
