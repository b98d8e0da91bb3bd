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
    v = result.values

    # the numeric run really executed >= 4 workers x >= 2 shards
    assert v["n_workers"] >= 4 and v["n_shards"] >= 2

    # every shard served traffic and reports a sane hit rate
    assert len(v["shard_hit_rates"]) == v["n_shards"]
    assert all(q > 0 for q in v["shard_queries"])
    assert all(0.0 <= hr <= 1.0 for hr in v["shard_hit_rates"])
    assert sum(v["shard_entries"]) > 0

    # every worker coalesced keys into messages (batch stats are per worker)
    assert len(v["worker_keys"]) == v["n_workers"]
    assert all(k > 0 for k in v["worker_keys"])
    assert all(m > 0 for m in v["worker_messages"])
    assert all(b >= 1.0 for b in v["worker_mean_batch"])

    # memoization actually served chunk-ops in the numeric run
    served = v["case_counts"].get("db_hit", 0) + v["case_counts"].get("cache_hit", 0)
    assert served > 0


def test_fig14_sharded_scaling_surface(sharded):
    v = sharded.values
    # workers scale: more workers never slow the iteration down
    for s in v["grid_shards"]:
        times = [v["lsp_times"][(w, s)] for w in v["grid_workers"]]
        assert times[-1] < times[0]
    # shards scale: at any worker count, sharding the index never hurts
    for w in v["grid_workers"]:
        t1 = v["lsp_times"][(w, v["grid_shards"][0])]
        tn = v["lsp_times"][(w, v["grid_shards"][-1])]
        assert tn <= t1 * 1.001
