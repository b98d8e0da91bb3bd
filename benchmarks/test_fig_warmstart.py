"""Cross-job warm start: the service's shared memo tier, quantified."""

import pytest

from benchmarks._util import emit
from repro.harness import experiments as E

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def warmstart():
    return E.fig_warmstart(sim_outer=8, quick=False)


def test_fig_warmstart(benchmark, warmstart):
    result = benchmark.pedantic(lambda: warmstart, iterations=1, rounds=1)
    emit("fig_warmstart", result.report())
    v = result.values

    # the acceptance bar: job 2's warm hit rate strictly beats its cold run
    assert v["warm_hit_rate"] > v["cold_hit_rate"]
    assert v["warm_gain"] > 0.0

    # warm start also beats job 1's own (within-run) hit rate — the
    # cross-job recurrence is real signal, not just within-run reuse
    assert v["warm_hit_rate"] > v["first_job_hit_rate"]


def test_fig_warmstart_traffic_sane(warmstart):
    v = warmstart.values
    rows = {(r[0], r[1]): r for r in v["job_rows"]}
    warm = rows[("scan-2", "service (warm)")]
    cold = rows[("scan-2", "standalone cold")]
    # both runs issued real query traffic
    assert warm[2] > 0 and cold[2] > 0
    # the warm job started on a populated tier, the cold one on an empty one
    assert warm[5] > 0 and cold[5] == 0
