"""Smoke test of the perf ledger: every workload at a toy geometry, one timed
and one traced job each, against the metric tables of ``BENCHMARK.json``."""

import importlib
import json
import math
import os
import re

import pytest

from benchmarks.ledger import compare
from benchmarks.ledger.metrics import END_TO_END, PER_LAYER
from benchmarks.ledger.runner import run
from benchmarks.ledger.tracing import SHIMS
from benchmarks.ledger.workloads import RUN_SECONDS, WORKLOADS

#: per-layer metrics that must be non-zero where the layer does work (every
#: other undeclared value defaults to 0, the bypassed-layer reading)
WORKS = {
    "admm_direct": ("lamino.plan_build_s", "lamino.fu2d_calls", "solvers.run_s"),
    "mlr_cold": ("memo.encode_calls", "memo.db_inserts", "memo.misses", "kvstore.put_s"),
    "mlr_tcp": ("net.requests", "net.query_batches", "net.insert_batch_s", "memo.db_inserts"),
    "service_warm": ("service.run_s", "service.seed_s", "service.absorb_s",
                     "lamino.plan_builds", "service.tier_entries_end", "service.snapshot_mb"),
}

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _shim_targets() -> list:
    out = []
    for module, owner_name, attr, _span in SHIMS:
        owner = importlib.import_module(module)
        if owner_name is not None:
            owner = getattr(owner, owner_name)
        out.append((owner, attr, vars(owner)[attr]))
    return out


def test_manifest_matches_the_metric_tables(manifest):
    assert manifest["paths"] == ["benchmarks/ledger"]
    assert manifest["run_seconds"] == RUN_SECONDS
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]} \
        == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]} \
        == {n: v[:2] for n, v in PER_LAYER.items()}
    # set-up time carries the largest bound (only its median is gated)
    assert END_TO_END["setup_s"][2] == max(v[2] for v in END_TO_END.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_emits_every_declared_metric(name, manifest):
    originals = _shim_targets()
    for trace, declared in ((False, manifest["end_to_end"]), (True, manifest["per_layer"])):
        record = run(name, seed=0, seconds=1, trace=trace, tiny=True)
        failing = {k: c for k, c in record["checks"].items() if not c["ok"]}
        assert record["correct"] and record["failed"] == 0, failing
        assert record["attempted"] >= 1
        assert set(record["metrics"]) == {m["name"] for m in declared}
        units = {m["name"]: m["unit"] for m in declared}
        for metric, m in record["metrics"].items():
            assert NAME.fullmatch(metric)
            assert math.isfinite(m["value"]), metric
            assert m["unit"] == units[metric]
        if trace:
            assert any(s[2] == "solvers.run" for s in record["spans"])
            for metric in WORKS[name]:
                assert record["metrics"][metric]["value"] > 0, metric
    # the traced phase left no shim behind: the very same objects are back
    for owner, attr, raw in originals:
        assert vars(owner)[attr] is raw, (owner, attr)


def test_compare_of_a_set_with_itself_and_with_a_failed_one(tmp_path, capsys):
    runs = [run("admm_direct", seed=0, seconds=1, trace=t, tiny=True) for t in (False, True)]
    for record in runs:
        record.pop("spans")

    def write(name, runs):
        path = tmp_path / name
        path.write_text(json.dumps({"runs": runs}))
        return str(path)

    good = write("good.json", runs)
    assert compare.compare(good, good) == 0
    out = capsys.readouterr().out
    assert "within-bound" in out and "DIFFERS" not in out and "FAILED" not in out
    assert compare.summary({"runs": runs}) == 0

    # a run that failed a check, and one that measured nothing, fail the comparison
    failed_check = dict(runs[0], correct=False, failed=1)
    assert compare.compare(good, write("failed.json", [failed_check, runs[1]])) == 1
    assert "FAILED B admm_direct" in capsys.readouterr().out
    assert compare.summary({"runs": [failed_check]}) == 1
    no_metrics = dict(runs[0], correct=False, failed=1, metrics={})
    assert compare.compare(good, write("empty.json", [no_metrics, runs[1]])) == 1
    assert "MISSING from B" in capsys.readouterr().out
