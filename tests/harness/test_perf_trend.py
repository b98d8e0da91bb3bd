"""Perf-trend gate over the committed benchmark history.

``run_all.py`` appends one compact record per run to
``benchmarks/results/history.jsonl``; ``python -m benchmarks.perf.trend``
fails CI when the latest comparable entry regressed ``best_s`` past the
threshold.  These tests pin the record schema, the comparison rules
(same ``--quick`` flag only, machine-fingerprint guard), and the gate's
exit codes.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

_REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if _REPO not in sys.path:  # `benchmarks` lives at the repo root, not in src/
    sys.path.insert(0, _REPO)

from benchmarks.perf import trend  # noqa: E402

MACHINE = {"platform": "linux-x", "python": "3.11", "numpy": "2.0",
           "scipy": "1.14", "cpus": 8}


def payload(best, quick=True, machine=None, t=1000):
    return {
        "schema": "mlr-bench-perf/2",
        "generated_unix": t,
        "quick": quick,
        "machine": dict(machine if machine is not None else MACHINE),
        "benchmarks": {
            name: {"optimized": {"best_s": s}, "baseline": {"best_s": s * 3},
                   "speedup": 3.0}
            for name, s in best.items()
        },
        "acceptance": {"e2e_speedup": 3.0},
    }


def write_history(path, payloads):
    for p in payloads:
        trend.append_history(p, path=str(path))


class TestHistoryRecords:
    def test_entry_compresses_payload(self):
        rec = trend.history_entry(payload({"a": 0.5, "b": 0.25}))
        assert rec["schema"] == trend.HISTORY_SCHEMA
        assert rec["best_s"] == {"a": 0.5, "b": 0.25}
        assert rec["quick"] is True
        assert rec["t"] == 1000
        assert rec["acceptance"] == {"e2e_speedup": 3.0}

    def test_append_and_load_roundtrip(self, tmp_path):
        path = tmp_path / "history.jsonl"
        write_history(path, [payload({"a": 0.5}), payload({"a": 0.4}, t=2000)])
        entries = trend.load_history(str(path))
        assert [e["t"] for e in entries] == [1000, 2000]

    def test_load_skips_foreign_schemas(self, tmp_path):
        path = tmp_path / "history.jsonl"
        write_history(path, [payload({"a": 0.5})])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"schema": "other/9", "best_s": {}}) + "\n\n")
        assert len(trend.load_history(str(path))) == 1

    def test_missing_file_is_empty(self, tmp_path):
        assert trend.load_history(str(tmp_path / "nope.jsonl")) == []


class TestCompare:
    def test_regression_past_threshold_is_reported(self):
        prev = trend.history_entry(payload({"a": 1.0, "b": 1.0}))
        cur = trend.history_entry(payload({"a": 1.3, "b": 1.1}))
        regs = trend.compare(prev, cur, threshold=0.25)
        assert [r["benchmark"] for r in regs] == ["a"]
        assert regs[0]["ratio"] == pytest.approx(1.3)

    def test_improvement_and_within_threshold_pass(self):
        prev = trend.history_entry(payload({"a": 1.0}))
        cur = trend.history_entry(payload({"a": 0.5}))
        assert trend.compare(prev, cur) == []

    def test_added_or_retired_benchmarks_are_not_regressions(self):
        prev = trend.history_entry(payload({"a": 1.0, "gone": 1.0}))
        cur = trend.history_entry(payload({"a": 1.0, "new": 99.0}))
        assert trend.compare(prev, cur) == []

    def test_retired_benchmarks_are_named(self, tmp_path, capsys):
        """A benchmark that disappears from the history (``mlr_solver_run``
        did) passes the gate, but not silently."""
        prev = trend.history_entry(payload({"a": 1.0, "gone": 1.0}))
        cur = trend.history_entry(payload({"a": 1.0, "new": 99.0}))
        assert trend.retired(prev, cur) == ["gone"]
        path = tmp_path / "history.jsonl"
        write_history(path, [payload({"a": 1.0, "gone": 1.0}),
                             payload({"a": 1.0}, t=2000)])
        assert trend.main(["--history", str(path)]) == 0
        out = capsys.readouterr().out
        assert "gone" in out and "no longer gated" in out

    def test_gauges_are_gated_like_timings(self):
        # a benchmark's lower-is-better sizes (solver_construction.operator_mb)
        def with_gauge(mb):
            p = payload({"a": 1.0})
            p["benchmarks"]["a"]["gauges"] = {"operator_mb": mb}
            return trend.history_entry(p)

        assert with_gauge(100.0)["gauges"] == {"a.operator_mb": 100.0}
        assert trend.compare(with_gauge(100.0), with_gauge(120.0)) == []
        regs = trend.compare(with_gauge(100.0), with_gauge(130.0))
        assert [r["benchmark"] for r in regs] == ["a.operator_mb"]
        # an entry from before gauges existed has nothing to compare against
        assert trend.compare(trend.history_entry(payload({"a": 1.0})), with_gauge(1e9)) == []

    def test_machine_fingerprint(self):
        a = trend.history_entry(payload({"x": 1.0}))
        b = trend.history_entry(payload({"x": 1.0}))
        assert trend.same_machine(a, b)
        other = dict(MACHINE, cpus=128)
        c = trend.history_entry(payload({"x": 1.0}, machine=other))
        assert not trend.same_machine(a, c)


class TestGateCli:
    def test_too_little_history_passes(self, tmp_path, capsys):
        path = tmp_path / "history.jsonl"
        write_history(path, [payload({"a": 1.0})])
        assert trend.main(["--history", str(path)]) == 0
        assert "nothing to compare" in capsys.readouterr().out

    def test_regression_fails_the_gate(self, tmp_path, capsys):
        path = tmp_path / "history.jsonl"
        write_history(path, [payload({"a": 1.0}), payload({"a": 2.0}, t=2000)])
        assert trend.main(["--history", str(path)]) == 1
        assert "REGRESSION a" in capsys.readouterr().out

    def test_stable_history_passes(self, tmp_path):
        path = tmp_path / "history.jsonl"
        write_history(path, [payload({"a": 1.0}), payload({"a": 1.1}, t=2000)])
        assert trend.main(["--history", str(path)]) == 0

    def test_compares_latest_same_quick_entry(self, tmp_path):
        # the full run between the two quick runs must not be the baseline
        path = tmp_path / "history.jsonl"
        write_history(path, [
            payload({"a": 1.0}, quick=True),
            payload({"a": 0.1}, quick=False, t=2000),
            payload({"a": 1.1}, quick=True, t=3000),
        ])
        assert trend.main(["--history", str(path)]) == 0

    def test_no_comparable_entry_passes(self, tmp_path, capsys):
        path = tmp_path / "history.jsonl"
        write_history(path, [payload({"a": 1.0}, quick=False),
                             payload({"a": 9.0}, quick=True, t=2000)])
        assert trend.main(["--history", str(path)]) == 0
        assert "matching --quick" in capsys.readouterr().out

    def test_machine_mismatch_warns_and_passes(self, tmp_path, capsys):
        path = tmp_path / "history.jsonl"
        write_history(path, [
            payload({"a": 1.0}),
            payload({"a": 9.0}, machine=dict(MACHINE, cpus=128), t=2000),
        ])
        assert trend.main(["--history", str(path)]) == 0
        assert "different machines" in capsys.readouterr().out
        assert trend.main(
            ["--history", str(path), "--strict-machine"]
        ) == 1

    def test_threshold_is_tunable(self, tmp_path):
        path = tmp_path / "history.jsonl"
        write_history(path, [payload({"a": 1.0}), payload({"a": 1.4}, t=2000)])
        assert trend.main(["--history", str(path)]) == 1
        assert trend.main(["--history", str(path), "--threshold", "0.5"]) == 0

    def test_committed_history_gate_passes(self):
        """The repo's own committed history must never fail the gate."""
        assert trend.main([]) == 0
