"""``python -m benchmarks.census`` — the reachability census of ``src/repro``.

All three lanes, the committed report rewritten (≈ 7 min)::

    python -m benchmarks.census

The first lane(s) against the committed report (what the slow test runs)::

    python -m benchmarks.census --lanes production

Exit code 0 only if every function of ``src/repro`` is called by a lane or
is on ``allowlist.txt``.  With fewer than all lanes the functions the
other lanes call are read from the committed report, and nothing is
written.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from . import NOTHING, classify, executable, measure, parse_lists, read_allowlist, render

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
PACKAGE = os.path.join(ROOT, "src", "repro")
REPORT = os.path.join(ROOT, "benchmarks", "results", "census.txt")
ALLOWLIST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "allowlist.txt")
LANES = ("production", "figures", "tests")

HEADER = """\
Reachability census of src/repro — regenerate with `python -m benchmarks.census`
(stdlib sys.settrace in every process of a lane, executable lines from
code.co_lines(); a line or function belongs to the first lane reaching it).

lanes
  production  python3 -m benchmarks.ledger --all --runs 1 --seconds 2 (4 workloads x trace 0/1),
              the six examples/*.py (--quick where they take it),
              python -m repro.analysis, python -m repro.obs report / heat on the demos' output
  figures     pytest benchmarks/test_*.py --benchmark-disable (the paper-figure regenerators)
  tests       pytest tests benchmarks/ledger

kept although production never reaches it, by decision and not by oversight:
reference implementations tests compare against (`_ref_*` / `reference_kernels`,
`FlatIndex`, `project_direct`, `dtft*_direct`, `cg_linear`); fig 12's
`GlobalMemoCache` baseline; the CNN encoder (`repro.nn`, ROADMAP 1(a) compares it);
`repro.faults` and `analysis/lockwitness` (test-lane safety tooling); every input
check and error handler; every name in benchmarks/ledger/tracing.py::SHIMS
(`MemoDatabase.query` / `.insert`, `RemoteMemoClient.flush` are tests-only here
but the ledger patches them).
"""


def commands(lane: str, scratch: str) -> list:
    """The argv lists of one lane; its artifacts go under ``scratch``."""
    py = sys.executable
    if lane == "figures":
        return [[py, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable",
                 "benchmarks", "--ignore=benchmarks/ledger", "--ignore=benchmarks/census"]]
    if lane == "tests":
        return [[py, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests", "benchmarks/ledger"]]
    obs_out = os.path.join(scratch, "observability")
    service_out = os.path.join(scratch, "service")
    return [
        [py, "-m", "benchmarks.ledger", "--all", "--runs", "1", "--seconds", "2",
         "--out", os.path.join(scratch, "ledger.json")],
        [py, "examples/quickstart.py"],
        [py, "examples/multi_gpu_scaling.py"],
        [py, "examples/ic_inspection.py"],
        [py, "examples/service_warmstart.py", "--quick", "--out", service_out],
        [py, "examples/remote_memo.py", "--quick", "--out", os.path.join(scratch, "remote-memo")],
        [py, "examples/observability_demo.py", "--quick", "--out", obs_out],
        [py, "-m", "repro.analysis"],
        [py, "-m", "repro.obs", "report", os.path.join(obs_out, "observability_demo.jsonl")],
        [py, "-m", "repro.obs", "heat", os.path.join(service_out, "snapshot")],
    ]


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.census", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--lanes", default=",".join(LANES),
                        help="a prefix of " + ",".join(LANES))
    args = parser.parse_args(argv)
    chosen = args.lanes.split(",")
    if not chosen[0] or chosen != list(LANES[:len(chosen)]):
        parser.error(f"--lanes takes a prefix of {','.join(LANES)}")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    lines, functions = executable(PACKAGE)
    measured = []
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        for lane in chosen:
            print(f"census: running the {lane} lane ...", flush=True)
            hits = measure(commands(lane, scratch), PACKAGE,
                           os.path.join(scratch, "hits", lane), cwd=ROOT, env=env)
            measured.append((lane, hits))
    per_path, per_lane = classify(lines, functions, measured)
    allow = read_allowlist(ALLOWLIST)
    report = render(per_path, per_lane, allow, HEADER)

    uncalled = {fn.name for fn in per_lane[NOTHING]}
    stale = set()
    if chosen == list(LANES):
        with open(REPORT, "w", encoding="utf-8") as fh:
            fh.write(report)
        print(report)
        stale = allow - uncalled
        if stale:
            print("allowlisted but called (or gone) — drop from allowlist.txt:\n  "
                  + "\n  ".join(sorted(stale)))
    else:
        print(report.split("\n[", 1)[0])
        with open(REPORT, encoding="utf-8") as fh:
            committed = parse_lists(fh.read())
        for lane in LANES[len(chosen):]:
            uncalled -= committed.get(lane, set())
    dead = sorted(uncalled - allow)
    if dead:
        print(f"{len(dead)} function(s) of src/repro are called by no lane and are not on "
              "benchmarks/census/allowlist.txt — delete them, test them, or (after a full "
              "`python -m benchmarks.census`) commit the new report:\n  " + "\n  ".join(dead))
    return 1 if dead or stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
