"""The census tool on a toy package, and (slow) the production lane of the
real one against the committed report."""

import os
import sys
import textwrap

import pytest

from benchmarks.census import (
    NOTHING,
    classify,
    executable,
    measure,
    parse_lists,
    read_allowlist,
    render,
)
from benchmarks.census.__main__ import ALLOWLIST, PACKAGE, main

PROD = '''
import os, signal, subprocess, sys, time
from toy import testonly

def main(ready):
    here(1)
    testonly.shared()
    subprocess.run([sys.executable, "-c", "from toy import prod; prod.in_child()"], check=True)
    child = subprocess.Popen(
        [sys.executable, "-c", f"from toy import prod; prod.until_killed({ready!r})"])
    while not os.path.exists(ready):
        time.sleep(0.01)
    child.send_signal(signal.SIGTERM)
    assert child.wait(timeout=10) == -signal.SIGTERM

def here(x):
    if x:
        return 1
    return unused()

def in_child():
    return 2

def until_killed(ready):
    open(ready, "w").close()
    time.sleep(30)

def unused():
    return 3
'''

TESTONLY = '''
def shared():
    return 1

def helper():
    return 2
'''

DEAD = '''
def never():
    return 0
'''


@pytest.fixture()
def toy(tmp_path):
    pkg = tmp_path / "toy"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    for name, source in (("prod", PROD), ("testonly", TESTONLY), ("dead", DEAD)):
        (pkg / f"{name}.py").write_text(textwrap.dedent(source).lstrip())
    return pkg


def test_classifier_on_a_toy_package(toy, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    ready = str(tmp_path / "ready")
    lanes = [
        ("production", measure(
            [[sys.executable, "-c", f"from toy import prod; prod.main({ready!r})"]],
            str(toy), str(tmp_path / "hits-prod"), env=env)),
        ("tests", measure(
            [[sys.executable, "-c",
              "from toy import testonly; testonly.helper(); testonly.shared()"]],
            str(toy), str(tmp_path / "hits-tests"), env=env)),
    ]
    lines, functions = executable(str(toy))
    per_path, per_lane = classify(lines, functions, lanes)
    names = {lane: {fn.name for fn in fns} for lane, fns in per_lane.items()}
    assert names == {
        # the main process, a spawned subprocess, a child stopped by SIGTERM
        "production": {"prod.py:main", "prod.py:here", "prod.py:in_child",
                       "prod.py:until_killed", "testonly.py:shared"},
        "tests": {"testonly.py:helper"},
        NOTHING: {"prod.py:unused", "dead.py:never"},
    }
    assert per_path["dead.py"] == {"production": 0, "tests": 0, NOTHING: len(lines["dead.py"])}
    assert per_path["testonly.py"]["tests"] == 1  # helper's body: its def line ran at import
    # in `here`, only the fall-through `return unused()` never ran; `unused` adds its body
    assert per_path["prod.py"][NOTHING] == 2

    report = render(per_path, per_lane, allow={"dead.py:never"}, header="toy census")
    assert report.startswith("toy census\nexecutable lines: ")
    assert "  dead.py:never  (2 lines) *\n" in report and "  prod.py:unused  (2 lines)\n" in report
    assert parse_lists(report) == {NOTHING: names[NOTHING], "tests": names["tests"]}


def test_a_failing_command_fails_the_lane(toy, tmp_path):
    with pytest.raises(RuntimeError, match="exited 3"):
        measure([[sys.executable, "-c", "raise SystemExit(3)"]], str(toy), str(tmp_path / "hits"))


def test_allowlist_names_exist():
    _lines, functions = executable(PACKAGE)
    assert read_allowlist(ALLOWLIST) <= {fn.name for fn in functions}


@pytest.mark.slow
def test_production_lane_against_the_committed_report():
    """Every function of ``src/repro`` is called by the production lane,
    listed under the figure or test lane of the committed report, or
    allowlisted (≈ 3 min: the ledger, the examples and the CLIs, traced)."""
    assert main(["--lanes", "production"]) == 0
