"""Reachability census: which lines of a package does anything run?

``python -m benchmarks.census`` runs three *lanes* of commands — the
production entry points, the paper-figure regenerators, the unit tests —
with :mod:`benchmarks.census.hook.sitecustomize` first on ``PYTHONPATH``,
so every process of a lane (and every process those spawn) records the
lines it executes.  A line belongs to the first lane that reaches it;
what no lane reaches is dead, and a *function* no lane calls must be on
``allowlist.txt`` beside this file or the census fails.

This module is the measuring and classifying half and knows nothing about
this repository's commands (``__main__`` holds those): stdlib only, and
the unit test drives it on a three-file toy package.
"""

from __future__ import annotations

import json
import os
import subprocess
from dataclasses import dataclass, field

__all__ = [
    "HOOK_DIR", "NOTHING", "Function", "Hits",
    "executable", "measure", "classify", "render", "parse_lists", "read_allowlist",
]

HOOK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "hook")
NOTHING = "nothing"


@dataclass(frozen=True)
class Function:
    """One ``def`` / class body of the package: ``name`` is
    ``<path under the package>:<qualname>``."""

    name: str
    path: str
    firstlineno: int
    lines: frozenset


@dataclass
class Hits:
    """What one lane reached: line numbers and first lines of called code
    objects, per path under the package."""

    lines: dict = field(default_factory=dict)
    calls: dict = field(default_factory=dict)

    def add(self, raw: dict) -> None:
        for mine, theirs in ((self.lines, raw["lines"]), (self.calls, raw["calls"])):
            for path, numbers in theirs.items():
                mine.setdefault(path, set()).update(numbers)


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_objects(const)


def _lines(code) -> set:
    """Line numbers (>= 1) that carry bytecode of ``code`` and what it nests."""
    return {ln for inner in _code_objects(code) for _, _, ln in inner.co_lines() if ln}


def executable(package_dir: str) -> tuple[dict, list]:
    """``({path: lines that carry bytecode}, [Function, ...])`` of every
    ``*.py`` under ``package_dir``, from ``code.co_lines()`` of the compiled
    source — the same numbers the recorder's line events carry."""
    lines: dict = {}
    functions: list = []
    for dirpath, dirnames, filenames in os.walk(package_dir):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            full = os.path.join(dirpath, filename)
            rel = os.path.relpath(full, package_dir)
            with open(full, encoding="utf-8") as fh:
                module = compile(fh.read(), full, "exec")
            lines[rel] = _lines(module)
            functions.extend(
                Function(f"{rel}:{code.co_qualname}", rel, code.co_firstlineno,
                         frozenset(_lines(code)))
                for code in _code_objects(module)
                if not code.co_name.startswith("<")
            )
    return lines, functions


def measure(commands: list, package_dir: str, out_dir: str, cwd: str | None = None,
            env: dict | None = None) -> Hits:
    """Run ``commands`` (argv lists) one after another with the recorder
    installed and return everything they and their subprocesses reached
    under ``package_dir``.  A command that exits non-zero is an error: a
    lane that failed half way would report live code as dead."""
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = HOOK_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CENSUS_OUT"] = os.path.abspath(out_dir)
    env["REPRO_CENSUS_ROOT"] = os.path.abspath(package_dir)
    for argv in commands:
        proc = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            raise RuntimeError(
                f"census command {' '.join(argv)} exited {proc.returncode}:\n"
                + proc.stdout[-4000:]
            )
    hits = Hits()
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("hits-") and name.endswith(".json"):
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                hits.add(json.load(fh))
    return hits


def classify(lines: dict, functions: list, lanes: list) -> tuple[dict, dict]:
    """Give every executable line and every function the first lane of
    ``lanes`` (``[(name, Hits), ...]``) that reached it, or ``"nothing"``.

    Returns ``({path: {lane: line count}}, {lane: [Function, ...]})``."""
    names = [name for name, _ in lanes] + [NOTHING]
    per_path: dict = {}
    for path, executable_lines in lines.items():
        left = set(executable_lines)
        counts = per_path[path] = dict.fromkeys(names, 0)
        for name, hits in lanes:
            reached = left & hits.lines.get(path, set())
            counts[name] = len(reached)
            left -= reached
        counts[NOTHING] = len(left)
    per_lane: dict = {name: [] for name in names}
    for fn in functions:
        for name, hits in lanes:
            if fn.firstlineno in hits.calls.get(fn.path, ()):
                per_lane[name].append(fn)
                break
        else:
            per_lane[NOTHING].append(fn)
    return per_path, per_lane


def render(per_path: dict, per_lane: dict, allow: set, header: str = "") -> str:
    """The committed report: totals, one row per module, then every function
    outside the first lane under the lane that reached it."""
    lanes = list(per_lane)
    totals = {lane: sum(c[lane] for c in per_path.values()) for lane in lanes}
    n_lines = sum(totals.values())
    out = [header.rstrip()] if header else []
    out.append(
        f"executable lines: {n_lines}; "
        + "; ".join(
            f"{'+' if i else ''}{lane} {totals[lane]}" for i, lane in enumerate(lanes[:-1])
        )
        + f"; reached by nothing {totals[NOTHING]}"
        + (f" — {lanes[0]} share {100.0 * totals[lanes[0]] / n_lines:.1f} %" if n_lines else "")
    )
    out.append("")
    width = max([len(p) for p in per_path] + [6])
    out.append(f"{'module':<{width}}  {'lines':>6}" + "".join(f"  {lane:>10}" for lane in lanes))
    for path in sorted(per_path):
        counts = per_path[path]
        out.append(f"{path:<{width}}  {sum(counts.values()):>6}"
                   + "".join(f"  {counts[lane]:>10}" for lane in lanes))
    out.append(f"{'total':<{width}}  {n_lines:>6}"
               + "".join(f"  {totals[lane]:>10}" for lane in lanes))
    for lane in [NOTHING] + lanes[1:-1]:
        fns = sorted(per_lane[lane], key=lambda f: (f.path, f.firstlineno))
        out.append("")
        if lane == NOTHING:
            out.append(f"[{NOTHING}] functions no lane calls ({len(fns)}; "
                       "* = allowlisted, anything else fails the census)")
        else:
            out.append(f"[{lane}] functions first called by the {lane} lane ({len(fns)})")
        for fn in fns:
            mark = " *" if lane == NOTHING and fn.name in allow else ""
            out.append(f"  {fn.name}  ({len(fn.lines)} lines){mark}")
    return "\n".join(out) + "\n"


def parse_lists(report: str) -> dict:
    """``{lane: {function name, ...}}`` back out of a rendered report."""
    lists: dict = {}
    current = None
    for line in report.splitlines():
        if line.startswith("["):
            current = lists.setdefault(line[1:line.index("]")], set())
        elif current is not None and line.startswith("  "):
            current.add(line.split()[0])
        elif not line.strip():
            current = None
    return lists


def read_allowlist(path: str) -> set:
    """Function names of an allowlist file (``#`` starts a comment)."""
    with open(path, encoding="utf-8") as fh:
        names = {line.split("#", 1)[0].strip() for line in fh}
    return names - {""}
