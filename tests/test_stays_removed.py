"""Removed designs stay removed: one table of forbidden names and paths.

Every row is one thing a simplification PR took out, with the number of
that PR and the reason, so a reader who trips a row knows what design came
back and why it left.  A row is one of:

- ``Forbid`` — no line of the files it scans matches a regular expression
  (``allowed`` files excepted),
- ``OnlyIn`` — the files that match a regular expression are exactly the
  listed ones (one definition site),
- ``AtMost`` — one file matches a regular expression on at most ``n`` lines,
- ``Absent`` — none of the listed paths exists,
- ``NotInHelp`` — a CLI's ``--help`` text does not match a regular expression.

Paths are relative to the repository root; a directory is scanned
recursively (``__pycache__`` skipped) for the files ``glob`` selects.  This
file is never scanned: it spells every forbidden name.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import re
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SELF = Path(__file__).resolve()


def _files(root: Path, under: tuple[str, ...], glob: str) -> list[Path]:
    found = []
    for rel in under:
        path = root / rel
        if path.is_file():
            found.append(path)
        elif path.is_dir():
            found += [
                p for p in sorted(path.rglob(glob))
                if p.is_file() and "__pycache__" not in p.parts
            ]
    return [p for p in found if p.resolve() != SELF]


def _matches(root: Path, pattern: str, under: tuple[str, ...], glob: str) -> list[str]:
    """``path:line: text`` for every line matching ``pattern``."""
    regex = re.compile(pattern)
    hits = []
    for path in _files(root, under, glob):
        lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
        for n, line in enumerate(lines, 1):
            if regex.search(line):
                hits.append(f"{path.relative_to(root)}:{n}: {line.strip()}")
    return hits


@dataclass(frozen=True)
class Forbid:
    pr: int
    name: str
    why: str
    pattern: str
    under: tuple[str, ...] = ("src",)
    glob: str = "*.py"
    allowed: tuple[str, ...] = ()

    def violations(self, root: Path) -> list[str]:
        return [
            hit for hit in _matches(root, self.pattern, self.under, self.glob)
            if hit.split(":", 1)[0] not in self.allowed
        ]


@dataclass(frozen=True)
class OnlyIn:
    pr: int
    name: str
    why: str
    pattern: str
    files: tuple[str, ...]
    under: tuple[str, ...] = ("src",)

    def violations(self, root: Path) -> list[str]:
        found = sorted({
            hit.split(":", 1)[0] for hit in _matches(root, self.pattern, self.under, "*.py")
        })
        return [] if found == sorted(self.files) else [f"matched in: {found}"]


@dataclass(frozen=True)
class AtMost:
    pr: int
    name: str
    why: str
    pattern: str
    path: str
    n: int

    def violations(self, root: Path) -> list[str]:
        hits = _matches(root, self.pattern, (self.path,), "*.py")
        return hits if len(hits) > self.n else []


@dataclass(frozen=True)
class Absent:
    pr: int
    name: str
    why: str
    paths: tuple[str, ...]

    def violations(self, root: Path) -> list[str]:
        return [p for p in self.paths if (root / p).exists()]


@dataclass(frozen=True)
class NotInHelp:
    pr: int
    name: str
    why: str
    module: str
    pattern: str

    def violations(self, root: Path) -> list[str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
            importlib.import_module(self.module).main(["--help"])
        return [ln.strip() for ln in out.getvalue().splitlines() if re.search(self.pattern, ln)]


RULES = (
    # -- removed knobs ----------------------------------------------------------------------
    NotInHelp(
        16, "daemon-cli-dumps",
        "the memo wire carries memo traffic only: no value-mode switch, no "
        "metrics or trace dumps over the daemon CLI",
        "repro.net.server", r"--value-mode|--metrics-dump|--trace-dump",
    ),
    NotInHelp(
        24, "daemon-cli-peer",
        "a tier is one daemon: no peer sync",
        "repro.net.server", r"--peer",
    ),
    Absent(
        16, "root-bench-perf",
        "benchmarks/results/BENCH_perf.json is the only copy of the perf record",
        ("BENCH_perf.json",),
    ),
    Forbid(
        42, "scale-correction",
        "scale-corrected (affine) reuse is always on: MemoConfig.scale_correction left",
        r"scale_correction", under=("src", "tests", "benchmarks", "examples"),
    ),
    # -- one tier host ----------------------------------------------------------------------
    Forbid(
        18, "daemon-inline-shards",
        "the daemon is a wire: MemoShard serialises its own calls, so handlers "
        "run shard work inline",
        r"ThreadPoolExecutor|contextvars", under=("src/repro/net/server.py",),
    ),
    Forbid(
        18, "one-partition-merge",
        "the router's push_state is the one partition merge",
        r"_merged|merge_heat_states|FEATURE_TRACE|on_shard",
    ),
    # -- one state-tree codec ---------------------------------------------------------------
    Forbid(
        19, "snapshot-no-own-codec",
        "a snapshot is the wire's payload in one file: kvstore/serialization.py "
        "is the one codec",
        r"savez|np\.load\(|json\.dump|__array__", under=("src/repro/service/snapshot.py",),
    ),
    OnlyIn(
        19, "codec-tag-table",
        "the state-tree codec's tag table lives in kvstore/serialization.py",
        r"^_T_[A-Z]+ *=", ("src/repro/kvstore/serialization.py",),
    ),
    # -- one memo-entry table ---------------------------------------------------------------
    Forbid(
        20, "one-store",
        "one store, one tree layout: no second store class, store type tag, "
        "pretrain key copy or tree layout key",
        r'ArrayStore|_STORE_TYPE|store_type|_pretrain|"layout"',
    ),
    Forbid(
        20, "value-state-owner",
        "MemoDatabase owns a partition's value-store state",
        r'\["db"\]\["values"\]', allowed=("src/repro/core/memo_db.py",),
    ),
    # -- one operator state -----------------------------------------------------------------
    Forbid(
        31, "one-geometry-memo",
        "the operator state's memo is the one geometry-only memo",
        r"lipschitz_once|dc_basis *:|\.dc_basis|shared=|_SHARED|\._once\b|_once_lock",
    ),
    OnlyIn(
        31, "one-state-registry",
        "the registry of operator states is defined in lamino/operators.py",
        r"^_STATES *(:|=)", ("src/repro/lamino/operators.py",),
    ),
    OnlyIn(
        31, "plans-through-registry",
        "USFFT plans are built by the operator registry only",
        r"USFFT[12]DPlan\(", ("src/repro/lamino/operators.py",),
    ),
    # -- one sweep driver -------------------------------------------------------------------
    Forbid(
        32, "one-sweep-driver",
        "no second sweep driver, executor wrapper, test-only reassembler, "
        "location-count override or MemoConfig.key_depth",
        r"PipelinedExecutor|_OWN_ATTRS|def reassemble|_n_locations_override|key_depth",
    ),
    OnlyIn(
        32, "fu1d-defined-twice",
        "fu1d is defined by the operators and DirectExecutor, whose six ops "
        "are calls to its one _sweep",
        r"def fu1d\(",
        ("src/repro/lamino/operators.py", "src/repro/solvers/executor.py"),
    ),
    # -- sweeps inline ----------------------------------------------------------------------
    Forbid(
        34, "no-pipelined-sweeps",
        "a sweep is DirectExecutor._sweep's inline loop: no pipelined mode, "
        "SSD endpoints, DES model or Figure 18",
        r"ChunkPipeline|PipelineConfig|PipelineStats|SpillSource|SpillSlabWriter|"
        r"simulate_pipeline|PipelinePerf|pipeline_stats|pipeline_op_stats|"
        r"fig18_pipeline_overlap",
    ),
    Forbid(
        34, "no-pipeline-knob",
        "DirectExecutor(ops, chunk_size) and MemoizedExecutor take no execution mode",
        r"(^ *|[(,] *)pipeline *(:|=)|self\.pipeline\b",
    ),
    # -- scans from memory ------------------------------------------------------------------
    Absent(
        38, "no-streaming-ingest-files",
        "streaming ingest hid at most the one F2D sweep of a job",
        ("src/repro/pipeline", "examples/streaming_pipeline.py"),
    ),
    Forbid(
        38, "no-streaming-ingest",
        "a sweep consumes an operand already in memory through "
        "_sweep(op, array, payload)",
        r"StreamingIngest|BoundedQueue|QueueClosed|make_ingest|reconstruct_streaming|"
        r"sweep_stream|ArraySource|pipeline_queue_",
        under=("src", "examples"), glob="*",
    ),
    # -- nothing ships that nothing runs ----------------------------------------------------
    Forbid(
        24, "census-removed",
        "spans answer 'where did the time go'; a tier is one daemon with no "
        "anti-entropy path; pull_state(tier) is the one snapshot pull",
        r"profile_hz|REPRO_OBS_PROFILE_HZ|_THREAD_SPANS|render_top|resync_from|"
        r"RemoteSnapshotStore",
    ),
    # -- one memo daemon per tier -----------------------------------------------------------
    Forbid(
        37, "no-replication",
        "a TCP tier is one RemoteMemoClient of one daemon",
        r"ReplicatedMemoClient|CircuitBreaker|CIRCUIT_(OPEN|CLOSED|HALF_OPEN)|ReplicaSet|"
        r"DaemonSchedule|connect_tier|parse_address_list|heartbeat_interval_s|"
        r"failure_threshold|reset_timeout_s|circuit_state|net_client_failover_total|resync",
    ),
    Forbid(
        37, "no-replication-knob",
        "server_address / memo_server name one daemon",
        r"(^ *|[(,] *)replication *(:|=)",
    ),
    Absent(
        37, "no-replication-files",
        "replication and its ReplicaSet harness left",
        ("src/repro/net/replicated.py", "src/repro/faults/chaos.py"),
    ),
    # -- one renderer -----------------------------------------------------------------------
    Forbid(
        33, "one-table-renderer",
        "repro.obs.report.table is the one fixed-width table renderer",
        r"ljust\(|rjust\(", allowed=("src/repro/obs/report.py",),
    ),
    Absent(
        33, "no-harness-report",
        "figures render through repro.obs.report.table",
        ("src/repro/harness/report.py",),
    ),
    AtMost(
        33, "one-figure-shape",
        "every artifact is one Figure: no per-figure result class or report()",
        r"class \w+Result\b|def report\(self", "src/repro/harness/experiments.py", 1,
    ),
    Forbid(
        33, "one-fig14-sweep",
        "fig14_scaling prints Figures 14-16",
        r"def (fig15_bandwidth|fig16_latency_cdf)\b|^(fig15_bandwidth|fig16_latency_cdf) *=",
    ),
    # -- telemetry stays in the job's process -----------------------------------------------
    Forbid(
        43, "no-telemetry-plane",
        "telemetry leaves a process as one JSONL dump: no HTTP plane, flight "
        "recorder or cross-process merge",
        r"TelemetryServer|telemetry_port|telemetry_host|http_port|REPRO_OBS_HTTP|"
        r"flight_dump|flight_dir|REPRO_FLIGHT_DIR|merge_dumps|PROC_TAG|peek_spans",
        under=("src", "examples"), glob="*",
    ),
    Absent(
        43, "no-telemetry-plane-module",
        "the HTTP telemetry plane left",
        ("src/repro/obs/http.py",),
    ),
    NotInHelp(
        43, "daemon-cli-telemetry",
        "the daemon serves no telemetry port",
        "repro.net.server", r"--telemetry-(port|host)",
    ),
    # -- one interpolation stencil per operator ---------------------------------------------
    Forbid(
        45, "no-stored-taps",
        "a 2-D plan stores no taps: a slice's are recomputed from its points "
        "when its operator is built",
        r"_tap_idx|_tap_w",
    ),
    Forbid(
        45, "one-operator-per-slice",
        "USFFT2DPlan holds one CSR per (slice, precision): no operator keyed "
        "by row range, which stored the stencil again for every range applied",
        r"block_(gather|scatter)|_blocks\b|block-diagonal|\(start, stop, \w+\.char\)",
        under=("src/repro/lamino/usfft.py",),
    ),
)


@pytest.mark.parametrize("rule", RULES, ids=[f"pr{r.pr}-{r.name}" for r in RULES])
def test_stays_removed(rule):
    found = rule.violations(ROOT)
    assert not found, f"PR {rule.pr}: {rule.why}\n  " + "\n  ".join(found)

