"""Chaos acceptance: recoverable faults never change the reconstruction.

The PR's headline contracts:

- a seeded :class:`FaultPlan` of *recoverable* faults (dropped/truncated
  frames, connect delays, slow shards) produces a reconstruction — values
  AND per-op hit/miss decisions — bit-identical to the no-fault run: the
  retry/replay machinery recovers, it never silently degrades,
- the same plan seed replays the same fault trace.

When ``REPRO_FAULT_TRACE_DIR`` is set (the CI chaos job does), each run's
fault trace is dumped there as JSONL for artifact upload.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import MemoConfig, MLRConfig, MLRSolver
from repro.faults import FaultPlan, FaultRule
from repro.faults import runtime as faults
from repro.lamino import LaminoGeometry, LaminoOperators, brain_like, simulate_data
from repro.net import MemoServerDaemon
from repro.obs import runtime as obs
from repro.solvers import ADMMConfig

pytestmark = pytest.mark.slow

ADMM = ADMMConfig(n_outer=5, n_inner=2, step_max_rel=4.0)


def memo_cfg(**over) -> MemoConfig:
    base = dict(
        tau=0.92, warmup_iterations=1, index_train_min=4, index_clusters=2,
        index_nprobe=2,
    )
    base.update(over)
    return MemoConfig(**base)


# recoverable-fault plan: connection drops and truncations (client must
# reconnect + replay), connect/shard latency (must only slow things down).
# `after` lets each site's handshake through; max_times bounds wall-clock.
def chaos_rules():
    return (
        FaultRule("client:*:send", "drop", prob=0.05, after=4, max_times=2),
        FaultRule("client:*:recv", "drop", prob=0.03, after=4, max_times=2),
        FaultRule("client:*:send", "truncate", prob=0.03, after=6, max_times=1),
        FaultRule("client:*:connect", "delay", prob=0.3, delay_s=0.002),
        FaultRule("server:*:shard*", "stall", prob=0.05, delay_s=0.002),
    )


@pytest.fixture(autouse=True)
def no_leftover_plan():
    faults.uninstall()
    obs.reset()
    yield
    faults.uninstall()
    obs.reset()


@pytest.fixture(scope="module")
def problem():
    n = 16
    g = LaminoGeometry((n, n, n), n_angles=12, det_shape=(n, n), tilt_deg=61.0)
    ops = LaminoOperators(g)
    truth = brain_like(g.vol_shape, seed=7)
    d = simulate_data(truth, g, noise_level=0.03, seed=1)
    return g, ops, d


def run_tcp(problem, address, on_iteration=None, **memo_over):
    g, ops, d = problem
    cfg = MLRConfig(
        chunk_size=4,
        memo=memo_cfg(transport="tcp", server_address=address, **memo_over),
    )
    solver = MLRSolver(g, cfg, admm=ADMM, ops=ops)
    try:
        result = solver.reconstruct(d, callback=on_iteration)
        net = solver.memo_executor.router.net_stats
        return result, net
    finally:
        solver.close()


def event_view(result):
    return [
        (e.outer, e.inner, e.op, e.chunk, e.case, e.similarity, e.worker, e.shard)
        for e in result.events
    ]


def maybe_dump_trace(plan: FaultPlan, name: str) -> None:
    trace_dir = os.environ.get("REPRO_FAULT_TRACE_DIR")
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
        plan.dump_trace(os.path.join(trace_dir, f"{name}-seed{plan.seed}.jsonl"))


class TestChaosEquivalence:
    def test_recoverable_faults_bit_identical_to_no_fault(self, problem):
        with MemoServerDaemon(n_shards=2, memo=memo_cfg()) as srv:
            ref, ref_net = run_tcp(problem, srv.address)
        plan = FaultPlan(1234, chaos_rules())
        with MemoServerDaemon(n_shards=2, memo=memo_cfg()) as srv:
            with faults.injected_faults(plan):
                res, net = run_tcp(problem, srv.address)
        maybe_dump_trace(plan, "equivalence")
        assert plan.trace, "the plan never fired — the test exercised nothing"
        # faults were recovered, not degraded past: zero cold-compute
        # fallbacks, and at least one retry/replay actually happened
        assert net.degraded_queries == 0
        assert net.retries + net.replayed_insert_batches > 0
        np.testing.assert_array_equal(ref.u, res.u)
        assert event_view(ref) == event_view(res)
        assert ref.case_counts == res.case_counts
        assert ref.op_counts == res.op_counts

    def test_same_seed_replays_same_fault_trace(self, problem):
        """The whole trace — every site, op index and kind — is a function
        of the seed.  That holds because every decision stream counts
        something the traffic alone determines: ``:send`` one frame per op,
        ``:recv`` one *frame* per op (not one ``recv()`` call — those follow
        kernel segmentation, which used to move where a recv fault landed,
        up to the reconnect handshake, and flaked this test 1 run in 10),
        ``:connect`` and ``shardN`` one request per op."""
        signatures = []
        for _ in range(2):
            plan = FaultPlan(77, chaos_rules())
            with MemoServerDaemon(n_shards=2, memo=memo_cfg()) as srv:
                with faults.injected_faults(plan):
                    run_tcp(problem, srv.address)
            maybe_dump_trace(plan, "replay")
            signatures.append(plan.trace_signature())
        assert signatures[0], "plans never fired"
        assert signatures[0] == signatures[1]

    def test_different_seed_different_trace(self, problem):
        signatures = []
        for seed in (5, 6):
            plan = FaultPlan(seed, chaos_rules())
            with MemoServerDaemon(n_shards=2, memo=memo_cfg()) as srv:
                with faults.injected_faults(plan):
                    run_tcp(problem, srv.address)
            signatures.append(plan.trace_signature())
        assert signatures[0] != signatures[1]


@pytest.fixture(scope="module")
def fault_free(problem):
    with MemoServerDaemon(n_shards=2, memo=memo_cfg()) as srv:
        return run_tcp(problem, srv.address)[0]


class TestEveryWireFaultKindFires:
    """One certain fault of each kind the socket seam can inject, past the
    handshake: the seeded plans above fire their rare kinds under some
    seeds only, so a kind could rot unexercised."""

    @pytest.mark.parametrize(
        "direction, kind",
        [("send", "delay"), ("send", "truncate"), ("send", "bitflip"),
         ("recv", "truncate"), ("recv", "bitflip")],
    )
    def test_one_certain_fault_is_recovered(self, problem, fault_free, direction, kind):
        rule = FaultRule(f"client:*:{direction}", kind, prob=1.0, after=4, max_times=1,
                         delay_s=0.002 if kind == "delay" else 0.0)
        plan = FaultPlan(9, (rule,))
        with MemoServerDaemon(n_shards=2, memo=memo_cfg()) as srv:
            with faults.injected_faults(plan):
                res, net = run_tcp(problem, srv.address)
            server_checksum_errors = srv.stats.protocol_errors
        maybe_dump_trace(plan, f"certain-{direction}-{kind}")
        assert {(e.kind, e.site.rsplit(":", 1)[1]) for e in plan.trace} == {(kind, direction)}
        # recovered, never served or degraded past: a flipped bit must die
        # at the crc32 and come back as reconnect + replay
        np.testing.assert_array_equal(fault_free.u, res.u)
        assert event_view(fault_free) == event_view(res)
        assert net.degraded_queries == 0
        # the fault lands on a request (retried) or a pipelined insert (replayed)
        assert (net.retries + net.replayed_insert_batches > 0) == (kind != "delay")
        if (direction, kind) == ("send", "bitflip"):
            assert server_checksum_errors > 0  # the daemon's reader refused the frame

