"""FaultPlan determinism and rule semantics, and the socket seam's op streams."""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.faults import FaultPlan, FaultRule, active_plan, install, installed, uninstall
from repro.faults import runtime as faults

pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning"
)


def drive(plan: FaultPlan, ops: list[str]):
    """Run a fixed operation sequence through a plan; returns the decisions."""
    return [
        (site, ev.kind if ev else None)
        for site in ops
        for ev in [plan.decide(site)]
    ]


OPS = (
    ["client:a:send"] * 5
    + ["client:a:recv"] * 5
    + ["client:b:send"] * 5
    + ["server:s0:shard0"] * 3
)


class TestDeterminism:
    def test_same_seed_same_decisions_and_trace(self):
        rules = (
            FaultRule("client:*:send", "drop", prob=0.5),
            FaultRule("server:*", "stall", prob=0.5, delay_s=0.01),
        )
        p1, p2 = FaultPlan(42, rules), FaultPlan(42, rules)
        assert drive(p1, list(OPS)) == drive(p2, list(OPS))
        assert p1.trace_signature() == p2.trace_signature()
        assert [e.as_dict() for e in p1.trace] == [e.as_dict() for e in p2.trace]

    def test_different_seeds_differ(self):
        rules = (FaultRule("client:*", "drop", prob=0.5),)
        d1 = drive(FaultPlan(0, rules), list(OPS))
        d2 = drive(FaultPlan(1, rules), list(OPS))
        assert d1 != d2  # astronomically unlikely to collide at prob=0.5 over 15 ops

    def test_site_streams_independent(self):
        """Extra traffic at one site never changes another site's decisions."""
        rules = (FaultRule("client:*", "drop", prob=0.5),)
        base = FaultPlan(7, rules)
        noisy = FaultPlan(7, rules)
        for _ in range(50):
            noisy.decide("client:noise:send")
        a = [base.decide("client:a:send") is not None for _ in range(20)]
        b = [noisy.decide("client:a:send") is not None for _ in range(20)]
        assert a == b


class TestRuleSemantics:
    def test_after_skips_leading_ops(self):
        plan = FaultPlan(1, (FaultRule("s", "drop", after=3),))
        hits = [plan.decide("s") is not None for _ in range(6)]
        assert hits == [False, False, False, True, True, True]

    def test_max_times_caps_firing(self):
        plan = FaultPlan(1, (FaultRule("s", "drop", max_times=2),))
        hits = [plan.decide("s") is not None for _ in range(5)]
        assert hits == [True, True, False, False, False]

    def test_glob_matching(self):
        plan = FaultPlan(1, (FaultRule("client:*:send", "drop"),))
        assert plan.decide("client:x:send").kind == "drop"
        assert plan.decide("client:x:recv") is None
        assert plan.decide("server:x:send") is None

    def test_rule_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FaultRule("s", "explode")
        with pytest.raises(ValueError, match="prob"):
            FaultRule("s", "drop", prob=1.5)
        with pytest.raises(ValueError, match="delay_s"):
            FaultRule("s", "drop", delay_s=-1)
        with pytest.raises(ValueError, match="after"):
            FaultRule("s", "drop", after=-1)
        with pytest.raises(ValueError, match="max_times"):
            FaultRule("s", "drop", max_times=0)
        with pytest.raises(TypeError, match="FaultRule"):
            FaultPlan(0, ("not a rule",))


class TestCorruptBytes:
    def test_deterministic_and_detectably_corrupt(self):
        raw = bytes(range(256)) * 4
        out1 = FaultPlan(9, (FaultRule("snap:*", "corrupt"),)).corrupt_bytes("snap:x", raw)
        out2 = FaultPlan(9, (FaultRule("snap:*", "corrupt"),)).corrupt_bytes("snap:x", raw)
        assert out1 == out2
        assert out1 != raw

    def test_bitflip_preserves_length(self):
        raw = b"\x00" * 64
        out = FaultPlan(3, (FaultRule("snap:*", "bitflip"),)).corrupt_bytes("snap:x", raw)
        assert len(out) == len(raw)
        assert sum(a != b for a, b in zip(out, raw)) == 1

    def test_no_rule_returns_raw(self):
        raw = b"hello"
        assert FaultPlan(3).corrupt_bytes("snap:x", raw) is raw


class TestTraceExport:
    def test_jsonl_round_trips(self, tmp_path):
        plan = FaultPlan(5, (FaultRule("s", "drop"),))
        plan.decide("s")
        plan.decide("s")
        path = tmp_path / "trace.jsonl"
        plan.dump_trace(path)
        lines = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert [ln["kind"] for ln in lines] == ["drop", "drop"]
        assert [ln["op_index"] for ln in lines] == [0, 1]


class TestRuntimeInstall:
    def test_install_uninstall_and_context(self):
        assert not installed()
        plan = FaultPlan(0)
        with faults.injected_faults(plan) as active:
            assert installed() and active is plan and active_plan() is plan
        assert not installed() and active_plan() is None

    def test_install_rejects_non_plan(self):
        with pytest.raises(TypeError):
            install("nope")

    def test_hooks_are_noops_without_plan(self):
        uninstall()
        faults.on_connect("client:x")
        sentinel = object()
        assert faults.wrap_socket(sentinel, "client:x") is sentinel
        assert faults.on_snapshot_read("x", b"raw") == b"raw"
        assert faults.on_snapshot_write("x", b"raw") == b"raw"
        faults.maybe_stall("server:x")

    def test_on_connect_refuses(self):
        plan = FaultPlan(0, (FaultRule("client:x:connect", "refuse"),))
        with faults.injected_faults(plan):
            with pytest.raises(ConnectionRefusedError):
                faults.on_connect("client:x")


class TestRecvDecisionsArePerFrame:
    """The ``:recv`` stream must count *frames*, not ``recv()`` calls: how a
    frame is segmented on arrival is kernel timing, and a seeded plan can
    only replay against a count the traffic alone determines."""

    @staticmethod
    def read_frames(plan, writes, n_frames):
        from repro.net.wire import FrameReader

        a, b = socket.socketpair()
        sender = threading.Thread(target=lambda: [a.sendall(w) for w in writes])
        sender.start()
        try:
            with faults.injected_faults(plan):
                reader = FrameReader(faults.wrap_socket(b, "client:x"))
                return [reader.read_frame() for _ in range(n_frames)]
        finally:
            # joined even when the reader raised: the writes are a few
            # hundred bytes, so they fit the pair's buffer and the sender
            # always finishes, and closing ``a`` under it would fail its write
            sender.join()
            a.close()
            b.close()

    def test_segmentation_does_not_move_the_stream(self):
        from repro.net.wire import MSG_PING, encode_frame

        raw = [encode_frame(MSG_PING, rid, {"n": rid}) for rid in range(1, 5)]
        coalesced = [b"".join(raw)]  # four frames in one segment
        dribbled = [bytes([byte]) for frame in raw for byte in frame]
        counts = []
        for writes in (coalesced, dribbled):
            plan = FaultPlan(0, (FaultRule("client:x:recv", "drop", prob=0.0),))
            frames = self.read_frames(plan, writes, 4)
            assert [rid for _type, rid, _body in frames] == [1, 2, 3, 4]
            counts.append(plan._sites["client:x:recv"].op_count)
        assert counts == [4, 4]

    def test_drop_lands_on_the_same_frame_however_it_arrived(self):
        from repro.net.wire import MSG_PING, TruncatedFrame, encode_frame

        raw = [encode_frame(MSG_PING, rid, None) for rid in range(1, 4)]
        for writes in ([b"".join(raw)], raw):
            plan = FaultPlan(0, (FaultRule("client:x:recv", "drop", after=2),))
            with pytest.raises(TruncatedFrame, match="dropped recv"):
                self.read_frames(plan, writes, 3)
            assert plan.trace_signature() == [("client:x:recv", 2, "drop", 0.0)]
