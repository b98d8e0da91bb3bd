"""MemoServerDaemon + RemoteMemoClient: service behavior over loopback TCP.

Covers the daemon's batched service (query/insert/stats/snapshot), hostile
clients (garbage, truncation, version skew — typed errors, never hangs),
concurrent clients, fail-open client degradation and reconnect, and the
daemon's snapshot persistence.
"""

from __future__ import annotations

import os
import queue
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import MemoConfig
from repro.core.memo_engine import make_db_factory
from repro.core.memo_shard import (
    MemoShardRouter,
    ShardInsert,
    ShardQuery,
    memo_state_partitions,
)
from repro.net import (
    MemoServerDaemon,
    ProtocolError,
    RemoteError,
    RemoteMemoClient,
    TransportUnavailable,
    VersionMismatch,
)
from repro.net.policy import RetryPolicy
from repro.net.wire import (
    MSG_ERROR,
    MSG_HELLO,
    MSG_HELLO_OK,
    MSG_INSERT,
    MSG_INSERT_OK,
    PROTOCOL_VERSION,
    FrameReader,
    encode_frame,
    inserts_to_wire,
    send_frame,
)
from repro.service.snapshot import read_snapshot, snapshot_exists

MEMO = MemoConfig(index_train_min=4, index_clusters=2, index_nprobe=2)


@pytest.fixture()
def daemon():
    with MemoServerDaemon(n_shards=2, memo=MEMO) as srv:
        yield srv


@pytest.fixture()
def client(daemon):
    c = RemoteMemoClient(daemon.address, expect_tau=MEMO.tau, n_shards_hint=2)
    yield c
    c.close()


def _mk_items(rng, n, op="Fu1D", dim=12, shape=(4, 4)):
    out = []
    for i in range(n):
        key = rng.normal(size=dim).astype(np.float32)
        val = (rng.normal(size=shape) + 1j * rng.normal(size=shape)).astype(np.complex64)
        out.append(ShardInsert(op, i, key, val, meta=(float(i) + 1.0, 1j * i)))
    return out


class TestService:
    def test_matches_inproc_router_outcomes_and_stats(self, daemon, client, rng):
        """The daemon answers exactly like a local MemoShardRouter fed the
        same traffic — values, similarities, ids, stats."""
        local = MemoShardRouter(2, make_db_factory(MEMO))
        inserts = _mk_items(rng, 6)
        queries = [ShardQuery(i.op, i.location, i.key) for i in inserts]
        probe = rng.normal(size=12).astype(np.float32)
        queries.append(ShardQuery("Fu1D", 0, probe))

        local.insert_batch(inserts)
        client.insert_batch(inserts)
        remote = client.query_batch(queries)
        expected = local.query_batch(queries)
        assert len(remote) == len(expected)
        for r, e in zip(remote, expected):
            assert r.hit == e.hit
            assert r.similarity == e.similarity
            assert r.matched_id == e.matched_id
            assert r.n_entries == e.n_entries
            assert r.stored_meta == e.stored_meta
            if e.hit:
                np.testing.assert_array_equal(r.value, e.value)
        assert client.stats().as_dict() == local.stats().as_dict()
        assert client.entries() == local.entries()
        assert client.shard_stats() == local.shard_stats()

    def test_snapshot_push_pull_roundtrip(self, daemon, client, rng):
        inserts = _mk_items(rng, 5)
        client.insert_batch(inserts)
        tree = client.state_dict()
        assert tree["n_shards"] == 2 and len(tree["partitions"]) == 5

        with MemoServerDaemon(n_shards=3, memo=MEMO) as other:
            c2 = RemoteMemoClient(other.address)
            assert c2.push_state(tree)
            # partitions re-route onto the 3-shard daemon by location
            assert c2.entries() == client.entries()
            out = c2.query_batch([ShardQuery("Fu1D", 2, inserts[2].key)])
            assert out[0].hit and out[0].similarity > 0.99
            c2.close()

    def test_push_with_wrong_tau_rejected(self, daemon, client):
        mismatched = MemoConfig(tau=0.5, index_train_min=4, index_clusters=2)
        local = MemoShardRouter(1, make_db_factory(mismatched))
        local.query_batch([ShardQuery("Fu1D", 0, np.zeros(4, np.float32))])  # one empty partition
        tree = local.state_dict()
        with pytest.raises(ValueError, match="tau"):
            client.push_state(tree)

    def test_push_from_conflicting_encoder_rejected(self, daemon, client):
        base = {"n_shards": 1, "partitions": [],
                "encoder": {"kind": "CNNKeyEncoder", "dim": 60, "weights": "aaa"}}
        assert client.push_state(base)
        conflicting = dict(base, encoder={"kind": "CNNKeyEncoder", "dim": 60,
                                          "weights": "bbb"})
        with pytest.raises(ValueError, match="encoder"):
            client.push_state(conflicting)

    def test_concurrent_clients_consistent_totals(self, daemon, rng):
        n_clients, per_client = 4, 8
        seeds = np.random.SeedSequence(5).spawn(n_clients)
        errs = []

        def run(seed):
            try:
                r = np.random.default_rng(seed)
                c = RemoteMemoClient(daemon.address)
                items = [
                    ShardInsert("Fu1D", int(r.integers(0, 16)),
                                r.normal(size=8).astype(np.float32),
                                r.normal(size=4).astype(np.complex64))
                    for _ in range(per_client)
                ]
                c.insert_batch(items)
                c.query_batch([ShardQuery(i.op, i.location, i.key) for i in items])
                c.flush()
                c.close()
            except Exception as exc:  # noqa: BLE001 — surfaced via errs
                errs.append(exc)

        threads = [threading.Thread(target=run, args=(s,)) for s in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errs
        st = daemon.router.stats()
        assert st.inserts == n_clients * per_client
        assert st.queries == n_clients * per_client

    def test_daemon_persistence_roundtrip(self, tmp_path, rng):
        snap = tmp_path / "tier"
        with MemoServerDaemon(n_shards=2, memo=MEMO, snapshot_path=snap) as srv:
            c = RemoteMemoClient(srv.address)
            c.insert_batch(_mk_items(rng, 4))
            c.flush()
            c.close()
        # close() persisted; a new daemon warm-starts from the same path
        with MemoServerDaemon(n_shards=2, memo=MEMO, snapshot_path=snap) as srv2:
            c = RemoteMemoClient(srv2.address)
            assert c.entries() == 4
            c.close()


class TestHostileClients:
    def _raw(self, daemon):
        return socket.create_connection(daemon.address, timeout=5.0)

    def test_version_skew_handshake_fails_fast(self, daemon):
        with self._raw(daemon) as sock:
            frame = bytearray(
                encode_frame(MSG_HELLO, 0, {"version": PROTOCOL_VERSION + 9})
            )
            sock.sendall(bytes(frame))
            msg_type, _rid, body = FrameReader(sock).read_frame()
            assert msg_type == MSG_ERROR
            assert body["kind"] == "VersionMismatch"
            assert "upgrade" in body["message"]
            assert sock.recv(1) == b""  # server closed the connection

    def test_frame_version_byte_skew_fails_fast(self, daemon):
        with self._raw(daemon) as sock:
            frame = bytearray(encode_frame(MSG_HELLO, 0, {"version": 1}))
            frame[4] = 77  # header version byte
            sock.sendall(bytes(frame))
            msg_type, _rid, body = FrameReader(sock).read_frame()
            assert msg_type == MSG_ERROR and body["kind"] == "VersionMismatch"
            assert sock.recv(1) == b""

    def test_garbage_bytes_get_typed_error_then_close(self, daemon):
        with self._raw(daemon) as sock:
            sock.sendall(b"GET / HTTP/1.1\r\n\r\n" + b"\x00" * 64)
            msg_type, _rid, body = FrameReader(sock).read_frame()
            assert msg_type == MSG_ERROR and body["kind"] == "FrameError"
            assert sock.recv(1) == b""

    def test_corrupted_frame_gets_checksum_error(self, daemon):
        with self._raw(daemon) as sock:
            frame = bytearray(encode_frame(MSG_HELLO, 0, {"version": 1, "pad": 0}))
            frame[-1] ^= 0xFF
            sock.sendall(bytes(frame))
            msg_type, _rid, body = FrameReader(sock).read_frame()
            assert msg_type == MSG_ERROR and body["kind"] == "ChecksumError"

    def test_oversize_declared_frame_rejected(self, daemon):
        with self._raw(daemon) as sock:
            header = struct.Struct("<4sBBHQQI").pack(
                b"mLRn", PROTOCOL_VERSION, MSG_HELLO, 0, 0, 1 << 62,
                zlib.crc32(b"") & 0xFFFFFFFF,
            )
            sock.sendall(header)
            msg_type, _rid, body = FrameReader(sock).read_frame()
            assert msg_type == MSG_ERROR and body["kind"] == "FrameError"

    def test_mid_frame_disconnect_does_not_wedge_daemon(self, daemon):
        sock = self._raw(daemon)
        frame = encode_frame(MSG_HELLO, 0, {"version": 1, "blob": b"x" * 4096})
        sock.sendall(frame[: len(frame) // 2])
        sock.close()
        # daemon still serves a well-behaved client afterwards
        c = RemoteMemoClient(daemon.address)
        assert c.connected
        assert c.entries() == 0
        c.close()

    def test_request_before_hello_rejected(self, daemon):
        with self._raw(daemon) as sock:
            send_frame(sock, 99, 5, {"queries": []})
            msg_type, _rid, body = FrameReader(sock).read_frame()
            assert msg_type == MSG_ERROR and body["kind"] == "MessageError"


    def _hello(self, sock) -> FrameReader:
        reader = FrameReader(sock)
        send_frame(sock, MSG_HELLO, 0, {"version": PROTOCOL_VERSION})
        assert reader.read_frame()[0] == MSG_HELLO_OK
        return reader

    def test_non_str_batch_tag_is_still_deduplicated(self, daemon, rng):
        """The dedup set is keyed by ``str(tag)``: a tag that arrives as an
        int must be looked up the way it was recorded, or its replay
        double-inserts."""
        body = {"inserts": inserts_to_wire(_mk_items(rng, 2)), "batch": 7}
        with self._raw(daemon) as sock:
            reader = self._hello(sock)
            send_frame(sock, MSG_INSERT, 1, body)
            msg_type, _rid, first = reader.read_frame()
            assert msg_type == MSG_INSERT_OK and len(first["ids"]) == 2
            send_frame(sock, MSG_INSERT, 2, body)  # the replay
            msg_type, _rid, second = reader.read_frame()
            assert msg_type == MSG_INSERT_OK
            assert second == {"ids": [], "duplicate": True}
            # ... and "7" names the same batch
            send_frame(sock, MSG_INSERT, 3, dict(body, batch="7"))
            assert reader.read_frame()[2].get("duplicate") is True
        assert daemon.router.entries() == 2
        assert daemon.stats.duplicate_insert_batches == 2

    @pytest.mark.parametrize("tag", [["a", 1], {"k": "v"}, 1.5, True])
    def test_unusable_batch_tag_is_a_typed_message_error(self, daemon, rng, tag):
        """A tag that cannot key the dedup set (unhashable, or unstable
        under ``str``) is a malformed message — a typed error, never an
        "internal server error" — and nothing of the batch is applied."""
        body = {"inserts": inserts_to_wire(_mk_items(rng, 2)), "batch": tag}
        with self._raw(daemon) as sock:
            reader = self._hello(sock)
            send_frame(sock, MSG_INSERT, 1, body)
            msg_type, _rid, reply = reader.read_frame()
            assert msg_type == MSG_ERROR and reply["kind"] == "MessageError"
            assert "batch tag" in reply["message"]
            assert sock.recv(1) == b""  # a protocol error closes the stream
        assert daemon.router.entries() == 0
        assert daemon.stats.protocol_errors == 1
        with RemoteMemoClient(daemon.address) as c:  # the daemon serves on
            assert c.ping()


class TestClientResilience:
    def test_client_version_mismatch_raises_even_fail_open(self, daemon, monkeypatch):
        import repro.net.client as client_mod

        monkeypatch.setattr(client_mod, "PROTOCOL_VERSION", PROTOCOL_VERSION + 1)
        with pytest.raises(VersionMismatch):
            RemoteMemoClient(daemon.address, fail_open=True)

    def test_tau_mismatch_raises_even_fail_open(self, daemon):
        with pytest.raises(ValueError, match="tau"):
            RemoteMemoClient(daemon.address, expect_tau=0.5, fail_open=True)

    def test_dead_server_fail_open_degrades_and_counts(self, rng):
        with MemoServerDaemon(n_shards=1, memo=MEMO) as srv:
            addr = srv.address
        c = RemoteMemoClient(addr, fail_open=True, n_shards_hint=3)
        q = [ShardQuery("Fu1D", i, rng.normal(size=4).astype(np.float32))
             for i in range(5)]
        out = c.query_batch(q)
        assert [o.hit for o in out] == [False] * 5
        assert all(o.similarity == -2.0 for o in out)
        assert c.insert_batch(_mk_items(rng, 2)) == [-1, -1]
        assert c.stats().queries == 0
        assert c.state_dict()["partitions"] == []
        assert not c.push_state({"n_shards": 1, "partitions": []})
        ns = c.net_stats
        assert ns.degraded_query_batches == 1
        assert ns.degraded_queries == 5
        assert ns.degraded_insert_batches == 1
        assert c.shard_of(5) == 5 % 3  # labeling still deterministic
        c.close()

    def test_dead_server_fail_closed_raises(self):
        with MemoServerDaemon(n_shards=1, memo=MEMO) as srv:
            addr = srv.address
        # depending on teardown timing the failure surfaces at the eager
        # construction-time connect or on the first call — never silently
        with pytest.raises((TransportUnavailable, OSError, ProtocolError)):
            c = RemoteMemoClient(addr, fail_open=False)
            try:
                c.query_batch(
                    [ShardQuery("Fu1D", 0, np.ones(4, dtype=np.float32))]
                )
            finally:
                c.close()

    def test_reconnects_after_server_restart(self, rng):
        with MemoServerDaemon(n_shards=1, memo=MEMO) as srv:
            host, port = srv.address
            c = RemoteMemoClient(
                (host, port), retry_policy=RetryPolicy(backoff_initial_s=0.0)
            )
            c.insert_batch(_mk_items(rng, 1))
            c.flush()
            assert c.connected
        # daemon gone: degraded
        assert c.query_batch(
            [ShardQuery("Fu1D", 0, np.ones(12, dtype=np.float32))]
        )[0].hit is False
        assert not c.connected
        # daemon back on the same port: next call reconnects transparently
        with MemoServerDaemon(host=host, port=port, n_shards=1, memo=MEMO):
            deadline = 50
            while not c.connected and deadline:
                c.stats()
                deadline -= 1
            assert c.connected
            assert c.net_stats.connects == 2
        c.close()

    def test_pipelined_inserts_drain_before_sync_requests(self, daemon, client, rng):
        for _batch in range(3):
            client.insert_batch(_mk_items(rng, 2))
        assert client.net_stats.pipelined_inserts == 6
        # the sync stats request drains every outstanding ack first
        assert client.entries() == 6
        assert client.net_stats.drained_acks == 3

    def test_conflicting_client_encoders_rejected_once_tier_has_data(
        self, daemon, rng
    ):
        """The hot-path provenance gate: the first client to *insert* pins
        the tier's encoder fingerprint; from then on a client keyed by a
        different training is refused at connect — even fail-open — so two
        hosts can never co-mingle incompatible keys through plain
        insert/query traffic.  A handshake alone pins nothing: an empty
        tier must not get locked to a client that never contributed data."""
        fp_a = {"kind": "CNNKeyEncoder", "dim": 60, "weights": "training-1"}
        fp_b = {"kind": "CNNKeyEncoder", "dim": 60, "weights": "training-2"}
        c1 = RemoteMemoClient(daemon.address, encoder_fingerprint=fp_a)
        assert c1.connected
        # no data yet: a differently-keyed client still connects fine
        probe = RemoteMemoClient(daemon.address, encoder_fingerprint=fp_b)
        assert probe.connected
        probe.close()
        # first insert pins training-1
        c1.insert_batch(_mk_items(rng, 1))
        c1.flush()
        with pytest.raises(ValueError, match="different encoder"):
            RemoteMemoClient(daemon.address, encoder_fingerprint=fp_b,
                             fail_open=True)
        # a same-fingerprint client is welcome, and the first stays usable
        c3 = RemoteMemoClient(daemon.address, encoder_fingerprint=dict(fp_a))
        assert c3.connected and c1.entries() == 1
        c1.close()
        c3.close()

    def test_conflicting_encoder_connected_before_pin_blocked_per_request(
        self, daemon, rng
    ):
        """A client that handshook before the tier was pinned must still be
        stopped at its first data request after a conflicting pin — the
        window between handshake and pin is not a mixing loophole."""
        fp_a = {"kind": "CNNKeyEncoder", "dim": 60, "weights": "training-1"}
        fp_b = {"kind": "CNNKeyEncoder", "dim": 60, "weights": "training-2"}
        early = RemoteMemoClient(daemon.address, encoder_fingerprint=fp_b)
        assert early.connected  # tier still unpinned
        pinner = RemoteMemoClient(daemon.address, encoder_fingerprint=fp_a)
        pinner.insert_batch(_mk_items(rng, 1))
        pinner.flush()
        with pytest.raises(RemoteError, match="different encoder"):
            early.query_batch(
                [ShardQuery("Fu1D", 0, np.ones(12, dtype=np.float32))]
            )
        early.close()
        pinner.close()

    def test_remote_app_error_does_not_drop_connection(self, daemon, client):
        with pytest.raises(ValueError):
            client.push_state({"n_shards": 2})  # no partitions: not a tree
        assert client.connected
        assert client.entries() == 0  # connection still serviceable


def _until(condition, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


class TestPeriodicSnapshot:
    """``snapshot_interval_s``: the tier becomes durable while the daemon
    serves, not only when it is closed."""

    def test_snapshot_appears_without_close(self, tmp_path, rng):
        snap = tmp_path / "tier"
        with MemoServerDaemon(n_shards=2, memo=MEMO, snapshot_path=snap,
                              snapshot_interval_s=0.05) as srv:
            with RemoteMemoClient(srv.address) as c:
                c.insert_batch(_mk_items(rng, 4))
                c.flush()

            def persisted() -> int:
                if not snapshot_exists(snap):
                    return 0
                return len(memo_state_partitions(read_snapshot(snap, "memo-state")))

            assert _until(lambda: persisted() == 4), "no periodic snapshot of the inserts"
            assert srv.running and srv._snapshot_thread.is_alive()
        assert not srv._snapshot_thread.is_alive()  # close() joined the loop

    def test_failing_save_does_not_stop_serving_or_the_loop(self, tmp_path, rng, monkeypatch):
        from repro.service import snapshot as snapshot_mod

        real_write = snapshot_mod.write_snapshot
        failures = []

        def full_disk(*args, **kwargs):
            failures.append(1)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(snapshot_mod, "write_snapshot", full_disk)
        snap = tmp_path / "tier"
        with MemoServerDaemon(n_shards=1, memo=MEMO, snapshot_path=snap,
                              snapshot_interval_s=0.02) as srv:
            with RemoteMemoClient(srv.address) as c:
                c.insert_batch(_mk_items(rng, 2))
                c.flush()
                assert _until(lambda: len(failures) >= 2)
                assert c.entries() == 2 and c.ping()  # still serving
                assert srv.stats.snapshots_persisted == 0 and not snapshot_exists(snap)
                monkeypatch.setattr(snapshot_mod, "write_snapshot", real_write)
                assert _until(lambda: srv.stats.snapshots_persisted >= 1)  # the loop lived on
        assert len(memo_state_partitions(read_snapshot(snap, "memo-state"))) == 2


class TestIdleReaping:
    """``idle_timeout_s``: a silent peer cannot park a handler thread."""

    IDLE = 0.15

    @pytest.fixture()
    def reaper(self):
        with MemoServerDaemon(n_shards=1, memo=MEMO, idle_timeout_s=self.IDLE) as srv:
            yield srv

    def _hello(self, sock) -> FrameReader:
        reader = FrameReader(sock)
        send_frame(sock, MSG_HELLO, 0, {"version": PROTOCOL_VERSION})
        assert reader.read_frame()[0] == MSG_HELLO_OK
        return reader

    def test_rejects_a_non_positive_timeout(self):
        with pytest.raises(ValueError, match="idle_timeout_s"):
            MemoServerDaemon(idle_timeout_s=0)

    def test_silence_between_frames_is_reaped(self, reaper):
        with socket.create_connection(reaper.address, timeout=5.0) as sock:
            reader = self._hello(sock)
            msg_type, _rid, body = reader.read_frame()  # the server speaks first
            assert msg_type == MSG_ERROR and body["kind"] == "FrameTimeout"
            assert "between frames" in body["message"]
            assert sock.recv(1) == b""
        assert _until(lambda: reaper.stats.active_connections == 0)
        assert reaper.stats.idle_reaped == 1 and reaper.stats.protocol_errors == 0

    def test_silence_inside_a_frame_is_reaped(self, reaper):
        frame = encode_frame(MSG_INSERT, 1, {"inserts": []})
        with socket.create_connection(reaper.address, timeout=5.0) as sock:
            reader = self._hello(sock)
            sock.sendall(frame[: len(frame) - 3])
            msg_type, _rid, body = reader.read_frame()
            assert msg_type == MSG_ERROR and body["kind"] == "FrameTimeout"
            assert "mid-frame" in body["message"]
            assert sock.recv(1) == b""
        assert _until(lambda: reaper.stats.idle_reaped == 1)

    def test_a_pinging_client_is_not_reaped(self, reaper):
        with RemoteMemoClient(reaper.address) as c:
            stop = time.monotonic() + 4 * self.IDLE
            while time.monotonic() < stop:
                assert c.ping()
                time.sleep(self.IDLE / 5)
            assert reaper.stats.idle_reaped == 0 and reaper.stats.connections == 1
            assert reaper.stats.pings >= 4

    def test_a_reaped_client_reconnects_on_demand(self, reaper, rng):
        with RemoteMemoClient(reaper.address) as c:
            c.insert_batch(_mk_items(rng, 2))
            c.flush()
            assert _until(lambda: reaper.stats.idle_reaped == 1)
            assert c.entries() == 2  # a fresh connection, the tier untouched
            assert reaper.stats.connections == 2


@pytest.mark.slow
class TestCommandLine:
    """``python -m repro.net.server`` past its argument parsing: it serves,
    and SIGINT shuts it down cleanly with the tier persisted."""

    ROOT = Path(__file__).resolve().parents[2]

    def test_serves_then_persists_on_sigint(self, tmp_path, rng):
        snap = tmp_path / "tier"
        cmd = [sys.executable, "-m", "repro.net.server", "--host", "127.0.0.1",
               "--port", "0", "--shards", "1", "--snapshot", str(snap)]
        env = dict(os.environ, PYTHONPATH=str(self.ROOT / "src"))
        proc = subprocess.Popen(
            cmd, env=env, cwd=self.ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
            # a child may inherit SIGINT ignored; the daemon persists on KeyboardInterrupt
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.default_int_handler),
        )
        lines: queue.Queue = queue.Queue()
        reader = threading.Thread(
            target=lambda: [lines.put(ln) for ln in proc.stderr], daemon=True
        )
        reader.start()
        try:
            port, deadline = None, time.monotonic() + 60.0
            while port is None and time.monotonic() < deadline:
                try:
                    line = lines.get(timeout=1.0)
                except queue.Empty:
                    assert proc.poll() is None, "the daemon exited before listening"
                    continue
                found = re.search(r"listening on [\d.]+:(\d+)", line)
                port = int(found.group(1)) if found else None
            assert port, "no 'listening on' line"
            item = _mk_items(rng, 1)[0]
            with RemoteMemoClient(("127.0.0.1", port), expect_tau=0.92) as c:
                c.insert_batch([item])
                c.flush()
                (res,) = c.query_batch([ShardQuery(item.op, item.location, item.key)])
            assert res.hit
            np.testing.assert_array_equal(res.value, item.value)
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=30) == 0
            assert len(memo_state_partitions(read_snapshot(snap, "memo-state"))) == 1
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)
            reader.join(timeout=10)
            proc.stderr.close()
