"""Wire protocol: framing, payload codec, and hostile-input behavior.

The protocol's contract is that malformed input — truncated, corrupted,
garbage, or version-skewed frames — raises a *typed* ProtocolError
subclass, never hangs, and never silently misparses.
"""

from __future__ import annotations

import io
import struct
import zlib

import numpy as np
import pytest

from repro.core.memo_db import MemoDBStats, QueryOutcome
from repro.core.memo_shard import ShardInsert, ShardQuery
from repro.kvstore.serialization import MAX_TREE_DEPTH
from repro.net.wire import (
    MSG_QUERY,
    PROTOCOL_VERSION,
    ChecksumError,
    ConnectionClosed,
    FrameError,
    FrameReader,
    MessageError,
    ProtocolError,
    TruncatedFrame,
    VersionMismatch,
    encode_frame,
    inserts_from_wire,
    inserts_to_wire,
    outcomes_from_wire,
    outcomes_to_wire,
    pack_obj,
    parse_address,
    queries_from_wire,
    queries_to_wire,
    stats_from_wire,
    stats_to_wire,
    unpack_obj,
)


class _StreamSock:
    """Minimal socket stand-in: recv() drains a byte string."""

    def __init__(self, data: bytes, chunk: int | None = None) -> None:
        self._buf = io.BytesIO(data)
        self._chunk = chunk

    def recv(self, n: int) -> bytes:
        if self._chunk is not None:
            n = min(n, self._chunk)
        return self._buf.read(n)


def read_one(data: bytes, chunk: int | None = None):
    return FrameReader(_StreamSock(data, chunk)).read_frame()


class TestPayloadCodec:
    @pytest.mark.parametrize(
        "obj",
        [
            None,
            True,
            False,
            0,
            -(2**62),
            2**62,
            3.5,
            float("inf"),
            2.5 - 1.5j,
            "",
            "snake — unicode ✓",
            b"",
            b"\x00\xffraw",
            [],
            [1, "two", None, [3.0]],
            {},
            {"a": 1, "b": {"c": [True, b"x"]}},
        ],
    )
    def test_scalar_roundtrip(self, obj):
        assert unpack_obj(pack_obj(obj)) == obj

    def test_tuple_roundtrips_as_list(self):
        assert unpack_obj(pack_obj((1, 2))) == [1, 2]

    @pytest.mark.parametrize(
        "arr",
        [
            np.arange(6, dtype=np.float32).reshape(2, 3),
            np.array(2.5 + 1j, dtype=np.complex64),
            np.zeros((0, 4), dtype=np.int64),
            np.asfortranarray(np.arange(12).reshape(3, 4)),
        ],
    )
    def test_array_roundtrip(self, arr):
        out = unpack_obj(pack_obj({"a": arr}))["a"]
        np.testing.assert_array_equal(out, np.ascontiguousarray(arr))
        assert out.dtype == arr.dtype

    def test_numpy_scalars_coerce(self):
        out = unpack_obj(pack_obj({"i": np.int32(7), "f": np.float64(2.5),
                                   "c": np.complex64(1 + 2j), "b": np.bool_(True)}))
        assert out == {"i": 7, "f": 2.5, "c": (1 + 2j), "b": True}

    def test_unserializable_raises_typed(self):
        with pytest.raises(MessageError):
            pack_obj(object())
        with pytest.raises(MessageError):
            pack_obj({1: "non-str key"})
        with pytest.raises(MessageError):
            pack_obj(2**70)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(MessageError):
            unpack_obj(pack_obj(1) + b"x")

    def test_truncated_payloads_raise_typed(self):
        raw = pack_obj({"k": [1, 2.5, "str", b"bytes", np.arange(3)]})
        for cut in range(len(raw)):
            with pytest.raises(MessageError):
                unpack_obj(raw[:cut])

    def test_fuzzed_random_payloads_never_hang_or_crash(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            blob = rng.integers(0, 256, size=int(rng.integers(1, 80)),
                                dtype=np.uint8).tobytes()
            try:
                unpack_obj(blob)
            except MessageError:
                pass  # the only acceptable failure mode


class TestFraming:
    def test_frame_roundtrip(self):
        body = {"queries": [{"op": "Fu1D", "key": np.arange(4, dtype=np.float32)}]}
        frame = encode_frame(MSG_QUERY, 17, body)
        msg_type, rid, out = read_one(frame)
        assert (msg_type, rid) == (MSG_QUERY, 17)
        np.testing.assert_array_equal(out["queries"][0]["key"],
                                      body["queries"][0]["key"])

    def test_dribbled_bytes_reassemble(self):
        frame = encode_frame(MSG_QUERY, 3, {"x": list(range(50))})
        msg_type, rid, out = read_one(frame, chunk=1)  # 1 byte per recv
        assert (rid, out["x"][-1]) == (3, 49)

    def test_two_frames_back_to_back(self):
        data = encode_frame(1, 1, "first") + encode_frame(2, 2, "second")
        reader = FrameReader(_StreamSock(data))
        assert reader.read_frame()[2] == "first"
        assert reader.read_frame()[2] == "second"
        with pytest.raises(ConnectionClosed):
            reader.read_frame()

    def test_clean_eof_is_connection_closed(self):
        with pytest.raises(ConnectionClosed):
            read_one(b"")

    def test_truncated_header_raises(self):
        frame = encode_frame(MSG_QUERY, 1, None)
        with pytest.raises(TruncatedFrame):
            read_one(frame[:10])

    def test_truncated_payload_raises(self):
        frame = encode_frame(MSG_QUERY, 1, {"k": b"0123456789"})
        with pytest.raises(TruncatedFrame):
            read_one(frame[:-3])

    def test_bad_magic_raises_frame_error(self):
        frame = bytearray(encode_frame(MSG_QUERY, 1, None))
        frame[:4] = b"HTTP"
        with pytest.raises(FrameError, match="magic"):
            read_one(bytes(frame))

    def test_version_mismatch_fails_fast_with_actionable_message(self):
        frame = bytearray(encode_frame(MSG_QUERY, 1, None))
        frame[4] = PROTOCOL_VERSION + 1
        with pytest.raises(VersionMismatch, match="upgrade"):
            read_one(bytes(frame))

    def test_corrupted_payload_raises_checksum_error(self):
        frame = bytearray(encode_frame(MSG_QUERY, 1, {"k": 123}))
        frame[-1] ^= 0xFF
        with pytest.raises(ChecksumError):
            read_one(bytes(frame))

    def test_absurd_declared_length_rejected_before_allocation(self):
        header = struct.Struct("<4sBBHQQI").pack(
            b"mLRn", PROTOCOL_VERSION, MSG_QUERY, 0, 1, 2**40,
            zlib.crc32(b"") & 0xFFFFFFFF,
        )
        with pytest.raises(FrameError, match="exceeds"):
            FrameReader(_StreamSock(header), max_payload=1 << 20).read_frame()

    def test_overdeep_payload_is_a_message_error_and_the_stream_survives(self):
        """25 KB of nested one-element lists inside a frame with a valid
        crc: the codec's depth bound answers with the wire's typed error
        (never ``RecursionError``), and — the frame having been consumed
        whole — the reader is still aligned on the next one."""
        payload = b"l\x01\0\0\0" * 5000 + b"N"
        header = struct.Struct("<4sBBHQQI").pack(
            b"mLRn", PROTOCOL_VERSION, MSG_QUERY, 0, 7, len(payload),
            zlib.crc32(payload) & 0xFFFFFFFF,
        )
        reader = FrameReader(_StreamSock(header + payload + encode_frame(1, 8, "next")))
        with pytest.raises(MessageError, match="nests deeper"):
            reader.read_frame()
        assert reader.read_frame() == (1, 8, "next")

    def test_nesting_up_to_the_bound_round_trips(self):
        deep = None
        for _ in range(MAX_TREE_DEPTH):
            deep = [deep]
        assert unpack_obj(pack_obj(deep)) == deep
        with pytest.raises(MessageError, match="nests deeper"):
            pack_obj([deep])
        loop: list = []
        loop.append(loop)
        with pytest.raises(MessageError, match="nests deeper"):
            pack_obj(loop)

    def test_garbage_streams_raise_typed_errors(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            blob = rng.integers(0, 256, size=64, dtype=np.uint8).tobytes()
            with pytest.raises(ProtocolError):
                read_one(blob)

    def test_bitflip_anywhere_never_misparses_silently(self):
        """Flipping any single byte of a valid frame either still yields the
        exact original message (flags/unused bits) or raises typed."""
        body = {"op": "Fu1D", "key": np.arange(8, dtype=np.float32)}
        frame = encode_frame(MSG_QUERY, 9, body)
        for pos in range(len(frame)):
            mutated = bytearray(frame)
            mutated[pos] ^= 0x01
            try:
                _t, _r, out = read_one(bytes(mutated))
            except ProtocolError:
                continue
            np.testing.assert_array_equal(out["key"], body["key"])


class TestTypedMessages:
    def test_query_batch_roundtrip(self):
        qs = [ShardQuery("Fu1D", 3, np.arange(5, dtype=np.float32)),
              ShardQuery("Fu2D*", 0, np.ones(2, dtype=np.float32))]
        back = queries_from_wire(unpack_obj(pack_obj(queries_to_wire(qs))))
        assert [(q.op, q.location) for q in back] == [("Fu1D", 3), ("Fu2D*", 0)]
        np.testing.assert_array_equal(back[0].key, qs[0].key)

    def test_insert_batch_roundtrip_with_meta(self):
        ins = [ShardInsert("Fu1D", 1, np.ones(3, dtype=np.float32),
                           np.arange(4, dtype=np.complex64), meta=(1.5, 2 - 1j)),
               ShardInsert("Fu1D", 2, np.ones(3, dtype=np.float32),
                           np.zeros(4, dtype=np.complex64), meta=None)]
        back = inserts_from_wire(unpack_obj(pack_obj(inserts_to_wire(ins))))
        assert back[0].meta == (1.5, 2 - 1j)
        assert back[1].meta is None
        np.testing.assert_array_equal(back[0].value, ins[0].value)

    def test_outcome_roundtrip_hit_and_miss(self):
        hit = QueryOutcome(np.arange(6, dtype=np.complex64), 0.987, 4, 9,
                           stored_meta=(3.0, 1j))
        miss = QueryOutcome(None, -2.0, -1, 9)
        back = outcomes_from_wire(unpack_obj(pack_obj(outcomes_to_wire([hit, miss]))))
        assert back[0].hit and back[0].similarity == 0.987
        assert back[0].stored_meta == (3.0, 1j)
        np.testing.assert_array_equal(back[0].value, hit.value)
        assert not back[1].hit and back[1].matched_id == -1

    def test_stats_roundtrip(self):
        st = MemoDBStats(queries=10, hits=4, inserts=6, bytes_inserted=100,
                         bytes_fetched=40, query_batches=3, insert_batches=2)
        assert stats_from_wire(unpack_obj(pack_obj(stats_to_wire(st)))) == st

    def test_malformed_bodies_raise_message_error(self):
        with pytest.raises(MessageError):
            queries_from_wire([{"op": "Fu1D"}])  # missing key/location
        with pytest.raises(MessageError):
            queries_from_wire([{"op": "Fu1D", "location": 0, "key": "not-an-array"}])
        with pytest.raises(MessageError):
            outcomes_from_wire([{"similarity": 1.0}])
        with pytest.raises(MessageError):
            inserts_from_wire([{"op": "x", "location": 0, "key": np.ones(2),
                                "value": np.ones(2), "meta": {"bogus": 1}}])


class TestParseAddress:
    def test_forms(self):
        assert parse_address("host:123") == ("host", 123)
        assert parse_address(("h", 9)) == ("h", 9)
        assert parse_address(["h", 9]) == ("h", 9)
        assert parse_address(":123") == ("127.0.0.1", 123)

    @pytest.mark.parametrize(
        "bad", ["nohost", "h:port", 123, None, ("h",), "::1", "1:2:3", "[::1]:80"]
    )
    def test_rejects(self, bad):
        """Bare IPv6 literals and multi-colon strings fail fast instead of
        misparsing into a bogus (host, port); IPv6 goes in as a pair."""
        with pytest.raises(ValueError):
            parse_address(bad)
