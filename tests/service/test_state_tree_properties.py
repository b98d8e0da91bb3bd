"""Generated state trees across the three serialisation boundaries.

One Hypothesis strategy builds the trees a ``state_dict()`` may hold —
nested dicts/lists of ``None``, bools, i64 ints, floats (``nan``, ``±inf``,
``-0.0``), complex, str, bytes and ndarrays of every numeric dtype in every
memory layout — and one test body asserts they round-trip (structure,
dtype, shape, bytes) through the codec itself, through a wire frame, and
through a snapshot file.  A second property damages a snapshot file at a
generated place: any truncation and any single bit flip is a
:class:`SnapshotError`, never another exception and never a tree.
"""

from __future__ import annotations

import io
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.kvstore.serialization import decode_tree, encode_tree
from repro.net.wire import MSG_SNAP_PUSH, FrameReader, encode_frame
from repro.service import SnapshotError, read_snapshot, write_snapshot

# -- the strategy ------------------------------------------------------------------------

NUMERIC_DTYPES = [
    np.dtype(code)
    for code in ("?", "i1", "i2", "i4", "i8", "u1", "u2", "u4", "u8",
                 "f2", "f4", "f8", "c8", "c16")
]


@st.composite
def arrays(draw) -> np.ndarray:
    """An ndarray of any numeric dtype: 0-d, empty and multi-dimensional
    shapes; C-order, Fortran-order, a non-contiguous strided view, or
    big-endian storage."""
    dtype = draw(st.sampled_from(NUMERIC_DTYPES))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
    arr = draw(hnp.arrays(dtype, shape))
    layout = draw(st.sampled_from(["C", "F", "strided", "big-endian"]))
    if layout == "F":
        return np.asfortranarray(arr)
    if layout == "strided" and arr.ndim:
        return np.repeat(arr, 2, axis=-1)[..., ::2]
    if layout == "big-endian":
        return arr.astype(dtype.newbyteorder(">"))
    return arr


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=True, allow_infinity=True),
    st.just(-0.0),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.text(max_size=12),
    st.binary(max_size=24),
    arrays(),
)

state_trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=12,
)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)  # tells nan from nan, -0.0 from 0.0


def assert_round_tripped(sent, got) -> None:
    if isinstance(sent, np.ndarray):
        assert isinstance(got, np.ndarray)
        wire_dtype = sent.dtype.newbyteorder("<")  # storage is little-endian
        assert got.dtype == wire_dtype and got.shape == sent.shape
        assert got.tobytes() == sent.astype(wire_dtype).tobytes()  # C order
    elif isinstance(sent, dict):
        assert type(got) is dict and list(got) == list(sent)
        for key in sent:
            assert_round_tripped(sent[key], got[key])
    elif isinstance(sent, list):
        assert type(got) is list and len(got) == len(sent)
        for x, y in zip(sent, got):
            assert_round_tripped(x, y)
    elif isinstance(sent, complex):
        assert type(got) is complex
        assert (_bits(got.real), _bits(got.imag)) == (_bits(sent.real), _bits(sent.imag))
    elif isinstance(sent, float):
        assert type(got) is float and _bits(got) == _bits(sent)
    else:
        assert type(got) is type(sent) and got == sent


# -- the three boundaries ----------------------------------------------------------------


def through_codec(tree):
    return decode_tree(encode_tree(tree))


class _Sock:
    def __init__(self, data: bytes) -> None:
        self.recv = io.BytesIO(data).read


def through_wire_frame(tree):
    frame = encode_frame(MSG_SNAP_PUSH, 1, tree)
    msg_type, request_id, body = FrameReader(_Sock(frame)).read_frame()
    assert (msg_type, request_id) == (MSG_SNAP_PUSH, 1)
    return body


def through_snapshot_file(tree):
    with tempfile.TemporaryDirectory() as tmp:
        write_snapshot(tmp, tree, kind="generated")
        return read_snapshot(tmp, expect_kind="generated")


@pytest.mark.parametrize(
    "boundary", [through_codec, through_wire_frame, through_snapshot_file]
)
@settings(max_examples=60, deadline=None)
@given(tree=state_trees)
def test_state_trees_round_trip(boundary, tree):
    assert_round_tripped(tree, boundary(tree))


def test_one_tree_has_one_byte_representation():
    """What a frame carries and what a snapshot file holds are the same
    payload bytes: there is one codec, not two that happen to agree."""
    tree = {"k": [1, 2.5, None, b"raw"], "a": np.arange(6, dtype=np.complex64)}
    payload = encode_tree(tree)
    assert encode_frame(MSG_SNAP_PUSH, 1, tree).endswith(payload)
    with tempfile.TemporaryDirectory() as tmp:
        write_snapshot(tmp, tree, kind="generated")
        with open(f"{tmp}/snapshot.mlr", "rb") as fh:
            assert fh.read().endswith(payload)


# -- generated corruption ----------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(tree=state_trees, data=st.data())
def test_any_truncation_or_bit_flip_is_a_snapshot_error(tree, data):
    with tempfile.TemporaryDirectory() as tmp:
        write_snapshot(tmp, tree, kind="generated")
        target = f"{tmp}/snapshot.mlr"
        with open(target, "rb") as fh:
            raw = bytearray(fh.read())
        if data.draw(st.booleans(), label="truncate"):
            del raw[data.draw(st.integers(0, len(raw) - 1), label="keep"):]
        else:
            bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
            raw[bit // 8] ^= 1 << (bit % 8)
        with open(target, "wb") as fh:
            fh.write(raw)
        with pytest.raises(SnapshotError):
            read_snapshot(tmp)  # no expect_kind: the digest alone must tell
