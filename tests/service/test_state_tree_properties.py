"""Generated state trees across the three serialisation boundaries.

One Hypothesis strategy builds the trees a ``state_dict()`` may hold —
nested dicts/lists of ``None``, bools, i64 ints, floats (``nan``, ``±inf``,
``-0.0``), complex, str, bytes and ndarrays of every numeric dtype in every
memory layout — and one test body asserts they round-trip (structure,
dtype, shape, bytes) through the codec itself, through a wire frame, and
through a snapshot file.  A second property damages a snapshot file at a
generated place: any truncation and any single bit flip is a
:class:`SnapshotError`, never another exception and never a tree.

The last section sends *component* states through the same three
boundaries: a generated script of inserts, queries and hits on a
:class:`MemoDatabase` (empty, cold, exactly-at-training and trained
partitions all occur), a bounded FIFO / LRU :class:`KVStore`, and a router
whose tree is pushed into another shard count.  What comes back answers
bit-identically, keeps evolving identically and re-serialises to the same
bytes.
"""

from __future__ import annotations

import contextlib
import io
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import MemoDatabase, MemoShardRouter
from repro.core.memo_shard import ShardInsert
from repro.kvstore import KVStore
from repro.kvstore import store as store_module
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


# -- component states through the same boundaries ------------------------------------------

BOUNDARIES = [through_codec, through_wire_frame, through_snapshot_file]


@contextlib.contextmanager
def heat_clock():
    """The stores' heat tick under the test's control: ``now[0]``."""
    now, real = [1000.0], store_module._heat_clock
    store_module._heat_clock = lambda: now[0]
    try:
        yield now
    finally:
        store_module._heat_clock = real


finite = dict(allow_nan=False, allow_infinity=False)
metas = st.one_of(
    st.none(),
    st.tuples(st.floats(0, 1e6, **finite),
              st.complex_numbers(max_magnitude=1e6, **finite)),
)
values = hnp.arrays(np.complex64, st.integers(0, 3).map(lambda n: (n,)))


@st.composite
def db_scripts(draw):
    """``(database config, steps, probes, later steps)``: keys come from a
    small pool (and multiples of it: cosine +-1 to the original), so
    queries hit; ``train_min`` against the number of inserts decides
    whether the partition ends empty, cold, exactly at training or past
    it."""
    dim = draw(st.integers(1, 5))
    pool = draw(st.lists(
        hnp.arrays(np.float32, (dim,), elements=st.floats(-4, 4, width=32)),
        min_size=1, max_size=6,
    ))
    keys = st.builds(
        lambda i, scale: pool[i] * np.float32(scale),
        st.integers(0, len(pool) - 1), st.sampled_from([1.0, 1.0, 0.5, 3.0, -1.0]),
    )
    config = dict(
        dim=dim,
        tau=draw(st.sampled_from([0.5, 0.92, 0.9999])),
        index_clusters=draw(st.integers(1, 3)),
        index_nprobe=draw(st.integers(1, 3)),
        train_min=draw(st.integers(1, 8)),
    )
    step = st.one_of(
        st.tuples(st.just("insert_batch"),
                  st.lists(st.tuples(keys, values, metas), min_size=1, max_size=5)),
        st.tuples(st.just("query_batch"), st.lists(keys, min_size=1, max_size=4)),
    )
    return (
        config,
        draw(st.lists(step, max_size=6)),
        draw(st.lists(keys, min_size=1, max_size=6)),
        draw(st.lists(step, max_size=3)),
    )


def play(db: MemoDatabase, steps, now) -> None:
    for name, payload in steps:
        now[0] += 1.0
        getattr(db, name)(payload)


def outcome_data(outcomes) -> list[tuple]:
    return [
        (o.hit, o.similarity, o.matched_id, o.n_entries, o.stored_meta,
         None if o.value is None else (o.value.dtype.str, o.value.shape, o.value.tobytes()))
        for o in outcomes
    ]


def same_database(restored: MemoDatabase, live: MemoDatabase, probes) -> None:
    """Bit-identical answers to a probe batch (value bytes, similarity,
    matched id, ``n_entries``, ``stored_meta``), then equal statistics,
    heat and serialised bytes."""
    assert outcome_data(restored.query_batch(probes)) == outcome_data(
        live.query_batch(probes)
    )
    assert restored.stats == live.stats and len(restored) == len(live)
    assert restored.values.stats == live.values.stats
    assert restored.values.heat_entries() == live.values.heat_entries()
    assert encode_tree(restored.state_dict()) == encode_tree(live.state_dict())


@pytest.mark.parametrize("boundary", BOUNDARIES)
@settings(max_examples=60, deadline=None)
@given(script=db_scripts())
def test_a_scripted_memo_database_round_trips(boundary, script):
    config, steps, probes, later = script
    with heat_clock() as now:
        live = MemoDatabase(**config)
        play(live, steps, now)
        state = live.state_dict()
        got = boundary(state)
        assert_round_tripped(state, got)
        restored = MemoDatabase.from_state(got)
        assert encode_tree(restored.state_dict()) == encode_tree(state)
        assert restored.index.is_trained == live.index.is_trained
        now[0] = 5000.0
        same_database(restored, live, probes)
        # ... and both keep evolving identically (training later, if cold)
        for db in (live, restored):
            now[0] = 6000.0
            play(db, later, now)
        same_database(restored, live, probes)


def test_the_generated_databases_cover_every_training_state():
    """The script strategy reaches empty, cold, exactly-at-training and
    trained partitions (checked on a fixed sample of it, so a change to the
    strategy cannot silently stop testing one of them)."""
    seen = set()

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(script=db_scripts())
    def sample(script):
        config, steps, _probes, _later = script
        with heat_clock() as now:
            db = MemoDatabase(**config)
            play(db, steps, now)
        n = len(db._keys)
        seen.add(
            "empty" if n == 0 else "cold" if not db.index.is_trained
            else "at-training" if n == config["train_min"] else "trained"
        )

    sample()
    assert seen == {"empty", "cold", "at-training", "trained"}


# a bounded store: ids from a small range so overwrites, evictions and LRU
# reorderings all happen
store_steps = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 7),
                  st.integers(0, 12).map(lambda n: np.full(n, n, dtype=np.uint8))),
        st.tuples(st.just("get"), st.integers(0, 7)),
        st.tuples(st.just("delete"), st.integers(0, 7)),
    ),
    max_size=24,
)


def play_store(store: KVStore, steps, now) -> None:
    for name, *args in steps:
        now[0] += 1.0
        getattr(store, name)(*args)


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("eviction", ["fifo", "lru"])
@settings(max_examples=40, deadline=None)
@given(steps=store_steps, later=store_steps, capacity=st.integers(40, 120))
def test_a_bounded_store_round_trips_in_eviction_order(
    boundary, eviction, steps, later, capacity
):
    with heat_clock() as now:
        live = KVStore(capacity_bytes=capacity, eviction=eviction)
        play_store(live, steps, now)
        state = live.state_dict()
        got = boundary(state)
        assert_round_tripped(state, got)
        restored = KVStore.from_state(got)
        for store in (live, restored):
            now[0] = 5000.0
            play_store(store, later, now)  # the same entries get evicted
        assert restored.keys() == live.keys()
        assert restored.nbytes == live.nbytes <= capacity
        assert restored.stats == live.stats
        assert restored.heat_entries() == live.heat_entries()
        assert encode_tree(restored.state_dict()) == encode_tree(live.state_dict())


router_inserts = st.lists(
    st.tuples(st.sampled_from(["Fu1D", "Fu2D"]), st.integers(0, 7),
              hnp.arrays(np.float32, (3,), elements=st.floats(-4, 4, width=32)),
              values, metas),
    max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(inserts=router_inserts, taken_at=st.integers(1, 4), pushed_into=st.integers(1, 4))
def test_a_tree_restores_onto_any_shard_count(inserts, taken_at, pushed_into):
    """Shard membership is routing: a tree taken at one shard count pushed
    into another has equal ``entries()`` and, partition for partition,
    equal states."""

    def make_db(dim):
        return MemoDatabase(dim, train_min=3, index_clusters=2)

    source = MemoShardRouter(taken_at, make_db)
    source.insert_batch([ShardInsert(*item) for item in inserts])
    tree = through_codec(source.state_dict())
    target = MemoShardRouter(pushed_into, make_db)
    assert target.push_state(tree)
    assert target.entries() == source.entries() == len(inserts)

    def partitions(router):
        return {
            (p["op"], p["location"]): encode_tree(p["db"])
            for p in router.state_dict()["partitions"]
        }

    assert partitions(target) == partitions(source)
    for shard in target.shards:
        assert all(
            p["location"] % pushed_into == shard.shard_id for p in shard.partition_states()
        )
