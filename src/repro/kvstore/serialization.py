"""The repo's one serialisation: array frames and the state-tree codec.

**Array frame.**  The value database stores FFT-operation outputs as opaque
byte strings (the way Redis would); :func:`encode_array` frames dtype/shape
so arrays round-trip exactly.  Frames must be portable across hosts: payload
bytes are always little-endian (big-endian and byte-swapped inputs are
normalized on encode), 0-d and Fortran-order arrays round-trip, and object
dtypes — which have no stable byte representation — are rejected loudly on
both ends.  Layout::

    magic (4s) | version (u8) | dtype-string length (u8) | ndim (u8) | pad (u8)
    | shape (ndim * u64) | dtype string | raw bytes (C order, little-endian)

**State-tree codec.**  :func:`encode_tree` / :func:`decode_tree` serialise a
tree of ``None`` / bools / ints (i64) / floats / complex / str / bytes /
lists / ``str``-keyed dicts with ndarray leaves: one tag byte per node,
little-endian fixed-width scalars, length-prefixed strings and containers,
arrays as the frame above.  It is the payload of every wire frame
(:mod:`repro.net.wire`) *and* of every on-disk snapshot
(:mod:`repro.service.snapshot`) — a ``state_dict()`` tree has exactly one
byte representation, and this leaf module is the only place that knows it.
Both boundaries translate :class:`TreeError` into their own typed error.
Tuples decode as lists and numpy scalars as python scalars; everything else
round-trips to an equal tree.  Nesting is bounded by :data:`MAX_TREE_DEPTH`
so a hostile or corrupt payload fails typed instead of exhausting the
interpreter stack.
"""

from __future__ import annotations

import struct

import numpy as np

__all__ = [
    "encode_array",
    "decode_array",
    "encoded_nbytes",
    "MAX_TREE_DEPTH",
    "TreeError",
    "encode_tree",
    "decode_tree",
]

_MAGIC = b"mLRv"
_HEADER = struct.Struct("<4sBBBB")

_LITTLE_ENDIAN = np.dtype("<i4").isnative


def _wire_dtype(dtype: np.dtype) -> np.dtype:
    """The (little-endian) dtype an array travels as; rejects object dtypes."""
    if dtype.hasobject:
        raise TypeError(
            f"cannot serialize object dtype {dtype!r}: object arrays have no "
            "stable byte representation (convert to a numeric/bytes dtype first)"
        )
    # '>' is big-endian; '=' is native, which is '>' on big-endian hosts.
    # Normalizing to explicit little-endian makes the payload portable:
    # frames written on any host decode identically on any other.
    if dtype.byteorder == ">" or (dtype.byteorder == "=" and not _LITTLE_ENDIAN):
        return dtype.newbyteorder("<")
    return dtype


def encode_array(a: np.ndarray) -> bytes:
    """Serialize an array (any dtype/shape) to a self-describing byte string."""
    a = np.asarray(a)
    # asarray (not ascontiguousarray, which promotes 0-d to 1-d) so scalar
    # arrays keep their shape; order="C" linearizes Fortran-order inputs
    a = np.asarray(a, dtype=_wire_dtype(a.dtype), order="C")
    dtype_str = a.dtype.str.encode("ascii")
    if len(dtype_str) > 255:
        raise ValueError(f"dtype string too long: {a.dtype}")
    if a.ndim > 255:
        raise ValueError(f"too many dimensions: {a.ndim}")
    header = _HEADER.pack(_MAGIC, 1, len(dtype_str), a.ndim, 0)
    shape = struct.pack(f"<{a.ndim}Q", *a.shape)
    return header + shape + dtype_str + a.tobytes()


def decode_array(raw) -> np.ndarray:
    """Inverse of :func:`encode_array` (``raw``: any bytes-like buffer)."""
    if len(raw) < _HEADER.size:
        raise ValueError("buffer too short for header")
    magic, version, dlen, ndim, _ = _HEADER.unpack_from(raw, 0)
    if magic != _MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if version != 1:
        raise ValueError(f"unsupported version {version}")
    off = _HEADER.size
    if len(raw) < off + 8 * ndim + dlen:
        raise ValueError("buffer too short for shape/dtype header")
    shape = struct.unpack_from(f"<{ndim}Q", raw, off)
    off += 8 * ndim
    try:
        dtype = np.dtype(str(raw[off : off + dlen], "ascii"))
    except (TypeError, ValueError, UnicodeDecodeError) as exc:
        raise ValueError(f"undecodable dtype string: {exc}") from None
    if dtype.hasobject:
        # an object dtype string on the wire is either corruption or an
        # attempt to smuggle pickled payloads — never frombuffer it
        raise ValueError(f"refusing to decode object dtype {dtype!r}")
    off += dlen
    a = np.frombuffer(raw, dtype=dtype, offset=off)
    expect = int(np.prod(shape)) if ndim else 1
    if a.size != expect:
        raise ValueError(f"payload size {a.size} != shape product {expect}")
    return a.reshape(shape).copy()


def encoded_nbytes(a: np.ndarray) -> int:
    """Size in bytes :func:`encode_array` would produce (without encoding)."""
    return _HEADER.size + 8 * a.ndim + len(a.dtype.str) + a.nbytes


# -- state-tree codec ----------------------------------------------------------------------
#
# One tag byte per node.  Arrays defer to encode_array, so the numeric
# payloads (keys, values, snapshot blobs) share the store's exact format.

#: deepest container nesting either direction accepts (state trees nest < 10)
MAX_TREE_DEPTH = 64

_T_NONE = b"N"
_T_TRUE = b"T"
_T_FALSE = b"F"
_T_INT = b"i"
_T_FLOAT = b"f"
_T_COMPLEX = b"c"
_T_STR = b"s"
_T_BYTES = b"y"
_T_ARRAY = b"a"
_T_LIST = b"l"
_T_DICT = b"d"

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_C128 = struct.Struct("<dd")


class TreeError(ValueError):
    """A node the codec cannot encode, or a payload that does not decode."""


def _deeper(depth: int) -> int:
    if depth >= MAX_TREE_DEPTH:
        raise TreeError(f"tree nests deeper than {MAX_TREE_DEPTH} containers")
    return depth + 1


def _encode_into(obj, out: bytearray, depth: int) -> None:
    if obj is None:
        out += _T_NONE
    elif isinstance(obj, (bool, np.bool_)):
        out += _T_TRUE if obj else _T_FALSE
    elif isinstance(obj, (int, np.integer)):
        try:
            out += _T_INT + _I64.pack(int(obj))
        except struct.error:
            raise TreeError(f"integer {obj!r} exceeds the codec's i64 range") from None
    elif isinstance(obj, (float, np.floating)):
        out += _T_FLOAT + _F64.pack(float(obj))
    elif isinstance(obj, (complex, np.complexfloating)):
        c = complex(obj)
        out += _T_COMPLEX + _C128.pack(c.real, c.imag)
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        out += _T_STR + _U32.pack(len(raw)) + raw
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        raw = bytes(obj)
        out += _T_BYTES + _U64.pack(len(raw))
        out += raw
    elif isinstance(obj, np.ndarray):
        try:
            raw = encode_array(obj)
        except (TypeError, ValueError) as exc:
            raise TreeError(f"unserializable array node: {exc}") from None
        out += _T_ARRAY + _U64.pack(len(raw))
        out += raw  # appended on its own: no second copy of a large frame
    elif isinstance(obj, (list, tuple)):
        depth = _deeper(depth)
        out += _T_LIST + _U32.pack(len(obj))
        for item in obj:
            _encode_into(item, out, depth)
    elif isinstance(obj, dict):
        depth = _deeper(depth)
        out += _T_DICT + _U32.pack(len(obj))
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TreeError(f"tree dict keys must be str, got {key!r}")
            raw = key.encode("utf-8")
            out += _U32.pack(len(raw)) + raw
            _encode_into(value, out, depth)
    else:
        raise TreeError(f"unserializable tree node {type(obj).__name__}")


def encode_tree(obj) -> bytes:
    """Encode one tree of plain python values and ndarrays."""
    out = bytearray()
    _encode_into(obj, out, 0)
    return bytes(out)


def _need(raw, off: int, n: int) -> None:
    if off + n > len(raw):
        raise TreeError("payload ends inside a value")


def _decode_from(raw, off: int, depth: int):
    _need(raw, off, 1)
    tag = raw[off : off + 1]
    off += 1
    if tag == _T_NONE:
        return None, off
    if tag == _T_TRUE:
        return True, off
    if tag == _T_FALSE:
        return False, off
    if tag == _T_INT:
        _need(raw, off, 8)
        return _I64.unpack_from(raw, off)[0], off + 8
    if tag == _T_FLOAT:
        _need(raw, off, 8)
        return _F64.unpack_from(raw, off)[0], off + 8
    if tag == _T_COMPLEX:
        _need(raw, off, 16)
        re, im = _C128.unpack_from(raw, off)
        return complex(re, im), off + 16
    if tag == _T_STR:
        _need(raw, off, 4)
        n = _U32.unpack_from(raw, off)[0]
        off += 4
        _need(raw, off, n)
        try:
            return str(raw[off : off + n], "utf-8"), off + n
        except UnicodeDecodeError as exc:
            raise TreeError(f"invalid utf-8 in string value: {exc}") from None
    if tag == _T_BYTES:
        _need(raw, off, 8)
        n = _U64.unpack_from(raw, off)[0]
        off += 8
        _need(raw, off, n)
        return bytes(raw[off : off + n]), off + n
    if tag == _T_ARRAY:
        _need(raw, off, 8)
        n = _U64.unpack_from(raw, off)[0]
        off += 8
        _need(raw, off, n)
        try:
            # a window, not a slice: the frame's bytes are copied once, into
            # the decoded array
            return decode_array(memoryview(raw)[off : off + n]), off + n
        except (ValueError, TypeError) as exc:
            raise TreeError(f"bad array payload: {exc}") from None
    if tag == _T_LIST:
        depth = _deeper(depth)
        _need(raw, off, 4)
        n = _U32.unpack_from(raw, off)[0]
        off += 4
        items = []
        for _ in range(n):
            item, off = _decode_from(raw, off, depth)
            items.append(item)
        return items, off
    if tag == _T_DICT:
        depth = _deeper(depth)
        _need(raw, off, 4)
        n = _U32.unpack_from(raw, off)[0]
        off += 4
        out = {}
        for _ in range(n):
            _need(raw, off, 4)
            klen = _U32.unpack_from(raw, off)[0]
            off += 4
            _need(raw, off, klen)
            try:
                key = str(raw[off : off + klen], "utf-8")
            except UnicodeDecodeError as exc:
                raise TreeError(f"invalid utf-8 in dict key: {exc}") from None
            off += klen
            out[key], off = _decode_from(raw, off, depth)
        return out, off
    raise TreeError(f"unknown payload tag {bytes(tag)!r}")


def decode_tree(raw):
    """Decode one :func:`encode_tree` payload (``bytes`` or any other
    bytes-like buffer; array and bytes leaves are copied out of it);
    trailing garbage is an error."""
    obj, off = _decode_from(raw, 0, 0)
    if off != len(raw):
        raise TreeError(f"{len(raw) - off} trailing bytes after the tree")
    return obj
