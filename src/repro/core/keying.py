"""Chunk -> key pipeline: downsample, (optionally) CNN-encode.

The memoization database is keyed by a low-dimensional representation of
each FFT operation's input chunk.  Two encoders are provided:

``PoolKeyEncoder``
    Deterministic: collapse the chunk's slab axis, block-average the
    remaining 2-D complex image to ``key_hw x key_hw``, and flatten
    real/imag into a ``2*key_hw**2`` float vector.  Linear, so cosine
    similarity of keys tracks cosine similarity of chunks by construction.
    This is the default for large experiment sweeps.

``CNNKeyEncoder``
    The paper's approach: the pooled image feeds the contrastively trained
    3-layer CNN (optionally INT8-quantized), producing an ``embed_dim`` key.
    Distance structure is learned rather than inherited (Section 4.3.1).
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..nn.cnn import ChunkEncoder
from ..nn.quantize import QuantizedEncoder

__all__ = [
    "chunk_to_image",
    "chunk_to_stack",
    "pool3d",
    "state_digest",
    "check_fingerprint",
    "PoolKeyEncoder",
    "CNNKeyEncoder",
]


def chunk_to_image(chunk: np.ndarray, hw: int) -> np.ndarray:
    """Collapse a 3-D chunk to an ``hw x hw`` complex image.

    The slab (chunk) axis is averaged first, then the remaining 2-D image is
    block-averaged; axes thinner than ``hw`` are nearest-neighbor upsampled
    so the output is always exactly ``(hw, hw)`` — the CNN encoder needs a
    fixed input size regardless of chunk geometry.
    """
    chunk = np.asarray(chunk)
    if chunk.ndim != 3:
        raise ValueError(f"expected a 3-D chunk, got shape {chunk.shape}")
    img = chunk_to_stack(chunk, hw, depth=1)[0]
    for axis in (0, 1):
        if img.shape[axis] < hw:
            reps = -(-hw // img.shape[axis])
            img = np.repeat(img, reps, axis=axis)
            img = np.take(img, range(hw), axis=axis)
    return img


def chunk_to_stack(chunk: np.ndarray, hw: int, depth: int = 4) -> np.ndarray:
    """Block-average a 3-D chunk to a ``(depth, hw, hw)`` complex stack."""
    return pool3d(chunk, (depth, hw, hw))


def pool3d(chunk: np.ndarray, target: tuple[int, int, int]) -> np.ndarray:
    """Block-average a 3-D chunk down to (at most) ``target`` per axis.

    Every axis keeps resolution up to its target — nothing is fully
    collapsed.  This matters for gate fidelity: the adjoint operations'
    residual chunks vary strongly along the (wide) angle axis, and a key
    that averaged that axis away would make unrelated residuals look alike,
    silently loosening the Eq. 3 threshold.  Axes shorter than their target
    are kept as is.
    """
    chunk = np.asarray(chunk)
    if chunk.ndim != 3:
        raise ValueError(f"expected a 3-D chunk, got shape {chunk.shape}")
    dims = tuple(min(t, s) for t, s in zip(target, chunk.shape))
    pads = tuple((-s) % d for s, d in zip(chunk.shape, dims))
    if any(pads):
        chunk = np.pad(chunk, tuple((0, p) for p in pads))
    d0, d1, d2 = dims
    s0, s1, s2 = chunk.shape
    return chunk.reshape(d0, s0 // d0, d1, s1 // d1, d2, s2 // d2).mean(axis=(1, 3, 5))


def _hash_state(node, h) -> None:
    """Deterministic structural hash of a state tree (dict order-insensitive,
    arrays hashed dtype+shape+bytes, numpy scalars normalized to python so a
    live tree and its snapshot round trip digest identically) — the
    key-encoder provenance digest."""
    if isinstance(node, dict):
        h.update(b"d")
        for key in sorted(node):
            h.update(str(key).encode("utf-8") + b"\x00")
            _hash_state(node[key], h)
    elif isinstance(node, (list, tuple)):
        h.update(b"l")
        for item in node:
            _hash_state(item, h)
    elif isinstance(node, np.ndarray):
        arr = np.ascontiguousarray(node)
        h.update(b"a" + arr.dtype.str.encode("ascii") + str(arr.shape).encode("ascii"))
        h.update(arr.tobytes())
    else:
        if isinstance(node, np.bool_):
            node = bool(node)
        elif isinstance(node, np.integer):
            node = int(node)
        elif isinstance(node, np.floating):
            node = float(node)
        h.update(b"s" + repr(node).encode("utf-8"))


def state_digest(state) -> str:
    """Content hash of a state tree — what `CNNKeyEncoder.weights_digest`
    computes, callable on a raw (e.g. snapshot-loaded) tree without
    rebuilding the encoder first."""
    h = hashlib.sha256()
    _hash_state(state, h)
    return h.hexdigest()


def check_fingerprint(ours: dict | None, theirs: dict | None, how: str) -> None:
    """One encoder feeds a memo tier: raise ``ValueError`` when two encoder
    fingerprints (``{"kind", "dim", "weights"}``, see
    ``MemoizedExecutor._encoder_fingerprint``) name different encoders.

    Keys from different encoders — kinds, key sizes or CNN trainings —
    never tau-match, so mixing them silently degrades every hit decision;
    the executor loading a snapshot, the tier taking a push and the daemon
    admitting a client all fail fast through this one comparison.  ``how``
    names the side being checked (``"snapshot"``, ``"pushed"``,
    ``"client"``).  A field either side leaves empty is not compared
    (bare router trees carry no provenance, the pool encoder no weights).
    """
    if not ours or not theirs:
        return
    fields = {"kind": "kind", "dim": "key dimensionality", "weights": "weights"}
    for name, what in fields.items():
        a, b = ours.get(name), theirs.get(name)
        if a and b and a != b:
            raise ValueError(
                f"{how} keys come from a different encoder ({what}: {b!r} != "
                f"{a!r}) — one encoder must feed a tier; install the "
                "snapshot's own encoder (its 'encoder_state') or re-train"
            )


class PoolKeyEncoder:
    """Linear pooled key: flattened real/imag of the downsampled chunk stack.

    Two fidelity-critical details (both still linear, so key distances stay
    proportional to chunk distances):

    - the pooled stack's mean is removed before flattening — frequency-domain
      chunks are DC-dominated, and without mean removal the cosine similarity
      of any two spectra saturates near 1, destroying the discriminative
      power the Eq. 3 threshold needs (the DC component is handled exactly by
      the engine's affine reuse instead);
    - ``depth`` bins of the leading chunk axis are preserved rather than
      collapsed, keeping along-axis structure visible to the gate.
    """

    def __init__(self, key_hw: int = 8, depth: int = 16) -> None:
        if key_hw < 2:
            raise ValueError(f"key_hw must be >= 2, got {key_hw}")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.key_hw = key_hw
        self.depth = depth

    @property
    def dim(self) -> int:
        """Nominal (maximum) key dimensionality; thin chunks produce fewer
        elements — the engine sizes each database partition from the actual
        key it sees."""
        return 2 * self.depth * self.key_hw * self.key_hw

    def encode(self, chunk: np.ndarray) -> np.ndarray:
        stack = pool3d(chunk, (self.depth, self.key_hw, self.key_hw))
        stack = stack - stack.mean()
        return np.concatenate(
            [stack.real.ravel(), stack.imag.ravel()]
        ).astype(np.float32)


class CNNKeyEncoder:
    """CNN key: pooled image -> (quantized) ChunkEncoder embedding."""

    def __init__(self, encoder: ChunkEncoder, quantized: bool = True) -> None:
        self._float_encoder = encoder
        self._enc = QuantizedEncoder(encoder) if quantized else encoder
        self.key_hw = encoder.input_hw

    @property
    def dim(self) -> int:
        return self._float_encoder.embed_dim

    def encode(self, chunk: np.ndarray) -> np.ndarray:
        img = chunk_to_image(chunk, self.key_hw)
        return self._enc.encode(img[None]).astype(np.float32)[0]

    # -- snapshot hooks ------------------------------------------------------------------

    @property
    def quantized(self) -> bool:
        return isinstance(self._enc, QuantizedEncoder)

    def state_dict(self) -> dict:
        """Float weights plus the quantization flag.  INT8 quantization is a
        deterministic function of the float weights, so restoring the float
        encoder and re-quantizing reproduces the exact int8 tensors (and
        bit-identical keys) of the live encoder."""
        return {"encoder": self._float_encoder.state_dict(), "quantized": self.quantized}

    def weights_digest(self) -> str:
        """Content hash of the encoder state (weights + config + quantization
        flag).  Recorded in memo-snapshot fingerprints: keys produced by
        different trainings never tau-match, so a warm start across encoder
        weights must fail fast (or install the snapshot's own encoder)
        instead of silently running at ~0% hit rate."""
        return state_digest(self.state_dict())

    @classmethod
    def from_state(cls, state: dict) -> "CNNKeyEncoder":
        return cls(
            ChunkEncoder.from_state(state["encoder"]), quantized=bool(state["quantized"])
        )
