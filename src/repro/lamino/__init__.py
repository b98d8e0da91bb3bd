"""Laminography substrate: geometry, USFFT operators, phantoms, chunking."""

from .chunking import Chunk, check_tiling, chunk_ranges, iter_chunks
from .geometry import LaminoGeometry
from .operators import MEMOIZABLE_OPS, OP_NAMES, LaminoOperators
from .phantoms import brain_like, ic_layers, make_phantom, pcb, slab_envelope
from .projector import LaminoProjector, project_direct, simulate_data
from .usfft import (
    USFFT1DPlan,
    USFFT2DPlan,
    dtft1d_direct,
    dtft2d_direct,
    usfft1d_type1,
    usfft1d_type2,
    usfft2d_type1,
    usfft2d_type2,
)

__all__ = [
    "Chunk",
    "check_tiling",
    "chunk_ranges",
    "iter_chunks",
    "LaminoGeometry",
    "LaminoOperators",
    "OP_NAMES",
    "MEMOIZABLE_OPS",
    "brain_like",
    "ic_layers",
    "make_phantom",
    "pcb",
    "slab_envelope",
    "LaminoProjector",
    "project_direct",
    "simulate_data",
    "USFFT1DPlan",
    "USFFT2DPlan",
    "dtft1d_direct",
    "dtft2d_direct",
    "usfft1d_type1",
    "usfft1d_type2",
    "usfft2d_type1",
    "usfft2d_type2",
]
