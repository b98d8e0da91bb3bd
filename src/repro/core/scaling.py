"""Multi-GPU / multi-node chunk distribution (paper Section 5.2).

The ADMM-FFT input partitions into independent chunks; mLR distributes them
evenly across GPUs within and across nodes ("the FFT operations work on the
chunks generated along different directions ... without dependency").  The
distribution is static and balanced, which is what the scalability figures
assume.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["distribute_chunks", "GPUAssignment"]


@dataclass(frozen=True)
class GPUAssignment:
    """Chunk indices owned by each GPU."""

    per_gpu: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        # chunk -> gpu map, precomputed once: owner_of is on the per-chunk
        # hot path of both the executor and the DES replay.
        owners = {}
        for gpu, chunks in enumerate(self.per_gpu):
            for chunk in chunks:
                owners[chunk] = gpu
        object.__setattr__(self, "_owners", owners)

    def owner_of(self, chunk: int) -> int:
        gpu = self._owners.get(chunk)
        if gpu is None:
            raise KeyError(chunk)
        return gpu

    @property
    def max_load(self) -> int:
        return max(len(c) for c in self.per_gpu)

    @property
    def min_load(self) -> int:
        return min(len(c) for c in self.per_gpu)


def distribute_chunks(n_chunks: int, n_gpus: int) -> GPUAssignment:
    """Even contiguous-block distribution of chunk locations over GPUs.

    Contiguous blocks (rather than round-robin) keep each GPU's chunk slabs
    adjacent, minimizing the halo traffic of the rechunking transposes
    between operations.  Loads differ by at most one chunk.
    """
    if n_chunks < 1 or n_gpus < 1:
        raise ValueError("n_chunks and n_gpus must be >= 1")
    base = n_chunks // n_gpus
    extra = n_chunks % n_gpus
    out = []
    start = 0
    for g in range(n_gpus):
        count = base + (1 if g < extra else 0)
        out.append(tuple(range(start, start + count)))
        start += count
    return GPUAssignment(per_gpu=tuple(out))
