"""Seeded inputs and the exact accuracy measures of the ledger.

The phantom is fixed (``make_phantom("pcb")``); ``--seed`` drives the 2 %
complex Gaussian noise added to its exact projections, so the same seed
gives the same data on every workload that shares a geometry.  The program
under test receives arrays only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lamino.geometry import LaminoGeometry
from repro.lamino.operators import LaminoOperators
from repro.lamino.phantoms import make_phantom
from repro.solvers.admm import ADMMConfig

__all__ = ["NOISE_REL", "Problem", "Inputs", "accuracy", "adjoint_rel_error"]

#: noise norm relative to the clean projections' norm
NOISE_REL = 0.02


@dataclass(frozen=True)
class Problem:
    """Geometry and iteration budget of one workload."""

    vol_shape: tuple[int, int, int]
    n_angles: int
    det_shape: tuple[int, int]
    chunk_size: int
    n_outer: int = 8
    n_inner: int = 4

    def geometry(self) -> LaminoGeometry:
        return LaminoGeometry(
            vol_shape=self.vol_shape, n_angles=self.n_angles, det_shape=self.det_shape
        )

    def admm(self) -> ADMMConfig:
        return ADMMConfig(n_outer=self.n_outer, n_inner=self.n_inner)


class Inputs:
    """Ground truth, its exact projections, and the seeded noise stream."""

    def __init__(self, ops: LaminoOperators, seed: int) -> None:
        self.u_true = make_phantom("pcb", ops.geometry.vol_shape).astype(np.complex64)
        self.clean = ops.forward(self.u_true)
        self._sigma = NOISE_REL * float(np.linalg.norm(self.clean)) / np.sqrt(
            2 * self.clean.size
        )
        self._rng = np.random.default_rng(seed)

    def projections(self) -> np.ndarray:
        """The next data set: clean projections plus a fresh noise draw."""
        shape = self.clean.shape
        noise = self._rng.standard_normal(shape) + 1j * self._rng.standard_normal(shape)
        return (self.clean + self._sigma * noise).astype(np.complex64)


def accuracy(ops: LaminoOperators, u, d, u_true) -> tuple[float, float]:
    """``(recon_rel_err, data_residual_rel)`` with the exact forward model —
    never the solver's own history, which memoization feeds memoized
    residuals."""
    err = float(np.linalg.norm(u - u_true) / np.linalg.norm(u_true))
    res = float(np.linalg.norm(ops.forward(u) - d) / np.linalg.norm(d))
    return err, res


def adjoint_rel_error(ops: LaminoOperators, seed: int) -> float:
    """Dot-product test ``<L x, y> = <x, L* y>``, relative."""
    rng = np.random.default_rng(seed)
    g = ops.geometry

    def draw(shape):
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return z.astype(np.complex64)

    x, y = draw(g.vol_shape), draw(g.data_shape)
    lhs = np.vdot(ops.forward(x), y)
    rhs = np.vdot(x, ops.adjoint(y))
    return float(abs(lhs - rhs) / abs(lhs))
