"""Total-variation pieces: the TV seminorm and the RSP proximal update.

The regularization subproblem (RSP) of the paper's ADMM splitting is

    min_psi  alpha*||psi||_1,iso + rho/2 * ||grad(u) + lambda/rho - psi||^2

whose closed-form solution is the isotropic vector soft-threshold
(:func:`shrink_isotropic`) applied to ``grad(u) + lambda/rho`` with threshold
``alpha/rho`` — computationally lightweight, as Section 2 notes.
"""

from __future__ import annotations

import numpy as np

from .grad import grad3, grad_norm

__all__ = ["tv_norm", "shrink_isotropic", "rsp_update"]


def tv_norm(u: np.ndarray) -> float:
    """Isotropic total variation ``sum_x |grad u|_2`` of a volume."""
    return float(np.sum(grad_norm(grad3(u))))


def shrink_isotropic(z: np.ndarray, kappa: float) -> np.ndarray:
    """Isotropic (grouped) soft-threshold of a gradient field.

    Shrinks the pointwise vector magnitude by ``kappa``:
    ``z * max(1 - kappa/|z|, 0)``; complex fields shrink by magnitude, which
    is the correct prox of the modulus-l1 norm.
    """
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    mag = grad_norm(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(mag > 0.0, np.maximum(1.0 - kappa / mag, 0.0), 0.0)
    return (z * factor[None]).astype(z.dtype, copy=False)


def rsp_update(
    u: np.ndarray, lam: np.ndarray, alpha: float, rho: float
) -> np.ndarray:
    """One RSP step: ``psi = shrink(grad u + lam/rho, alpha/rho)``."""
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    return shrink_isotropic(grad3(u) + lam / rho, alpha / rho)
