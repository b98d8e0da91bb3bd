"""Discrete gradient / divergence with an exact adjoint pair.

ADMM's convergence analysis (and the CG inner solver) require ``div`` to be
the exact negative adjoint of ``grad``; we use periodic forward differences,
for which ``<grad u, p> == <u, -div p>`` holds to rounding error.
"""

from __future__ import annotations

import numpy as np

__all__ = ["grad3", "div3", "grad_norm"]


def _periodic_diff(a: np.ndarray, axis: int, out: np.ndarray, forward: bool) -> None:
    """Periodic first difference of ``a`` along ``axis``, written straight
    into ``out``: ``a[i+1] - a[i]`` at ``i`` (forward) or ``a[i] - a[i-1]``
    at ``i`` (backward).  Both are the slab difference ``a[1:] - a[:-1]``
    plus one wrap-around row ``a[0] - a[-1]``; only where they land differs
    — no rolled copy of ``a`` is made."""
    lead = (slice(None),) * axis
    upper, lower = lead + (slice(1, None),), lead + (slice(None, -1),)
    first, last = lead + (slice(None, 1),), lead + (slice(-1, None),)
    np.subtract(a[upper], a[lower], out=out[lower if forward else upper])
    np.subtract(a[first], a[last], out=out[last if forward else first])


def grad3(u: np.ndarray) -> np.ndarray:
    """Forward-difference gradient, periodic BC.  ``(…) -> (3, …)``."""
    g = np.empty((3,) + u.shape, dtype=u.dtype)
    for c in range(3):
        _periodic_diff(u, c, g[c], forward=True)
    return g


def div3(p: np.ndarray) -> np.ndarray:
    """Divergence (negative adjoint of :func:`grad3`).  ``(3, …) -> (…)``."""
    if p.shape[0] != 3:
        raise ValueError(f"expected leading axis of size 3, got {p.shape}")
    out = np.empty(p.shape[1:], dtype=p.dtype)
    _periodic_diff(p[0], 0, out, forward=False)
    term = np.empty_like(out)
    for c in (1, 2):
        _periodic_diff(p[c], c, term, forward=False)
        out += term
    return out


def grad_norm(g: np.ndarray) -> np.ndarray:
    """Pointwise Euclidean magnitude of a gradient field ``(3, …) -> (…)``."""
    return np.sqrt(np.sum(np.abs(g) ** 2, axis=0))
