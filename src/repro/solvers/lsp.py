"""The laminography subproblem (LSP) — Algorithms 1 and 2 of the paper.

LSP refines the reconstruction ``u`` by ``n_inner`` gradient-only CG steps on

    f(u) = 1/2 ||L u - d||^2  +  rho/2 ||grad(u) - g||^2,    g = psi - lam/rho

Two operator pipelines are supported:

``cancellation=False`` (Algorithm 1)
    six FFT ops per inner iteration — forward ``Fu1D, Fu2D, F2D*`` and
    adjoint ``F2D, Fu2D*, Fu1D*`` — with the residual formed in the *space*
    domain.

``cancellation=True`` (Algorithm 2)
    the detector-plane pair ``F2D*``/``F2D`` cancels (they are unitary
    inverses), ``d`` is mapped once to ``dhat = F2D d``, and the residual is
    formed in the *frequency* domain: four FFT ops per inner iteration.
    With ``fusion=True`` the subtraction rides inside the ``Fu2D`` kernel
    call (Figure 5b), saving a kernel launch and keeping the subtraction on
    the GPU.

Both paths produce identical gradients to rounding error (``F2D`` is
unitary), which ``tests/solvers/test_lsp.py`` asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..lamino.chunking import iter_chunks
from ..obs import runtime as obs
from .cg import NCGState
from .grad import div3, grad3

__all__ = ["LSPResult", "LSP", "estimate_normal_lipschitz"]


def estimate_normal_lipschitz(
    ops, n_iters: int = 8, seed: int = 0, chunk_size: int | None = None
) -> float:
    """Power-iteration estimate of ``lambda_max(L* L)`` for step sizing.

    A function of the operator alone, so it is computed once per operator
    state for each ``(n_iters, seed)``: it lives in the state every stack of
    equal ``(geometry, half_width, oversample)`` shares
    (``LaminoOperators.once``), so the first stack of a geometry runs the
    passes and every later one reads the same float.  The 2-D stage runs in
    row chunks of ``chunk_size`` — the grid the sweeps will use, so its
    working arrays are no wider than theirs — and builds every slice
    operator the sweeps reuse, on the plans every equal stack shares; the
    value does not depend on the grid (``USFFT2DPlan`` holds one operator
    per slice, pruned against a plan-wide floor), which is why the grid is
    not in the key.
    """
    return ops.once(
        ("normal_lipschitz", n_iters, seed),
        lambda: _power_iteration(ops, n_iters, seed, chunk_size),
    )


def _power_iteration(ops, n_iters: int, seed: int, chunk_size: int | None) -> float:
    h = ops.geometry.det_shape[0]
    rows = [c.slice for c in iter_chunks(h, chunk_size or h)]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(ops.geometry.vol_shape).astype(np.complex64)
    x /= np.linalg.norm(x)
    sigma = 1.0
    with obs.span("solver.lipschitz", n_iters=n_iters):
        for _ in range(n_iters):
            # ops, not an executor: probe vectors must not be memoized
            u1 = ops.fu1d(x)
            back = [ops.fu2d_adj(ops.fu2d(u1[:, r], rows=r), rows=r) for r in rows]
            y = ops.fu1d_adj(np.concatenate(back, axis=1))
            sigma = float(np.linalg.norm(y))
            if sigma == 0.0:
                return 1.0
            x = y / sigma
    return sigma


@dataclass
class LSPResult:
    """Outcome of one LSP solve (one outer ADMM iteration's u-update)."""

    u: np.ndarray
    grad_norms: list[float] = field(default_factory=list)
    data_loss: float = 0.0  # 1/2 ||Lu - d||^2 at the last inner iterate


class LSP:
    """Laminography subproblem solver operating through an executor."""

    def __init__(
        self,
        executor,
        n_inner: int = 4,
        cancellation: bool = True,
        fusion: bool = True,
        lipschitz_data: float | None = None,
        step_max_rel: float = 8.0,
    ) -> None:
        if n_inner < 1:
            raise ValueError(f"n_inner must be >= 1, got {n_inner}")
        if fusion and not cancellation:
            raise ValueError("fusion requires cancellation (Algorithm 2 pipeline)")
        self.executor = executor
        self.n_inner = n_inner
        self.cancellation = cancellation
        self.fusion = fusion
        self.step_max_rel = step_max_rel
        self._sigma = (
            lipschitz_data
            if lipschitz_data is not None
            else estimate_normal_lipschitz(
                executor.ops, chunk_size=getattr(executor, "chunk_size", None)
            )
        )

    def lipschitz(self, rho: float) -> float:
        # lambda_max(grad^T grad) = 4 * ndim = 12 for periodic differences.
        return self._sigma + 12.0 * rho

    def solve(
        self,
        u: np.ndarray,
        g: np.ndarray,
        rho: float,
        d: np.ndarray | None = None,
        dhat: np.ndarray | None = None,
        tracer=None,
    ) -> LSPResult:
        """Run ``n_inner`` CG steps from ``u`` (Algorithm 1 lines 2--11).

        Exactly one of ``d`` (space domain, Algorithm 1) or ``dhat``
        (frequency domain, Algorithm 2 — requires ``cancellation=True``)
        must be provided.
        """
        ex = self.executor
        if self.cancellation:
            if dhat is None:
                raise ValueError("cancellation pipeline needs dhat = F2D(d)")
        elif d is None:
            raise ValueError("Algorithm 1 pipeline needs space-domain data d")
        ncg = NCGState(lipschitz=self.lipschitz(rho), step_max_rel=self.step_max_rel)
        result = LSPResult(u=u.astype(np.complex64, copy=True))
        for inner in range(self.n_inner):
            ex.begin_inner(inner)
            if tracer is not None:
                tracer.touch("u", "r")
                tracer.touch("g", "r")
            if self.cancellation:
                # Forward pass (Algorithm 2 line 5) with optional fused subtract.
                if self.fusion:
                    rhat = ex.fu2d(ex.fu1d(result.u), subtract=dhat)
                else:
                    rhat = ex.fu2d(ex.fu1d(result.u)) - dhat
                data_grad = ex.fu1d_adj(ex.fu2d_adj(rhat))
                residual_sq = float(np.vdot(rhat, rhat).real)
            else:
                # Forward pass (Algorithm 1 line 4), residual in space domain.
                dprime = ex.f2d_adj(ex.fu2d(ex.fu1d(result.u)))
                r = dprime - d
                data_grad = ex.fu1d_adj(ex.fu2d_adj(ex.f2d(r)))
                residual_sq = float(np.vdot(r, r).real)
            gp = grad3(result.u)  # g' <- grad u (line 5/6)
            G = data_grad - rho * div3(gp - g)  # adjoint pass (line 7/8)
            if tracer is not None:
                tracer.touch("g_prev", "rw")
                tracer.touch("u", "w")
            result.u = ncg.step(result.u, G)  # CG update (line 9)
            result.grad_norms.append(float(np.linalg.norm(G)))
            result.data_loss = 0.5 * residual_sq
        return result
