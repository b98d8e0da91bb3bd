"""Full ADMM-FFT driver for TV-regularized laminography (paper Section 2).

Solves::

    min_u  1/2 ||L u - d||^2 + alpha * ||u||_TV

via the splitting ``psi = grad(u)`` with scaled updates:

- **LSP**   (heavy)  : u-update by ``n_inner`` CG steps (:mod:`.lsp`),
- **RSP**   (light)  : psi-update by isotropic soft-threshold (:mod:`.tv`),
- **lambda update**  : ``lam += rho * (grad u - psi)``,
- **penalty update** : residual-balancing adaptation of ``rho``.

Those four named *execution phases* per iteration are exactly the phase
structure ADMM-Offload (paper Section 5.1) schedules variable offload and
prefetch around; the solver reports a per-phase access trace through the
optional ``tracer``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..lamino.operators import LaminoOperators
from ..obs import runtime as obs
from .executor import DirectExecutor
from .grad import div3, grad3, grad_norm
from .lsp import LSP
from .tv import shrink_isotropic

__all__ = ["ADMMConfig", "ADMMResult", "ADMMSolver", "PHASES"]

#: Execution phases of one ADMM iteration, in order (Figure 7).
PHASES = ("lsp", "rsp", "lambda_update", "penalty_update")


@dataclass
class ADMMConfig:
    """Hyper-parameters of the ADMM-FFT reconstruction."""

    alpha: float = 1e-3
    rho: float = 0.5
    n_outer: int = 60
    n_inner: int = 4
    cancellation: bool = True
    fusion: bool = True
    adaptive_rho: bool = True
    rho_mu: float = 10.0
    rho_scale: float = 2.0
    track_loss: bool = True
    #: BB step clamp (multiple of the safe 1/L step) passed to the inner CG.
    #: Large values give the fastest exact-arithmetic convergence; when the
    #: executor serves approximate (memoized) gradients, smaller clamps damp
    #: the injected errors instead of amplifying them.
    step_max_rel: float = 8.0

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.rho <= 0:
            raise ValueError(f"rho must be > 0, got {self.rho}")
        if self.n_outer < 1:
            raise ValueError(f"n_outer must be >= 1, got {self.n_outer}")
        if self.n_inner < 1:
            raise ValueError(f"n_inner must be >= 1, got {self.n_inner}")
        if self.rho_mu <= 0:
            raise ValueError(f"rho_mu must be > 0, got {self.rho_mu}")
        if self.rho_scale <= 1.0:
            raise ValueError(f"rho_scale must be > 1, got {self.rho_scale}")
        if self.step_max_rel <= 0:
            raise ValueError(f"step_max_rel must be > 0, got {self.step_max_rel}")
        if self.fusion and not self.cancellation:
            raise ValueError("fusion requires cancellation")


@dataclass
class ADMMResult:
    """Reconstruction plus per-iteration history."""

    u: np.ndarray
    history: dict[str, list[float]] = field(default_factory=dict)
    op_counts: dict[str, int] = field(default_factory=dict)


class ADMMSolver:
    """ADMM-FFT with pluggable operation executor (the mLR insertion point)."""

    def __init__(
        self,
        ops: LaminoOperators,
        config: ADMMConfig | None = None,
        executor=None,
    ) -> None:
        self.ops = ops
        self.config = config or ADMMConfig()
        self.executor = executor if executor is not None else DirectExecutor(ops)
        with obs.span("solver.init"):
            self.lsp = LSP(
                self.executor,
                n_inner=self.config.n_inner,
                cancellation=self.config.cancellation,
                fusion=self.config.fusion,
                step_max_rel=self.config.step_max_rel,
            )

    def run(
        self,
        d: np.ndarray,
        u0: np.ndarray | None = None,
        callback: Callable[[int, np.ndarray, dict], None] | None = None,
        tracer=None,
    ) -> ADMMResult:
        """Reconstruct from projections ``d`` (real or complex, paper shape
        ``(n_angles, h, w)``), starting from ``u0`` (zeros when ``None``)."""
        cfg = self.config
        geometry = self.ops.geometry
        if d.shape != geometry.data_shape:
            raise ValueError(f"data shape {d.shape} != {geometry.data_shape}")
        if u0 is not None and u0.shape != geometry.vol_shape:
            raise ValueError(f"u0 shape {u0.shape} != {geometry.vol_shape}")
        d = np.ascontiguousarray(d, dtype=np.complex64)
        u = (
            u0.astype(np.complex64, copy=True)
            if u0 is not None
            else np.zeros(geometry.vol_shape, dtype=np.complex64)
        )
        psi = np.zeros((3,) + geometry.vol_shape, dtype=np.complex64)
        lam = np.zeros_like(psi)
        rho = cfg.rho
        # Algorithm 2 line 2: map the data to the frequency domain once.
        dhat = self.executor.f2d(d) if cfg.cancellation else None

        history: dict[str, list[float]] = {
            k: [] for k in ("loss", "data_loss", "tv", "primal_res", "dual_res", "rho")
        }
        for it in range(cfg.n_outer):
            with obs.span("admm.outer", iteration=it):
                self.executor.begin_outer(it)
                if tracer is not None:
                    tracer.begin_iteration(it)

                # -- LSP phase (u update) -----------------------------------------
                if tracer is not None:
                    tracer.begin_phase("lsp")
                    tracer.touch("psi", "r")
                    tracer.touch("lam", "r")
                    tracer.touch("g", "w")
                g = psi - lam / rho  # Algorithm 1 line 1
                lsp_res = self.lsp.solve(
                    u, g, rho, d=None if cfg.cancellation else d, dhat=dhat,
                    tracer=tracer,
                )
                u = lsp_res.u

                # -- RSP phase (psi update) ---------------------------------------
                if tracer is not None:
                    tracer.begin_phase("rsp")
                    tracer.touch("u", "r")
                    tracer.touch("lam", "r")
                    tracer.touch("psi", "rw")
                gu = grad3(u)
                psi_prev = psi
                psi = shrink_isotropic(gu + lam / rho, cfg.alpha / rho)

                # -- lambda update phase ------------------------------------------
                if tracer is not None:
                    tracer.begin_phase("lambda_update")
                    tracer.touch("psi", "r")
                    tracer.touch("lam", "rw")
                lam = lam + rho * (gu - psi)

                # -- penalty update phase -----------------------------------------
                if tracer is not None:
                    tracer.begin_phase("penalty_update")
                    tracer.touch("psi", "r")
                    tracer.touch("lam", "r")
                primal = float(np.linalg.norm(gu - psi))
                dual = float(rho * np.linalg.norm(div3(psi - psi_prev)))
                if cfg.adaptive_rho:
                    if primal > cfg.rho_mu * dual:
                        rho *= cfg.rho_scale
                    elif dual > cfg.rho_mu * primal:
                        rho /= cfg.rho_scale

                # -- bookkeeping --------------------------------------------------
                tv_val = float(np.sum(grad_norm(gu)))
                history["data_loss"].append(lsp_res.data_loss)
                history["tv"].append(tv_val)
                history["loss"].append(lsp_res.data_loss + cfg.alpha * tv_val)
                history["primal_res"].append(primal)
                history["dual_res"].append(dual)
                history["rho"].append(rho)
                if tracer is not None:
                    tracer.end_iteration()
                if callback is not None:
                    callback(it, u, {k: v[-1] for k, v in history.items()})

        return ADMMResult(
            u=u, history=history, op_counts=dict(self.executor.op_counts)
        )
