"""The laminography operator stack: ``F_u1D``, ``F_u2D``, ``F_2D`` and adjoints.

These are the six FFT operations of the paper's Algorithm 1.  The forward
laminography operator factors as::

    L u = F*_2D ( F_u2D ( F_u1D u ) )            (Algorithm 1, line 4)

and its adjoint as ``L* d = F*_u1D ( F*_u2D ( F_2D d ) )``.  After operation
cancellation (Algorithm 2) the detector-plane pair ``F*_2D``/``F_2D`` is
elided and the solver works directly on ``d_hat = F_2D d`` in the frequency
domain; :class:`LaminoOperators` exposes both compositions.

All operators are exact numerical adjoint pairs (dot-product test to rounding
error), and ``F_2D`` is unitary (``norm='ortho'``) so that the cancellation
``F_2D F*_2D = I`` of Section 4.2 holds exactly.

Shapes follow the paper::

    u      (n1, n0, n2)            real or complex volume
    u1     (n1, h,  n2)            after F_u1D   (z -> eta*sin(phi))
    u2     (n_angles, h, w)        after F_u2D   (in-plane NUFFT)
    d      (n_angles, h, w)        detector-space projections
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

import numpy as np

from .geometry import LaminoGeometry
from .usfft import (
    DEFAULT_HALF_WIDTH,
    USFFT1DPlan,
    USFFT2DPlan,
    centered_fft2,
    centered_ifft2,
    usfft1d_type1,
    usfft1d_type2,
    usfft2d_type1,
    usfft2d_type2,
)

__all__ = ["LaminoOperators", "OP_NAMES", "MEMOIZABLE_OPS"]

#: The six FFT operations of Algorithm 1, in forward-then-adjoint order.
OP_NAMES = ("Fu1D", "Fu2D", "F2D*", "F2D", "Fu2D*", "Fu1D*")

#: The four operations that survive cancellation (Algorithm 2) and that the
#: memoization engine replaces.
MEMOIZABLE_OPS = ("Fu1D", "Fu2D", "Fu2D*", "Fu1D*")

#: Operator states the process keeps, least recently used evicted first.
#: A state pins its two plans, every slice operator its stacks have built
#: and its memo: ``USFFT2DPlan.nbytes`` once every slice is built reads
#: 18.5 MB at the ledger's service geometry (64,16,64)/32 and 36.9 MB at
#: its solver geometry (64,32,64)/32, whatever row ranges were applied; the
#: DC bases add 1.8 / 3.7 MB and the 1-D plan under 0.1 MB.  Four states of
#: the larger one pin ~163 MB.
_STATES_MAX = 4

#: ``(geometry, half_width, oversample)`` -> :class:`_OperatorState`.
#:
#: Lock order: ``_STATES_LOCK`` is held only to find or insert a state and
#: is never held while a state's lock is taken; a state's ``lock`` is held
#: across its ``once`` computes (the plan build included), which apply the
#: operator and so take the plans' ``_lock``; a plan's ``_lock`` is a leaf.
_STATES_LOCK = threading.Lock()
_STATES: OrderedDict = OrderedDict()  # guarded-by: _STATES_LOCK


class _OperatorState:
    """What a stack derives from ``(geometry, half_width, oversample)``
    alone, in one memo: the two USFFT plans (and with them every cached
    slice operator and dtype cast), the Lipschitz estimate, the DC bases.  One
    per operator in the process (:data:`_STATES`); every equal stack holds
    the same one.  An evicted state stays valid for the stacks that hold
    it, and rebuilding it yields the same plans, to the last bit."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.memo: dict = {}  # guarded-by: self.lock

    def once(self, key, compute: Callable[[], object]):
        with self.lock:
            if key not in self.memo:
                self.memo[key] = compute()
            return self.memo[key]


def _state_for(key: tuple) -> _OperatorState:
    """The registry's state for ``key``, inserted (empty) if absent."""
    with _STATES_LOCK:
        state = _STATES.get(key)
        if state is None:
            state = _STATES[key] = _OperatorState()
            if len(_STATES) > _STATES_MAX:
                _STATES.popitem(last=False)
        else:
            _STATES.move_to_end(key)
        return state


def _build_plans(geometry, half_width, oversample) -> tuple[USFFT1DPlan, USFFT2DPlan]:
    n1, n0, n2 = geometry.vol_shape
    return (
        USFFT1DPlan(n0, geometry.z_freqs(), half_width=half_width, oversample=oversample),
        USFFT2DPlan(
            (n1, n2), geometry.inplane_points(), half_width=half_width, oversample=oversample
        ),
    )


class LaminoOperators:
    """Plan-carrying implementation of the laminography FFT operations.

    Building an instance finds the process's operator state for
    ``(geometry, half_width, oversample)`` — or builds its USFFT gridding
    plans, once, if the process has not seen that operator — so every
    equal stack reads the same plans, slice operators and geometry-only results
    (:meth:`once`).  Individual operator applications run entirely from the
    plans.  Chunked application (the unit the memoization engine works on)
    is supported through the ``rows`` arguments, which select a slab of the
    relevant partition axis:

    - ``fu1d`` / ``fu1d_adj`` chunk along the volume x-axis (``n1``),
    - ``fu2d`` / ``fu2d_adj`` chunk along the detector row-frequency axis
      (``h``),
    - ``f2d`` / ``f2d_adj`` chunk along the projection-angle axis.
    """

    def __init__(
        self,
        geometry: LaminoGeometry,
        half_width: int = DEFAULT_HALF_WIDTH,
        oversample: int = 2,
    ) -> None:
        self.geometry = geometry
        self._state = _state_for((geometry, half_width, oversample))
        self.plan1d, self.plan2d = self.once(
            "plans", lambda: _build_plans(geometry, half_width, oversample)
        )

    def once(self, key, compute: Callable[[], object]):
        """``compute()`` for ``key``, run once per operator: the memo of
        results that depend on nothing but ``(geometry, half_width,
        oversample)`` — the plans (key ``"plans"``), the Lipschitz estimate,
        the memoized executor's DC bases.  It lives on the operator state, so
        every equal stack of the process reads the same value, and
        concurrent callers wait for the first ``compute`` rather than racing
        it (the state's lock is held across it).  A result may be any
        object; an array is shared by every holder, so it should be
        read-only.
        """
        return self._state.once(key, compute)

    # -- the six FFT operations ---------------------------------------------------

    def fu1d(self, u: np.ndarray) -> np.ndarray:
        """``F_u1D``: ``(m1, n0, n2) -> (m1, h, n2)`` (chunkable over axis 0)."""
        return usfft1d_type2(u, self.plan1d, axis=1)

    def fu1d_adj(self, u1: np.ndarray) -> np.ndarray:
        """``F*_u1D``: ``(m1, h, n2) -> (m1, n0, n2)``."""
        return usfft1d_type1(u1, self.plan1d, axis=1)

    def fu2d(self, u1: np.ndarray, rows: slice | None = None) -> np.ndarray:
        """``F_u2D``: ``(n1, h_c, n2) -> (n_angles, h_c, w)``.

        ``rows`` selects the detector-row-frequency slab ``u1`` covers (its
        axis 1); by default the full ``h`` range.
        """
        g = self.geometry
        sl = rows if rows is not None else slice(0, g.det_shape[0])
        slabs = np.ascontiguousarray(u1.transpose(1, 0, 2))  # (h_c, n1, n2)
        flat = usfft2d_type2(slabs, self.plan2d, slices=sl)  # (h_c, ntheta*w)
        out = flat.reshape(slabs.shape[0], g.n_angles, g.det_shape[1])
        return np.ascontiguousarray(out.transpose(1, 0, 2))  # (ntheta, h_c, w)

    def fu2d_adj(self, u2: np.ndarray, rows: slice | None = None) -> np.ndarray:
        """``F*_u2D``: ``(n_angles, h_c, w) -> (n1, h_c, n2)``."""
        g = self.geometry
        sl = rows if rows is not None else slice(0, g.det_shape[0])
        h_c = u2.shape[1]
        flat = np.ascontiguousarray(u2.transpose(1, 0, 2)).reshape(h_c, -1)
        slabs = usfft2d_type1(flat, self.plan2d, slices=sl)  # (h_c, n1, n2)
        return np.ascontiguousarray(slabs.transpose(1, 0, 2))

    @staticmethod
    def f2d(d: np.ndarray) -> np.ndarray:
        """``F_2D``: unitary centered detector FFT, per angle (chunkable axis 0).

        Runs through the module FFT backend (:func:`repro.lamino.usfft.
        configure_fft`): dtype-preserving, threaded pocketfft by default.
        """
        return centered_fft2(d, norm="ortho")

    @staticmethod
    def f2d_adj(dhat: np.ndarray) -> np.ndarray:
        """``F*_2D`` = inverse of ``f2d`` (unitary, so adjoint == inverse)."""
        return centered_ifft2(dhat, norm="ortho")

    # -- compositions ---------------------------------------------------------------

    def forward(self, u: np.ndarray) -> np.ndarray:
        """Full forward model ``L u`` (Algorithm 1): volume -> projections."""
        return self.f2d_adj(self.fu2d(self.fu1d(u)))

    def adjoint(self, d: np.ndarray) -> np.ndarray:
        """Adjoint ``L* d``: projections -> volume."""
        return self.fu1d_adj(self.fu2d_adj(self.f2d(d)))

    def forward_freq(self, u: np.ndarray) -> np.ndarray:
        """Cancelled forward model (Algorithm 2): volume -> detector spectrum."""
        return self.fu2d(self.fu1d(u))

    def adjoint_freq(self, dhat: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`forward_freq`: detector spectrum -> volume."""
        return self.fu1d_adj(self.fu2d_adj(dhat))
