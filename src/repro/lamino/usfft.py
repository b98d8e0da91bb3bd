"""Unequally spaced fast Fourier transforms (USFFT / NUFFT).

This module implements the Dutt--Rokhlin gridding USFFT, with a Kaiser--Bessel
window, used by Fourier-based laminography (the ``F_u1D`` and ``F_u2D``
operators of the mLR paper).  Two transform types are provided, in one and
two dimensions:

``type 2``
    uniform samples -> spectrum at *non-uniform* frequencies (the forward
    direction used by the laminography forward model),

``type 1``
    the exact numerical adjoint of the type-2 transform (non-uniform
    spectrum samples -> uniform grid).  Because it applies the transpose of
    the same interpolation operator (same taps, same weights, conjugate
    phases), the pair passes the dot-product test ``<A x, y> == <x, A* y>``
    to rounding error — the property the conjugate-gradient iterations
    inside ADMM require.

Conventions
-----------
Grids are *centered*: a length-``n`` axis has coordinates ``x_j = j - n//2``.
The 1-D type-2 transform of ``f`` at frequency ``s`` (in cycles per ``n``
samples, i.e. integer ``s`` coincides with the centered DFT) is::

    F(s) = n**-0.5 * sum_j f[j] * exp(-2j*pi * s * x_j / n)

The ``n**-0.5`` factor makes the transform unitary when the frequencies
coincide with the integer grid, which keeps the laminography operator norm
O(1) and the CG iteration counts small.

Algorithm (three steps, type 2):

1. divide the input by the transform of the Kaiser--Bessel window
   (deconvolution in the space domain),
2. zero-pad to an oversampled grid (factor ``oversample``, default 2) and
   take a centered FFT,
3. apply a precomputed *interpolation operator* mapping the fine spectrum to
   the target frequencies: each target gathers its ``2*half_width + 1``
   nearest fine-grid neighbors (per dimension) with Kaiser--Bessel weights.

Step 3 is a precomputed linear operator — a small dense matrix in 1-D, and
in 2-D one real CSR sparse matrix per slice, built on first use from the
slice's points — so repeated operator applications (hundreds per ADMM
solve) are pure BLAS/sparse matvecs; this is the same plan-and-execute
structure CuFFT/FINUFFT use.

Execution discipline (the hot-path contract every executor relies on):

- FFTs run through ``scipy.fft`` (pocketfft) by default, which preserves
  ``complex64`` end to end and accepts a ``workers`` thread count; see
  :func:`configure_fft` / :func:`fft_backend`.
- the 2-D interpolation operator is held **once**: one real CSR per
  (slice, compute precision) — float32 weights for complex64, float64 for
  complex128 — built on first use and cached on the plan.  The
  Kaiser--Bessel weights are real, so nothing complex is ever stored, and
  nothing else is: a slice's ``(2*K + 1)**2`` taps are recomputed from its
  points when its operator is built.
- a row range of any width is applied slice by slice, so every chunk grid
  and the full range share the same operators: applying a new range
  builds nothing for a slice some range already built.
- the type-1 scatter of a slice is the *transpose view* of its gather
  (``slice_scatter(i, ...)`` is ``slice_gather(i, ...).T``, a CSC over the
  same three arrays): there is no second matrix, and the pair is an exact
  adjoint by construction.
- a slice's interpolation is two real SpMVs per direction — its operator
  applied to the real and to the imaginary plane of its flattened fine
  spectrum — through scipy's public ``@``.
- float32 operators prune taps against one *plan-wide* threshold
  (``TAP_PRUNE_REL`` of the plan's largest tap), so the operator a slice
  gets does not depend on anything but the slice.
- dtype-specific casts of the space-domain correction (and of the 1-D
  interpolation matrix) are cached on the plan, and the padded/oversampled
  workspace is preallocated per plan and per thread, so steady-state sweeps
  re-cast nothing and allocate nothing large before the FFT.
- nothing builds slice operators ahead of use; the first caller of a slice
  does.  A plan is shared by every equal operator stack of the process
  (``repro.lamino.operators`` keeps one per ``(geometry, half_width,
  oversample)``), so its lazy fills — slice operators, casts, the
  reference ``interp`` — are built under the plan's lock, once, however
  many threads ask; a lookup of a built one takes no lock.  For the first
  stack of a geometry the first caller is the Lipschitz power iteration of
  ``repro.solvers.lsp``, which builds every slice the sweeps reuse; every
  later equal stack finds them built, and neither its construction nor
  its sweeps build any.

:func:`reference_kernels` switches the module to the pre-vectorization
kernels (``numpy.fft``, per-slice interpolation loops, per-call dtype
casts).  It exists so ``benchmarks/perf`` can measure the optimized path
against an honest baseline, and so tests can assert the two agree.

The window is ``psi(t) = I0(beta*sqrt(1 - (t/W)**2)) / I0(beta)`` on the
support ``W = K + 1/2`` of ``w = 2*K + 1`` taps (``K`` = ``half_width``,
``t`` in fine-grid nodes), deconvolved by its closed-form transform
``psi_hat(nu) = 2*W/I0(beta) * sinh(z)/z``, ``z = sqrt(beta**2 -
(2*pi*W*nu)**2)``.  With oversampling ``m`` the shape parameter follows
Beatty et al.'s rule ``beta = pi*sqrt((w/m)**2 * (m - 1/2)**2 - 0.8)``, the
minimizer of the aliasing error for a ``w``-tap window.  Measured against the
brute-force DTFT at ``m = 2`` (complex128, relative l2), every extra tap pair
buys two decades: ~6e-5 for ``K = 2``, ~6e-7 for ``K = 3``, ~8e-9 for
``K = 4``, ~1e-10 for ``K = 5``.  A Gaussian window needs ``K = 7`` (15 taps
per axis) for what ``K = 4`` (9 taps) reaches here.  ``K = 4``
(:data:`DEFAULT_HALF_WIDTH`, used by both plan classes and by
:class:`~repro.lamino.operators.LaminoOperators`) is the narrowest width whose
window error sits below COMPLEX64 resolution — the precision the paper's
pipeline operates in — with margin: complex64 transforms land at ~2e-7, their
rounding floor, and complex128 ones at ~8e-9; ``K = 3`` would put the window
error above that floor, ``K = 5`` buys nothing complex64 can represent.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as _sfft
from scipy import sparse, special

from ..obs import runtime as _obs

__all__ = [
    "USFFT1DPlan",
    "USFFT2DPlan",
    "usfft1d_type2",
    "usfft1d_type1",
    "usfft2d_type2",
    "usfft2d_type1",
    "dtft1d_direct",
    "dtft2d_direct",
    "configure_fft",
    "fft_backend",
    "fft_config",
    "reference_kernels",
    "centered_fft2",
    "centered_ifft2",
]


# -- FFT execution configuration -------------------------------------------------------

#: Module-wide FFT execution knobs.  ``backend`` selects the FFT library
#: ("scipy" = pocketfft, complex64-native, threaded; "numpy" = np.fft),
#: ``workers`` is scipy's thread count (-1 = all cores), and ``reference``
#: routes the USFFT entry points to the pre-vectorization kernels.
_FFT = {"backend": "scipy", "workers": -1, "reference": False}

_BACKENDS = ("scipy", "numpy")


def fft_config() -> dict:
    """A snapshot of the current FFT execution configuration."""
    return dict(_FFT)


def configure_fft(
    backend: str | None = None,
    workers: int | None = None,
    reference: bool | None = None,
) -> dict:
    """Set module-wide FFT execution knobs; returns the previous state.

    Parameters
    ----------
    backend:
        ``"scipy"`` (default — pocketfft: preserves ``complex64``, supports
        threading) or ``"numpy"``.
    workers:
        Thread count for the scipy backend (``-1`` = all cores).
    reference:
        Route the USFFT entry points to the pre-vectorization kernels
        (numpy FFT, per-slice loops, per-call casts).  Benchmark baseline.
    """
    prev = dict(_FFT)
    if backend is not None:
        if backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
        _FFT["backend"] = backend
    if workers is not None:
        _FFT["workers"] = int(workers)
    if reference is not None:
        _FFT["reference"] = bool(reference)
    return prev


@contextmanager
def fft_backend(
    backend: str | None = None,
    workers: int | None = None,
    reference: bool | None = None,
):
    """Temporarily override the FFT execution configuration."""
    prev = configure_fft(backend=backend, workers=workers, reference=reference)
    try:
        yield
    finally:
        _FFT.update(prev)


@contextmanager
def reference_kernels():
    """Run under the pre-vectorization kernels (the measured baseline of
    ``benchmarks/perf``): ``numpy.fft``, per-slice 2-D interpolation loops,
    and per-call dtype casts of the interpolation operators."""
    with fft_backend(backend="numpy", reference=True):
        yield


#: Taps per axis are ``2*DEFAULT_HALF_WIDTH + 1``; the one width default of
#: both plan classes and of :class:`~repro.lamino.operators.LaminoOperators`.
DEFAULT_HALF_WIDTH = 4


def _kernel_beta(half_width: int, oversample: int) -> float:
    """Kaiser--Bessel shape parameter for ``w = 2*half_width + 1`` taps at
    oversampling ``m``: Beatty et al.'s rule (module docstring)."""
    if half_width < 1:
        raise ValueError(f"half_width must be >= 1, got {half_width}")
    if oversample < 2:
        raise ValueError(f"oversample must be >= 2, got {oversample}")
    w = 2 * half_width + 1
    return math.pi * math.sqrt((w / oversample) ** 2 * (oversample - 0.5) ** 2 - 0.8)


def _space_correction(n: int, fine_n: int, half_width: int, beta: float) -> np.ndarray:
    """Reciprocal window transform ``1 / psi_hat(x_j / fine_n)`` on the grid.

    ``psi_hat(nu) = 2*W/I0(beta) * sinh(z)/z``, ``z = sqrt(beta**2 -
    (2*pi*W*nu)**2)``, is the continuous Fourier transform of the Kaiser--Bessel
    tap window (module docstring).  ``z`` is real on the whole grid
    (``|nu| <= 1/(2*m)``) for every ``beta`` :func:`_kernel_beta` returns; a
    smaller ``beta`` is rejected, not continued onto the ``sin`` branch,
    where the deconvolution would divide by near-zeros.
    """
    x = np.arange(n, dtype=np.float64) - n // 2
    support = half_width + 0.5
    z2 = beta**2 - (2.0 * math.pi * support * x / fine_n) ** 2
    if z2.min() <= 0.0:
        raise ValueError(
            f"beta={beta:.3g} too small for half_width={half_width} on a "
            f"{n}/{fine_n} grid: the window transform changes sign inside the band"
        )
    z = np.sqrt(z2)
    return z * special.i0(beta) / (2.0 * support * np.sinh(z))


def _fftn_raw(a: np.ndarray, axes: tuple[int, ...], overwrite: bool = False) -> np.ndarray:
    """Unshifted forward FFT on the configured backend.

    The fast USFFT paths absorb the centering shifts into the plan (input
    samples land in ifftshifted positions; the interpolation operator is
    built against the raw output layout), so no ``fftshift`` roll ever runs
    on the hot path.
    """
    if _FFT["backend"] == "scipy":
        return _sfft.fftn(a, axes=axes, workers=_FFT["workers"], overwrite_x=overwrite)
    return np.fft.fftn(a, axes=axes)


def _ifftn_raw(a: np.ndarray, axes: tuple[int, ...], overwrite: bool = False) -> np.ndarray:
    """Unshifted inverse FFT on the configured backend.

    The adjoint's ``M * IDFT`` rescaling is *not* applied here — the fast
    paths fold it into the plan's cached correction array, saving a full
    pass over the fine grid.
    """
    if _FFT["backend"] == "scipy":
        return _sfft.ifftn(a, axes=axes, workers=_FFT["workers"], overwrite_x=overwrite)
    return np.fft.ifftn(a, axes=axes)


def centered_fft2(a: np.ndarray, norm: str = "ortho") -> np.ndarray:
    """Centered 2-D FFT over the last two axes (the detector ``F_2D`` op),
    honoring the module FFT backend/threading configuration."""
    shifted = np.fft.ifftshift(a, axes=(-2, -1))
    if _FFT["backend"] == "scipy":
        spec = _sfft.fft2(
            shifted, axes=(-2, -1), norm=norm, workers=_FFT["workers"], overwrite_x=True
        )
    else:
        spec = np.fft.fft2(shifted, axes=(-2, -1), norm=norm)
    return np.fft.fftshift(spec, axes=(-2, -1))


def centered_ifft2(a: np.ndarray, norm: str = "ortho") -> np.ndarray:
    """Inverse of :func:`centered_fft2` (its adjoint when ``norm='ortho'``)."""
    shifted = np.fft.ifftshift(a, axes=(-2, -1))
    if _FFT["backend"] == "scipy":
        img = _sfft.ifft2(
            shifted, axes=(-2, -1), norm=norm, workers=_FFT["workers"], overwrite_x=True
        )
    else:
        img = np.fft.ifft2(shifted, axes=(-2, -1), norm=norm)
    return np.fft.fftshift(img, axes=(-2, -1))


def _tap_geometry(coords: np.ndarray, oversample: int, half_width: int, beta: float):
    """Per-target tap positions, in fine-grid nodes relative to the spectrum's
    center (the caller wraps them into its layout), and Kaiser--Bessel weights."""
    centers = oversample * np.asarray(coords, dtype=np.float64)
    nearest = np.rint(centers).astype(np.int64)
    offsets = np.arange(-half_width, half_width + 1)
    idx = nearest[..., None] + offsets
    return idx, _kb_weight(centers[..., None] - idx, half_width, beta)


def _kb_weight(t: np.ndarray, half_width: int, beta: float) -> np.ndarray:
    """Kaiser--Bessel tap weight at ``t`` fine-grid nodes from the target;
    it falls off with ``|t|``."""
    # a target halfway between nodes puts a tap at |t| == W: clip, so that
    # rounding in the radicand can never put a NaN weight into a plan
    r = np.sqrt(np.maximum(1.0 - (t / (half_width + 0.5)) ** 2, 0.0))
    return special.i0(beta * r) / special.i0(beta)


@dataclass
class USFFT1DPlan:
    """Precomputed geometry for a 1-D USFFT at fixed frequencies.

    Parameters
    ----------
    n:
        Length of the uniform axis (even).
    freqs:
        Target frequencies, shape ``(ns,)``, in cycles per ``n`` samples
        (integer values coincide with centered-DFT bins).  Values outside
        ``[-n/2, n/2)`` are evaluated on the periodic extension.
    half_width, oversample:
        Gridding kernel controls; see the module docstring for the
        accuracy/cost trade-off.

    The interpolation step is stored as the dense matrix ``interp`` of shape
    ``(ns, fine_n)`` (small: taps are the only nonzeros but dense matmul
    wins at these sizes), so both transform directions are single GEMMs
    around an FFT.  Compute-dtype casts of ``interp``/``corr`` are cached on
    the plan (:meth:`interp_for` / :meth:`corr_for`) and the padded
    oversampled workspace is preallocated per thread, so steady-state calls
    re-cast and re-allocate nothing.  A cast is built under the plan's lock
    (plans are shared across threads), so it is built once.
    """

    n: int
    freqs: np.ndarray
    half_width: int = DEFAULT_HALF_WIDTH
    oversample: int = 2

    fine_n: int = field(init=False)
    beta: float = field(init=False)
    corr: np.ndarray = field(init=False)
    interp: np.ndarray = field(init=False)
    _lock: threading.Lock = field(init=False, default_factory=threading.Lock, repr=False)
    _casts: dict = field(init=False, default_factory=dict, repr=False)  # guarded-by: _lock
    _scratch: threading.local = field(init=False, default_factory=threading.local, repr=False)

    def __post_init__(self) -> None:
        self.freqs = np.asarray(self.freqs, dtype=np.float64).ravel()
        if self.n < 2 or self.n % 2:
            raise ValueError(f"n must be even and >= 2, got {self.n}")
        self.fine_n = self.oversample * self.n
        self.beta = _kernel_beta(self.half_width, self.oversample)
        self.corr = _space_correction(self.n, self.fine_n, self.half_width, self.beta)
        idx, w = _tap_geometry(self.freqs, self.oversample, self.half_width, self.beta)
        interp = np.zeros((self.ns, self.fine_n), dtype=np.float64)
        cols = np.mod(idx + self.fine_n // 2, self.fine_n)  # centered layout
        np.add.at(interp, (np.arange(self.ns)[:, None], cols), w)
        self.interp = interp

    @property
    def ns(self) -> int:
        return int(self.freqs.shape[0])

    # -- cached compute-dtype variants -------------------------------------------------

    def corr_for(self, dtype, direction: str = "plain") -> np.ndarray:
        """``corr`` cast to the compute dtype, cached on the plan.

        ``direction="type2"`` folds the transform's ``1/sqrt(n)`` into the
        input correction; ``"type1"`` additionally folds the adjoint's
        ``fine_n`` IDFT rescaling into the output correction — so neither
        transform spends a separate scaling pass over the fine grid.
        """
        key = ("corr", np.dtype(dtype).char, direction)
        out = self._casts.get(key)
        if out is None:
            with self._lock:
                out = self._casts.get(key)
                if out is None:
                    base = self.corr
                    if direction == "type2":
                        base = base / math.sqrt(self.n)
                    elif direction == "type1":
                        base = base * (self.fine_n / math.sqrt(self.n))
                    out = base.astype(dtype)
                    out.setflags(write=False)
                    self._casts[key] = out
        return out

    def interp_for(self, dtype, transpose: bool = False, raw: bool = False) -> np.ndarray:
        """``interp`` (or its transpose) cast to the compute dtype, cached.

        The cast is done to the *complex* compute dtype so the GEMM runs
        natively instead of silently promoting the operand on every call.
        ``raw=True`` returns the variant whose columns are permuted to the
        *unshifted* FFT layout (the fftshift is absorbed into the operator,
        so the hot path never rolls the fine grid).
        """
        key = ("interp", np.dtype(dtype).char, transpose, raw)
        out = self._casts.get(key)
        if out is None:
            with self._lock:
                out = self._casts.get(key)
                if out is None:
                    base = self.interp
                    if raw:
                        base = np.roll(base, self.fine_n // 2, axis=1)
                    if transpose:
                        base = base.T
                    out = np.ascontiguousarray(base.astype(dtype))
                    out.setflags(write=False)
                    self._casts[key] = out
        return out

    def _workspace(self, lead_shape: tuple[int, ...], cdtype) -> np.ndarray:
        """Preallocated zero-padded fine-grid buffer (per thread).

        Only the two half-bands the ifftshifted interior occupies are ever
        written, so the zeroed middle survives across reuses.
        """
        cache = getattr(self._scratch, "bufs", None)
        if cache is None:
            cache = self._scratch.bufs = {}
        key = (lead_shape, np.dtype(cdtype).char)
        buf = cache.get(key)
        if buf is None:
            buf = np.zeros(lead_shape + (self.fine_n,), dtype=cdtype)
            cache[key] = buf
        return buf


def _axis_to_last(a: np.ndarray, axis: int) -> np.ndarray:
    """``np.moveaxis(a, axis, -1)`` as one ``transpose`` (a view): the hot
    path makes the call per chunk, and ``moveaxis`` spends its time
    normalising axis tuples, not moving data."""
    axis %= a.ndim
    return a.transpose(*range(axis), *range(axis + 1, a.ndim), axis)


def _axis_from_last(a: np.ndarray, axis: int) -> np.ndarray:
    """Inverse of :func:`_axis_to_last` (``np.moveaxis(a, -1, axis)``)."""
    axis %= a.ndim
    return a.transpose(*range(axis), a.ndim - 1, *range(axis, a.ndim - 1))


def usfft1d_type2(f: np.ndarray, plan: USFFT1DPlan, axis: int = -1) -> np.ndarray:
    """Uniform -> non-uniform 1-D transform along ``axis``.

    The same frequency set (from ``plan``) is applied to every 1-D slice of
    ``f`` along ``axis``; the output replaces that axis with ``plan.ns``.
    """
    f = np.asarray(f)
    if f.shape[axis] != plan.n:
        raise ValueError(f"axis length {f.shape[axis]} != plan.n {plan.n}")
    if _FFT["reference"]:
        return _ref_usfft1d_type2(f, plan, axis)
    moved = _axis_to_last(f, axis)
    rdtype = _real_dtype(moved.dtype)
    cdtype = _complex_dtype(moved.dtype)
    half = plan.n // 2
    corr = plan.corr_for(rdtype, "type2")
    padded = plan._workspace(moved.shape[:-1], cdtype)
    # write the corrected interior directly into its ifftshifted position
    np.multiply(moved[..., :half], corr[:half], out=padded[..., plan.fine_n - half :])
    np.multiply(moved[..., half:], corr[half:], out=padded[..., :half])
    with _obs.span("usfft.fft", xform="1d_type2"):
        spec = _fftn_raw(padded, axes=(-1,))
    with _obs.span("usfft.interp", xform="1d_type2"):
        out = spec @ plan.interp_for(cdtype, transpose=True, raw=True)
    return _axis_from_last(out, axis)


def usfft1d_type1(F: np.ndarray, plan: USFFT1DPlan, axis: int = -1) -> np.ndarray:
    """Exact adjoint of :func:`usfft1d_type2` (non-uniform -> uniform)."""
    F = np.asarray(F)
    if F.shape[axis] != plan.ns:
        raise ValueError(f"axis length {F.shape[axis]} != plan.ns {plan.ns}")
    if _FFT["reference"]:
        return _ref_usfft1d_type1(F, plan, axis)
    moved = _axis_to_last(F, axis)
    rdtype = _real_dtype(moved.dtype)
    cdtype = _complex_dtype(moved.dtype)
    with _obs.span("usfft.interp", xform="1d_type1"):
        spec = moved @ plan.interp_for(cdtype, raw=True)  # adjoint of the gather GEMM
    with _obs.span("usfft.fft", xform="1d_type1"):
        grid = _ifftn_raw(spec, axes=(-1,), overwrite=True)
    half = plan.n // 2
    corr = plan.corr_for(rdtype, "type1")
    out = np.empty(moved.shape[:-1] + (plan.n,), dtype=cdtype)
    # read the interior back out of its ifftshifted position
    np.multiply(grid[..., plan.fine_n - half :], corr[:half], out=out[..., :half])
    np.multiply(grid[..., :half], corr[half:], out=out[..., half:])
    return _axis_from_last(out, axis)


@dataclass
class USFFT2DPlan:
    """Precomputed geometry for per-slice 2-D USFFTs.

    Each of the ``nslices`` slices has its own set of ``npts`` target
    frequency points (shape ``(nslices, npts, 2)``); this matches the
    laminography ``F_u2D`` operator where the in-plane frequency samples
    depend on the detector row frequency.

    The plan holds the interpolation operator once, as one real CSR per
    (slice, compute precision): :meth:`slice_gather` builds it on first use
    from the slice's points and caches it, shape ``(npts, fine0*fine1)``
    over the slice's flattened *raw* (unshifted) fine spectrum — the
    fftshift is part of the operator — with the real Kaiser--Bessel weight
    as ``data``.  A row range of any width is applied slice by slice, so no
    chunk grid and no full-range application ever stores a second copy.
    :meth:`slice_scatter` is its transpose *view*, the CSC over the same
    three arrays, so the type-1 scatter costs no second matrix.  Nothing
    else is stored: a slice's taps are recomputed from its points when its
    operator is built.  :attr:`nbytes` is what the operator holds resident.
    :attr:`interp` (per-slice CSRs in the centered layout) serves the
    reference kernels only and is built on first access.  Every lazy fill
    (slice operators, casts, ``interp``) is built under the plan's
    ``_lock``, so threads sharing the plan build each one once.
    """

    shape: tuple[int, int]
    points: np.ndarray
    half_width: int = DEFAULT_HALF_WIDTH
    oversample: int = 2

    fine_shape: tuple[int, int] = field(init=False)
    beta: float = field(init=False)
    corr: np.ndarray = field(init=False)
    _prune_floor: float = field(init=False, repr=False)
    _lock: threading.Lock = field(init=False, default_factory=threading.Lock, repr=False)
    _interp: list | None = field(init=False, default=None, repr=False)  # guarded-by: _lock
    _casts: dict = field(init=False, default_factory=dict, repr=False)  # guarded-by: _lock
    _slices: dict = field(init=False, default_factory=dict, repr=False)  # guarded-by: _lock
    _scratch: threading.local = field(init=False, default_factory=threading.local, repr=False)

    def __post_init__(self) -> None:
        n0, n1 = self.shape
        if n0 % 2 or n1 % 2 or n0 < 2 or n1 < 2:
            raise ValueError(f"shape must be even and >= 2, got {self.shape}")
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 3 or pts.shape[-1] != 2:
            raise ValueError(f"points must have shape (nslices, npts, 2), got {pts.shape}")
        self.points = pts
        self.fine_shape = (self.oversample * n0, self.oversample * n1)
        self.beta = _kernel_beta(self.half_width, self.oversample)
        c0 = _space_correction(n0, self.fine_shape[0], self.half_width, self.beta)
        c1 = _space_correction(n1, self.fine_shape[1], self.half_width, self.beta)
        self.corr = np.outer(c0, c1)
        # plan-wide, so the operator a slice gets does not depend on the
        # chunk range it is applied in; weights are non-negative, so a
        # target's largest tap is the product of its per-axis maxima, and
        # an axis's largest is its tap nearest the target (|t| <= 1/2)
        centers = self.oversample * pts
        peak = _kb_weight(centers - np.rint(centers), self.half_width, self.beta)
        self._prune_floor = self.TAP_PRUNE_REL * float((peak[..., 0] * peak[..., 1]).max())

    @property
    def nslices(self) -> int:
        return int(self.points.shape[0])

    @property
    def npts(self) -> int:
        return int(self.points.shape[1])

    @property
    def nbytes(self) -> int:
        """Bytes the fast path's interpolation operator holds resident: every
        slice operator cached so far (a scatter is a view of its gather and
        adds nothing)."""
        with self._lock:
            pairs = list(self._slices.values())
        return sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m, _ in pairs)

    @property
    def interp(self) -> list:
        """Per-slice CSR ``(npts, fine0*fine1)`` over the *centered* fine
        spectrum, full stencil, float64: the operator the reference kernels
        loop over.  Built from each slice's taps on first access; the fast
        path never touches it."""
        if self._interp is None:
            with self._lock:
                if self._interp is None:
                    nfine = self.fine_shape[0] * self.fine_shape[1]
                    row_ptr = (
                        np.arange(self.npts + 1, dtype=np.int32) * (2 * self.half_width + 1) ** 2
                    )
                    self._interp = [
                        sparse.csr_matrix(
                            (w.reshape(-1), cols.reshape(-1), row_ptr), shape=(self.npts, nfine)
                        )
                        for cols, w in (
                            self._slice_taps(i, centered=True) for i in range(self.nslices)
                        )
                    ]
        return self._interp

    def _axis_taps(self, i: int) -> list:
        """Slice ``i``'s separable taps, ``[(idx0, w0), (idx1, w1)]``, each
        ``(npts, taps)``: fine-grid index relative to the spectrum's center
        and Kaiser--Bessel weight, per axis."""
        return [
            _tap_geometry(self.points[i, :, ax], self.oversample, self.half_width, self.beta)
            for ax in (0, 1)
        ]

    def _slice_taps(self, i: int, centered: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Slice ``i``'s expanded stencil, ``(npts, taps**2)`` each: flat
        fine-grid column (raw layout unless ``centered``) and weight."""
        f0, f1 = self.fine_shape
        (i0, w0), (i1, w1) = self._axis_taps(i)
        if centered:
            i0, i1 = i0 + f0 // 2, i1 + f1 // 2
        # raw FFT layout: the spectrum's center is node 0
        i0, i1 = np.mod(i0, f0).astype(np.int32), np.mod(i1, f1).astype(np.int32)
        cols = i0[:, :, None] * f1 + i1[:, None, :]
        w = w0[:, :, None] * w1[:, None, :]
        return cols.reshape(self.npts, -1), w.reshape(self.npts, -1)

    # -- cached compute-dtype variants -------------------------------------------------

    #: tap-weight cutoff for float32 (complex64-compute) slice operators,
    #: relative to the plan's largest tap (a central weight, ~1): a tap this
    #: far below the central weight is at single-precision epsilon (1.2e-7)
    #: — its contribution is unrepresentable against the central tap in
    #: complex64 arithmetic — so the float32 operator drops it (~14% of the
    #: square stencil, its corners, at the default width).  float64
    #: operators keep the full stencil.
    TAP_PRUNE_REL = 1e-7

    def corr_for(self, dtype, direction: str = "plain") -> np.ndarray:
        """``corr`` cast to the compute dtype, cached on the plan.

        ``direction="type2"`` folds the transform's ``1/sqrt(n0*n1)`` into
        the input correction; ``"type1"`` additionally folds the adjoint's
        ``fine0*fine1`` IDFT rescaling into the output correction.
        """
        key = ("corr", np.dtype(dtype).char, direction)
        out = self._casts.get(key)
        if out is None:
            with self._lock:
                out = self._casts.get(key)
                if out is None:
                    n0, n1 = self.shape
                    base = self.corr
                    if direction == "type2":
                        base = base / math.sqrt(n0 * n1)
                    elif direction == "type1":
                        f0, f1 = self.fine_shape
                        base = base * (f0 * f1 / math.sqrt(n0 * n1))
                    out = base.astype(dtype)
                    out.setflags(write=False)
                    self._casts[key] = out
        return out

    def slice_gather(self, i: int, dtype) -> sparse.csr_matrix:
        """Gather CSR of plan row ``i``: its type-2 interpolation.

        Shape ``(npts, fine0*fine1)``, int32 column indices into the slice's
        flattened *raw* (unshifted) fine spectrum, real ``data`` in the
        precision of the compute ``dtype`` (float32 for complex64/float32,
        pruned against the plan-wide floor; else float64, full stencil).
        Cached per (slice, precision) — whatever row ranges are applied, a
        slice's operator exists once — and built under the plan's lock, so
        concurrent first callers of a slice wait for one build.
        """
        return self._slice_pair(i, dtype)[0]

    def slice_scatter(self, i: int, dtype) -> sparse.csc_matrix:
        """Adjoint of :meth:`slice_gather`: the cached gather's transpose, a
        CSC *view* over the same ``data``/``indices``/``indptr``.  The view
        object is cached beside its gather: building one per call costs
        more than the SpMV's own call overhead."""
        return self._slice_pair(i, dtype)[1]

    def _slice_pair(self, i: int, dtype) -> tuple:
        if not 0 <= i < self.nslices:
            raise ValueError(f"slice {i} outside [0, {self.nslices})")
        rdt = _real_dtype(dtype)
        key = (i, rdt.char)
        pair = self._slices.get(key)
        if pair is None:
            with self._lock:
                pair = self._slices.get(key)
                if pair is None:
                    gather = self._build_gather(i, rdt)
                    pair = self._slices[key] = (gather, gather.T)
        return pair

    def _build_gather(self, i: int, rdt: np.dtype) -> sparse.csr_matrix:
        cols, w = self._slice_taps(i)
        if rdt == np.dtype(np.float32):
            # drop taps beneath single-precision resolution
            keep = w >= self._prune_floor
            counts = keep.sum(axis=1, dtype=np.int32)
            cols, w = cols[keep], w[keep]
        else:
            counts = np.full(self.npts, w.shape[1], dtype=np.int32)
        indptr = np.zeros(self.npts + 1, dtype=np.int32)
        np.cumsum(counts, out=indptr[1:])
        nfine = self.fine_shape[0] * self.fine_shape[1]
        return sparse.csr_matrix(
            (w.reshape(-1).astype(rdt, copy=False), cols.reshape(-1), indptr),
            shape=(self.npts, nfine),
            copy=False,
        )

    def _workspace(self, nsl: int, cdtype) -> np.ndarray:
        """Preallocated zero-padded fine-grid buffer (per thread); only the
        interior ``[lo, lo+n)`` window is ever written."""
        cache = getattr(self._scratch, "bufs", None)
        if cache is None:
            cache = self._scratch.bufs = {}
        key = (nsl, np.dtype(cdtype).char)
        buf = cache.get(key)
        if buf is None:
            buf = np.zeros((nsl, *self.fine_shape), dtype=cdtype)
            cache[key] = buf
        return buf


def _slice_range(plan: USFFT2DPlan, slices: slice | None) -> range:
    if slices is None:
        return range(plan.nslices)
    start, stop, step = slices.indices(plan.nslices)
    if step != 1:
        raise ValueError("only contiguous slice selections are supported")
    return range(start, stop)


def _apply_slices(mats: list, x: np.ndarray, n_out: int) -> np.ndarray:
    """``out[j] = mats[j] @ x[j]`` for real sparse ``(n_out, n)`` operators
    and a complex ``x`` of shape ``(len(mats), n)``: each operator applied
    to the real and to the imaginary plane of its row, so the weights are
    neither stored nor streamed as complex numbers.  The planes are split
    once per call, not per slice."""
    re, im = np.ascontiguousarray(x.real), np.ascontiguousarray(x.imag)
    out = np.empty((len(mats), n_out), dtype=x.dtype)
    for j, m in enumerate(mats):
        out[j].real = m @ re[j]
        out[j].imag = m @ im[j]
    return out


def usfft2d_type2(
    f: np.ndarray, plan: USFFT2DPlan, slices: slice | None = None
) -> np.ndarray:
    """Per-slice uniform -> non-uniform 2-D transform.

    Parameters
    ----------
    f:
        Array of shape ``(nslices, n0, n1)`` (or a subset of slices when
        ``slices`` is given); each slice is transformed at its own points.
    slices:
        Optional contiguous range selecting which rows of the plan ``f``
        corresponds to (used by chunked execution).

    Returns
    -------
    Array of shape ``(len(slices), npts)``.
    """
    f = np.asarray(f)
    rows = _slice_range(plan, slices)
    nsl = len(rows)
    if f.shape != (nsl, *plan.shape):
        raise ValueError(f"expected f shape {(nsl, *plan.shape)}, got {f.shape}")
    if _FFT["reference"]:
        return _ref_usfft2d_type2(f, plan, rows)
    cdtype = _complex_dtype(f.dtype)
    corr = plan.corr_for(_real_dtype(f.dtype), "type2")
    n0, n1 = plan.shape
    f0, f1 = plan.fine_shape
    h0, h1 = n0 // 2, n1 // 2
    t0, t1 = f0 - h0, f1 - h1
    padded = plan._workspace(nsl, cdtype)
    # corrected interior written straight into its ifftshifted quadrants
    np.multiply(f[:, :h0, :h1], corr[:h0, :h1], out=padded[:, t0:, t1:])
    np.multiply(f[:, :h0, h1:], corr[:h0, h1:], out=padded[:, t0:, :h1])
    np.multiply(f[:, h0:, :h1], corr[h0:, :h1], out=padded[:, :h0, t1:])
    np.multiply(f[:, h0:, h1:], corr[h0:, h1:], out=padded[:, :h0, :h1])
    with _obs.span("usfft.fft", xform="2d_type2"):
        spec = _fftn_raw(padded, axes=(-2, -1))
    gathers = [plan.slice_gather(i, cdtype) for i in rows]
    with _obs.span("usfft.interp", xform="2d_type2"):
        out = _apply_slices(gathers, spec.reshape(nsl, f0 * f1), plan.npts)
    return out.astype(cdtype, copy=False)


def usfft2d_type1(
    F: np.ndarray, plan: USFFT2DPlan, slices: slice | None = None
) -> np.ndarray:
    """Exact adjoint of :func:`usfft2d_type2` (non-uniform -> uniform)."""
    F = np.asarray(F)
    rows = _slice_range(plan, slices)
    nsl = len(rows)
    if F.shape != (nsl, plan.npts):
        raise ValueError(f"expected F shape {(nsl, plan.npts)}, got {F.shape}")
    if _FFT["reference"]:
        return _ref_usfft2d_type1(F, plan, rows)
    cdtype = _complex_dtype(F.dtype)
    corr = plan.corr_for(_real_dtype(F.dtype), "type1")
    n0, n1 = plan.shape
    f0, f1 = plan.fine_shape
    h0, h1 = n0 // 2, n1 // 2
    t0, t1 = f0 - h0, f1 - h1
    scatters = [plan.slice_scatter(i, cdtype) for i in rows]
    with _obs.span("usfft.interp", xform="2d_type1"):
        spec = _apply_slices(scatters, F.astype(cdtype, copy=False), f0 * f1)
    with _obs.span("usfft.fft", xform="2d_type1"):
        grid = _ifftn_raw(spec.reshape(nsl, f0, f1), axes=(-2, -1), overwrite=True)
    out = np.empty((nsl, n0, n1), dtype=cdtype)
    # interior read back out of its ifftshifted quadrants
    np.multiply(grid[:, t0:, t1:], corr[:h0, :h1], out=out[:, :h0, :h1])
    np.multiply(grid[:, t0:, :h1], corr[:h0, h1:], out=out[:, :h0, h1:])
    np.multiply(grid[:, :h0, t1:], corr[h0:, :h1], out=out[:, h0:, :h1])
    np.multiply(grid[:, :h0, :h1], corr[h0:, h1:], out=out[:, h0:, h1:])
    return out


# -- reference (pre-vectorization) kernels ----------------------------------------------
# Verbatim pre-optimization implementations: numpy FFT (with its dtype
# behavior), per-call operator casts, per-slice interpolation loops, fresh
# allocations.  These are the measured baseline of benchmarks/perf and the
# equivalence oracle for the fast path.


def _ref_centered_fft(a: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    return np.fft.fftshift(
        np.fft.fftn(np.fft.ifftshift(a, axes=axes), axes=axes), axes=axes
    )


def _ref_centered_adjoint_fft(a: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    scale = float(np.prod([a.shape[ax] for ax in axes]))
    return (
        np.fft.fftshift(
            np.fft.ifftn(np.fft.ifftshift(a, axes=axes), axes=axes), axes=axes
        )
        * scale
    )


def _ref_usfft1d_type2(f: np.ndarray, plan: USFFT1DPlan, axis: int) -> np.ndarray:
    moved = np.moveaxis(f, axis, -1)
    rdtype = _real_dtype(moved.dtype)
    work = moved * plan.corr.astype(rdtype)
    pad_lo = (plan.fine_n - plan.n) // 2
    padded = np.zeros(moved.shape[:-1] + (plan.fine_n,), dtype=_complex_dtype(moved.dtype))
    padded[..., pad_lo : pad_lo + plan.n] = work
    spec = _ref_centered_fft(padded, axes=(-1,))
    out = spec @ plan.interp.T.astype(rdtype)
    out *= 1.0 / math.sqrt(plan.n)
    return np.moveaxis(out, -1, axis)


def _ref_usfft1d_type1(F: np.ndarray, plan: USFFT1DPlan, axis: int) -> np.ndarray:
    moved = np.moveaxis(F, axis, -1)
    rdtype = _real_dtype(moved.dtype)
    spec = moved @ plan.interp.astype(rdtype)
    grid = _ref_centered_adjoint_fft(spec, axes=(-1,))
    pad_lo = (plan.fine_n - plan.n) // 2
    out = grid[..., pad_lo : pad_lo + plan.n] * plan.corr.astype(rdtype)
    out *= 1.0 / math.sqrt(plan.n)
    return np.moveaxis(out, -1, axis)


def _ref_usfft2d_type2(f: np.ndarray, plan: USFFT2DPlan, rows: range) -> np.ndarray:
    nsl = len(rows)
    cdtype = _complex_dtype(f.dtype)
    corr = plan.corr.astype(_real_dtype(f.dtype))
    n0, n1 = plan.shape
    f0, f1 = plan.fine_shape
    lo0, lo1 = (f0 - n0) // 2, (f1 - n1) // 2
    padded = np.zeros((nsl, f0, f1), dtype=cdtype)
    padded[:, lo0 : lo0 + n0, lo1 : lo1 + n1] = f * corr
    spec = _ref_centered_fft(padded, axes=(-2, -1)).reshape(nsl, f0 * f1)
    out = np.empty((nsl, plan.npts), dtype=spec.dtype)
    for j, i in enumerate(rows):
        out[j] = plan.interp[i] @ spec[j]
    out *= 1.0 / math.sqrt(n0 * n1)
    return out.astype(cdtype, copy=False)


def _ref_usfft2d_type1(F: np.ndarray, plan: USFFT2DPlan, rows: range) -> np.ndarray:
    nsl = len(rows)
    cdtype = _complex_dtype(F.dtype)
    corr = plan.corr.astype(_real_dtype(F.dtype))
    n0, n1 = plan.shape
    f0, f1 = plan.fine_shape
    lo0, lo1 = (f0 - n0) // 2, (f1 - n1) // 2
    spec = np.empty((nsl, f0 * f1), dtype=np.result_type(F.dtype, np.complex64))
    for j, i in enumerate(rows):
        # .T of a CSR matrix is a lazy CSC view: the exact transpose of the
        # gather, i.e. the scatter, at matvec speed.
        spec[j] = plan.interp[i].T @ F[j]
    grid = _ref_centered_adjoint_fft(spec.reshape(nsl, f0, f1), axes=(-2, -1))
    out = grid[:, lo0 : lo0 + n0, lo1 : lo1 + n1] * corr
    out *= 1.0 / math.sqrt(n0 * n1)
    return out.astype(cdtype, copy=False)


def dtft1d_direct(f: np.ndarray, freqs: np.ndarray, axis: int = -1) -> np.ndarray:
    """Brute-force reference for :func:`usfft1d_type2` (O(n * ns))."""
    f = np.asarray(f)
    freqs = np.asarray(freqs, dtype=np.float64).ravel()
    n = f.shape[axis]
    x = np.arange(n) - n // 2
    kernel = np.exp(-2j * np.pi * np.outer(freqs, x) / n) / math.sqrt(n)
    moved = np.moveaxis(f, axis, -1)
    # the brute-force reference is deliberately full-precision
    # analysis: ignore[dtype-widen]
    out = moved @ kernel.T.astype(np.result_type(moved.dtype, np.complex128))
    return np.moveaxis(out, -1, axis)


def dtft2d_direct(f: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Brute-force reference for :func:`usfft2d_type2`.

    ``f`` has shape ``(nslices, n0, n1)``, ``points`` shape
    ``(nslices, npts, 2)``.
    """
    f = np.asarray(f)
    points = np.asarray(points, dtype=np.float64)
    nsl, n0, n1 = f.shape
    x0 = np.arange(n0) - n0 // 2
    x1 = np.arange(n1) - n1 // 2
    out = np.empty((nsl, points.shape[1]), dtype=np.complex128)  # analysis: ignore[dtype-widen]
    for i in range(nsl):
        ph0 = np.exp(-2j * np.pi * np.outer(points[i, :, 0], x0) / n0)
        ph1 = np.exp(-2j * np.pi * np.outer(points[i, :, 1], x1) / n1)
        out[i] = np.einsum("pa,ab,pb->p", ph0, f[i], ph1)
    return out / math.sqrt(n0 * n1)


def _complex_dtype(dtype: np.dtype) -> np.dtype:
    dt = np.dtype(dtype)
    if dt in (np.complex64, np.float32):
        return np.dtype(np.complex64)
    return np.dtype(np.complex128)


def _real_dtype(dtype: np.dtype) -> np.dtype:
    dt = np.dtype(dtype)
    if dt in (np.complex64, np.float32):
        return np.dtype(np.float32)
    return np.dtype(np.float64)
