"""Laminography acquisition geometry.

A laminography scan rotates a flat sample about an axis *tilted* by the
laminography angle ``phi`` relative to the beam; ``phi = 90°`` degenerates to
conventional parallel-beam tomography and ``phi = 0°`` carries no vertical
information (the classic missing-cone problem the paper's TV regularization
addresses).

By the Fourier-slice theorem the 2-D detector spectrum of the projection at
rotation angle ``theta`` samples the 3-D volume spectrum on the plane spanned
by the detector frequency axes

    e1(theta) = ( cos(theta),           sin(theta),          0        )
    e2(theta) = (-cos(phi)*sin(theta),  cos(phi)*cos(theta), sin(phi) )

in ``(x, y, z)`` coordinates, i.e. a detector frequency ``(xi, eta)`` maps to
the 3-D frequency ``k = xi*e1 + eta*e2``.  Crucially ``k_z = eta*sin(phi)``
depends only on ``eta``, which is what lets the 3-D transform factor into the
paper's ``F_u1D`` (1-D along z, frequencies ``eta*sin(phi)``) followed by
``F_u2D`` (2-D in-plane, frequencies depending on ``theta, xi, eta``).

Axis conventions match the paper: a volume ``u`` has shape ``(n1, n0, n2)``
where axis 0 is ``x``, axis 1 is the vertical ``z`` (the axis ``F_u1D``
transforms), and axis 2 is ``y``.  Projections ``d`` have shape
``(n_angles, h, w)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["LaminoGeometry"]


@dataclass(frozen=True)
class LaminoGeometry:
    """Immutable description of a laminography scan.

    Parameters
    ----------
    vol_shape:
        Volume shape ``(n1, n0, n2)`` = (x, z, y); all axes must be even.
    n_angles:
        Number of equally spaced rotation angles over ``[0, 2*pi)``.
    det_shape:
        Detector shape ``(h, w)`` (rows, columns); both even.
    tilt_deg:
        Laminography angle ``phi`` in degrees; ``90`` is tomography.
    """

    vol_shape: tuple[int, int, int]
    n_angles: int
    det_shape: tuple[int, int]
    tilt_deg: float = 61.0

    def __post_init__(self) -> None:
        # hashable whatever sequence the caller passed: equal geometries key
        # what equal operator stacks share (``LaminoOperators.once``)
        object.__setattr__(self, "vol_shape", tuple(self.vol_shape))
        object.__setattr__(self, "det_shape", tuple(self.det_shape))
        n1, n0, n2 = self.vol_shape
        h, w = self.det_shape
        for name, v in (("n1", n1), ("n0", n0), ("n2", n2), ("h", h), ("w", w)):
            if v < 2 or v % 2:
                raise ValueError(f"{name} must be even and >= 2, got {v}")
        if self.n_angles < 1:
            raise ValueError(f"n_angles must be >= 1, got {self.n_angles}")
        if not (0.0 < self.tilt_deg <= 90.0):
            raise ValueError(f"tilt_deg must be in (0, 90], got {self.tilt_deg}")

    # -- cached derived quantities ------------------------------------------------

    @property
    def phi(self) -> float:
        """Laminography angle in radians."""
        return math.radians(self.tilt_deg)

    @property
    def angles(self) -> np.ndarray:
        """Rotation angles theta, shape ``(n_angles,)``, over ``[0, 2*pi)``."""
        return np.linspace(0.0, 2.0 * math.pi, self.n_angles, endpoint=False)

    @property
    def data_shape(self) -> tuple[int, int, int]:
        """Shape of the projection stack ``(n_angles, h, w)``."""
        return (self.n_angles, *self.det_shape)

    def detector_freqs(self) -> tuple[np.ndarray, np.ndarray]:
        """Centered integer detector frequencies ``(eta, xi)``."""
        h, w = self.det_shape
        eta = np.arange(h, dtype=np.float64) - h // 2
        xi = np.arange(w, dtype=np.float64) - w // 2
        return eta, xi

    def z_freqs(self) -> np.ndarray:
        """``F_u1D`` target frequencies along z: ``eta * sin(phi)``, shape (h,)."""
        eta, _ = self.detector_freqs()
        return eta * math.sin(self.phi)

    def inplane_points(self) -> np.ndarray:
        """``F_u2D`` target points, shape ``(h, n_angles * w, 2)``.

        Row ``i`` (detector frequency ``eta_i``) holds the in-plane frequency
        samples ``(k_x, k_y)`` for every ``(theta, xi)`` pair, flattened with
        theta-major order so the result reshapes to ``(h, n_angles, w, 2)``.
        """
        eta, xi = self.detector_freqs()
        theta = self.angles
        cos_t = np.cos(theta)[:, None]
        sin_t = np.sin(theta)[:, None]
        cphi = math.cos(self.phi)
        # (n_angles, w) in-plane components for each eta via broadcasting.
        kx = xi[None, :] * cos_t  # eta-independent part
        ky = xi[None, :] * sin_t
        h = self.det_shape[0]
        pts = np.empty((h, self.n_angles, len(xi), 2), dtype=np.float64)
        for i, e in enumerate(eta):
            pts[i, ..., 0] = kx - e * cphi * sin_t
            pts[i, ..., 1] = ky + e * cphi * cos_t
        return pts.reshape(h, self.n_angles * len(xi), 2)

    def beam_direction(self, theta: float) -> np.ndarray:
        """Unit beam (integration) direction in ``(x, y, z)`` coordinates."""
        sphi, cphi = math.sin(self.phi), math.cos(self.phi)
        return np.array(
            [sphi * math.sin(theta), -sphi * math.cos(theta), cphi], dtype=np.float64
        )

    def detector_axes(self, theta: float) -> tuple[np.ndarray, np.ndarray]:
        """Detector basis ``(e1, e2)`` in ``(x, y, z)`` coordinates."""
        st, ct = math.sin(theta), math.cos(theta)
        cphi, sphi = math.cos(self.phi), math.sin(self.phi)
        e1 = np.array([ct, st, 0.0])
        e2 = np.array([-cphi * st, cphi * ct, sphi])
        return e1, e2

    def with_scale(self, factor: float) -> "LaminoGeometry":
        """Uniformly rescaled copy (used to map paper-scale configs to
        simulation-scale ones); all dimensions are rounded to even ints."""

        def ev(v: float) -> int:
            r = max(2, int(round(v)))
            return r + (r % 2)

        n1, n0, n2 = self.vol_shape
        h, w = self.det_shape
        return LaminoGeometry(
            vol_shape=(ev(n1 * factor), ev(n0 * factor), ev(n2 * factor)),
            n_angles=max(1, int(round(self.n_angles * factor))),
            det_shape=(ev(h * factor), ev(w * factor)),
            tilt_deg=self.tilt_deg,
        )
