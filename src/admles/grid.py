"""Uniform periodic grid and its Fourier wavenumbers.

Conventions
-----------
The box is [0, L1) x [0, L2) x [0, L3) with n_j even sample points per
axis.  Wavenumbers follow numpy FFT ordering,

    k_j in {0, 1, ..., n_j/2 - 1, -n_j/2, ..., -1} * (2*pi / L_j),

so the Nyquist mode of each axis sits at -n_j/2.  Odd-order operators
(gradient, divergence, Leray projection) use the *derivative*
wavenumbers, which zero the Nyquist plane; this keeps real fields real,
since the coefficient stored at -n/2 represents cos(n x / 2) content
whose odd derivative is not representable on the grid.  Even multipliers
(|k3|^{2s}, the Laplacian, filter symbols) use the true magnitudes
including n/2.  Fields band-limited by the 2/3 rule carry no Nyquist
content, so the distinction only matters for raw transformed samples.
Coefficients are stored in the rfftn layout (n1, n2, n3/2 + 1): the k3
lines and all built from them hold k3 = 0, 1, ..., n3/2 only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Grid:
    """Discrete periodic box: modes per axis and box periods."""

    n1: int
    n2: int
    n3: int
    L1: float = TWO_PI
    L2: float = TWO_PI
    L3: float = TWO_PI

    def __post_init__(self):
        for name in ("n1", "n2", "n3"):
            n = getattr(self, name)
            if n < 4 or n % 2 != 0:
                raise ValueError(f"{name}={n}: modes per axis must be even and >= 4")
        for name in ("L1", "L2", "L3"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n1, self.n2, self.n3)

    @property
    def sizes(self) -> tuple[float, float, float]:
        return (self.L1, self.L2, self.L3)

    @property
    def spectral_shape(self) -> tuple[int, int, int]:
        """Shape of stored coefficients: the rfftn half of the last axis."""
        return (self.n1, self.n2, self.n3 // 2 + 1)

    @property
    def num_points(self) -> int:
        return self.n1 * self.n2 * self.n3

    @property
    def volume(self) -> float:
        return self.L1 * self.L2 * self.L3

    @property
    def cell_volume(self) -> float:
        return self.volume / self.num_points

    def k_axis(self, axis: int) -> np.ndarray:
        """True wavenumbers along `axis` in FFT order (Nyquist at -n/2)."""
        n = self.shape[axis]
        L = self.sizes[axis]
        return np.fft.fftfreq(n, d=1.0 / n) * (TWO_PI / L)

    def index_axis(self, axis: int) -> np.ndarray:
        """Integer mode indices along `axis` in FFT order."""
        n = self.shape[axis]
        return np.fft.fftfreq(n, d=1.0 / n).astype(int)

    def deriv_axis(self, axis: int) -> np.ndarray:
        """Derivative wavenumbers: true values with the Nyquist entry zeroed."""
        k = self.k_axis(axis).copy()
        k[self.shape[axis] // 2] = 0.0
        return k

    @staticmethod
    def _expand(arr: np.ndarray, axis: int) -> np.ndarray:
        shape = [1, 1, 1]
        shape[axis] = arr.size
        return arr.reshape(shape)

    @cached_property
    def k1(self) -> np.ndarray:
        return self._expand(self.k_axis(0), 0)

    @cached_property
    def k2(self) -> np.ndarray:
        return self._expand(self.k_axis(1), 1)

    @cached_property
    def k3(self) -> np.ndarray:
        """k3 = 0, 1, ..., n3/2 (the Nyquist stored positive)."""
        return self._expand(np.abs(self.k_axis(2)[: self.n3 // 2 + 1]), 2)

    @cached_property
    def kd1(self) -> np.ndarray:
        return self._expand(self.deriv_axis(0), 0)

    @cached_property
    def kd2(self) -> np.ndarray:
        return self._expand(self.deriv_axis(1), 1)

    @cached_property
    def kd3(self) -> np.ndarray:
        return self._expand(np.abs(self.deriv_axis(2)[: self.n3 // 2 + 1]), 2)

    @cached_property
    def parseval_weight(self) -> np.ndarray:
        """2 where stored column k3 also stands for its mirror -k3, else 1."""
        k3 = np.arange(self.n3 // 2 + 1)
        return self._expand(np.where((k3 > 0) & (k3 < self.n3 // 2), 2.0, 1.0), 2)

    @cached_property
    def k_squared(self) -> np.ndarray:
        """|k|^2 with true magnitudes (even operator, Nyquist unambiguous)."""
        return self.k1**2 + self.k2**2 + self.k3**2

    @cached_property
    def kd_squared(self) -> np.ndarray:
        """|k|^2 built from the derivative wavenumbers (matches gradient)."""
        return self.kd1**2 + self.kd2**2 + self.kd3**2

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: True where |k_j| <= n_j/3 on every axis."""
        idx = [np.abs(self.index_axis(axis)) for axis in range(3)]
        idx[2] = idx[2][: self.n3 // 2 + 1]
        masks = [self._expand(i <= n / 3.0, axis)
                 for axis, (i, n) in enumerate(zip(idx, self.shape))]
        return masks[0] & masks[1] & masks[2]

    def dealias_cutoff(self, axis: int) -> int:
        """Largest retained integer mode index on `axis` under the 2/3 rule."""
        return int(self.shape[axis] / 3.0)

    @cached_property
    def max_dealiased_wavenumber(self) -> float:
        """Largest physical |k_j| surviving the 2/3 rule, over all axes."""
        return max(
            self.dealias_cutoff(axis) * TWO_PI / self.sizes[axis] for axis in range(3)
        )

    def axis_points(self, axis: int) -> np.ndarray:
        n = self.shape[axis]
        L = self.sizes[axis]
        return np.arange(n) * (L / n)

    def mesh(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable physical coordinates (x1, x2, x3)."""
        return tuple(
            self._expand(self.axis_points(axis), axis) for axis in range(3)
        )

    def refined(self, factor: int = 2) -> "Grid":
        """Same box with `factor` times the modes per axis."""
        return Grid(
            self.n1 * factor, self.n2 * factor, self.n3 * factor,
            self.L1, self.L2, self.L3,
        )
