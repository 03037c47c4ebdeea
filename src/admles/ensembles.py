"""Deterministic random field ensembles for the verification benches.

Coefficients are drawn on a fixed centered band box {-b..b}^3 in a fixed
order, so a given (seed, band_limit, amplitude_decay) produces the exact
same field regardless of the grid it is later placed on.  That is
what makes resolution-doubling studies meaningful: the field is
identical, only the quadrature grid refines.

Draws are Hermitian-symmetrized (real physical samples), weighted by
|k|^{-amplitude_decay}, and given zero mean.  A draw is a field on the
grid's Band of cutoffs (b, b, b), which must lie in the grid's 2/3 band;
every draw of an ensemble shares that Band.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.random  # numpy loads it lazily: a first draw in a run would time the import

from .grid import Grid, check_rules
from .spectral import VectorField, project_coeffs


@dataclass(frozen=True)
class EnsembleSpec:
    """Sampling plan: how many fields, spectral band, seed, slope."""

    count: int
    band_limit: int
    seed: int
    amplitude_decay: float = 1.0

    def __post_init__(self):
        errors = []
        if self.count < 1:
            errors.append(f"count: {self.count} must be >= 1")
        if self.band_limit < 1:
            errors.append(f"band_limit: {self.band_limit} must be >= 1")
        if not self.amplitude_decay >= 0:
            errors.append(f"amplitude_decay: {self.amplitude_decay} must be >= 0")
        check_rules(errors)

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


@lru_cache(maxsize=32)
def _centered_weights(b: int, decay: float) -> np.ndarray:
    """|k|^{-decay} on the k3 >= 0 half of the centered box, modes
    (-b..b, -b..b, 0..b), and 0 at the mean mode; read-only."""
    m = np.arange(-b, b + 1)
    k2 = (
        m[:, None, None] ** 2 + m[None, :, None] ** 2 + m[None, None, b:] ** 2
    ).astype(np.float64)
    with np.errstate(divide="ignore"):
        w = np.where(k2 > 0, k2 ** (-decay / 2.0), 0.0)
    w.setflags(write=False)
    return w


def _draw_band(rng: np.random.Generator, b: int, decay: float) -> np.ndarray:
    """The k3 >= 0 half of Hermitian, mean-zero, decay-weighted vector
    coefficients on {-b..b}^3, modes (-b..b, -b..b, 0..b), rolled into
    the order of the box of cutoffs (b, b, b); not projected.

    One rng call draws the real and then the imaginary parts of the
    whole centered box, so the stream is fixed by b alone; mode k
    averages its draw with the conjugate draw of -k.
    """
    side = 2 * b + 1
    normals = rng.standard_normal((2, 3, side, side, side))
    raw = normals[0] + 1j * normals[1]
    sym = 0.5 * (raw[..., b:] + np.conj(raw[:, ::-1, ::-1, b::-1]))
    return np.roll(sym * _centered_weights(b, decay), -b, axis=(-3, -2))


def check_fits(b: int, n: int) -> None:
    """Modes -b..b need 2 b + 1 slots on a line of n modes (a grid's
    Band checks each of its axes the same way)."""
    if 2 * b + 1 > n:
        raise ValueError(f"n: {n} must be at least 2 * band + 1 = {2 * b + 1}")


def draw_vector(rng: np.random.Generator, spec: EnsembleSpec,
                grid: Grid) -> VectorField:
    """A divergence-free draw on the box of cutoffs (b, b, b) of `grid`:
    the _draw_band of `spec`, projected there."""
    b = spec.band_limit
    box = grid.box((b, b, b))
    coeffs = _draw_band(rng, b, spec.amplitude_decay)
    project_coeffs(box, coeffs, np.empty_like(coeffs[:2]))
    return VectorField(box, coeffs)


def draw_line(rng: np.random.Generator, spec: EnsembleSpec,
              n: int) -> np.ndarray:
    """Mean-zero 1-D trigonometric polynomial, FFT-layout coefficients.

    Positive modes 1..b get independent complex normals weighted by
    k^{-decay}; negative modes are the conjugates.  The draw count
    depends only on band_limit, preserving cross-resolution determinism.
    """
    b = spec.band_limit
    check_fits(b, n)
    raw = rng.standard_normal(b) + 1j * rng.standard_normal(b)
    k = np.arange(1, b + 1, dtype=np.float64)
    weighted = raw * k ** (-spec.amplitude_decay)
    line = np.zeros(n, dtype=np.complex128)
    line[1:b + 1] = weighted
    line[-b:] = np.conj(weighted[::-1])
    return line
