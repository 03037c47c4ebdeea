"""Deterministic random field ensembles for the verification benches.

Coefficients are drawn on a fixed centered band box {-b..b}^3 in a fixed
order, so a given (seed, band_limit, amplitude_decay) produces the exact
same field regardless of the grid it is later placed on.  That is
what makes resolution-doubling studies meaningful: the field is
identical, only the quadrature grid refines.

Draws are Hermitian-symmetrized (real physical samples), weighted by
|k|^{-amplitude_decay}, and given zero mean.  One rng call draws the
real and imaginary parts of the whole box, the same stream as two
calls, but only its k3 >= 0 half is symmetrized and weighted (by one
cached, read-only weight table per (b, decay)); that half, rolled from
centered into Band order (rows 0..b, then -b..-1), is the field on the
grid's one Band of cutoffs (b, b, b) (Grid.box), which must lie in the
grid's 2/3 band.  Every draw of an ensemble shares that Band, and so its
lines and sampling workspaces.  Vector draws can be Leray-projected
there, with project_coeffs on the draw's Band, as leray_project runs it
on any field's box.  numpy.random is imported with the module, as
spectral imports numpy.fft: numpy loads it lazily, and a first draw
inside a run would otherwise pay for the import.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.random

from .grid import Band, Grid, check_rules
from .spectral import SpectralField, VectorField, project_coeffs


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


def _draw_band(rng: np.random.Generator, b: int, decay: float,
               components: int) -> np.ndarray:
    """The k3 >= 0 half of Hermitian, mean-zero, decay-weighted
    coefficients on {-b..b}^3: modes (-b..b, -b..b, 0..b).

    One rng call draws the real and then the imaginary parts of the
    whole centered box, axis position a holding mode a - b, so the draw
    order is fixed by the array shape alone, independent of any grid.
    Only the kept half is symmetrized: mode k averages its draw with the
    conjugate draw of -k.
    """
    side = 2 * b + 1
    normals = rng.standard_normal((2, components, side, side, side))
    raw = normals[0] + 1j * normals[1]
    sym = 0.5 * (raw[..., b:] + np.conj(raw[:, ::-1, ::-1, b::-1]))
    return sym * _centered_weights(b, decay)


def check_fits(b: int, n: int) -> None:
    """Modes -b..b need 2 b + 1 slots on a line of n modes (a grid's
    Band checks each of its axes the same way)."""
    if 2 * b + 1 > n:
        raise ValueError(f"n: {n} must be at least 2 * band + 1 = {2 * b + 1}")


def _draw(rng: np.random.Generator, spec: EnsembleSpec, grid: Grid,
          components: int, project: bool) -> tuple[Band, np.ndarray]:
    """The box of cutoffs (b, b, b) on `grid` and the k3 >= 0 half of a
    centered draw, rolled into its order, projected there if `project`."""
    b = spec.band_limit
    box = grid.box((b, b, b))
    half = _draw_band(rng, b, spec.amplitude_decay, components)
    coeffs = np.roll(half, -b, axis=(-3, -2))
    if project:
        project_coeffs(box, coeffs, *np.empty_like(coeffs[:2]))
    return box, coeffs


def draw_scalar(rng: np.random.Generator, spec: EnsembleSpec,
                grid: Grid) -> SpectralField:
    box, coeffs = _draw(rng, spec, grid, 1, False)
    return SpectralField(box, coeffs[0])


def draw_vector(rng: np.random.Generator, spec: EnsembleSpec, grid: Grid, *,
                divergence_free: bool = True) -> VectorField:
    return VectorField(*_draw(rng, spec, grid, 3, divergence_free))


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
