"""Numerical bench for the anisotropic functional inequalities.

Each checker computes the ratio of the left-hand side to the right-hand
side of one inequality on concrete fields, so ensemble maxima estimate
the (unspecified) constants and resolution-doubling studies confirm the
ratios are quadrature artifacts of bounded size rather than blow-ups.

Mixed norms are evaluated by physical-space quadrature:

  * horizontal plane integrals of |u|^2 are exact on the native grid
    for 2/3-band-limited fields, and of |u|^4 on a 2x oversampled grid;
  * vertical profiles of plane integrals are trigonometric polynomials,
    so they are upsampled exactly by Fourier zero padding before taking
    maxima (sup norms) or root-integrals (L^2_v of L^4_h);
  * sup norms use grid maxima on a 4x refined axis.

The 1-D Agmon checker also evaluates the explicit low/high wavenumber
split bound at the optimal crossover kappa = (||g||_{H^s} /
||g||_2)^{1/s}; each step of that chain is a rigorous inequality
(Cauchy-Schwarz with explicit partial sums, the tail sum via the
Hurwitz zeta function), so it is a true upper bound for the sup norm
and serves as an independent per-sample oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import zeta as _hurwitz_zeta

from .ensembles import EnsembleSpec, draw_line, draw_vector
from .grid import Grid
from .spectral import (
    VectorField,
    convective_inner,
    grad_norm,
    horizontal_grad_norm,
    inverse_transform,
    l2_norm,
    pad_spectrum,
    resample,
    vertical_grad_seminorm,
    vertical_seminorm,
)

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class RatioReport:
    """Ensemble summary for one inequality."""

    lemma: str
    s: float
    count: int
    max_ratio: float
    mean_ratio: float
    worst_case: str
    resolution: str
    seed: int

    def __post_init__(self):
        if not (self.max_ratio >= self.mean_ratio >= 0.0):
            raise ValueError(
                f"inconsistent report: max={self.max_ratio} mean={self.mean_ratio}"
            )


# ---------------------------------------------------------------------------
# 1-D circle norms (period 2*pi, amplitude coefficients)


def _line_wavenumbers(n: int) -> np.ndarray:
    return np.fft.fftfreq(n, d=1.0 / n)


def line_l2_norm(coeffs: np.ndarray) -> float:
    return float(np.sqrt(TWO_PI * np.sum(np.abs(coeffs) ** 2)))


def line_seminorm(coeffs: np.ndarray, s: float) -> float:
    k = _line_wavenumbers(coeffs.size)
    return float(
        np.sqrt(TWO_PI * np.sum(np.abs(k) ** (2.0 * s) * np.abs(coeffs) ** 2))
    )


def line_hs_norm(coeffs: np.ndarray, s: float) -> float:
    return float(np.hypot(line_l2_norm(coeffs), line_seminorm(coeffs, s)))


def line_sup_norm(coeffs: np.ndarray, oversample: int = 4) -> float:
    """max |g| on an `oversample`-times refined axis (exact interpolation)."""
    m = oversample * coeffs.size
    samples = np.fft.ifft(pad_spectrum(coeffs, m, 0)) * m
    return float(np.max(np.abs(samples)))


def agmon_ratio(coeffs: np.ndarray, s: float) -> float:
    """||g||_inf / (||g||_2^{1-1/(2s)} ||g||_{H^s}^{1/(2s)}) for mean-zero g."""
    if s <= 0.5:
        raise ValueError(f"s={s}: the high-wavenumber tail needs s > 1/2")
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    l2 = line_l2_norm(coeffs)
    if l2 == 0.0:
        raise ValueError("zero function has no ratio")
    if abs(coeffs[0]) > 1e-13 * np.max(np.abs(coeffs)):
        raise ValueError("function must have zero mean")
    hs = line_hs_norm(coeffs, s)
    sup = line_sup_norm(coeffs)
    return sup / (l2 ** (1.0 - 0.5 / s) * hs ** (0.5 / s))


def agmon_split_bound(coeffs: np.ndarray, s: float) -> float:
    """Low/high wavenumber split bound on ||g||_inf at the optimal kappa.

    With c_k the amplitude coefficients and m = floor(kappa):

      ||g||_inf <= sum |c_k|
                <= sqrt(2m) * (sum_{0<|k|<=m} |c_k|^2)^{1/2}
                 + sqrt(2 zeta(2s, m+1)) * (sum_{|k|>m} |k|^{2s}|c_k|^2)^{1/2}

    Every step is exact or Cauchy-Schwarz, so the result is a rigorous
    upper bound for any kappa >= 1; kappa = (||g||_{H^s}/||g||_2)^{1/s}
    balances the two terms (and is >= 1 since H^s dominates L^2).
    """
    if s <= 0.5:
        raise ValueError(f"s={s}: the tail sum needs s > 1/2")
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    l2 = line_l2_norm(coeffs)
    if l2 == 0.0:
        raise ValueError("zero function has no bound")
    kappa = (line_hs_norm(coeffs, s) / l2) ** (1.0 / s)
    m = int(np.floor(kappa))
    k = _line_wavenumbers(coeffs.size)
    mag2 = np.abs(coeffs) ** 2
    low = (np.abs(k) > 0) & (np.abs(k) <= m)
    high = np.abs(k) > m
    low_sum = float(np.sqrt(np.sum(mag2[low])))
    high_sum = float(
        np.sqrt(np.sum(np.abs(k[high]) ** (2.0 * s) * mag2[high]))
    )
    tail = 2.0 * float(_hurwitz_zeta(2.0 * s, m + 1))
    return np.sqrt(2.0 * m) * low_sum + np.sqrt(tail) * high_sum


# ---------------------------------------------------------------------------
# Plane-integral profiles and mixed norms


def _vertical_upsample(values: np.ndarray, factor: int) -> np.ndarray:
    """Exact trigonometric upsampling of a real periodic sample line."""
    if factor == 1:
        return np.asarray(values, dtype=np.float64)
    n = values.size
    m = factor * n
    c = np.fft.fft(values) / n
    return (np.fft.ifft(pad_spectrum(c, m, 0)) * m).real


def plane_l2_profile(u: VectorField) -> np.ndarray:
    """S(x3) = integral over the horizontal plane of |u|^2, per grid plane.

    Exact for 2/3-band-limited fields: the integrand has horizontal band
    at most 2K < n, so the rectangle rule is the true integral.
    """
    g = u.grid
    samples = inverse_transform(g, u.coeffs)
    density = np.sum(samples**2, axis=0)
    return np.mean(density, axis=(0, 1)) * (g.L1 * g.L2)


def linf_v_l2_h_norm(u: VectorField, vertical_oversample: int = 4) -> float:
    """sup over x3 of the horizontal L^2 norm.

    The plane profile is a vertical trigonometric polynomial of band
    2K < n3, so upsampling it is exact; the sup is the maximum over the
    refined planes.
    """
    profile = plane_l2_profile(u)
    fine = _vertical_upsample(profile, vertical_oversample)
    return float(np.sqrt(np.max(fine)))


def l2_v_l4_h_norm(u: VectorField, oversample: int = 2,
                   vertical_refine: int = 2) -> float:
    """(integral over x3 of plane-L^4-norm squared)^{1/2}.

    |u|^4 has horizontal band 4K, so a 2x oversampled grid integrates
    the planes exactly; the resulting profile (band 4K < 2 n3) is then
    refined before the vertical quadrature of its square root.
    """
    fine_grid = u.grid.refined(oversample)
    fine = resample(u, fine_grid)
    samples = inverse_transform(fine_grid, fine.coeffs)
    density2 = np.sum(samples**2, axis=0) ** 2
    profile = np.mean(density2, axis=(0, 1)) * (fine_grid.L1 * fine_grid.L2)
    refined = _vertical_upsample(profile, vertical_refine)
    plane_l4_sq = np.sqrt(np.maximum(refined, 0.0))
    integral = np.mean(plane_l4_sq) * u.grid.L3
    return float(np.sqrt(integral))


# ---------------------------------------------------------------------------
# Inequality ratios


def ladyzhenskaya_ratio(u: VectorField) -> float:
    """||u||_{L2_v L4_h} / (||u||_2^{1/2} ||grad_h u||_2^{1/2})."""
    l2 = l2_norm(u)
    gh = horizontal_grad_norm(u)
    if l2 == 0.0 or gh == 0.0:
        raise ValueError("field constant in the horizontal directions")
    return l2_v_l4_h_norm(u) / np.sqrt(l2 * gh)


def vertical_embedding_ratio(u: VectorField, s: float) -> float:
    """||u||_{Linf_v L2_h} / (||u||_2^{1-1/(2s)} ||d3^s u||_2^{1/(2s)})."""
    if s <= 0.5:
        raise ValueError(f"s={s}: the vertical embedding needs s > 1/2")
    l2 = l2_norm(u)
    semi = vertical_seminorm(u, s)
    if l2 == 0.0 or semi == 0.0:
        raise ValueError("field constant in the vertical direction")
    return linf_v_l2_h_norm(u) / (l2 ** (1.0 - 0.5 / s) * semi ** (0.5 / s))


def _trilinear_denominator(u: VectorField, mid: VectorField,
                           outer: VectorField, s: float) -> float:
    du = np.sqrt(l2_norm(u) * grad_norm(u))
    dv = grad_norm(mid) ** (1.0 - 0.5 / s) * vertical_grad_seminorm(
        mid, s
    ) ** (0.5 / s)
    dw = np.sqrt(l2_norm(outer) * grad_norm(outer))
    return du * dv * dw


def trilinear_ratio_i(u: VectorField, v: VectorField, w: VectorField,
                      s: float) -> float:
    """|((u.grad) v, w)| over the bound with vertical regularity on v."""
    if s <= 0.5:
        raise ValueError(f"s={s}: the trilinear estimate needs s > 1/2")
    denom = _trilinear_denominator(u, v, w, s)
    if denom == 0.0:
        raise ValueError("degenerate inputs: zero denominator")
    return abs(convective_inner(u, v, w)) / denom


def trilinear_ratio_ii(u: VectorField, v: VectorField, w: VectorField,
                       s: float) -> float:
    """Same numerator, vertical regularity placed on w instead of v.

    Integration by parts on divergence-free u gives
    ((u.grad) v, w) = -((u.grad) w, v), so this ratio equals
    trilinear_ratio_i(u, w, v) exactly; the bench asserts that identity.
    """
    if s <= 0.5:
        raise ValueError(f"s={s}: the trilinear estimate needs s > 1/2")
    denom = _trilinear_denominator(u, w, v, s)
    if denom == 0.0:
        raise ValueError("degenerate inputs: zero denominator")
    return abs(convective_inner(u, v, w)) / denom


# ---------------------------------------------------------------------------
# Ensemble runners


def _finish(lemma: str, s: float, ratios: list[float], worst: int,
            resolution: str, seed: int) -> RatioReport:
    arr = np.asarray(ratios)
    return RatioReport(
        lemma=lemma,
        s=s,
        count=arr.size,
        max_ratio=float(np.max(arr)),
        mean_ratio=float(np.mean(arr)),
        worst_case=f"sample {worst}",
        resolution=resolution,
        seed=seed,
    )


def run_agmon(spec: EnsembleSpec, s: float, n: int, *,
              check_bound: bool = True) -> RatioReport:
    """Agmon sweep; optionally asserts the split-bound oracle per sample."""
    rng = spec.rng()
    ratios = []
    worst = 0
    for i in range(spec.count):
        line = draw_line(rng, spec, n)
        r = agmon_ratio(line, s)
        if check_bound:
            bound = agmon_split_bound(line, s)
            sup = line_sup_norm(line)
            if sup > bound * (1.0 + 1e-12):
                raise AssertionError(
                    f"split bound violated on sample {i}: sup={sup} bound={bound}"
                )
        if not ratios or r > max(ratios):
            worst = i
        ratios.append(r)
    return _finish("agmon", s, ratios, worst, str(n), spec.seed)


def run_ladyzhenskaya(spec: EnsembleSpec, grid: Grid) -> RatioReport:
    rng = spec.rng()
    ratios = []
    worst = 0
    for i in range(spec.count):
        u = draw_vector(rng, spec, grid)
        r = ladyzhenskaya_ratio(u)
        if not ratios or r > max(ratios):
            worst = i
        ratios.append(r)
    res = "x".join(str(m) for m in grid.shape)
    return _finish("ladyzhenskaya", 0.0, ratios, worst, res, spec.seed)


def run_vertical_embedding(spec: EnsembleSpec, grid: Grid,
                           s: float) -> RatioReport:
    rng = spec.rng()
    ratios = []
    worst = 0
    for i in range(spec.count):
        u = draw_vector(rng, spec, grid)
        r = vertical_embedding_ratio(u, s)
        if not ratios or r > max(ratios):
            worst = i
        ratios.append(r)
    res = "x".join(str(m) for m in grid.shape)
    return _finish("vertical_embedding", s, ratios, worst, res, spec.seed)


def run_trilinear(spec: EnsembleSpec, grid: Grid, s: float,
                  form: str = "i") -> RatioReport:
    if form not in ("i", "ii"):
        raise ValueError(f"form={form!r} must be 'i' or 'ii'")
    ratio_fn = trilinear_ratio_i if form == "i" else trilinear_ratio_ii
    rng = spec.rng()
    ratios = []
    worst = 0
    for i in range(spec.count):
        u = draw_vector(rng, spec, grid)
        v = draw_vector(rng, spec, grid)
        w = draw_vector(rng, spec, grid)
        r = ratio_fn(u, v, w, s)
        if not ratios or r > max(ratios):
            worst = i
        ratios.append(r)
    res = "x".join(str(m) for m in grid.shape)
    return _finish(f"trilinear_{form}", s, ratios, worst, res, spec.seed)
