"""Numerical bench for the anisotropic functional inequalities.

Each checker computes the ratio of the left-hand side to the right-hand
side of one inequality on concrete fields, so ensemble maxima estimate
the (unspecified) constants and resolution-doubling studies confirm the
ratios are quadrature artifacts of bounded size rather than blow-ups.

Mixed norms are evaluated by physical-space quadrature on
spectral.fine_samples of the field's box (b1, b2, b3).  Each axis takes
spectral.quadrature_points of the band it must resolve, whatever the
grid's n:

  * horizontal plane integrals of |u|^p (p = 2, 4) on m_j points with
    p b_j < m_j, where the rectangle rule is exact;
  * vertical profiles of plane integrals are trigonometric polynomials
    of band p b3, sampled on P planes with 2 p b3 < P and upsampled
    exactly to 4 n3 planes before taking maxima (sup norms) or
    root-integrals (L^2_v of L^4_h);
  * line sup norms use grid maxima on a 4x refined axis.

The trilinear numerators are spectral.convective_inner.  The Agmon
checker also evaluates a rigorous low/high wavenumber split bound on the
sup norm (agmon_split_bound), an independent per-sample oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import EnsembleSpec, check_fits, draw_line, draw_vector
from .grid import TWO_PI, Grid, check_band, check_rules, rule_errors, wavenumbers
from .spectral import (
    FieldNorms,
    VectorField,
    convective_inner,
    fine_samples,
    pad_spectrum,
    quadrature_points,
)


@dataclass(frozen=True)
class RatioReport:
    """Ensemble summary for one inequality."""

    lemma: str
    s: float
    count: int
    max_ratio: float
    mean_ratio: float
    resolution: str
    seed: int

    def __post_init__(self):
        if not (self.max_ratio >= self.mean_ratio >= 0.0):
            raise ValueError(
                f"inconsistent report: max={self.max_ratio} mean={self.mean_ratio}"
            )


# ---------------------------------------------------------------------------
# 1-D circle norms (period 2*pi, amplitude coefficients)


def line_l2_norm(coeffs: np.ndarray) -> float:
    return float(np.sqrt(TWO_PI * np.sum(np.abs(coeffs) ** 2)))


def line_seminorm(coeffs: np.ndarray, s: float) -> float:
    k = wavenumbers(coeffs.size, TWO_PI)
    return float(
        np.sqrt(TWO_PI * np.sum(np.abs(k) ** (2.0 * s) * np.abs(coeffs) ** 2))
    )


def line_hs_norm(coeffs: np.ndarray, s: float) -> float:
    return float(np.hypot(line_l2_norm(coeffs), line_seminorm(coeffs, s)))


def line_sup_norm(coeffs: np.ndarray) -> float:
    """max |g| on a 4x refined axis (exact interpolation)."""
    m = 4 * coeffs.size
    samples = np.fft.ifft(pad_spectrum(coeffs, m, 0)) * m
    return float(np.max(np.abs(samples)))


def _require_s(s: float, what: str) -> None:
    if not s > 0.5:
        raise ValueError(f"s: {s} must exceed 1/2 for {what}")


def _interpolate(low: float, high: float, s: float) -> float:
    """low^{1-1/(2s)} high^{1/(2s)}, the right-hand side of every s-bound."""
    return low ** (1.0 - 0.5 / s) * high ** (0.5 / s)


def _ratio(top: float, bound: float, degenerate: str) -> float:
    if bound == 0.0:
        raise ValueError(degenerate)
    return top / bound


def _require_zero_mean(coeffs: np.ndarray) -> None:
    if abs(coeffs[0]) > 1e-13 * np.max(np.abs(coeffs)):
        raise ValueError("function must have zero mean")


def _agmon_terms(coeffs: np.ndarray):
    """(sup, s -> Agmon ratio) of one line; the s-free norms once."""
    _require_zero_mean(coeffs)
    l2, sup = line_l2_norm(coeffs), line_sup_norm(coeffs)
    return sup, lambda s: _ratio(
        sup, _interpolate(l2, line_hs_norm(coeffs, s), s),
        "zero function has no ratio")


# Cephes zeta.c: the machine epsilon that ends its sums, and A[i], the
# Euler-Maclaurin denominators (2i + 2)! / B_{2i+2}.
_MACHEP = 1.11022302462515654042e-16
_ZETA_A = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
           -1.8924375803183791606e9, 7.47242496e10, -2.950130727918164224e12,
           1.1646782814350067249e14, -4.5979787224074726105e15,
           1.8152105401943546773e17, -7.1661652561756670113e18)


def _hurwitz_zeta(x: float, q: float) -> float:
    """zeta(x, q) = sum_{k >= 0} (k + q)^{-x} for x > 1, q > 0.

    Cephes zeta.c in its order of operations: the asymptotic form for
    q > 1e8; otherwise the direct terms k = 0..i, for i >= 9 and until
    q + i > 9 in floating point (a q below 1e-15 rounds to q + 9 = 9),
    then the integral and half-term corrections and up to 12 Bernoulli
    terms, each sum ending once a term falls below _MACHEP of the sum.
    A sum that underflows to 0 never ends early, as its 0/0 test fails
    in C.  Equal to scipy.special.zeta(x, q) bit for bit wherever q^{-x}
    is a finite float.
    """
    if not (x > 1.0 and q > 0.0):
        raise ValueError(f"zeta({x}, {q}) needs x > 1 and q > 0")
    if q > 1e8:
        return (1.0 / (x - 1.0) + 1.0 / (2.0 * q)) * q ** (1.0 - x)
    s = q ** -x
    a, b, i = q, 0.0, 0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a ** -x
        s += b
        if s and abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a, k = 1.0, 0.0
    for denominator in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / denominator
        s += t
        if s and abs(t / s) < _MACHEP:
            break
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


def agmon_split_bound(coeffs: np.ndarray, s: float) -> float:
    """Low/high wavenumber split bound on ||g||_inf at the optimal kappa.

    With c_k the amplitude coefficients and m = floor(kappa):

      ||g||_inf <= sum |c_k|
                <= sqrt(2m) * (sum_{0<|k|<=m} |c_k|^2)^{1/2}
                 + sqrt(2 zeta(2s, m+1)) * (sum_{|k|>m} |k|^{2s}|c_k|^2)^{1/2}

    Every step is exact or Cauchy-Schwarz, so the result is a rigorous
    upper bound for any kappa >= 1; kappa = (||g||_{H^s}/||g||_2)^{1/s}
    balances the two terms (and is >= 1 since H^s dominates L^2).  The
    sum leaves out c_0, so g must have zero mean, as for the Agmon ratio.
    """
    _require_s(s, "the tail sum")
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    _require_zero_mean(coeffs)
    l2 = line_l2_norm(coeffs)
    if l2 == 0.0:
        raise ValueError("zero function has no bound")
    kappa = (line_hs_norm(coeffs, s) / l2) ** (1.0 / s)
    m = int(np.floor(kappa))
    k = wavenumbers(coeffs.size, TWO_PI)
    mag2 = np.abs(coeffs) ** 2
    low = (np.abs(k) > 0) & (np.abs(k) <= m)
    high = np.abs(k) > m
    low_sum = float(np.sqrt(np.sum(mag2[low])))
    high_sum = float(
        np.sqrt(np.sum(np.abs(k[high]) ** (2.0 * s) * mag2[high]))
    )
    tail = 2.0 * _hurwitz_zeta(2.0 * s, float(m + 1))
    return np.sqrt(2.0 * m) * low_sum + np.sqrt(tail) * high_sum


# ---------------------------------------------------------------------------
# Plane-integral profiles and mixed norms


def plane_profile(u: VectorField, power: int) -> np.ndarray:
    """The integral over each of 4 n3 horizontal planes of |u|^power
    (power 2 or 4), exact by the rules of the module docstring."""
    g = u.grid
    *horizontal, b3 = u.band.cutoffs
    shape = (*(quadrature_points(power * b) for b in horizontal),
             quadrature_points(2 * power * b3))
    samples = fine_samples(u, shape)
    density = np.sum(samples**2, axis=0) ** (power // 2)
    profile = np.mean(density, axis=(0, 1)) * (g.L1 * g.L2)
    c = pad_spectrum(np.fft.fft(profile) / shape[2], 4 * g.n3, 0)
    return (np.fft.ifft(c) * (4 * g.n3)).real


def linf_v_l2_h_norm(u: VectorField) -> float:
    """sup over x3 of the horizontal L^2 norm: the maximum of the exact
    plane profile on 4 n3 planes."""
    return float(np.sqrt(np.max(plane_profile(u, 2))))


def l2_v_l4_h_norm(u: VectorField) -> float:
    """(integral over x3 of plane-L^4-norm squared)^{1/2}: the square
    root of the exact |u|^4 profile on 4 n3 planes, integrated by the
    rectangle rule."""
    plane_l4_sq = np.sqrt(np.maximum(plane_profile(u, 4), 0.0))
    return float(np.sqrt(np.mean(plane_l4_sq) * u.grid.L3))


# ---------------------------------------------------------------------------
# Inequality ratios
#
# Each *_terms helper evaluates the s-independent norms of one sample
# once and returns the s-dependent ratio as a function of s.


def _ladyzhenskaya(u: VectorField, norms: FieldNorms) -> float:
    return _ratio(l2_v_l4_h_norm(u),
                  np.sqrt(norms.l2() * norms.horizontal_grad()),
                  "field constant in the horizontal directions")


def _vertical_embedding_terms(u: VectorField, norms: FieldNorms):
    l2, sup = norms.l2(), linf_v_l2_h_norm(u)
    return lambda s: _ratio(sup, _interpolate(l2, norms.vertical(s), s),
                            "field constant in the vertical direction")


def _trilinear_terms(u: VectorField, v: VectorField, w: VectorField):
    """Forms i and ii of one triple: one numerator, one set of norms.

    The bound of form i is (||u|| ||grad u||)^{1/2} *
    ||grad v||^{1-1/(2s)} ||d3^s grad v||^{1/(2s)} *
    (||w|| ||grad w||)^{1/2}; form ii swaps the roles of v and w.  For
    divergence-free u, ((u.grad) v, w) = -((u.grad) w, v), so form ii of
    (u, v, w) equals form i of (u, w, v).
    """
    top = abs(convective_inner(u, v, w))
    norms = [FieldNorms(f) for f in (u, v, w)]
    grads = [n.grad() for n in norms]
    scales = [np.sqrt(n.l2() * g) for n, g in zip(norms, grads)]

    def form(mid: int, outer: int):
        def ratio(s: float) -> float:
            dv = _interpolate(grads[mid], norms[mid].vertical_grad(s), s)
            return _ratio(top, scales[0] * dv * scales[outer],
                          "degenerate inputs: zero denominator")
        return ratio

    return {"trilinear_i": form(1, 2), "trilinear_ii": form(2, 1)}


# ---------------------------------------------------------------------------
# Ensemble sweep

LEMMAS = ("agmon", "ladyzhenskaya", "vertical_embedding", "trilinear_i",
          "trilinear_ii")


def sweep_errors(lemmas, s_values, band: int, line_length: int,
                 shape: tuple[int, int, int]) -> list[str]:
    """run_sweep's rules, one line each, named as InequalitySweep fields.

    The agmon line is padded by pad_spectrum, so it must be even.  Every
    other lemma draws on a grid of `shape` and needs the band inside its
    2/3 cutoff, or products of the draws alias onto the band.
    """
    errors = [f"lemmas: {lemma!r} is not one of {', '.join(LEMMAS)}"
              for lemma in lemmas if lemma not in LEMMAS]
    for s in s_values:
        errors += rule_errors(_require_s, s, "every lemma but ladyzhenskaya",
                              rename={"s": "s_values"})
    if line_length % 2:
        errors.append(f"line_length: {line_length} must be even")
    errors += rule_errors(check_fits, band, line_length,
                          rename={"n": "line_length"})
    if set(lemmas) & set(LEMMAS) - {"agmon"}:
        errors += rule_errors(check_band, band, shape)
    return errors


def run_sweep(spec: EnsembleSpec, grid: Grid, lemmas, s_values,
              line_length: int) -> tuple[list[RatioReport], list[str]]:
    """Ratio reports for every (lemma, s), in the requested order, and
    the agmon_split_bound violations as messages.

    Each ensemble is drawn once from spec.rng(): lines of `line_length`
    modes for agmon, single fields on `grid` for ladyzhenskaya and
    vertical_embedding, (u, v, w) triples for both trilinear forms.
    ladyzhenskaya has no exponent and reports s = 0.0.
    """
    check_rules(sweep_errors(lemmas, s_values, spec.band_limit, line_length,
                             grid.shape))
    exponents = {lemma: (0.0,) if lemma == "ladyzhenskaya" else tuple(s_values)
                 for lemma in lemmas}
    table = {lemma: np.empty((len(exps), spec.count))
             for lemma, exps in exponents.items()}
    violations: list[str] = []

    def record(lemma: str, i: int, ratio) -> None:
        if lemma in table:
            for j, s in enumerate(exponents[lemma]):
                table[lemma][j, i] = ratio(s)

    if "agmon" in table:
        rng = spec.rng()
        for i in range(spec.count):
            line = draw_line(rng, spec, line_length)
            sup, ratio = _agmon_terms(line)
            record("agmon", i, ratio)
            for s in s_values:
                bound = agmon_split_bound(line, s)
                if sup > bound * (1.0 + 1e-12):
                    violations.append(f"s={s}: split bound violated on sample "
                                      f"{i}: sup={sup} bound={bound}")
    if table.keys() & {"ladyzhenskaya", "vertical_embedding"}:
        rng = spec.rng()
        for i in range(spec.count):
            u = draw_vector(rng, spec, grid)
            norms = FieldNorms(u)
            record("ladyzhenskaya", i, lambda s: _ladyzhenskaya(u, norms))
            if "vertical_embedding" in table:
                record("vertical_embedding", i,
                       _vertical_embedding_terms(u, norms))
    if table.keys() & {"trilinear_i", "trilinear_ii"}:
        rng = spec.rng()
        for i in range(spec.count):
            u = draw_vector(rng, spec, grid)
            v = draw_vector(rng, spec, grid)
            w = draw_vector(rng, spec, grid)
            for lemma, ratio in _trilinear_terms(u, v, w).items():
                record(lemma, i, ratio)

    shape = "x".join(str(m) for m in grid.shape)
    reports = [
        RatioReport(lemma, s, spec.count, float(np.max(ratios)),
                    float(np.mean(ratios)),
                    str(line_length) if lemma == "agmon" else shape, spec.seed)
        for lemma in lemmas
        for s, ratios in zip(exponents[lemma], table[lemma])
    ]
    return reports, violations


@dataclass(frozen=True)
class InequalitySweep:
    """run_sweep of `count` draws of band `band` on a resolution^3 grid,
    checked by the EnsembleSpec, Grid and sweep_errors rules it feeds."""

    lemmas: tuple[str, ...]
    count: int
    band: int
    amplitude_decay: float
    s_values: tuple[float, ...]
    resolution: int
    line_length: int

    def __post_init__(self):
        n = self.resolution
        check_rules(
            rule_errors(EnsembleSpec, self.count, self.band, 0,
                        self.amplitude_decay, rename={"band_limit": "band"})
            + rule_errors(Grid, n, n, n, rename=dict.fromkeys(
                ("n1", "n2", "n3"), "resolution"))
            + sweep_errors(self.lemmas, self.s_values, self.band,
                           self.line_length, (n, n, n)))

    def run(self, seed: int) -> tuple[list[RatioReport], list[str]]:
        """run_sweep of these settings with ensemble seed `seed`."""
        n = self.resolution
        spec = EnsembleSpec(self.count, self.band, seed, self.amplitude_decay)
        return run_sweep(spec, Grid(n, n, n), self.lemmas, self.s_values,
                         self.line_length)
