"""Vertical fractional filter and van Cittert deconvolution.

The filter acts only on the third coordinate, through the Fourier
multiplier

    A(k3) = 1 + alpha^{2 theta} |k3|^{2 theta},     0 <= theta <= 1,

so "bar" smoothing is A^{-1} and the half filter is A^{1/2}.  The mode
k3 = 0 is passed through unchanged (the symbol is exactly 1 there, for
every theta including theta = 0).

Van Cittert deconvolution of order N inverts the smoothing
approximately:

    D_N = sum_{i=0}^{N} (I - A^{-1})^i,

a geometric sum with per-mode value, writing x = alpha^{2 theta}
|k3|^{2 theta},

    D_N(k3) = (1 + x) * (1 - (x / (1 + x))^{N+1}).

The closed form is evaluated through expm1/log1p so that large x (deep
in the filtered band) does not cancel catastrophically; it agrees with
the literal Kahan-summed series to near machine precision for orders up
to at least 50.  Modewise bounds, exact at every k3:

    D_0 = 1,   1 <= D_N <= N + 1,   D_N <= A.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import Grid, check_rules, rule_errors, wavenumbers
from .spectral import (
    Field,
    SpectralField,
    VectorField,
    inner_product,
    l2_norm,
    tensor_divergence,
)


@dataclass(frozen=True)
class FilterSpec:
    """Vertical filter parameters: length scale alpha, exponent theta."""

    alpha: float
    theta: float

    def __post_init__(self):
        errors = []
        if not 0.0 < self.alpha < np.inf:
            errors.append(f"alpha: {self.alpha} must be positive and finite")
        if not 0.0 <= self.theta <= 1.0:
            errors.append(f"theta: {self.theta} must lie in [0, 1]")
        check_rules(errors)


@dataclass(frozen=True)
class DeconvSpec:
    """Filter plus van Cittert order N >= 0."""

    filter: FilterSpec
    order: int

    def __post_init__(self):
        if self.order < 0:
            raise ValueError(f"order: {self.order} must be >= 0")


@dataclass(frozen=True)
class OperatorSweep:
    """The verify-operators grid of (alpha, theta, order) on |k3| <= k3_max;
    each value is checked by the FilterSpec or DeconvSpec it becomes."""

    k3_max: int
    alpha_values: tuple[float, ...]
    theta_values: tuple[float, ...]
    order_values: tuple[int, ...]

    def __post_init__(self):
        errors = []
        if self.k3_max < 1:
            errors.append(f"k3_max: {self.k3_max} must be >= 1")
        for alpha in self.alpha_values:
            errors += rule_errors(FilterSpec, alpha, 1.0,
                                  rename={"alpha": "alpha_values"})
        for theta in self.theta_values:
            errors += rule_errors(FilterSpec, 1.0, theta,
                                  rename={"theta": "theta_values"})
        for order in self.order_values:
            errors += rule_errors(DeconvSpec, FilterSpec(1.0, 1.0), order,
                                  rename={"order": "order_values"})
        check_rules(errors)


def _vertical_weight(spec: FilterSpec, k3: np.ndarray) -> np.ndarray:
    """x = alpha^{2 theta} |k3|^{2 theta}, exactly zero at k3 = 0.

    The explicit zero matters at theta = 0, where |0|^0 would evaluate
    to 1 and wrongly double the symbol at the mean mode.
    """
    k3 = np.asarray(k3, dtype=np.float64)
    x = spec.alpha ** (2.0 * spec.theta) * np.abs(k3) ** (2.0 * spec.theta)
    return np.where(k3 == 0.0, 0.0, x)


def filter_symbol(spec: FilterSpec, k3: np.ndarray) -> np.ndarray:
    """A(k3) = 1 + alpha^{2 theta} |k3|^{2 theta}."""
    return 1.0 + _vertical_weight(spec, k3)


def deconv_symbol(spec: DeconvSpec, k3: np.ndarray) -> np.ndarray:
    """Closed-form D_N(k3), stable for large alpha |k3|.

    With r = x / (1 + x) = 1 - 1/A, the sum is
    A * (1 - r^{N+1}) = A * (-expm1((N+1) * log1p(-1/A))),
    evaluated without forming 1 - r^{N+1} by subtraction.  Order 0
    returns exact ones so that multiplying by it is an identity bitwise.
    """
    x = _vertical_weight(spec.filter, np.asarray(k3, dtype=np.float64))
    if spec.order == 0:
        return np.ones_like(x)
    a = 1.0 + x
    # at x = 0: log1p(-1) = -inf, expm1(-inf) = -1, value exactly 1
    with np.errstate(divide="ignore"):
        return a * (-np.expm1((spec.order + 1) * np.log1p(-1.0 / a)))


def deconv_symbol_iterative(spec: DeconvSpec, k3: np.ndarray) -> np.ndarray:
    """Literal van Cittert sum with Kahan compensation (reference oracle)."""
    x = _vertical_weight(spec.filter, np.asarray(k3, dtype=np.float64))
    r = x / (1.0 + x)
    total = np.ones_like(r)
    comp = np.zeros_like(r)
    term = np.ones_like(r)
    for _ in range(spec.order):
        term = term * r
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def deconv_error_symbol(spec: DeconvSpec, k3: np.ndarray) -> np.ndarray:
    """Per-mode residual 1 - D_N / A = (x / (1 + x))^{N+1}.

    This is the exact relative defect of deconvolution-then-smoothing
    against the identity; it decreases monotonically in N and tends to
    1 as |k3| -> infinity at fixed N.
    """
    x = _vertical_weight(spec.filter, np.asarray(k3, dtype=np.float64))
    r = x / (1.0 + x)
    return r ** (spec.order + 1)


# ---------------------------------------------------------------------------
# Application to spectral fields


@dataclass(frozen=True, eq=False)
class SymbolTable:
    """Read-only vertical multiplier lines of one grid and deconvolution.

    Each line has shape (1, 1, n3/2 + 1), the grid's k3 line; a field's
    box reads its columns band.cols, and trailing-axis broadcasting then
    covers both scalar and vector coefficients.
    """

    filter: np.ndarray  # A
    bar: np.ndarray  # 1 / A
    half_filter: np.ndarray  # A^{1/2}
    deconv: np.ndarray  # D_N
    half_deconv: np.ndarray  # D_N^{1/2}


def symbol_table(grid: Grid, spec: DeconvSpec) -> SymbolTable:
    """The multiplier lines of `spec` on `grid`'s k3 line."""
    return _symbol_table(grid.n3, grid.L3, spec)


@lru_cache(maxsize=32)
def _symbol_table(n3: int, L3: float, spec: DeconvSpec) -> SymbolTable:
    """The lines of symbol_table, built once per k3 line and spec; the
    cache holds no Grid, so a grid that stepped is freed with its boxes."""
    k3 = np.abs(wavenumbers(n3, L3)[: n3 // 2 + 1]).reshape(1, 1, -1)
    a = filter_symbol(spec.filter, k3)
    d = deconv_symbol(spec, k3)
    lines = (a, 1.0 / a, np.sqrt(a), d, np.sqrt(d))
    for line in lines:
        line.setflags(write=False)
    return SymbolTable(*lines)


def _on_box(field: Field, line: np.ndarray) -> np.ndarray:
    """The columns of a k3 line that the field's box holds."""
    return line[..., field.band.cols]


def _filter_table(field: Field, spec: FilterSpec) -> SymbolTable:
    return symbol_table(field.grid, DeconvSpec(spec, 0))


def apply_filter(field: Field, spec: FilterSpec) -> Field:
    """Multiply by A(k3) (the inverse of bar smoothing)."""
    return field.with_coeffs(
        field.coeffs * _on_box(field, _filter_table(field, spec).filter))


def apply_bar(field: Field, spec: FilterSpec) -> Field:
    """Smoothing: divide by A(k3).

    Not a multiply by the cached 1/A: numpy's complex-by-real division
    turns a -0.0 real part into +0.0 where multiplication keeps it, and
    checkpoint bytes record that sign.
    """
    return field.with_coeffs(
        field.coeffs / _on_box(field, _filter_table(field, spec).filter))


def apply_half_filter(field: Field, spec: FilterSpec) -> Field:
    """Multiply by A(k3)^{1/2}."""
    return field.with_coeffs(
        field.coeffs * _on_box(field, _filter_table(field, spec).half_filter))


def apply_deconv(field: Field, spec: DeconvSpec) -> Field:
    """Multiply by D_N(k3)."""
    return field.with_coeffs(
        field.coeffs * _on_box(field, symbol_table(field.grid, spec).deconv))


def apply_half_deconv(field: Field, spec: DeconvSpec) -> Field:
    """Multiply by D_N(k3)^{1/2} (energy-weight convention)."""
    return field.with_coeffs(
        field.coeffs * _on_box(field, symbol_table(field.grid, spec).half_deconv))


# ---------------------------------------------------------------------------
# Operator identity checks (used by the verification bench)


def vertical_fractional_shift(field: Field, spec: FilterSpec) -> Field:
    """(I - alpha^{2 theta} d3^{2 theta}) f, i.e. the filter A applied
    through its differential-operator form.

    The fractional vertical derivative d3^{2 theta} carries the
    multiplier -|k3|^{2 theta}, so this coincides with apply_filter up
    to the order of floating-point operations; keeping both forms lets
    the identity checks exercise them against each other.
    """
    x = _vertical_weight(spec, _on_box(field, field.grid.k3))
    return field.with_coeffs(field.coeffs + x * field.coeffs)


def check_filter_identities(
    spec: FilterSpec, f: SpectralField, w: VectorField
) -> dict[str, float]:
    """Relative residuals of the exact smoothing-operator identities.

    Inputs: a scalar field f and a divergence-free vector field w
    (band-limited under the 2/3 rule, so that quadratic products are
    quadrature-exact).  Returned keys:

      self_adjoint     max over components i of
                       |(bar f, w_i) - (f, bar w_i)| / (||f|| ||w_i||)
      commutation      sup-mode residual of
                       bar((I - a^{2t} d3^{2t}) w) - (I - a^{2t} d3^{2t}) bar w,
                       relative to the sup coefficient of the filtered field
      orthogonality_smoothed  |(bar div(w x w), A w)| / Cauchy-Schwarz cap
      orthogonality_plain     |(div(w x w), w)| / Cauchy-Schwarz cap
      orthogonality_equal     |(bar div(w x w), A w) - (div(w x w), w)| / cap

    Violations are reported, never raised; a nonzero divergence in w
    shows up as an order-one orthogonality residual.
    """
    bar_f = apply_bar(f, spec)
    residual_sa = 0.0
    norm_f = l2_norm(f)
    for i in range(3):
        wi = w.component(i)
        bar_wi = apply_bar(wi, spec)
        cap = norm_f * l2_norm(wi)
        if cap == 0.0:
            continue
        residual_sa = max(
            residual_sa,
            abs(inner_product(bar_f, wi) - inner_product(f, bar_wi)) / cap,
        )

    lhs = apply_bar(vertical_fractional_shift(w, spec), spec)
    rhs = vertical_fractional_shift(apply_bar(w, spec), spec)
    scale = float(np.max(np.abs(lhs.coeffs)))
    residual_comm = (
        float(np.max(np.abs(lhs.coeffs - rhs.coeffs))) / scale if scale > 0 else 0.0
    )

    t = tensor_divergence(w)
    bar_t = apply_bar(t, spec)
    a_w = apply_filter(w, spec)
    ip_smoothed = inner_product(bar_t, a_w)
    ip_plain = inner_product(t, w)
    cap_smoothed = l2_norm(bar_t) * l2_norm(a_w)
    cap_plain = l2_norm(t) * l2_norm(w)
    cap = max(cap_smoothed, cap_plain)

    return {
        "self_adjoint": residual_sa,
        "commutation": residual_comm,
        "orthogonality_smoothed": (
            abs(ip_smoothed) / cap_smoothed if cap_smoothed > 0 else 0.0
        ),
        "orthogonality_plain": abs(ip_plain) / cap_plain if cap_plain > 0 else 0.0,
        "orthogonality_equal": abs(ip_smoothed - ip_plain) / cap if cap > 0 else 0.0,
    }
