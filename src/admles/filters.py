"""Vertical fractional filter and van Cittert deconvolution.

The filter acts only on the third coordinate, through the Fourier
multiplier

    A(k3) = 1 + alpha^{2 theta} |k3|^{2 theta},     0 <= theta <= 1,

so "bar" smoothing is A^{-1}.  The mode
k3 = 0 is passed through unchanged (the symbol is exactly 1 there, for
every theta including theta = 0).

Van Cittert deconvolution of order N inverts the smoothing
approximately:

    D_N = sum_{i=0}^{N} (I - A^{-1})^i,

a geometric sum with per-mode value, writing x = alpha^{2 theta}
|k3|^{2 theta},

    D_N(k3) = (1 + x) * (1 - (x / (1 + x))^{N+1}).

Modewise bounds, exact at every k3:

    D_0 = 1,   1 <= D_N <= N + 1,   D_N <= A.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import Grid, check_rules, rule_errors, wavenumbers
from .spectral import Field


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
    deconv: np.ndarray  # D_N


def symbol_table(grid: Grid, spec: DeconvSpec) -> SymbolTable:
    """The multiplier lines of `spec` on `grid`'s k3 line."""
    return _symbol_table(grid.n3, grid.L3, spec)


@lru_cache(maxsize=32)
def _symbol_table(n3: int, L3: float, spec: DeconvSpec) -> SymbolTable:
    """The lines of symbol_table, built once per k3 line and spec; the
    cache holds no Grid, so a grid that stepped is freed with its boxes."""
    k3 = np.abs(wavenumbers(n3, L3)[: n3 // 2 + 1]).reshape(1, 1, -1)
    a = filter_symbol(spec.filter, k3)
    lines = (a, 1.0 / a, deconv_symbol(spec, k3))
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


def apply_deconv(field: Field, spec: DeconvSpec) -> Field:
    """Multiply by D_N(k3)."""
    return field.with_coeffs(
        field.coeffs * _on_box(field, symbol_table(field.grid, spec).deconv))
