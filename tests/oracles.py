"""Oracles of the filter operators that no run of the package calls: the
differential form of A, the exact smoothing-operator identities, the
half multipliers A^{1/2} and D_N^{1/2}, the deconvolution error symbol,
and a scalar draw of an ensemble's stream.

The half multipliers take the square root of the package's own symbol
lines (filter_symbol and deconv_symbol on the grid's k3 line) and
multiply a field's columns as apply_filter does.
"""

import numpy as np
from full_layout import component, full_layout_draw, gather

from admles.filters import (
    DeconvSpec,
    FilterSpec,
    _on_box,
    _vertical_weight,
    apply_bar,
    apply_filter,
    deconv_symbol,
    filter_symbol,
)
from admles.spectral import (
    Field,
    SpectralField,
    VectorField,
    inner_product,
    l2_norm,
    tensor_divergence,
)


def half_filter(field: Field, spec: FilterSpec) -> Field:
    """Multiply by A(k3)^{1/2}."""
    line = np.sqrt(filter_symbol(spec, field.grid.k3))
    return field.with_coeffs(field.coeffs * _on_box(field, line))


def half_deconv(field: Field, spec: DeconvSpec) -> Field:
    """Multiply by D_N(k3)^{1/2} (energy-weight convention)."""
    line = np.sqrt(deconv_symbol(spec, field.grid.k3))
    return field.with_coeffs(field.coeffs * _on_box(field, line))


def deconv_error_symbol(spec: DeconvSpec, k3: np.ndarray) -> np.ndarray:
    """Per-mode residual 1 - D_N / A = (x / (1 + x))^{N+1}, the relative
    defect of deconvolution-then-smoothing against the identity."""
    x = _vertical_weight(spec.filter, np.asarray(k3, dtype=np.float64))
    r = x / (1.0 + x)
    return r ** (spec.order + 1)


def scalar_draw(rng, spec, grid) -> SpectralField:
    """The scalar field that full_layout_draw(rng, spec, grid, 1, False)
    draws, on the box of cutoffs (b, b, b): Hermitian, mean-zero and
    decay-weighted, from one stream of 2 (2b + 1)^3 normals."""
    b = spec.band_limit
    box = grid.box((b, b, b))
    full = full_layout_draw(rng, spec, grid, components=1, project=False)
    return SpectralField(box, gather(box, full[0, ..., : grid.n3 // 2 + 1]))


def vertical_fractional_shift(field: Field, spec: FilterSpec) -> Field:
    """(I - alpha^{2 theta} d3^{2 theta}) f, the filter A in its
    differential-operator form: apply_filter up to the order of
    floating-point operations, kept so the identity checks can test the
    two forms against each other.
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
        wi = component(w, i)
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
