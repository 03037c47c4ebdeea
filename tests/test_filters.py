"""Vertical filter symbols, deconvolution, and the operator identities."""

import numpy as np
import pytest
from full_layout import gradient, half_layout, to_full
from oracles import (
    check_filter_identities,
    deconv_error_symbol,
    half_deconv,
    half_filter,
    vertical_fractional_shift,
)

from admles.filters import (
    DeconvSpec,
    FilterSpec,
    apply_bar,
    apply_deconv,
    apply_filter,
    deconv_symbol,
    deconv_symbol_iterative,
    filter_symbol,
    symbol_table,
)
from admles.grid import Grid
from admles.spectral import FieldNorms, field_from_samples, l2_norm, leray_project


@pytest.fixture
def grid():
    return Grid(16, 16, 16)


def random_scalar(grid, seed=0):
    rng = np.random.default_rng(seed)
    return field_from_samples(grid, rng.standard_normal(grid.shape))


def random_divfree(grid, seed=0):
    rng = np.random.default_rng(seed)
    v = field_from_samples(grid, rng.standard_normal((3, *grid.shape)))
    return leray_project(v)


# ---------------------------------------------------------------------------
# Symbols


def test_spec_validation():
    with pytest.raises(ValueError):
        FilterSpec(alpha=0.0, theta=1.0)
    with pytest.raises(ValueError):  # D_N would be nan at every k3 != 0
        FilterSpec(alpha=np.inf, theta=1.0)
    with pytest.raises(ValueError):
        FilterSpec(alpha=1.0, theta=1.5)
    with pytest.raises(ValueError):
        FilterSpec(alpha=1.0, theta=-0.1)
    with pytest.raises(ValueError):
        DeconvSpec(FilterSpec(1.0, 1.0), order=-1)


def test_filter_symbol_values():
    spec = FilterSpec(alpha=1.0, theta=1.0)
    assert filter_symbol(spec, np.array([2.0]))[0] == pytest.approx(5.0)
    # k3 = 0 passes through for every theta, including theta = 0
    for theta in (0.0, 0.5, 1.0):
        s = FilterSpec(alpha=2.0, theta=theta)
        assert filter_symbol(s, np.array([0.0]))[0] == 1.0
    half = FilterSpec(alpha=1.0, theta=0.5)
    assert filter_symbol(half, np.array([4.0]))[0] == pytest.approx(5.0)


def test_filter_symbol_at_least_one():
    k3 = np.arange(-64, 65, dtype=float)
    for alpha in (0.1, 0.5, 1.0, 2.0):
        for theta in (0.0, 0.51, 0.75, 1.0):
            sym = filter_symbol(FilterSpec(alpha, theta), k3)
            assert np.all(sym >= 1.0)


def test_deconv_symbol_examples():
    f = FilterSpec(alpha=1.0, theta=1.0)
    k = np.array([1.0])
    assert deconv_symbol(DeconvSpec(f, 0), k)[0] == 1.0
    # A = 2: partial sums 1, 1 + 1/2, 1 + 1/2 + 1/4
    assert deconv_symbol(DeconvSpec(f, 1), k)[0] == pytest.approx(1.5)
    assert deconv_symbol(DeconvSpec(f, 2), k)[0] == pytest.approx(1.75)


def test_deconv_order_zero_is_exact_ones():
    spec = DeconvSpec(FilterSpec(0.7, 0.9), 0)
    sym = deconv_symbol(spec, np.arange(-32, 33, dtype=float))
    assert np.all(sym == 1.0)


def test_deconv_closed_form_matches_iterative():
    k3 = np.arange(-64, 65, dtype=float)
    worst = 0.0
    for alpha in (0.1, 1.0, 2.0):
        for theta in (0.51, 0.75, 1.0):
            f = FilterSpec(alpha, theta)
            for order in (0, 1, 2, 5, 10, 25, 50):
                spec = DeconvSpec(f, order)
                a = deconv_symbol(spec, k3)
                b = deconv_symbol_iterative(spec, k3)
                worst = max(worst, float(np.max(np.abs(a - b) / np.abs(b))))
    assert worst < 1e-12


def test_deconv_bounds():
    k3 = np.arange(-64, 65, dtype=float)
    for alpha in (0.1, 0.5, 1.0, 2.0):
        for theta in (0.51, 0.75, 1.0):
            f = FilterSpec(alpha, theta)
            a_sym = filter_symbol(f, k3)
            for order in range(11):
                d = deconv_symbol(DeconvSpec(f, order), k3)
                assert np.all(d >= 1.0 - 1e-12)
                assert np.all(d <= order + 1.0 + 1e-12)
                assert np.all(d <= a_sym + 1e-12)


def test_deconv_monotone_in_order():
    k3 = np.arange(0, 33, dtype=float)
    f = FilterSpec(1.3, 0.8)
    prev = deconv_symbol(DeconvSpec(f, 0), k3)
    for order in range(1, 12):
        cur = deconv_symbol(DeconvSpec(f, order), k3)
        assert np.all(cur >= prev - 1e-14)
        prev = cur


def test_deconv_error_symbol():
    f = FilterSpec(1.0, 1.0)
    k = np.array([1.0])  # A = 2, r = 1/2
    for order in range(6):
        err = deconv_error_symbol(DeconvSpec(f, order), k)[0]
        assert err == pytest.approx(0.5 ** (order + 1), rel=1e-14)
    # error = 1 - D/A identically
    k3 = np.arange(-16, 17, dtype=float)
    spec = DeconvSpec(FilterSpec(0.6, 0.77), 4)
    direct = 1.0 - deconv_symbol(spec, k3) / filter_symbol(spec.filter, k3)
    assert np.max(np.abs(deconv_error_symbol(spec, k3) - direct)) < 1e-13


def test_deconv_error_large_band():
    # far into the filtered band the closed form must not cancel away
    f = FilterSpec(2.0, 1.0)
    k = np.array([64.0])  # x = 4 * 4096
    spec = DeconvSpec(f, 50)
    d = deconv_symbol(spec, k)[0]
    it = deconv_symbol_iterative(spec, k)[0]
    assert d == pytest.approx(it, rel=1e-12)
    assert 1.0 <= d <= 51.0


# ---------------------------------------------------------------------------
# Field application


def test_symbol_table_cached_read_only_and_applied(grid):
    spec = DeconvSpec(FilterSpec(alpha=0.7, theta=0.6), 3)
    table = symbol_table(grid, spec)
    assert symbol_table(grid, spec) is table
    k3 = grid.k3.ravel()
    a = filter_symbol(spec.filter, k3)
    d = deconv_symbol(spec, k3)
    expected = {"filter": a, "bar": 1.0 / a, "deconv": d}
    for name, values in expected.items():
        line = getattr(table, name)
        assert line.shape == (1, 1, grid.n3 // 2 + 1)
        assert not line.flags.writeable
        with pytest.raises(ValueError):
            line[0, 0, 0] = 0.0
        assert np.array_equal(line[0, 0], values)

    # each application still equals its symbol form bit for bit
    w = random_divfree(grid, seed=21)
    c = w.coeffs
    line = lambda v: v[w.band.cols].reshape(1, 1, -1)  # noqa: E731
    assert np.array_equal(apply_filter(w, spec.filter).coeffs, c * line(a))
    assert np.array_equal(apply_bar(w, spec.filter).coeffs, c / line(a))
    assert np.array_equal(apply_deconv(w, spec).coeffs, c * line(d))
    # and so does each test-side half multiplier
    assert np.array_equal(half_filter(w, spec.filter).coeffs, c * line(np.sqrt(a)))
    assert np.array_equal(half_deconv(w, spec).coeffs, c * line(np.sqrt(d)))


def test_apply_bar_halves_unit_mode(grid):
    _, _, x3 = grid.mesh()
    f = field_from_samples(grid, np.cos(x3) + np.zeros(grid.shape))
    spec = FilterSpec(alpha=1.0, theta=1.0)
    smoothed = to_full(grid, half_layout(apply_bar(f, spec)))
    assert smoothed[0, 0, 1] == pytest.approx(0.25, abs=1e-14)
    assert smoothed[0, 0, -1] == pytest.approx(0.25, abs=1e-14)


def test_apply_bar_ignores_vertical_constants(grid):
    x1, _, _ = grid.mesh()
    f = field_from_samples(grid, np.sin(x1) + np.zeros(grid.shape))
    spec = FilterSpec(alpha=2.0, theta=0.7)
    out = apply_bar(f, spec)
    assert np.max(np.abs(out.coeffs - f.coeffs)) < 1e-15


def test_filter_inverse_pair(grid):
    f = random_scalar(grid, seed=1)
    spec = FilterSpec(alpha=0.8, theta=0.9)
    back = apply_filter(apply_bar(f, spec), spec)
    scale = np.max(np.abs(f.coeffs))
    assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12 * scale


def test_half_filter_squares_to_filter(grid):
    f = random_scalar(grid, seed=2)
    spec = FilterSpec(alpha=1.1, theta=0.6)
    twice = half_filter(half_filter(f, spec), spec)
    full = apply_filter(f, spec)
    scale = np.max(np.abs(full.coeffs))
    assert np.max(np.abs(twice.coeffs - full.coeffs)) < 1e-12 * scale


def test_half_filter_single_mode(grid):
    _, _, x3 = grid.mesh()
    f = field_from_samples(grid, np.cos(x3) + np.zeros(grid.shape))
    spec = FilterSpec(alpha=1.0, theta=1.0)
    out = half_filter(f, spec)
    assert out.coeffs[0, 0, 1] == pytest.approx(np.sqrt(2) * 0.5, rel=1e-14)


def test_parseval_filter_identity(grid):
    # || A^{1/2} v ||^2 = ||v||^2 + alpha^{2 theta} || d3^theta v ||^2
    v = random_divfree(grid, seed=3)
    for alpha, theta in ((1.0, 1.0), (0.5, 0.75), (2.0, 0.51)):
        spec = FilterSpec(alpha, theta)
        lhs = l2_norm(half_filter(v, spec)) ** 2
        rhs = (
            l2_norm(v) ** 2
            + alpha ** (2 * theta) * FieldNorms(v).vertical(theta) ** 2
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_deconv_order_zero_identity_on_fields(grid):
    w = random_divfree(grid, seed=4)
    spec = DeconvSpec(FilterSpec(1.0, 1.0), 0)
    out = apply_deconv(w, spec)
    assert np.array_equal(out.coeffs, w.coeffs)


def test_half_deconv_squares_to_full(grid):
    w = random_divfree(grid, seed=5)
    spec = DeconvSpec(FilterSpec(0.9, 0.8), 7)
    twice = half_deconv(half_deconv(w, spec), spec)
    full = apply_deconv(w, spec)
    scale = np.max(np.abs(full.coeffs))
    assert np.max(np.abs(twice.coeffs - full.coeffs)) < 1e-12 * scale


def test_deconv_norm_bounds_on_fields(grid):
    w = random_divfree(grid, seed=6)
    for order in (0, 1, 5):
        spec = DeconvSpec(FilterSpec(1.0, 1.0), order)
        dn = l2_norm(apply_deconv(w, spec))
        assert l2_norm(w) * (1 - 1e-12) <= dn <= (order + 1) * l2_norm(w) * (1 + 1e-12)


def test_smoothed_deconv_contraction(grid):
    # || A^{1/2} D^{1/2} bar v ||_2 <= || v ||_2
    v = random_divfree(grid, seed=7)
    for order in (0, 2, 8):
        spec = DeconvSpec(FilterSpec(1.4, 0.9), order)
        smoothed = apply_bar(v, spec.filter)
        weighted = half_filter(
            half_deconv(smoothed, spec), spec.filter
        )
        assert l2_norm(weighted) <= l2_norm(v) * (1 + 1e-12)


def test_fractional_shift_matches_filter(grid):
    w = random_divfree(grid, seed=8)
    spec = FilterSpec(1.2, 0.85)
    a = vertical_fractional_shift(w, spec)
    b = apply_filter(w, spec)
    scale = np.max(np.abs(b.coeffs))
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-13 * scale


# ---------------------------------------------------------------------------
# Identity report


def test_filter_identities_clean_inputs(grid):
    spec = FilterSpec(alpha=1.0, theta=0.75)
    f = random_scalar(grid, seed=9)
    w = random_divfree(grid, seed=10)
    report = check_filter_identities(spec, f, w)
    for key, value in report.items():
        assert value < 1e-10, f"{key} residual {value}"


def test_filter_identities_single_mode(grid):
    _, _, x3 = grid.mesh()
    f = field_from_samples(grid, np.cos(x3) + np.zeros(grid.shape))
    samples = np.stack(
        [np.sin(x3) + np.zeros(grid.shape), np.zeros(grid.shape), np.zeros(grid.shape)]
    )
    w = field_from_samples(grid, samples)  # divergence-free: u1(x3)
    report = check_filter_identities(FilterSpec(1.0, 1.0), f, w)
    for key, value in report.items():
        assert value < 1e-12, f"{key} residual {value}"


def test_filter_identities_negative_control(grid):
    # inject nonzero divergence: w = grad(phi) breaks the orthogonality
    spec = FilterSpec(alpha=1.0, theta=1.0)
    f = random_scalar(grid, seed=11)
    phi = random_scalar(grid, seed=12)
    w = gradient(phi)
    report = check_filter_identities(spec, f, w)
    assert report["orthogonality_plain"] > 1e-4
