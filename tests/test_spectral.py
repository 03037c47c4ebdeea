"""Fourier calculus: transforms, operators, norms, resampling."""

import numpy as np
import pytest

from admles.grid import Grid
from admles.spectral import (
    RealityError,
    SpectralField,
    VectorField,
    convective_inner,
    dealias,
    divergence,
    divergence_residual,
    field_from_samples,
    forward_transform,
    grad_norm,
    gradient,
    hermitian_residual,
    horizontal_grad_norm,
    inner_product,
    inverse_transform,
    l2_norm,
    leray_project,
    mean_value,
    mirror_coeffs,
    pad_spectrum,
    resample,
    tensor_divergence,
    vector_from_samples,
    vertical_derivative,
    vertical_seminorm,
)


@pytest.fixture
def grid():
    return Grid(16, 16, 16)


def random_real_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return field_from_samples(grid, rng.standard_normal(grid.shape))


def random_divfree(grid, seed=0):
    """Band-limited divergence-free vector field from real samples."""
    rng = np.random.default_rng(seed)
    v = vector_from_samples(grid, rng.standard_normal((3, *grid.shape)))
    return leray_project(dealias(v))


def test_fields_freeze_owned_arrays_and_copy_writable_views(grid):
    owned = np.zeros((3, *grid.shape), dtype=np.complex128)
    field = VectorField(grid, owned)
    assert np.shares_memory(field.coeffs, owned)
    with pytest.raises(ValueError, match="read-only"):
        owned[0, 0, 0, 1] = 1.0

    base = np.zeros((2, *grid.shape), dtype=np.complex128)
    scalar = SpectralField(grid, base[1])
    base[1, 0, 0, 1] = 1.0
    assert not np.any(scalar.coeffs)
    assert not np.shares_memory(scalar.coeffs, base)

    # a component is a view of a frozen array: shared, and still frozen
    part = field.component(2)
    assert np.shares_memory(part.coeffs, field.coeffs)
    assert not part.coeffs.flags.writeable


def test_transform_round_trip(grid):
    rng = np.random.default_rng(1)
    samples = rng.standard_normal(grid.shape)
    back = inverse_transform(grid, forward_transform(grid, samples))
    assert np.max(np.abs(back - samples)) < 1e-12


def test_cosine_coefficients(grid):
    _, _, x3 = grid.mesh()
    f = field_from_samples(grid, np.cos(x3) + np.zeros(grid.shape))
    c = f.coeffs
    assert c[0, 0, 1] == pytest.approx(0.5, abs=1e-14)
    assert c[0, 0, -1] == pytest.approx(0.5, abs=1e-14)
    others = c.copy()
    others[0, 0, 1] = 0
    others[0, 0, -1] = 0
    assert np.max(np.abs(others)) < 1e-14


def test_mean_value(grid):
    x1, _, _ = grid.mesh()
    f = field_from_samples(grid, 3.25 + np.sin(x1) + np.zeros(grid.shape))
    assert mean_value(f) == pytest.approx(3.25, abs=1e-13)


def test_inner_product_analytic(grid):
    # || cos(x3) ||_2^2 = (2 pi)^3 / 2
    _, _, x3 = grid.mesh()
    f = field_from_samples(grid, np.cos(x3) + np.zeros(grid.shape))
    vol = (2 * np.pi) ** 3
    assert inner_product(f, f) == pytest.approx(vol / 2, rel=1e-13)
    assert l2_norm(f) == pytest.approx(np.sqrt(vol / 2), rel=1e-13)


def test_inner_product_orthogonal_modes(grid):
    x1, _, x3 = grid.mesh()
    f = field_from_samples(grid, np.cos(x3) + np.zeros(grid.shape))
    g = field_from_samples(grid, np.sin(x1) + np.zeros(grid.shape))
    assert abs(inner_product(f, g)) < 1e-13


def test_parseval_matches_quadrature(grid):
    rng = np.random.default_rng(2)
    a = rng.standard_normal(grid.shape)
    b = rng.standard_normal(grid.shape)
    f = field_from_samples(grid, a)
    g = field_from_samples(grid, b)
    quadrature = float(np.sum(a * b)) * grid.cell_volume
    assert inner_product(f, g) == pytest.approx(quadrature, rel=1e-12)


def test_gradient_of_cosine(grid):
    x1, _, _ = grid.mesh()
    f = field_from_samples(grid, np.cos(x1) + np.zeros(grid.shape))
    gf = gradient(f)
    d1 = inverse_transform(grid, gf.coeffs[0])
    assert np.max(np.abs(d1 - (-np.sin(x1) - np.zeros(grid.shape)))) < 1e-12
    assert np.max(np.abs(gf.coeffs[1])) < 1e-15
    assert np.max(np.abs(gf.coeffs[2])) < 1e-15


def test_vertical_derivative(grid):
    _, _, x3 = grid.mesh()
    f = field_from_samples(grid, np.sin(2 * x3) + np.zeros(grid.shape))
    df = vertical_derivative(f)
    expect = 2 * np.cos(2 * x3) + np.zeros(grid.shape)
    assert np.max(np.abs(inverse_transform(grid, df.coeffs) - expect)) < 1e-12


def test_gradient_real_for_nyquist_content(grid):
    # raw samples excite the Nyquist plane; derivative must stay real
    rng = np.random.default_rng(3)
    f = field_from_samples(grid, rng.standard_normal(grid.shape))
    for comp in gradient(f).coeffs:
        assert hermitian_residual(comp) < 1e-13


def test_leray_projection_properties(grid):
    rng = np.random.default_rng(4)
    v = vector_from_samples(grid, rng.standard_normal((3, *grid.shape)))
    pv = leray_project(v)
    assert divergence_residual(pv) < 1e-13
    ppv = leray_project(pv)
    assert np.max(np.abs(ppv.coeffs - pv.coeffs)) < 1e-14
    # the discarded part is L2-orthogonal to the projection
    residual = VectorField(grid, v.coeffs - pv.coeffs)
    assert abs(inner_product(residual, pv)) < 1e-12 * l2_norm(v) ** 2


def test_leray_annihilates_gradients(grid):
    f = random_real_field(grid, seed=5)
    gf = dealias(gradient(f))
    pg = leray_project(gf)
    assert np.max(np.abs(pg.coeffs)) < 1e-13 * np.max(np.abs(gf.coeffs))


def test_dealias_rule(grid):
    rng = np.random.default_rng(6)
    f = field_from_samples(grid, rng.standard_normal(grid.shape))
    d = dealias(f)
    idx = np.abs(grid.index_axis(0))
    cut = grid.dealias_cutoff(0)  # floor(16/3) = 5
    assert cut == 5
    killed = idx > cut
    assert np.max(np.abs(d.coeffs[killed, :, :])) == 0.0
    assert np.max(np.abs(d.coeffs[:, :, killed])) == 0.0


def test_reality_error_on_non_hermitian(grid):
    c = np.zeros(grid.shape, dtype=complex)
    c[1, 0, 0] = 1.0  # no conjugate partner
    with pytest.raises(RealityError):
        inverse_transform(grid, c)


# a non-cubic box with unequal periods for the real-transform checks
ODD_BOX = Grid(12, 16, 10, 2.0 * np.pi, 3.0, 5.0)
AXES = (-3, -2, -1)


def full_complex_tensor_divergence(u, v):
    """div(u x v) with complex FFTs and all nine products u_i v_j."""
    g = u.grid
    n = g.num_points
    us = (np.fft.ifftn(u.coeffs, axes=AXES) * n).real
    vs = (np.fft.ifftn(v.coeffs, axes=AXES) * n).real
    out = np.empty((3, *g.shape), dtype=complex)
    for j in range(3):
        p = np.fft.fftn(us * vs[j][None], axes=AXES) / n
        out[j] = 1j * (g.kd1 * p[0] + g.kd2 * p[1] + g.kd3 * p[2])
    return out * g.dealias_mask


def test_real_transforms_match_complex_ffts():
    rng = np.random.default_rng(30)
    samples = rng.standard_normal((3, *ODD_BOX.shape))
    coeffs = forward_transform(ODD_BOX, samples)
    ref = np.fft.fftn(samples, axes=AXES) / ODD_BOX.num_points
    assert np.max(np.abs(coeffs - ref)) < 1e-15 * np.max(np.abs(ref))
    back = inverse_transform(ODD_BOX, coeffs)
    assert back.dtype == np.float64
    assert np.max(np.abs(back - samples)) < 1e-13


def test_mirror_coeffs_single_gather_matches_flips():
    rng = np.random.default_rng(31)
    c = rng.standard_normal((3, *ODD_BOX.shape)) + 1j * rng.standard_normal(
        (3, *ODD_BOX.shape))
    ref = c
    for axis in AXES:
        ref = np.roll(np.flip(ref, axis=axis), 1, axis=axis)
    assert np.array_equal(mirror_coeffs(c), ref)
    assert np.array_equal(mirror_coeffs(c[1]), ref[1])
    assert np.array_equal(mirror_coeffs(c, slice(6, None)), ref[..., 6:])
    assert hermitian_residual(c) == np.max(np.abs(c - np.conj(ref)))


@pytest.mark.parametrize("same", [True, False])
def test_tensor_divergence_matches_full_complex_reference(same):
    u = random_divfree(ODD_BOX, seed=32)
    v = u if same else random_divfree(ODD_BOX, seed=33)
    got = tensor_divergence(u, v).coeffs
    ref = full_complex_tensor_divergence(u, v)
    assert np.max(np.abs(got - ref)) < 1e-14 * np.max(np.abs(ref))
    # pairs inside the k3 = 0 plane come from one transform: equal to rounding
    assert hermitian_residual(got) < 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("where", ["discarded half", "k3 = 0 plane",
                                   "k3 = n3/2 plane"])
def test_reality_error_on_any_unpaired_defect(where):
    g = ODD_BOX
    u = random_divfree(g, seed=34)
    index = {"discarded half": (0, 2, 3, g.n3 - 2),
             "k3 = 0 plane": (1, 2, 3, 0),
             "k3 = n3/2 plane": (2, 1, 5, g.n3 // 2)}[where]
    scale = np.max(np.abs(u.coeffs))
    for size, raises in ((1e-12, False), (1e-6, True)):
        c = u.coeffs.copy()
        c[index] += size * scale
        bad = VectorField(g, c)
        if raises:
            with pytest.raises(RealityError):
                inverse_transform(g, c)
            with pytest.raises(RealityError):
                tensor_divergence(bad)
            with pytest.raises(RealityError):
                tensor_divergence(u, bad)
        else:  # below the 1e-10 tolerance: accepted
            inverse_transform(g, c)
            tensor_divergence(bad)


def test_vertical_seminorm_oracles(grid):
    _, _, x3 = grid.mesh()
    f = field_from_samples(grid, 2 * np.cos(x3) + np.zeros(grid.shape))
    # |k3| = 1: seminorm equals the L2 norm for every s
    for s in (0.25, 0.5, 1.0):
        assert vertical_seminorm(f, s) == pytest.approx(l2_norm(f), rel=1e-13)
    g = field_from_samples(grid, 2 * np.cos(2 * x3) + np.zeros(grid.shape))
    # |k3| = 2, s = 1/2: weight |k3|^{2s} = 2
    assert vertical_seminorm(g, 0.5) == pytest.approx(
        np.sqrt(2) * l2_norm(g), rel=1e-13
    )
    assert vertical_seminorm(g, 1.0) == pytest.approx(2 * l2_norm(g), rel=1e-13)


def test_horizontal_grad_below_full_grad(grid):
    f = random_real_field(grid, seed=7)
    assert horizontal_grad_norm(f) <= grad_norm(f) + 1e-15
    _, _, x3 = grid.mesh()
    vert = field_from_samples(grid, np.sin(x3) + np.zeros(grid.shape))
    assert horizontal_grad_norm(vert) < 1e-13
    assert grad_norm(vert) == pytest.approx(l2_norm(vert), rel=1e-13)


def test_resample_round_trip(grid):
    f = random_real_field(grid, seed=8)
    fine = resample(f, grid.refined())
    back = resample(fine, grid)
    assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-14


def test_resample_interpolates_samples(grid):
    # includes Nyquist content; coarse samples must be reproduced exactly
    rng = np.random.default_rng(9)
    samples = rng.standard_normal(grid.shape)
    f = field_from_samples(grid, samples)
    fine_grid = grid.refined()
    fine_samples = inverse_transform(fine_grid, resample(f, fine_grid).coeffs)
    assert np.max(np.abs(fine_samples[::2, ::2, ::2] - samples)) < 1e-12


@pytest.mark.parametrize("axis", [0, -1])
@pytest.mark.parametrize("target", [lambda n: n + 1, lambda n: 4 * n],
                         ids=["m=n+1", "m=4n"])
def test_pad_spectrum_keeps_real_samples(axis, target):
    # random samples carry Nyquist content on every axis
    samples = np.random.default_rng(12).standard_normal((8, 6))
    n = samples.shape[axis]
    m = target(n)
    coeffs = np.fft.fft(samples, axis=axis) / n
    assert np.min(np.abs(np.take(coeffs, n // 2, axis=axis))) > 1e-3
    ext = pad_spectrum(coeffs, m, axis)
    assert ext.shape[axis] == m
    # the interpolant is real: c_{-k} = conj(c_k) on the padded axis
    mirrored = np.roll(np.flip(ext, axis), 1, axis)
    assert np.max(np.abs(ext - np.conj(mirrored))) < 1e-15
    # and takes the original values at the original points
    x = 2.0 * np.pi * np.arange(n) / n
    basis = np.exp(1j * np.outer(x, np.fft.fftfreq(m, d=1.0 / m)))
    values = np.moveaxis(
        np.tensordot(basis, np.moveaxis(ext, axis, 0), axes=1), 0, axis
    )
    assert np.max(np.abs(values.imag)) < 1e-13
    assert np.max(np.abs(values.real - samples)) < 1e-13


def test_pad_spectrum_rejects_odd_or_shrinking_lengths():
    with pytest.raises(ValueError):
        pad_spectrum(np.zeros(7, dtype=complex), 28, 0)
    with pytest.raises(ValueError):
        pad_spectrum(np.zeros(8, dtype=complex), 8, 0)


def test_resample_preserves_l2_when_band_limited(grid):
    f = dealias(random_real_field(grid, seed=10))
    fine = resample(f, grid.refined())
    assert l2_norm(fine) == pytest.approx(l2_norm(f), rel=1e-13)


def test_tensor_divergence_matches_fine_grid(grid):
    # quadrature-exact on the native grid: refining cannot change it
    w = random_divfree(grid, seed=11)
    fine_grid = grid.refined()
    w_fine = resample(w, fine_grid)
    t_native = tensor_divergence(w)
    t_fine = tensor_divergence(w_fine)
    t_back = resample(t_fine, grid)
    scale = np.max(np.abs(t_native.coeffs))
    assert (
        np.max(np.abs(dealias(t_back).coeffs - t_native.coeffs)) < 1e-12 * scale
    )


def test_convective_orthogonality(grid):
    w = random_divfree(grid, seed=12)
    num = convective_inner(w, w, w)
    scale = l2_norm(w) ** 2 * grad_norm(w)
    assert abs(num) < 1e-12 * scale


def test_convective_orthogonality_negative_control(grid):
    # gradient fields are not divergence-free: the form must not vanish
    f = dealias(random_real_field(grid, seed=13))
    w = dealias(gradient(f))
    num = inner_product(tensor_divergence(w), w)
    scale = l2_norm(w) ** 2 * grad_norm(w)
    assert abs(num) > 1e-6 * scale


def test_convective_by_parts_antisymmetry(grid):
    u = random_divfree(grid, seed=14)
    v = random_divfree(grid, seed=15)
    w = random_divfree(grid, seed=16)
    a = convective_inner(u, v, w)
    b = convective_inner(u, w, v)
    scale = l2_norm(u) * grad_norm(v) * l2_norm(w)
    assert abs(a + b) < 1e-12 * scale


def test_divergence_of_gradient_is_laplacian(grid):
    f = dealias(random_real_field(grid, seed=17))
    lap = divergence(gradient(f))
    expect = -f.grid.k_squared * f.coeffs
    # dealiased fields carry no Nyquist modes: kd and k agree there
    assert np.max(np.abs(lap.coeffs - expect)) < 1e-12
