"""Fourier calculus: transforms, operators, norms, fine sampling."""

import numpy as np
import pytest
from full_layout import (
    AXES,
    convective_inner_reference,
    derivative_lines,
    gather,
    gradient,
    half_layout,
    half_layout_inner,
    half_layout_norms,
    hermitian_defect,
    rule_mask,
    samples as grid_samples,
    scatter,
    spectral_shape,
    three_component_mass,
    to_full,
    union_inner,
)

from admles import spectral
from admles.ensembles import EnsembleSpec, draw_vector
from admles.grid import Band, Grid, dealias_cutoff
from admles.inequalities import l2_v_l4_h_norm, linf_v_l2_h_norm, plane_profile
from admles.spectral import (
    BandWorkspace,
    FieldNorms,
    SpectralField,
    VectorField,
    band_forward,
    band_inverse,
    convective_inner,
    divergence,
    divergence_residual,
    field_from_samples,
    fine_samples,
    inner_product,
    l2_norm,
    leray_project,
    pad_spectrum,
    tensor_divergence,
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
    v = field_from_samples(grid, rng.standard_normal((3, *grid.shape)))
    return leray_project(v)


def test_fields_freeze_owned_arrays_and_copy_writable_views(grid):
    owned = np.zeros((3, *grid.band.shape), dtype=np.complex128)
    field = VectorField(grid.band, owned)
    assert np.shares_memory(field.coeffs, owned)
    with pytest.raises(ValueError, match="read-only"):
        owned[0, 0, 0, 1] = 1.0

    base = np.zeros((2, *grid.band.shape), dtype=np.complex128)
    scalar = SpectralField(grid.band, base[1])
    base[1, 0, 0, 1] = 1.0
    assert not np.any(scalar.coeffs)
    assert not np.shares_memory(scalar.coeffs, base)

    # a component is a view of a frozen array: shared, and still frozen
    part = field.component(2)
    assert np.shares_memory(part.coeffs, field.coeffs)
    assert not part.coeffs.flags.writeable


def band_limited_samples(grid, rng, shape):
    """Samples of the 2/3 band of white noise of `shape`."""
    return grid_samples(field_from_samples(grid, rng.standard_normal(shape)))


def test_transform_round_trip(grid):
    rng = np.random.default_rng(1)
    samples = band_limited_samples(grid, rng, grid.shape)
    f = field_from_samples(grid, samples)
    assert isinstance(f, SpectralField)
    assert np.max(np.abs(grid_samples(f) - samples)) < 1e-12
    v = field_from_samples(grid, rng.standard_normal((3, *grid.shape)))
    assert isinstance(v, VectorField)


def test_cosine_coefficients(grid):
    _, _, x3 = grid.mesh()
    f = field_from_samples(grid, np.cos(x3) + np.zeros(grid.shape))
    assert f.coeffs.shape == (11, 11, 6)  # |k1|, |k2| <= 5 and k3 = 0..5
    c = to_full(grid, half_layout(f))
    assert c[0, 0, 1] == pytest.approx(0.5, abs=1e-14)
    assert c[0, 0, -1] == pytest.approx(0.5, abs=1e-14)
    others = c.copy()
    others[0, 0, 1] = 0
    others[0, 0, -1] = 0
    assert np.max(np.abs(others)) < 1e-14


def test_mean_value(grid):
    x1, _, _ = grid.mesh()
    f = field_from_samples(grid, 3.25 + np.sin(x1) + np.zeros(grid.shape))
    assert f.coeffs[0, 0, 0].real == pytest.approx(3.25, abs=1e-13)


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
    a = band_limited_samples(grid, rng, grid.shape)
    b = band_limited_samples(grid, rng, grid.shape)
    f = field_from_samples(grid, a)
    g = field_from_samples(grid, b)
    quadrature = float(np.sum(a * b)) * grid.volume / np.prod(grid.shape)
    assert inner_product(f, g) == pytest.approx(quadrature, rel=1e-12)


def test_gradient_of_cosine(grid):
    x1, _, _ = grid.mesh()
    f = field_from_samples(grid, np.cos(x1) + np.zeros(grid.shape))
    gf = gradient(f)
    d1 = grid_samples(gf.component(0))
    assert np.max(np.abs(d1 - (-np.sin(x1) - np.zeros(grid.shape)))) < 1e-12
    assert np.max(np.abs(gf.coeffs[1])) < 1e-15
    assert np.max(np.abs(gf.coeffs[2])) < 1e-15


def test_vertical_derivative(grid):
    _, _, x3 = grid.mesh()
    f = field_from_samples(grid, np.sin(2 * x3) + np.zeros(grid.shape))
    df = gradient(f).component(2)
    expect = 2 * np.cos(2 * x3) + np.zeros(grid.shape)
    assert np.max(np.abs(grid_samples(df) - expect)) < 1e-12


def test_gradient_real_for_nyquist_content(grid):
    # raw samples excite the Nyquist plane; the derivative of their band
    # must stay real
    rng = np.random.default_rng(3)
    f = field_from_samples(grid, rng.standard_normal(grid.shape))
    for i in range(3):
        comp = half_layout(gradient(f).component(i))
        assert hermitian_defect(to_full(grid, comp)) < 1e-13


def test_leray_projection_properties(grid):
    rng = np.random.default_rng(4)
    v = field_from_samples(grid, rng.standard_normal((3, *grid.shape)))
    pv = leray_project(v)
    assert divergence_residual(pv) < 1e-13
    ppv = leray_project(pv)
    assert np.max(np.abs(ppv.coeffs - pv.coeffs)) < 1e-14
    # the discarded part is L2-orthogonal to the projection
    residual = v.with_coeffs(v.coeffs - pv.coeffs)
    assert abs(inner_product(residual, pv)) < 1e-12 * l2_norm(v) ** 2


def test_leray_annihilates_gradients(grid):
    f = random_real_field(grid, seed=5)
    gf = gradient(f)
    pg = leray_project(gf)
    assert np.max(np.abs(pg.coeffs)) < 1e-13 * np.max(np.abs(gf.coeffs))


def test_dealias_rule(grid):
    # a field of raw samples keeps their 2/3 band and nothing else
    rng = np.random.default_rng(6)
    f = field_from_samples(grid, rng.standard_normal(grid.shape))
    d = half_layout(f)
    idx = np.abs(np.fft.fftfreq(grid.n1, 1 / grid.n1))
    cut = dealias_cutoff(grid.n1)  # (16 - 1) // 3 = 5
    assert cut == 5
    assert f.band is grid.band and f.band.cutoffs == (cut, cut, cut)
    killed = idx > cut
    assert np.max(np.abs(d[killed, :, :])) == 0.0
    assert np.max(np.abs(d[:, :, np.arange(9) > cut])) == 0.0


# a non-cubic box with unequal periods for the real-transform checks
ODD_BOX = Grid(12, 16, 10, 2.0 * np.pi, 3.0, 5.0)


def full_complex_tensor_divergence(u, v):
    """div(u x v) with complex FFTs and all nine products u_i v_j."""
    g = u.grid
    n = np.prod(g.shape)
    us = (np.fft.ifftn(to_full(g, half_layout(u)), axes=AXES) * n).real
    vs = (np.fft.ifftn(to_full(g, half_layout(v)), axes=AXES) * n).real
    kd1, kd2, kd3 = derivative_lines(g, half=False)
    out = np.empty((3, *g.shape), dtype=complex)
    for j in range(3):
        p = np.fft.fftn(us * vs[j][None], axes=AXES) / n
        out[j] = 1j * (kd1 * p[0] + kd2 * p[1] + kd3 * p[2])
    return out * rule_mask(g)


def test_real_transforms_match_complex_ffts():
    rng = np.random.default_rng(30)
    samples = rng.standard_normal((3, *ODD_BOX.shape))
    coeffs = np.fft.rfftn(samples, axes=AXES, norm="forward")
    ref = np.fft.fftn(samples, axes=AXES) / np.prod(ODD_BOX.shape)
    assert coeffs.shape == (3, *spectral_shape(ODD_BOX))
    assert np.max(np.abs(coeffs - ref[..., :6])) < 1e-15 * np.max(np.abs(ref))
    assert np.array_equal(field_from_samples(ODD_BOX, samples).coeffs,
                          gather(ODD_BOX.band, coeffs))
    back = np.fft.irfftn(coeffs, s=ODD_BOX.shape, axes=AXES, norm="forward")
    assert back.dtype == np.float64
    assert np.max(np.abs(back - samples)) < 1e-13


def test_tensor_divergence_matches_full_complex_reference():
    u = random_divfree(ODD_BOX, seed=32)
    got = half_layout(tensor_divergence(u))
    ref = full_complex_tensor_divergence(u, u)
    assert np.max(np.abs(got - ref[..., :6])) < 1e-14 * np.max(np.abs(ref))
    # pairs inside the k3 = 0 plane come from one transform: equal to rounding
    defect = hermitian_defect(to_full(ODD_BOX, got))
    assert defect < 1e-15 * np.max(np.abs(ref))


def rfftn_band(g, raw):
    """The VectorField of the 2/3 band of the full rfftn of `raw`."""
    return VectorField(g.band, gather(g.band, np.fft.rfftn(raw, axes=AXES, norm="forward")))


def test_tensor_divergence_embeds_only_a_smaller_box(grid, monkeypatch):
    # a field on the band is sampled from its own coefficients; a draw's
    # box is embedded in the band first
    calls = []
    embed = Band.embed
    monkeypatch.setattr(Band, "embed", lambda *args: calls.append(1) or embed(*args))
    tensor_divergence(random_divfree(grid, seed=51))
    assert calls == []
    tensor_divergence(*band_draws(grid, 3))
    assert calls == [1]


def test_tensor_divergence_reads_only_the_band(grid):
    # raw samples fill every mode; only the 2/3 band of u is read, and a
    # draw's box reads as the same field embedded in the band
    rng = np.random.default_rng(45)
    raw = rng.standard_normal((3, *grid.shape))
    assert np.array_equal(tensor_divergence(field_from_samples(grid, raw)).coeffs,
                          tensor_divergence(rfftn_band(grid, raw)).coeffs)
    (u,) = band_draws(grid, 3)
    embedded = VectorField(grid.band, u.band.embed(u.coeffs, grid.band))
    assert np.array_equal(tensor_divergence(u).coeffs,
                          tensor_divergence(embedded).coeffs)


@pytest.mark.parametrize("g", [Grid(16, 16, 16), ODD_BOX], ids=["cube", "odd box"])
def test_leray_project_reads_only_the_band(g):
    # raw samples fill every mode; the projection reads and keeps the band
    rng = np.random.default_rng(46)
    raw = rng.standard_normal((3, *g.shape))
    u = field_from_samples(g, raw)
    got = half_layout(leray_project(u))
    assert np.array_equal(got, half_layout(leray_project(rfftn_band(g, raw))))
    outside = ~rule_mask(g)[..., : g.n3 // 2 + 1]
    zeros = got[:, outside]
    assert np.array_equal(zeros, np.zeros_like(zeros))
    assert not np.signbit(zeros.real).any() and not np.signbit(zeros.imag).any()


# slab heights: the whole grid, one plane, and 5, which leaves a short
# last slab on 16, 12 and 22 planes
SLAB_HEIGHTS = (None, 1, 5)


@pytest.mark.parametrize("g", [Grid(16, 16, 16), ODD_BOX, Grid(12, 16, 24, L3=np.pi)],
                         ids=["cube", "odd box", "12x16x24"])
def test_pruned_transforms_equal_full_ones_bitwise(g, force_slab):
    rng = np.random.default_rng(35)
    band = g.band
    samples = rng.standard_normal(g.shape)
    other = rng.standard_normal(g.shape)
    coeffs = rng.standard_normal((3, *band.shape, 2)).view(complex)[..., 0]
    for planes in SLAB_HEIGHTS:
        force_slab(planes, g.shape)
        work = BandWorkspace(band, g.shape, 1)
        assert work.slab == (planes or g.n1)
        for _ in range(2):  # the second round reuses buffers the first overwrote
            got = band_forward(samples, np.empty(band.shape, complex), work)
            ref = np.fft.rfftn(samples, axes=AXES, norm="forward")
            assert np.array_equal(got, gather(band, ref))
            got = band_forward(samples, np.empty(band.shape, complex), work, other)
            ref = np.fft.rfftn(samples * other, axes=AXES, norm="forward")
            assert np.array_equal(got, gather(band, ref))
            got = band_inverse(coeffs, np.empty((3, *g.shape)), work)
            ref = np.fft.irfftn(scatter(band, coeffs), s=g.shape, axes=AXES,
                                norm="forward")
            assert np.array_equal(got, ref)


@pytest.mark.parametrize("target", [
    lambda n1, n2, n3: (n1, n2, n3), lambda n1, n2, n3: (n1, n2, 2 * n3),
    lambda n1, n2, n3: (2 * n1, 2 * n2, 2 * n3),
    lambda n1, n2, n3: (n1, n2, 4 * n3)],
    ids=["native", "n,n,2n", "2n,2n,2n", "n,n,4n"])
@pytest.mark.parametrize("g, cutoffs", [
    (Grid(16, 16, 16), None), (Grid(16, 16, 16), (5, 5, 5)),
    (Grid(16, 16, 16), (3, 5, 2)), (ODD_BOX, None), (ODD_BOX, (4, 4, 4)),
    (ODD_BOX, (3, 5, 2))],
    ids=["cube, grid band", "cube, draw box", "cube, anisotropic box",
         "odd box, grid band", "odd box, draw box", "odd box, anisotropic box"])
def test_pruned_inverse_equals_irfftn_on_any_box_and_shape(g, cutoffs, target):
    # a draw box of band 5 needs 11 modes per axis; ODD_BOX has 10 on axis 3
    rng = np.random.default_rng(37)
    box = Band(g, cutoffs or g.band.cutoffs)
    shape = target(*g.shape)
    work = BandWorkspace(box, shape, 1)
    coeffs = rng.standard_normal((3, *box.shape, 2)).view(complex)[..., 0]
    ref = np.fft.irfftn(scatter(box, coeffs, shape), s=shape, axes=AXES,
                        norm="forward")
    for _ in range(2):  # the second round reuses the buffers of the first
        assert np.array_equal(band_inverse(coeffs, np.empty((3, *shape)), work),
                              ref)


@pytest.mark.parametrize("g, cutoffs, shape, count, group", [
    (Grid(32, 32, 32), (5, 5, 5), (22, 22, 42), 3, 3),
    (Grid(32, 32, 32), (5, 5, 5), (12, 12, 22), 3, 3),
    (Grid(32, 32, 32), (5, 5, 5), (16, 16, 16), 9, 9),
    (Grid(12, 16, 24, L3=np.pi), None, None, 3, 3),
    (Grid(12, 16, 24, L3=np.pi), (3, 3, 3), (12, 16, 24), 1, 3),
    (Grid(16, 16, 16), (5, 5, 5), (16, 16, 16), 15, 4),
    (Grid(12, 16, 24, L3=np.pi), None, None, 3, 1)],
    ids=["22x22x42", "12x12x22", "16^3, 9 components", "12x16x24 grid band",
         "12x16x24 scalar in a group of 3", "15 components in groups of 4",
         "12x16x24 one component per group"])
def test_band_inverse_group_size_keeps_the_bits(g, cutoffs, shape, count, group,
                                                force_slab):
    # each pass runs once per group of components, and numpy transforms
    # every line on its own: the samples of one component at a time, in
    # one slab, whatever the group size and the slab height
    rng = np.random.default_rng(49)
    box = Band(g, cutoffs or g.band.cutoffs)
    shape = shape or g.shape
    coeffs = rng.standard_normal((count, *box.shape, 2)).view(complex)[..., 0]
    whole = BandWorkspace(box, shape, 1)
    assert whole.slab == shape[0]
    one = band_inverse(coeffs, np.empty((count, *shape)), whole)
    for planes in SLAB_HEIGHTS:
        force_slab(planes, shape, group)
        work = BandWorkspace(box, shape, group)
        assert work.half.shape[0] == work.columns.shape[0] == group
        assert work.slab == (planes or shape[0])
        for _ in range(2):  # the second round reuses the buffers of the first
            got = band_inverse(coeffs, np.empty((count, *shape)), work)
            assert got.tobytes() == one.tobytes()
        # a forward transform through group member 0 leaves nothing behind
        band_forward(rng.standard_normal(shape), np.empty(box.shape, complex), work)
        got = band_inverse(coeffs, np.empty((count, *shape)), work)
        assert got.tobytes() == one.tobytes()


def test_shared_sampling_workspaces_do_not_alias():
    # interleaved calls on the draws' cached workspaces give the bits of
    # the same calls on fresh boxes, whose workspaces nothing else touched
    g = Grid(32, 32, 32)
    u, v, w = band_draws(g, 5, 5, 5)
    assert u.band is v.band is w.band

    def fresh(f):
        return VectorField(Band(g, f.band.cutoffs), f.coeffs)

    profile_u = plane_profile(u, 4)
    inner = convective_inner(u, v, w)
    profile_v = plane_profile(v, 4)
    assert profile_u.tobytes() == plane_profile(fresh(u), 4).tobytes()
    assert inner == convective_inner(fresh(u), fresh(v), fresh(w))
    assert profile_v.tobytes() == plane_profile(fresh(v), 4).tobytes()


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


@pytest.mark.parametrize("g", [Grid(32, 32, 32), Grid(64, 64, 64),
                               Grid(12, 16, 24, L3=np.pi)],
                         ids=["32", "64", "12x16x24"])
@pytest.mark.parametrize("vector", [False, True])
def test_norms_of_a_band_box_equal_the_half_layout_ones_bitwise(g, vector):
    """FieldNorms and inner_product of a field, read on its band box,
    give the bits that the same sums give on its half layout."""
    rng = np.random.default_rng(37)
    shape = (3, *g.shape) if vector else g.shape
    f, h = (field_from_samples(g, rng.standard_normal(shape)) for _ in range(2))
    assert_lines_of_the_half_layout(f)
    weight = g.k3 ** 1.5
    assert inner_product(f, h, weight) == half_layout_inner(f, h, weight)


def assert_lines_of_the_half_layout(f):
    norms, half = FieldNorms(f), half_layout_norms(f)
    for name in ("plain", "horizontal", "full"):
        assert np.array_equal(getattr(norms, name), getattr(half, name)), name


@pytest.mark.parametrize("g", [Grid(16, 16, 16), Grid(32, 32, 32),
                               Grid(12, 16, 24, L3=np.pi)],
                         ids=["16", "32", "12x16x24"])
def test_draw_norms_on_their_box_equal_the_half_layout_ones_bitwise(g):
    # a draw's box (b, b, b) is smaller than the band; its lines, and its
    # inner products with a field on another box, are the half layout's
    rng = np.random.default_rng(47)
    bands = range(1, min(g.band.cutoffs) + 1)
    draws = [draw_vector(rng, EnsembleSpec(1, b, 0), g) for b in bands]
    for u in draws:
        assert u.band.cutoffs == (u.band.cutoffs[0],) * 3
        assert_lines_of_the_half_layout(u)
    sampled = field_from_samples(g, rng.standard_normal((3, *g.shape)))
    weight = g.k3 ** 0.5
    for u, v in zip(draws, [*draws[1:], sampled]):
        assert inner_product(u, v, weight) == half_layout_inner(u, v, weight)


def test_horizontal_grad_below_full_grad(grid):
    f = FieldNorms(random_real_field(grid, seed=7))
    assert f.horizontal_grad() <= f.grad() + 1e-15
    _, _, x3 = grid.mesh()
    vert = FieldNorms(field_from_samples(grid, np.sin(x3) + np.zeros(grid.shape)))
    assert vert.horizontal_grad() < 1e-13
    assert vert.grad() == pytest.approx(vert.l2(), rel=1e-13)


def fine_grid(grid):
    return Grid(*(2 * n for n in grid.shape), *grid.sizes)


def test_fine_samples_round_trip(grid):
    # the fine samples carry the band and nothing else
    f = random_real_field(grid, seed=8)
    fine = fine_grid(grid)
    coeffs = field_from_samples(fine, fine_samples(f, fine.shape)).coeffs
    lifted = Band(fine, f.band.cutoffs).embed(f.coeffs, fine.band)
    assert np.max(np.abs(coeffs - lifted)) < 1e-14


def test_fine_samples_interpolate(grid):
    # every other fine sample is a native one
    f = random_real_field(grid, seed=9)
    samples = grid_samples(f)
    fine = fine_samples(f, fine_grid(grid).shape)
    assert np.max(np.abs(fine[::2, ::2, ::2] - samples)) < 1e-12


def test_fine_samples_are_the_trigonometric_sum():
    u = random_divfree(ODD_BOX, seed=36)
    shape = (24, 20, 16)
    coeffs = to_full(ODD_BOX, half_layout(u))
    waves = [np.exp(1j * np.outer(np.arange(m) * L / m, ODD_BOX.k_axis(axis)))
             for axis, (m, L) in enumerate(zip(shape, ODD_BOX.sizes))]
    ref = np.einsum("ai,bj,ck,nijk->nabc", *waves, coeffs)
    got = fine_samples(u, shape)
    assert got.shape == (3, *shape)
    assert np.max(np.abs(got - ref)) < 1e-13 * np.max(np.abs(ref))


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


def test_fine_samples_preserve_l2_when_band_limited(grid):
    f = random_real_field(grid, seed=10)
    fine = fine_samples(f, fine_grid(grid).shape)
    assert np.sqrt(np.mean(fine**2) * grid.volume) == pytest.approx(
        l2_norm(f), rel=1e-13)


def test_tensor_divergence_matches_fine_grid(grid):
    # quadrature-exact on the native grid: refining cannot change it
    w = random_divfree(grid, seed=11)
    fine = fine_grid(grid)
    box = Band(fine, w.band.cutoffs)
    w_fine = VectorField(box, w.coeffs)
    t_native = tensor_divergence(w).coeffs
    t_fine = gather(box, half_layout(tensor_divergence(w_fine)))
    scale = np.max(np.abs(t_native))
    assert np.max(np.abs(t_fine - t_native)) < 1e-12 * scale


def test_convective_orthogonality(grid):
    w = random_divfree(grid, seed=12)
    num = convective_inner(w, w, w)
    scale = l2_norm(w) ** 2 * FieldNorms(w).grad()
    assert abs(num) < 1e-12 * scale


@pytest.mark.parametrize("g", [Grid(12, 16, 10), Grid(24, 24, 24)],
                         ids=["12x16x10", "24^3"])
def test_trilinear_orthogonality_when_three_divides_n(g):
    # a cutoff of n/3 would let the product mode 2n/3 alias onto -n/3,
    # inside the band; the largest |k| < n/3 keeps every product off it
    z = random_divfree(g, seed=18)
    t = tensor_divergence(z)
    assert abs(inner_product(t, z)) < 1e-14 * l2_norm(t) * l2_norm(z)


def test_convective_orthogonality_negative_control(grid):
    # gradient fields are not divergence-free: the form must not vanish
    f = random_real_field(grid, seed=13)
    w = gradient(f)
    num = inner_product(tensor_divergence(w), w)
    scale = l2_norm(w) ** 2 * FieldNorms(w).grad()
    assert abs(num) > 1e-6 * scale


def test_convective_by_parts_antisymmetry(grid):
    u = random_divfree(grid, seed=14)
    v = random_divfree(grid, seed=15)
    w = random_divfree(grid, seed=16)
    a = convective_inner(u, v, w)
    b = convective_inner(u, w, v)
    scale = l2_norm(u) * FieldNorms(v).grad() * l2_norm(w)
    assert abs(a + b) < 1e-12 * scale


def band_draws(g, *bands, seed=38):
    """Divergence-free draws of the given bands on g, one per band."""
    rng = np.random.default_rng(seed)
    return [draw_vector(rng, EnsembleSpec(1, b, 0), g) for b in bands]


@pytest.mark.parametrize("triple", [
    lambda: band_draws(Grid(16, 16, 16), 5, 5, 5),
    lambda: band_draws(Grid(32, 32, 32), 5, 5, 5),
    lambda: [random_divfree(Grid(16, 16, 16), seed) for seed in (39, 40, 41)],
    lambda: [random_divfree(ODD_BOX, seed) for seed in (42, 43, 44)],
    # b_u + b_v + b_w = 7 needs 8 points, but u's box needs 11
    lambda: band_draws(Grid(32, 32, 32), 5, 1, 1)],
    ids=["band 5 at 16^3", "band 5 at 32^3", "full band", "odd box",
         "wide with narrow"])
def test_convective_inner_equals_the_tensor_divergence_form(triple):
    u, v, w = triple()
    g = u.grid
    ref = full_complex_tensor_divergence(u, v)[..., : g.n3 // 2 + 1]
    expect = inner_product(VectorField(g.band, gather(g.band, ref)), w)
    scale = l2_norm(u) * FieldNorms(v).grad() * l2_norm(w)
    assert abs(convective_inner(u, v, w) - expect) < 1e-13 * scale


def test_band_5_triple_at_32_is_sampled_on_16_points(monkeypatch):
    # the integrand's band 15 per axis needs 16 points, not the grid's 32
    shapes = []

    def recording(coeffs, out, work):
        shapes.append(out.shape)
        return band_inverse(coeffs, out, work)

    monkeypatch.setattr(spectral, "band_inverse", recording)
    convective_inner(*band_draws(Grid(32, 32, 32), 5, 5, 5))
    assert shapes == [(3, 16, 16, 16), (9, 16, 16, 16), (3, 16, 16, 16)]


@pytest.mark.parametrize("g", [Grid(16, 16, 16), Grid(32, 32, 32)], ids=["16^3", "32^3"])
def test_convective_inner_on_mixed_boxes(g):
    # u and w on band-3 boxes, v on a band-5 one: each is sampled from its
    # own box, against the half layouts sampled on the grid
    for seed in range(4):
        u, v, w = band_draws(g, 3, 5, 3, seed=seed)
        ref = convective_inner_reference(u, v, w)
        scale = l2_norm(u) * FieldNorms(v).grad() * l2_norm(w)
        assert abs(convective_inner(u, v, w) - ref) <= 1e-13 * scale


def test_inner_product_of_fields_on_different_boxes():
    # read on the union box, the half layouts' inner product bit for bit
    g = Grid(16, 16, 16)
    u, v = band_draws(g, 2, 4)
    w = leray_project(field_from_samples(
        g, np.random.default_rng(48).standard_normal((3, *g.shape))))
    weight = g.k3 ** 1.5
    for a, b in ((u, v), (v, u), (u, w), (w, v)):
        assert a.band.cutoffs != b.band.cutoffs
        assert inner_product(a, b, weight) == half_layout_inner(a, b, weight)
    assert inner_product(u, v) == pytest.approx(
        inner_product(VectorField(g.band, u.band.embed(u.coeffs, g.band)), v),
        rel=1e-15)


def signed_zero_coeffs(rng, box, components=3):
    """Random complex coefficients on `box`, a tenth of their real and
    imaginary parts -0.0."""
    shape = (components, *box.shape)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c.real[rng.random(shape) < 0.1] = -0.0
    c.imag[rng.random(shape) < 0.1] = -0.0
    return c


def test_common_box_reads_keep_the_union_bits():
    # inner_product reads nested and crossing boxes on the box of their
    # smaller cutoffs, with the bits of both fields embedded in the union;
    # FieldNorms forms |c|^2 one component at a time with the bits of the
    # three-component form
    g = Grid(16, 16, 16)
    rng = np.random.default_rng(50)
    boxes = [g.band, g.box((2, 2, 2)), g.box((3, 1, 2)), g.box((1, 4, 3)),
             g.box((5, 2, 1))]
    fields = [VectorField(box, signed_zero_coeffs(rng, box)) for box in boxes]
    fields += [SpectralField(box, signed_zero_coeffs(rng, box, 1)[0])
               for box in (g.band, g.box((2, 3, 4)))]
    weight = g.k3 ** 1.5
    for f in fields:
        for h in fields:
            if f.coeffs.ndim == h.coeffs.ndim:
                assert inner_product(f, h, weight) == union_inner(f, h, weight)
                assert inner_product(f, h) == union_inner(f, h)
    for f in fields:
        b, cols = f.band, f.band.shape[-1]
        mass = three_component_mass(f.coeffs)
        plain, horizontal = np.zeros(g.n3 // 2 + 1), np.zeros(g.n3 // 2 + 1)
        plain[:cols] = mass.sum(axis=(0, 1))
        mass *= b.kd1**2 + b.kd2**2
        horizontal[:cols] = mass.sum(axis=(0, 1))
        norms = FieldNorms(f)
        for got, expect in ((norms.plain, plain), (norms.horizontal, horizontal),
                            (norms.full, horizontal + g.k3[0, 0] ** 2 * plain)):
            assert got.tobytes() == expect.tobytes()


def test_l2_distance_keeps_the_bits_of_the_norm_of_the_difference():
    """l2_distance(f, g) is l2_norm(f - g) bit for bit, signed zeros
    included, for vector and scalar fields; fields on two boxes raise."""
    g = Grid(16, 16, 16)
    rng = np.random.default_rng(51)
    for box in (g.band, g.box((2, 3, 4))):
        vectors = [VectorField(box, signed_zero_coeffs(rng, box)) for _ in range(2)]
        scalars = [SpectralField(box, signed_zero_coeffs(rng, box, 1)[0]) for _ in range(2)]
        for f, h in (vectors, scalars):
            for a, b in ((f, h), (h, f), (f, f)):
                assert spectral.l2_distance(a, b) == l2_norm(a.with_coeffs(a.coeffs - b.coeffs))
    with pytest.raises(ValueError, match="different boxes"):
        spectral.l2_distance(VectorField(g.band, signed_zero_coeffs(rng, g.band)),
                             VectorField(g.box((2, 2, 2)), signed_zero_coeffs(rng, g.box((2, 2, 2)))))


def test_fields_lie_inside_the_band():
    # the 2/3 cutoff of 12 modes is 3: a box or draw beyond it is refused
    g = Grid(12, 12, 16)
    assert g.band.cutoffs == (3, 3, 5)
    with pytest.raises(ValueError, match="outside the retained band"):
        VectorField(Band(g, (4, 1, 1)), np.zeros((3, 9, 3, 2), dtype=complex))
    with pytest.raises(ValueError, match="outside the retained band"):
        band_draws(g, 4)
    with pytest.raises(ValueError, match="does not match"):
        SpectralField(g.band, np.zeros(spectral_shape(g), dtype=complex))


@pytest.mark.parametrize("g", [Grid(32, 32, 32), Grid(64, 64, 64),
                               Grid(12, 16, 24, L3=np.pi)],
                         ids=["32", "64", "12x16x24"])
@pytest.mark.parametrize("kind", ["white noise", "taylor-green"])
@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
def test_field_from_samples_is_the_band_of_rfftn(g, kind, vector):
    if kind == "white noise":
        samples = np.random.default_rng(49).standard_normal((3, *g.shape))
    else:
        x1, x2, x3 = g.mesh()
        samples = np.stack([np.sin(x1) * np.cos(x2) * np.cos(x3),
                            -np.cos(x1) * np.sin(x2) * np.cos(x3),
                            np.zeros(g.shape)])
    if not vector:
        samples = samples[0]
    ref = gather(g.band, np.fft.rfftn(samples, axes=(-3, -2, -1), norm="forward"))
    f = field_from_samples(g, samples)
    assert f.band is g.band
    assert np.array_equal(f.coeffs, ref)


def test_divergence_of_gradient_is_laplacian(grid):
    f = random_real_field(grid, seed=17)
    lap = divergence(gradient(f))
    b = f.band
    expect = -(b.kd1**2 + b.kd2**2 + b.kd3**2) * f.coeffs
    # a box holds no Nyquist mode: its lines are the true wavenumbers
    assert np.max(np.abs(lap.coeffs - expect)) < 1e-12


@pytest.mark.parametrize("vector", [False, True])
def test_norms_match_full_layout_reference(vector):
    # Plancherel on the full layout, every k once, against the Parseval
    # weighted band, whose k3 = 0 column stands for itself alone
    g = ODD_BOX
    rng = np.random.default_rng(35)
    shape = (3, *g.shape) if vector else g.shape
    f = field_from_samples(g, rng.standard_normal(shape))
    h = field_from_samples(g, rng.standard_normal(shape))
    h = h.with_coeffs(h.coeffs + f.coeffs)  # not near-orthogonal to f
    F, H = (to_full(g, half_layout(x)) for x in (f, h))
    norms = FieldNorms(f)
    k1, k2 = (g.k_axis(axis).reshape(shape) for axis, shape in
              ((0, (-1, 1, 1)), (1, (1, -1, 1))))
    k3 = g.k_axis(2).reshape(1, 1, -1)
    k_squared = k1**2 + k2**2 + k3**2
    mass = np.abs(F) ** 2

    def ref(weight):
        return np.sqrt(g.volume * np.sum(weight * mass))

    s = 0.75
    pairs = [
        (l2_norm(f), ref(1.0)),
        (norms.grad(), ref(k_squared)),
        (norms.horizontal_grad(), ref(k1**2 + k2**2)),
        (vertical_seminorm(f, s), ref(np.abs(k3) ** (2 * s))),
        (vertical_seminorm(f, 0.0), ref(1.0)),
        (norms.vertical_grad(s), ref(k_squared * np.abs(k3) ** (2 * s))),
        (inner_product(f, h), g.volume * np.vdot(H, F).real),
    ]
    for got, expect in pairs:
        assert got == pytest.approx(expect, rel=1e-14, abs=0.0)
