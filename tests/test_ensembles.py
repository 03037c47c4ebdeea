"""Deterministic ensemble draws and their cross-resolution stability."""

from functools import partial

import numpy as np
import pytest
from full_layout import (
    full_layout_draw,
    half_layout,
    half_layout_leray,
    hermitian_defect,
    to_full,
)

from admles.ensembles import (
    EnsembleSpec,
    draw_line,
    draw_scalar,
    draw_vector,
)
from admles.grid import Grid
from admles.spectral import divergence_residual, l2_norm


def test_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(count=0, band_limit=4, seed=1)
    with pytest.raises(ValueError):
        EnsembleSpec(count=1, band_limit=0, seed=1)
    with pytest.raises(ValueError):
        EnsembleSpec(count=1, band_limit=4, seed=1, amplitude_decay=-1.0)


def test_same_seed_same_field():
    spec = EnsembleSpec(count=1, band_limit=5, seed=42)
    g = Grid(32, 32, 32)
    a = draw_scalar(spec.rng(), spec, g)
    b = draw_scalar(spec.rng(), spec, g)
    assert np.array_equal(a.coeffs, b.coeffs)


def test_fields_identical_across_resolutions():
    spec = EnsembleSpec(count=1, band_limit=5, seed=7)
    coarse = Grid(16, 16, 16)
    fine = Grid(32, 32, 32)
    a = draw_vector(spec.rng(), spec, coarse)
    b = draw_vector(spec.rng(), spec, fine)
    # one box of cutoffs (5, 5, 5) on either grid, holding the same bits
    assert a.band.cutoffs == b.band.cutoffs == (5, 5, 5)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert l2_norm(a) == pytest.approx(l2_norm(b), rel=1e-14)


def test_draws_are_real_mean_zero_band_limited():
    spec = EnsembleSpec(count=1, band_limit=4, seed=3)
    g = Grid(24, 24, 24)
    f = draw_scalar(spec.rng(), spec, g)
    half = half_layout(f)
    assert hermitian_defect(to_full(g, half)) < 1e-15
    assert abs(f.coeffs[0, 0, 0]) == 0.0
    idx = np.abs(np.fft.fftfreq(g.n1, 1 / g.n1))
    outside = idx > spec.band_limit
    assert np.max(np.abs(half[outside, :, :])) == 0.0
    assert np.max(np.abs(half[:, :, np.arange(13) > spec.band_limit])) == 0.0


@pytest.mark.parametrize("n", [16, 24])
def test_vector_draw_is_the_half_of_the_full_layout_draw(n):
    spec = EnsembleSpec(count=2, band_limit=5, seed=13)
    g = Grid(n, n, n)
    rng, ref_rng = spec.rng(), spec.rng()
    for _ in range(spec.count):
        got = half_layout(draw_vector(rng, spec, g))
        full = full_layout_draw(ref_rng, spec, g)
        assert np.array_equal(got, full[..., : n // 2 + 1])


REFERENCE_GRIDS = {"16^3": Grid(16, 16, 16), "12x16x24": Grid(12, 16, 24, L3=np.pi)}
DRAWS = {  # kind: (draw, components, projected)
    "vector": (draw_vector, 3, True),
    "raw vector": (partial(draw_vector, divergence_free=False), 3, False),
    "scalar": (draw_scalar, 1, False),
}


@pytest.mark.parametrize("kind", DRAWS)
@pytest.mark.parametrize("decay", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("grid_id, band", [
    (grid_id, band) for grid_id, g in REFERENCE_GRIDS.items() for band in (1, 3, 5)
    if band <= min(g.band.cutoffs)])
def test_draws_are_the_full_layout_reference_bitwise(grid_id, band, decay, kind):
    # one rng call and a half-cube symmetrization give the bits of two
    # calls and the whole cube's; band 5 does not fit 12 modes
    g = REFERENCE_GRIDS[grid_id]
    spec = EnsembleSpec(count=3, band_limit=band, seed=19, amplitude_decay=decay)
    draw, components, project = DRAWS[kind]
    rng, ref_rng = spec.rng(), spec.rng()
    for _ in range(spec.count):
        got = half_layout(draw(rng, spec, g))
        ref = full_layout_draw(ref_rng, spec, g, components, project)[..., : g.n3 // 2 + 1]
        assert got.tobytes() == np.ascontiguousarray(ref.reshape(got.shape)).tobytes()


def test_an_ensemble_shares_one_box():
    spec = EnsembleSpec(count=4, band_limit=3, seed=23)
    g = Grid(16, 16, 16)
    box = g.box((3, 3, 3))
    assert g.box((3, 3, 3)) is box
    rng = spec.rng()
    draws = [draw_vector(rng, spec, g) for _ in range(spec.count)]
    draws.append(draw_scalar(rng, spec, g))
    assert all(f.band is box for f in draws)
    other = draw_vector(rng, EnsembleSpec(count=1, band_limit=2, seed=23), g)
    assert other.band is g.box((2, 2, 2)) and other.band is not box


def test_vector_draw_divergence_free():
    spec = EnsembleSpec(count=1, band_limit=6, seed=11)
    g = Grid(32, 32, 32)
    w = draw_vector(spec.rng(), spec, g)
    assert divergence_residual(w) < 1e-12
    raw = draw_vector(spec.rng(), spec, g, divergence_free=False)
    assert divergence_residual(raw) > 1e-3


@pytest.mark.parametrize("g", [Grid(16, 16, 16), Grid(32, 32, 32),
                               Grid(12, 16, 24)], ids=["16^3", "32^3", "12x16x24"])
def test_vector_draw_is_the_projection_of_the_raw_draw(g):
    # the box projection equals the half-layout Leray projection bit for
    # bit; a draw must lie in the grid's 2/3 band, |k| <= 3 on 12 modes
    spec = EnsembleSpec(count=3, band_limit=min(5, *g.band.cutoffs), seed=17)
    rng, raw_rng = spec.rng(), spec.rng()
    for _ in range(spec.count):
        got = draw_vector(rng, spec, g)
        ref = half_layout_leray(draw_vector(raw_rng, spec, g, divergence_free=False))
        assert np.array_equal(half_layout(got), ref)
        assert divergence_residual(got) <= 1e-13 * np.max(np.abs(got.coeffs))


def test_band_must_fit_grid():
    spec = EnsembleSpec(count=1, band_limit=9, seed=0)
    with pytest.raises(ValueError):
        draw_scalar(spec.rng(), spec, Grid(16, 16, 16))


def test_line_draw_properties():
    spec = EnsembleSpec(count=1, band_limit=6, seed=5)
    line = draw_line(spec.rng(), spec, 32)
    assert line[0] == 0.0
    # Hermitian: mode -k is the conjugate of mode +k
    for k in range(1, 7):
        assert line[32 - k] == np.conj(line[k])
    assert np.max(np.abs(line[7:26])) == 0.0
    # same sequence regardless of the target length
    longer = draw_line(spec.rng(), spec, 64)
    assert np.array_equal(longer[1:7], line[1:7])


def test_amplitude_decay_shapes_spectrum():
    flat = EnsembleSpec(count=1, band_limit=8, seed=9, amplitude_decay=0.0)
    steep = EnsembleSpec(count=1, band_limit=8, seed=9, amplitude_decay=3.0)
    a = draw_line(flat.rng(), flat, 64)
    b = draw_line(steep.rng(), steep, 64)
    # identical draw, different weights: ratio follows k^{-3}
    assert abs(b[8] / a[8]) == pytest.approx(8.0**-3, rel=1e-12)
