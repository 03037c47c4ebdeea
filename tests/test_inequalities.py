"""Anisotropic inequality ratios: oracles, invariances, ensemble sweeps."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from full_layout import gather, spectral_shape

from admles import inequalities
from admles.ensembles import EnsembleSpec, draw_line, draw_vector
from admles.grid import Band, Grid
from admles.inequalities import (
    LEMMAS,
    RatioReport,
    agmon_ratio,
    agmon_split_bound,
    l2_v_l4_h_norm,
    ladyzhenskaya_ratio,
    line_hs_norm,
    line_l2_norm,
    line_seminorm,
    line_sup_norm,
    linf_v_l2_h_norm,
    plane_profile,
    run_sweep,
    trilinear_ratio_i,
    trilinear_ratio_ii,
    vertical_embedding_ratio,
)
from admles.spectral import (
    VectorField,
    field_from_samples,
    fine_samples,
    l2_norm,
)


def cos_line(n, k=1, amp=1.0):
    """amp * 2 cos(k x) as amplitude coefficients."""
    line = np.zeros(n, dtype=complex)
    line[k] = amp
    line[n - k] = amp
    return line


# ---------------------------------------------------------------------------
# 1-D norms and the Agmon checker


def test_line_norm_oracles():
    line = cos_line(32)  # g = 2 cos x
    assert line_l2_norm(line) == pytest.approx(2 * np.sqrt(np.pi), rel=1e-13)
    assert line_sup_norm(line) == pytest.approx(2.0, rel=1e-12)
    # |k| = 1: seminorm equals the L2 norm for every s
    assert line_seminorm(line, 0.75) == pytest.approx(
        line_l2_norm(line), rel=1e-13
    )
    assert line_hs_norm(line, 1.0) == pytest.approx(
        np.sqrt(2) * line_l2_norm(line), rel=1e-13
    )


def test_agmon_ratio_single_mode():
    line = cos_line(32)
    s = 1.0
    l2 = 2 * np.sqrt(np.pi)
    hs = np.sqrt(2) * l2
    expect = 2.0 / (l2 ** (1 - 0.5 / s) * hs ** (0.5 / s))
    assert agmon_ratio(line, s) == pytest.approx(expect, rel=1e-12)


def test_agmon_ratio_scale_invariant():
    spec = EnsembleSpec(count=1, band_limit=10, seed=21)
    line = draw_line(spec.rng(), spec, 64)
    base = agmon_ratio(line, 0.75)
    for lam in (1e-3, 1.0, 1e3):
        assert agmon_ratio(lam * line, 0.75) == pytest.approx(base, rel=1e-10)


def test_agmon_rejects_bad_inputs():
    line = cos_line(32)
    with pytest.raises(ValueError):
        agmon_ratio(line, 0.5)
    with pytest.raises(ValueError):
        agmon_ratio(np.zeros(32, dtype=complex), 1.0)
    biased = line.copy()
    biased[0] = 1.0
    with pytest.raises(ValueError):
        agmon_ratio(biased, 1.0)


def test_agmon_split_bound_dominates():
    spec = EnsembleSpec(count=200, band_limit=12, seed=33)
    rng = spec.rng()
    for _ in range(spec.count):
        line = draw_line(rng, spec, 64)
        for s in (0.6, 0.75, 1.0):
            sup = line_sup_norm(line)
            bound = agmon_split_bound(line, s)
            assert sup <= bound * (1 + 1e-12)


def test_agmon_split_bound_single_mode_value():
    # g = 2 cos x, s = 1: kappa = sqrt(2), m = 1,
    # bound = sqrt(2)*sqrt(2) + sqrt(2 zeta(2,2)) * 0 = 2
    line = cos_line(32)
    assert agmon_split_bound(line, 1.0) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("s, m, zeta", [
    (1.0, 1, np.pi**2 / 6 - 1.0),  # zeta(2, 2)
    (2.0, 2, np.pi**4 / 90 - 1.0 - 1.0 / 2**4),  # zeta(4, 3)
])
def test_agmon_split_bound_equals_the_hand_formula(s, m, zeta):
    """g = 2 cos x + cos 3x, so ||g||_{H^s}^2 / ||g||_2^2 is
    (2.5 + 2 + 0.5 * 3^{2s}) / 2.5 and m = floor(kappa) is 1 at s = 1
    and 2 at s = 2: the low sum holds the modes +-1, the high sum the
    modes +-3, and the tail factor is 2 zeta(2s, m + 1), with the zeta
    from its closed form, pi^2/6 or pi^4/90, less the first m terms."""
    line = cos_line(32, 1) + cos_line(32, 3, 0.5)
    kappa = ((2.5 + 2.0 + 0.5 * 3 ** (2 * s)) / 2.5) ** (0.5 / s)
    assert int(np.floor(kappa)) == m
    low = np.sqrt(2.0)
    high = np.sqrt(2 * 0.25 * 3 ** (2 * s))
    expect = np.sqrt(2.0 * m) * low + np.sqrt(2.0 * zeta) * high
    assert agmon_split_bound(line, s) == pytest.approx(expect, rel=1e-12)


# scipy.special.zeta(x, q) of scipy 1.17.1, as exact float reprs: the
# integer q >= 2 that agmon_split_bound passes, points that need the 7th
# Bernoulli term (3.6, 2) or the exact epsilon (21.4, 2), a fractional
# q, the asymptotic branch (q > 1e8), and a sum that underflows to 0
SCIPY_ZETA = {
    (1.2, 1.0): 5.591582441177752,
    (1.5, 3.0): 1.2588219580922144,
    (2.0, 10.0): 0.10516633568168576,
    (2.6, 7.0): 0.031149656287502263,
    (3.7, 59.0): 6.2699284203737745e-06,
    (12.0, 2.0): 0.00024608655330804827,
    (3.6, 2.0): 0.11598907912333764,
    (21.4, 2.0): 3.614367252909726e-07,
    (1.7, 0.3): 9.31619958047185,
    (5.0, 2e8): 1.562500015625e-34,
    (2.5, 1e9): 2.1081851083600587e-14,
    (50.0, 1e8): 0.0,
}


@pytest.mark.parametrize("x, q", list(SCIPY_ZETA))
def test_hurwitz_zeta_equals_scipy_bitwise(x, q):
    assert inequalities._hurwitz_zeta(x, q) == SCIPY_ZETA[x, q]


@pytest.mark.parametrize("x, exact", [(2.0, np.pi**2 / 6), (4.0, np.pi**4 / 90)])
def test_hurwitz_zeta_at_one_is_riemann_zeta(x, exact):
    assert abs(inequalities._hurwitz_zeta(x, 1.0) - exact) <= 2 * np.spacing(exact)


@pytest.mark.parametrize("x, q", [(1.0, 2.0), (0.5, 2.0), (2.0, 0.0), (2.0, -1.5)])
def test_hurwitz_zeta_rejects_points_off_its_domain(x, q):
    with pytest.raises(ValueError, match="x > 1 and q > 0"):
        inequalities._hurwitz_zeta(x, q)


def test_agmon_split_bound_rejects_a_nonzero_mean():
    # the bound leaves out c_0: for 1 + cos x it would read 1 < sup 2,
    # for the constant 1 it would read 0
    shifted = cos_line(32, amp=0.5)
    shifted[0] = 1.0
    constant = np.zeros(32, dtype=complex)
    constant[0] = 1.0
    for line in (shifted, constant):
        with pytest.raises(ValueError, match="zero mean"):
            agmon_split_bound(line, 1.0)


def test_run_agmon_report():
    spec = EnsembleSpec(count=50, band_limit=10, seed=5)
    (report,), violations = run_sweep(spec, Grid(16, 16, 16), ["agmon"],
                                      [0.75], 64)
    assert violations == []
    assert isinstance(report, RatioReport)
    assert (report.lemma, report.s, report.resolution) == ("agmon", 0.75, "64")
    assert report.count == 50
    assert report.max_ratio >= report.mean_ratio > 0
    assert np.isfinite(report.max_ratio)


# ---------------------------------------------------------------------------
# Mixed-norm quadrature


@pytest.fixture
def grid():
    return Grid(16, 16, 16)


def single_mode_u1(grid, profile):
    samples = np.stack(
        [profile + np.zeros(grid.shape), np.zeros(grid.shape), np.zeros(grid.shape)]
    )
    return field_from_samples(grid, samples)


def test_plane_profile_oracle(grid):
    _, _, x3 = grid.mesh()
    u = single_mode_u1(grid, 1.0 + np.cos(x3))
    profile = plane_profile(u, 2)
    x3_line = np.arange(4 * grid.n3) * (grid.L3 / (4 * grid.n3))
    expect = (2 * np.pi) ** 2 * (1.0 + np.cos(x3_line)) ** 2
    assert np.max(np.abs(profile - expect)) < 1e-12 * np.max(expect)


def test_mixed_l4_norm_analytic(grid):
    # u = (sin x1, 0, 0): plane integral of sin^4 = 2 pi * 3 pi / 4,
    # vertical profile constant
    x1, _, _ = grid.mesh()
    u = single_mode_u1(grid, np.sin(x1))
    plane_l4_sq = np.sqrt(2 * np.pi * 3 * np.pi / 4)
    expect = np.sqrt(2 * np.pi * plane_l4_sq)
    assert l2_v_l4_h_norm(u) == pytest.approx(expect, rel=1e-12)


def test_linf_v_l2_h_analytic(grid):
    _, _, x3 = grid.mesh()
    u = single_mode_u1(grid, (1.0 + 0.5 * np.cos(x3)))
    # plane L2 peaks at x3 = 0: sqrt((2 pi)^2 * 1.5^2)
    assert linf_v_l2_h_norm(u) == pytest.approx(2 * np.pi * 1.5, rel=1e-12)


def test_refined_plane_profile_is_exact():
    # band 5 on 16^3: the profile's vertical band 10 exceeds 16 / 2, so
    # it is sampled on more planes than the grid has and upsampled; the
    # reference samples the same draw on 64^3 directly, every 4th plane
    # of 4 * 64 being one of the 4 * 16 planes
    spec = EnsembleSpec(count=1, band_limit=5, seed=41)
    u16 = draw_vector(spec.rng(), spec, Grid(16, 16, 16))
    u64 = draw_vector(spec.rng(), spec, Grid(64, 64, 64))
    refined, native = plane_profile(u16, 2), brute_force_profile(u64, 2)[::4]
    assert np.max(np.abs(refined - native)) < 1e-12 * np.max(native)
    assert linf_v_l2_h_norm(u16) == pytest.approx(np.sqrt(np.max(native)),
                                                  rel=1e-12)


def test_mixed_l4_norm_resolves_the_vertical_band():
    # band 5 on 16^3: the |u|^4 profile's vertical band 20 exceeds 16, so
    # it is sampled on 4 n3 planes; 32^3 resolves it on 2 n3, 64^3 on n3
    spec = EnsembleSpec(count=1, band_limit=5, seed=41)
    norms = [l2_v_l4_h_norm(draw_vector(spec.rng(), spec, Grid(n, n, n)))
             for n in (16, 32, 64)]
    assert norms[0] == pytest.approx(norms[2], rel=1e-9, abs=0.0)
    assert norms[1] == pytest.approx(norms[2], rel=1e-13, abs=0.0)


def modes_u1(grid, *modes):
    """u1 = sum of 2 cos(k . x) over `modes` (k3 > 0), u2 = u3 = 0: one
    stored coefficient per mode on the smallest box that holds them, and
    exact zeros elsewhere."""
    box = Band(grid, tuple(max(abs(k[axis]) for k in modes) for axis in range(3)))
    coeffs = np.zeros((3, *spectral_shape(grid)), dtype=complex)
    for k in modes:
        coeffs[(0, *k)] = 1.0
    return VectorField(box, gather(box, coeffs))


def brute_force_profile(u, power):
    """The plane integrals of |u|^power on 4 n3 planes, sampled on
    (2 n1, 2 n2, 4 n3) points, which resolve every band-limited field."""
    g = u.grid
    samples = fine_samples(u, (2 * g.n1, 2 * g.n2, 4 * g.n3))
    density = np.sum(samples**2, axis=0) ** (power // 2)
    return np.mean(density, axis=(0, 1)) * (g.L1 * g.L2)


def brute_force_l2_v_l4_h(u):
    return np.sqrt(np.mean(np.sqrt(brute_force_profile(u, 4))) * u.grid.L3)


def test_box_sized_quadrature_equals_brute_force_sampling():
    # band 5 on 32^3 samples |u|^4 on 32x32x64 and |u|^2 on 32x32x32
    spec = EnsembleSpec(count=4, band_limit=5, seed=43)
    g = Grid(32, 32, 32)
    rng = spec.rng()
    for _ in range(spec.count):
        u = draw_vector(rng, spec, g)
        assert l2_v_l4_h_norm(u) == pytest.approx(brute_force_l2_v_l4_h(u),
                                                  rel=1e-13, abs=0.0)
        assert linf_v_l2_h_norm(u) == pytest.approx(
            np.sqrt(np.max(brute_force_profile(u, 2))), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("sign", [1, -1], ids=["k1=K", "k1=-K"])
def test_mixed_norms_of_a_mode_on_the_band_edge(sign):
    # u1 = 2 cos(k1 x1 + x3) with |k1| = K = 3 on n1 = 12: cos^4 holds
    # mode 4 K = n1, which 12 points would alias onto the plane mean
    g = Grid(12, 12, 12)
    u = modes_u1(g, (sign * 3, 0, 1))
    # plane integrals (2 pi)^2 * 16 * 3/8 of |u|^4 and (2 pi)^2 * 2 of |u|^2
    assert l2_v_l4_h_norm(u) == pytest.approx(2 * np.pi * 6**0.25, rel=1e-12)
    assert linf_v_l2_h_norm(u) == pytest.approx(2 * np.pi * np.sqrt(2),
                                                rel=1e-12)


def test_each_axis_is_sampled_by_its_own_rule(monkeypatch):
    # box (3, 1, 1) on 12^3: each axis takes the fewest even count above
    # its band, for |u|^4 bands 4 * 3 = 12 and 4 * 1 = 4 on the horizontal
    # axes and 2 * 4 * 1 = 8 of the profile, for |u|^2 half of each
    g = Grid(12, 12, 12)
    u = modes_u1(g, (3, 0, 1), (0, 1, 1))  # 2 cos(3 x1 + x3) + 2 cos(x2 + x3)
    shapes = []

    def recording(field, shape):
        shapes.append(shape)
        return fine_samples(field, shape)

    monkeypatch.setattr(inequalities, "fine_samples", recording)
    # (cos a + cos b)^4 of independent phases averages 3/8 + 6/4 + 3/8
    assert l2_v_l4_h_norm(u) == pytest.approx(2 * np.pi * np.sqrt(6), rel=1e-12)
    assert l2_v_l4_h_norm(u) == pytest.approx(brute_force_l2_v_l4_h(u),
                                              rel=1e-13)
    assert linf_v_l2_h_norm(u) == pytest.approx(
        np.sqrt(np.max(brute_force_profile(u, 2))), rel=1e-13)
    assert shapes == [(14, 6, 10), (14, 6, 10), (8, 4, 6)]


def test_ladyzhenskaya_single_mode_matches_fine_grid(grid):
    x1, _, _ = grid.mesh()
    u = single_mode_u1(grid, np.sin(x1))
    r = ladyzhenskaya_ratio(u)
    fine = Grid(*(2 * n for n in grid.shape), *grid.sizes)
    r_fine = ladyzhenskaya_ratio(VectorField(Band(fine, u.band.cutoffs), u.coeffs))
    assert r == pytest.approx(r_fine, rel=1e-6)
    assert np.isfinite(r) and r > 0


@pytest.mark.parametrize("m1, m3", [(1, 1), (2, 3), (3, 2)])
def test_ladyzhenskaya_ratio_closed_form(m1, m3):
    """u = cos(k1 x1) cos(k3 x3) e2: ||u||_2^2 = L1 L2 L3 / 4 and
    ||grad_h u||_2^2 = k1^2 L1 L2 L3 / 4, and each plane's L^4 norm
    squared is cos^2(k3 x3) sqrt(3 L1 L2 / 8), whose integral over x3
    is sqrt(3 L1 L2 / 8) L3 / 2: the ratio does not depend on k3, which
    the full gradient would bring in.  The profile's round-off below
    zero at the zeros of cos(k3 x3) is clipped, hence rel 1e-6."""
    g = Grid(16, 16, 16, 2 * np.pi, 3.0, 5.0)
    L1, L2, L3 = g.sizes
    k1, k3 = 2 * np.pi * m1 / L1, 2 * np.pi * m3 / L3
    x1, _, x3 = g.mesh()
    zero = np.zeros(g.shape)
    u = field_from_samples(g, np.stack([zero, zero + np.cos(k1 * x1) * np.cos(k3 * x3),
                                        zero]))
    expect = np.sqrt(np.sqrt(3 * L1 * L2 / 8) * L3 / 2) / np.sqrt(k1 * L1 * L2 * L3 / 4)
    assert ladyzhenskaya_ratio(u) == pytest.approx(expect, rel=1e-6)


def test_ladyzhenskaya_scale_invariant(grid):
    spec = EnsembleSpec(count=1, band_limit=5, seed=2)
    u = draw_vector(spec.rng(), spec, grid)
    base = ladyzhenskaya_ratio(u)
    for lam in (1e-3, 1e3):
        scaled = u.with_coeffs(lam * u.coeffs)
        assert ladyzhenskaya_ratio(scaled) == pytest.approx(base, rel=1e-10)


def test_ladyzhenskaya_rejects_horizontal_constant(grid):
    _, _, x3 = grid.mesh()
    u = single_mode_u1(grid, np.sin(x3))
    with pytest.raises(ValueError):
        ladyzhenskaya_ratio(u)


def test_vertical_embedding_separable_reduction(grid):
    # u = e1 * h(x1) * g(x3): ratio reduces to the 1-D quantity of g
    x1, _, x3 = grid.mesh()
    g_of_x3 = 2 * np.cos(x3)
    u = single_mode_u1(grid, np.sin(x1) * g_of_x3)
    s = 0.8
    line = cos_line(grid.n3)
    expect = line_sup_norm(line) / (
        line_l2_norm(line) ** (1 - 0.5 / s) * line_seminorm(line, s) ** (0.5 / s)
    )
    assert vertical_embedding_ratio(u, s) == pytest.approx(expect, rel=1e-10)


def test_vertical_embedding_rejects(grid):
    x1, _, _ = grid.mesh()
    u = single_mode_u1(grid, np.sin(x1))
    with pytest.raises(ValueError):
        vertical_embedding_ratio(u, 1.0)  # no vertical variation
    _, _, x3 = grid.mesh()
    v = single_mode_u1(grid, np.sin(x3))
    with pytest.raises(ValueError):
        vertical_embedding_ratio(v, 0.5)  # s too small


def test_vertical_embedding_scale_invariant(grid):
    spec = EnsembleSpec(count=1, band_limit=5, seed=8)
    u = draw_vector(spec.rng(), spec, grid)
    base = vertical_embedding_ratio(u, 1.0)
    for lam in (1e-3, 1e3):
        scaled = u.with_coeffs(lam * u.coeffs)
        assert vertical_embedding_ratio(scaled, 1.0) == pytest.approx(
            base, rel=1e-10
        )


# ---------------------------------------------------------------------------
# Trilinear forms


def test_trilinear_orthogonal_modes(grid):
    # (u.grad)v lands entirely in component 2; w lives in component 1,
    # so the trilinear form vanishes while every denominator is finite
    x1, x2, x3 = grid.mesh()
    zero = np.zeros(grid.shape)
    u = field_from_samples(grid, np.stack([np.sin(x2) + zero, zero, zero]))
    v = field_from_samples(
        grid, np.stack([zero, np.sin(x1) * np.cos(x3) + zero, zero])
    )
    w = field_from_samples(grid, np.stack([np.cos(x3) + zero, zero, zero]))
    r = trilinear_ratio_i(u, v, w, 1.0)
    assert r == pytest.approx(0.0, abs=1e-14)


def test_trilinear_by_parts_identity(grid):
    spec = EnsembleSpec(count=20, band_limit=5, seed=13)
    rng = spec.rng()
    for _ in range(spec.count):
        u = draw_vector(rng, spec, grid)
        v = draw_vector(rng, spec, grid)
        w = draw_vector(rng, spec, grid)
        a = trilinear_ratio_ii(u, v, w, 1.0)
        b = trilinear_ratio_i(u, w, v, 1.0)
        assert a == pytest.approx(b, rel=1e-10)


def test_trilinear_scale_invariant(grid):
    spec = EnsembleSpec(count=1, band_limit=5, seed=17)
    rng = spec.rng()
    u = draw_vector(rng, spec, grid)
    v = draw_vector(rng, spec, grid)
    w = draw_vector(rng, spec, grid)
    base = trilinear_ratio_i(u, v, w, 0.75)
    scaled = trilinear_ratio_i(
        u.with_coeffs(1e3 * u.coeffs),
        v.with_coeffs(1e-2 * v.coeffs),
        w.with_coeffs(10.0 * w.coeffs),
        0.75,
    )
    assert scaled == pytest.approx(base, rel=1e-10)


def test_trilinear_rejects_degenerate(grid):
    zero = VectorField(grid.band, np.zeros((3, *grid.band.shape), dtype=complex))
    spec = EnsembleSpec(count=1, band_limit=5, seed=19)
    u = draw_vector(spec.rng(), spec, grid)
    with pytest.raises(ValueError):
        trilinear_ratio_i(zero, u, u, 1.0)
    with pytest.raises(ValueError):
        trilinear_ratio_i(u, u, u, 0.4)


# ---------------------------------------------------------------------------
# Ensemble sweep and resolution stability

# run_sweep needs a line length; it is unused when agmon is not swept
UNUSED_LINE = 64


def test_runner_reports_consistent():
    grid = Grid(16, 16, 16)
    spec = EnsembleSpec(count=25, band_limit=5, seed=23)
    lemmas = ["ladyzhenskaya", "vertical_embedding", "trilinear_i",
              "trilinear_ii"]
    reports, violations = run_sweep(spec, grid, lemmas, [1.0], UNUSED_LINE)
    assert violations == []
    assert [r.lemma for r in reports] == lemmas
    for report in reports:
        assert report.count == 25
        assert np.isfinite(report.max_ratio)
        assert report.max_ratio >= report.mean_ratio >= 0
        assert report.resolution == "16x16x16"


def test_ratios_stable_under_resolution_doubling():
    spec = EnsembleSpec(count=40, band_limit=5, seed=29)
    coarse = Grid(16, 16, 16)
    fine = Grid(32, 32, 32)
    lemmas = ["ladyzhenskaya", "vertical_embedding"]
    (a, c), _ = run_sweep(spec, coarse, lemmas, [1.0], UNUSED_LINE)
    (b, d), _ = run_sweep(spec, fine, lemmas, [1.0], UNUSED_LINE)
    assert b.max_ratio == pytest.approx(a.max_ratio, rel=0.05)
    assert d.max_ratio == pytest.approx(c.max_ratio, rel=0.05)


def test_run_sweep_matches_oracles():
    """One pass per ensemble gives the oracle ratios bit for bit."""
    grid = Grid(16, 16, 16)
    spec = EnsembleSpec(count=6, band_limit=5, seed=31)
    exponents = (0.75, 1.0)
    lemmas = ["trilinear_ii", "agmon", "vertical_embedding", "ladyzhenskaya",
              "trilinear_i"]
    reports, violations = run_sweep(spec, grid, lemmas, exponents, 64)
    assert violations == []

    rng = spec.rng()
    lines = [draw_line(rng, spec, 64) for _ in range(spec.count)]
    rng = spec.rng()
    fields = [draw_vector(rng, spec, grid) for _ in range(spec.count)]
    rng = spec.rng()
    triples = [[draw_vector(rng, spec, grid) for _ in range(3)]
               for _ in range(spec.count)]
    oracles = {
        "agmon": lambda s: [agmon_ratio(g, s) for g in lines],
        "ladyzhenskaya": lambda s: [ladyzhenskaya_ratio(u) for u in fields],
        "vertical_embedding": lambda s: [
            vertical_embedding_ratio(u, s) for u in fields],
        "trilinear_i": lambda s: [trilinear_ratio_i(*t, s) for t in triples],
        "trilinear_ii": lambda s: [trilinear_ratio_ii(*t, s) for t in triples],
    }
    expected = [
        (lemma, s) for lemma in lemmas
        for s in ((0.0,) if lemma == "ladyzhenskaya" else exponents)
    ]
    assert [(r.lemma, r.s) for r in reports] == expected
    for report in reports:
        ratios = np.asarray(oracles[report.lemma](report.s))
        assert report.max_ratio == float(np.max(ratios))
        assert report.mean_ratio == float(np.mean(ratios))
        assert report.count == spec.count and report.seed == spec.seed


def test_run_sweep_needs_no_full_inverse_transform(monkeypatch):
    # every sample is read through band_inverse from its occupied box
    def refuse(*args, **kwargs):
        raise AssertionError("np.fft.irfftn called")

    monkeypatch.setattr(np.fft, "irfftn", refuse)
    spec = EnsembleSpec(count=2, band_limit=5, seed=37)
    reports, violations = run_sweep(spec, Grid(16, 16, 16), LEMMAS, [1.0], 64)
    assert violations == [] and len(reports) == len(LEMMAS)


def test_run_sweep_rejects_unknown_lemma():
    with pytest.raises(ValueError, match="trilinear_iii"):
        run_sweep(EnsembleSpec(1, 4, 0), Grid(16, 16, 16), ["trilinear_iii"],
                  [1.0], UNUSED_LINE)


def test_grid_lemmas_need_the_band_inside_the_cutoff():
    # band 5 on 12^3 passes 2 * band + 1 <= 12 but exceeds the cutoff 3
    spec = EnsembleSpec(count=1, band_limit=5, seed=0)
    for lemma in LEMMAS[1:]:
        with pytest.raises(ValueError, match=r"band \(cutoff 3\)"):
            run_sweep(spec, Grid(12, 12, 12), [lemma], [1.0], UNUSED_LINE)
    # agmon draws lines only, so the grid's cutoff does not bound its band
    wide = EnsembleSpec(count=1, band_limit=12, seed=0)
    (report,), _ = run_sweep(wide, Grid(32, 32, 32), ["agmon"], [1.0], 256)
    assert report.max_ratio > 0.0


def test_two_threads_on_one_grid_keep_the_serial_bits():
    """The draws of one Grid share their box, and the box gives each
    thread its own sampling workspace, so ratios mapped over two threads
    are the serial ones bit for bit."""
    grid = Grid(16, 16, 16)
    spec = EnsembleSpec(count=200, band_limit=5, seed=4)
    rng = spec.rng()
    triples = [tuple(draw_vector(rng, spec, grid) for _ in range(3)) for _ in range(200)]

    def ratios(triple):
        u, v, w = triple
        return (trilinear_ratio_i(u, v, w, 0.75), ladyzhenskaya_ratio(u),
                vertical_embedding_ratio(v, 0.75))

    serial = [ratios(triple) for triple in triples]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(ratios, triples, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
