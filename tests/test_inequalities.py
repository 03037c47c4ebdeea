"""Anisotropic inequality ratios: oracles, invariances, ensemble sweeps."""

import numpy as np
import pytest

from admles.ensembles import EnsembleSpec, draw_line, draw_vector
from admles.grid import Grid
from admles.inequalities import (
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
    plane_l2_profile,
    run_sweep,
    trilinear_ratio_i,
    trilinear_ratio_ii,
    vertical_embedding_ratio,
)
from admles.spectral import (
    VectorField,
    field_from_samples,
    l2_norm,
    vector_from_samples,
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
    return vector_from_samples(grid, samples)


def test_plane_profile_oracle(grid):
    _, _, x3 = grid.mesh()
    u = single_mode_u1(grid, 1.0 + np.cos(x3))
    profile = plane_l2_profile(u)
    x3_line = grid.axis_points(2)
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


def test_ladyzhenskaya_single_mode_matches_fine_grid(grid):
    x1, _, _ = grid.mesh()
    u = single_mode_u1(grid, np.sin(x1))
    r = ladyzhenskaya_ratio(u)
    from admles.spectral import resample

    fine = resample(u, grid.refined())
    r_fine = ladyzhenskaya_ratio(fine)
    assert r == pytest.approx(r_fine, rel=1e-6)
    assert np.isfinite(r) and r > 0


def test_ladyzhenskaya_scale_invariant(grid):
    spec = EnsembleSpec(count=1, band_limit=5, seed=2)
    u = draw_vector(spec.rng(), spec, grid)
    base = ladyzhenskaya_ratio(u)
    for lam in (1e-3, 1e3):
        scaled = VectorField(grid, lam * u.coeffs)
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
        scaled = VectorField(grid, lam * u.coeffs)
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
    u = vector_from_samples(grid, np.stack([np.sin(x2) + zero, zero, zero]))
    v = vector_from_samples(
        grid, np.stack([zero, np.sin(x1) * np.cos(x3) + zero, zero])
    )
    w = vector_from_samples(grid, np.stack([np.cos(x3) + zero, zero, zero]))
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
        VectorField(grid, 1e3 * u.coeffs),
        VectorField(grid, 1e-2 * v.coeffs),
        VectorField(grid, 10.0 * w.coeffs),
        0.75,
    )
    assert scaled == pytest.approx(base, rel=1e-10)


def test_trilinear_rejects_degenerate(grid):
    zero = VectorField(grid, np.zeros((3, *grid.shape), dtype=complex))
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


def test_run_sweep_rejects_unknown_lemma():
    with pytest.raises(ValueError, match="trilinear_iii"):
        run_sweep(EnsembleSpec(1, 4, 0), Grid(16, 16, 16), ["trilinear_iii"],
                  [1.0], UNUSED_LINE)
