"""Energy accounting, budget residuals and spectrum reports."""

import math
import tracemalloc

import numpy as np
import pytest
from full_layout import full_field, half_layout, half_layout_inner, half_layout_norms, to_full

from admles.diagnostics import (
    EnergyRecord,
    RecordFold,
    budget_residual,
    energy_terms,
    gronwall_integrand,
    vertical_spectrum,
)
from admles.ensembles import EnsembleSpec, draw_vector
from admles.filters import (
    DeconvSpec,
    FilterSpec,
    deconv_symbol,
    filter_symbol,
    symbol_table,
)
from admles.grid import Grid
from admles.solver import (
    RandomBandLimited,
    SingleMode,
    SolverConfig,
    TaylorGreen,
    ZeroForcing,
    descriptor_field,
    forcing_field,
    init_field,
    run,
)
from admles.spectral import (
    FieldNorms,
    VectorField,
    field_from_samples,
    l2_norm,
    quadratic_form,
)


FILT = FilterSpec(alpha=1.0, theta=1.0)


def zero_vector(g):
    return VectorField(g.band, np.zeros((3, *g.band.shape), dtype=complex))


# ---------------------------------------------------------------------------
# Pointwise energy terms


def test_energy_terms_zero_field():
    g = Grid(16, 16, 16)
    w = zero_vector(g)
    rec = energy_terms(w, zero_vector(g), FILT, 1, nu=0.1)
    assert rec.model_energy == 0.0
    assert rec.dissipation == 0.0
    assert rec.forcing_power == 0.0
    assert rec.l2_norm == 0.0


def test_energy_order_zero_closed_form():
    # N = 0 deconvolution is the identity, so the weight is just A
    g = Grid(16, 16, 16)
    w = descriptor_field(SingleMode(k=(0, 0, 1)), g)
    rec = energy_terms(w, zero_vector(g), FILT, 0, nu=0.1)
    # A(1) = 2 for alpha = theta = 1
    assert rec.model_energy == pytest.approx(0.5 * 2.0 * l2_norm(w) ** 2,
                                             rel=1e-12)
    assert rec.dissipation == pytest.approx(0.1 * 2.0 * l2_norm(w) ** 2,
                                            rel=1e-12)


def test_energy_single_mode_weight():
    # N = 1: D(1) = 1 + (1 - 1/2) = 1.5, A(1) = 2, weight = 3
    g = Grid(16, 16, 16)
    w = descriptor_field(SingleMode(k=(0, 0, 1)), g)
    rec = energy_terms(w, zero_vector(g), FILT, 1, nu=0.05)
    assert rec.model_energy == pytest.approx(0.5 * 3.0 * l2_norm(w) ** 2,
                                             rel=1e-12)
    assert rec.dissipation == pytest.approx(0.05 * 3.0 * l2_norm(w) ** 2,
                                            rel=1e-12)
    assert rec.theta_seminorm == pytest.approx(FieldNorms(w).vertical(1.0),
                                               rel=1e-12)


def test_energy_bounds_chain():
    # 0.5*(l2^2 + alpha^2 seminorm^2) <= model_energy for any order
    g = Grid(16, 16, 16)
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal((3, *g.shape)) * 1j
    coeffs += rng.standard_normal((3, *g.shape))
    w = full_field(g, coeffs)
    for order in (0, 1, 5):
        rec = energy_terms(w, zero_vector(g), FILT, order, nu=1.0)
        lower = 0.5 * (l2_norm(w) ** 2 + FieldNorms(w).vertical(1.0) ** 2)
        assert rec.model_energy >= lower * (1 - 1e-12)
        upper = 0.5 * (order + 1) * 2.0 * (
            l2_norm(w) ** 2 + FieldNorms(w).vertical(1.0) ** 2
        )
        assert rec.model_energy <= upper * (1 + 1e-12)


def test_gronwall_integrand_values():
    g = Grid(16, 16, 16)
    w = descriptor_field(SingleMode(k=(0, 0, 1)), g)
    # single vertical mode: grad and theta-grad norms coincide at |k3| = 1
    val = gronwall_integrand(FieldNorms(w), 1.0)
    assert val == pytest.approx(FieldNorms(w).grad() ** 2, rel=1e-12)
    assert gronwall_integrand(FieldNorms(zero_vector(g)), 0.8) == 0.0
    with pytest.raises(ValueError):
        gronwall_integrand(FieldNorms(w), 0.0)


def test_a_record_at_theta_zero_has_a_zero_gronwall_integrand():
    # the integrand's exponents need theta > 0; a record at theta = 0
    # reports 0.0 for a nonzero state rather than raising
    g = Grid(16, 16, 16)
    w = descriptor_field(SingleMode(k=(0, 0, 1)), g)
    rec = energy_terms(w, zero_vector(g), FilterSpec(0.5, 0.0), 1, nu=0.1)
    assert rec.grad_norm > 0.0
    assert rec.gronwall_integrand == 0.0


def test_record_norms_equal_the_single_norm_functions_bitwise():
    g = Grid(12, 16, 10, 2.0 * np.pi, 3.0, 5.0)
    filt = FilterSpec(alpha=0.5, theta=0.75)
    spec = EnsembleSpec(count=1, band_limit=3, seed=22)
    rng = spec.rng()
    w, f = draw_vector(rng, spec, g), draw_vector(rng, spec, g)
    rec = energy_terms(w, f, filt, 2, nu=0.07)
    assert rec.l2_norm == l2_norm(w)
    assert rec.theta_seminorm == FieldNorms(w).vertical(0.75)
    assert rec.gronwall_integrand == gronwall_integrand(FieldNorms(w), 0.75)
    assert rec.gronwall_integrand > 0.0
    assert rec.grad_norm == FieldNorms(w).grad()
    assert rec.theta_grad_norm == FieldNorms(w).vertical_grad(0.75)


def test_a_forcing_on_the_band_records_in_the_memory_of_a_draw_box_one():
    """inner_product forms its products one component at a time, so the
    records of a Taylor-Green forcing, on the band like the state, trace
    at most 10 % more than those of a band-3 random one, on a (3, 3, 3)
    box: the |w|^2 pass of FieldNorms sets both peaks."""
    g = Grid(32, 32, 32)
    filt = FilterSpec(alpha=0.5, theta=0.75)
    w = init_field(RandomBandLimited(seed=4, band=4), g, filt)
    peaks = []
    for f in (forcing_field(TaylorGreen(), g),
              forcing_field(RandomBandLimited(seed=5, band=3), g)):
        energy_terms(w, f, filt, 2, nu=0.05)  # fills the symbol cache
        tracemalloc.start()
        try:
            energy_terms(w, f, filt, 2, nu=0.05)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 1.1 * peaks[1]


@pytest.mark.parametrize("g", [Grid(32, 32, 32), Grid(12, 16, 24, L3=np.pi)],
                         ids=["32", "12x16x24"])
def test_band_box_records_and_spectrum_equal_the_half_layout_ones_bitwise(g):
    """A run's records and the spectrum read band boxes, and a draw's
    forcing its own box: every term has the bits that the same sums give
    on the half layout."""
    filt = FilterSpec(alpha=0.5, theta=0.75)
    spec = EnsembleSpec(count=1, band_limit=2, seed=24)
    rng = spec.rng()
    w = field_from_samples(g, rng.standard_normal((3, *g.shape)))
    f = draw_vector(rng, spec, g)
    half = half_layout_norms(w)
    symbols = symbol_table(g, DeconvSpec(filt, 2))
    weight = symbols.filter * symbols.deconv
    expect = {
        "model_energy": 0.5 * quadratic_form(g, half.plain, weight),
        "dissipation": 0.07 * quadratic_form(g, half.full, weight),
        "forcing_power": half_layout_inner(w, f, symbols.deconv),
        "l2_norm": half.l2(),
        "theta_seminorm": half.vertical(0.75),
        "gronwall_integrand": gronwall_integrand(half, 0.75),
    }
    got = energy_terms(w, f, filt, 2, nu=0.07, t=0.5)
    for name, value in expect.items():
        assert getattr(got, name) == value, name
    assert vertical_spectrum(FieldNorms(w)) == vertical_spectrum(half)


def test_energy_terms_and_spectrum_match_full_layout_reference():
    # every k once on the full layout, against the Parseval-weighted
    # band of raw samples, with content in the k3 = 0 column too
    g = Grid(12, 16, 10, 2.0 * np.pi, 3.0, 5.0)
    filt = FilterSpec(alpha=0.5, theta=0.75)
    spec = EnsembleSpec(count=1, band_limit=3, seed=21)
    rng = spec.rng()
    w = field_from_samples(g, rng.standard_normal((3, *g.shape)))
    f = draw_vector(rng, spec, g)
    W, F = to_full(g, half_layout(w)), to_full(g, half_layout(f))
    k3 = g.k_axis(2).reshape(1, 1, -1)
    k_squared = (g.k_axis(0).reshape(-1, 1, 1) ** 2 + g.k_axis(1).reshape(1, -1, 1) ** 2
                 + k3**2)
    a = filter_symbol(filt, k3)
    d = deconv_symbol(DeconvSpec(filt, 2), k3)
    mass = np.abs(W) ** 2

    def total(weight):
        return g.volume * float(np.sum(weight * mass))

    h = np.sqrt(d)
    grad = np.sqrt(total(k_squared))
    theta_grad = np.sqrt(total(k_squared * np.abs(k3) ** 1.5))
    expect = {
        "model_energy": 0.5 * total(a * d),
        "dissipation": 0.07 * total(k_squared * a * d),
        "forcing_power": g.volume * np.vdot(W * h, F * h).real,
        "l2_norm": np.sqrt(total(1.0)),
        "theta_seminorm": np.sqrt(total(np.abs(k3) ** 1.5)),
        "gronwall_integrand": grad ** (2 - 1 / 0.75) * theta_grad ** (1 / 0.75),
    }
    rec = energy_terms(w, f, filt, 2, nu=0.07, t=0.5)
    for name, value in expect.items():
        assert getattr(rec, name) == pytest.approx(value, rel=1e-14, abs=0.0)
    assert gronwall_integrand(FieldNorms(w), 0.75) == pytest.approx(
        expect["gronwall_integrand"], rel=1e-14, abs=0.0)

    column = g.volume * np.sum(mass, axis=(0, 1, 2))
    shells = np.zeros(g.n3 // 2 + 1)
    np.add.at(shells, np.abs(np.fft.fftfreq(g.n3, 1 / g.n3)).astype(int), column)
    got = vertical_spectrum(FieldNorms(w))
    assert [k for k, _ in got] == list(range(g.n3 // 2 + 1))
    for (_, e), ref in zip(got, shells):
        assert e == pytest.approx(ref, rel=1e-14, abs=0.0)


# ---------------------------------------------------------------------------
# Budget residual


def run_small(nu=0.01, dt=0.001, t_end=0.02, output_every=1, **kw):
    cfg = SolverConfig(
        grid=Grid(16, 16, 16),
        nu=nu,
        filter=FILT,
        deconv_order=1,
        dt=dt,
        t_end=t_end,
        init=kw.pop("init", SingleMode(k=(0, 0, 1))),
        forcing=kw.pop("forcing", ZeroForcing()),
        output_every=output_every,
    )
    return run(cfg)


def residuals(records):
    """The budget residual of each record, as RecordFold pairs them."""
    fold = RecordFold()
    return [fold.add(r) for r in records]


def test_budget_residual_viscous_decay():
    got = residuals(run_small())
    assert math.isnan(got[0])
    for r in got[1:]:
        assert r < 1e-10


def test_budget_residual_second_order():
    rc = residuals(run_small(dt=0.002, t_end=0.04, init=TaylorGreen()))[-1]
    rf = residuals(run_small(dt=0.001, t_end=0.04, init=TaylorGreen()))[-1]
    assert rc / rf == pytest.approx(4.0, rel=0.25)


@pytest.mark.parametrize("order", [0, 2])
@pytest.mark.parametrize("forcing", [TaylorGreen(amplitude=2.0),
                                     RandomBandLimited(seed=3, band=3, energy=2.0)],
                         ids=["taylor-green", "random"])
def test_budget_residual_second_order_under_forcing(forcing, order):
    """The residual pairs the mean of the two records' forcing powers
    with the energy's difference quotient, so it halves the step's
    error twice; the second record's power alone would halve it once."""
    def last_residual(dt):
        cfg = SolverConfig(grid=Grid(16, 16, 16), nu=0.1, filter=FILT,
                           deconv_order=order, dt=dt, t_end=0.04, init=TaylorGreen(),
                           forcing=forcing)
        return residuals(run(cfg))[-1]

    assert 3.4 <= last_residual(0.002) / last_residual(0.001) <= 4.6


def test_record_fold_pairs_each_record_with_the_one_before():
    """The first record has no residual; each later one has that of
    budget_residual against the record before it, read off a run whose
    records are not dt apart."""
    records = list(run_small(t_end=0.007, output_every=3))
    assert [round(r.t, 9) for r in records] == [0.0, 0.003, 0.006, 0.007]
    got = residuals(records)
    assert math.isnan(got[0])
    assert got[1:] == [budget_residual(a, b) for a, b in zip(records, records[1:])]


def test_energy_record_validation():
    with pytest.raises(ValueError):
        EnergyRecord(
            t=0.0, model_energy=-1.0, dissipation=0.0, forcing_power=0.0,
            l2_norm=0.0, theta_seminorm=0.0, gronwall_integrand=0.0,
            grad_norm=0.0, theta_grad_norm=0.0,
        )


# ---------------------------------------------------------------------------
# Vertical spectrum


def test_vertical_spectrum_single_mode():
    g = Grid(16, 16, 16)
    w = descriptor_field(SingleMode(k=(0, 0, 3)), g)
    shells = dict(vertical_spectrum(FieldNorms(w)))
    assert shells[3] == pytest.approx(l2_norm(w) ** 2, rel=1e-12)
    for k3, e in shells.items():
        if k3 != 3:
            assert e < 1e-25 * shells[3]


def test_vertical_spectrum_parseval():
    g = Grid(16, 16, 16)
    w = init_field(TaylorGreen(), g, FILT)
    shells = vertical_spectrum(FieldNorms(w))
    total = sum(e for _, e in shells)
    assert total == pytest.approx(l2_norm(w) ** 2, rel=1e-12)
    ks = [k for k, _ in shells]
    assert ks == sorted(ks)
    assert ks[0] == 0


def test_vertical_spectrum_filter_ratio():
    # smoothing divides each shell's energy by A(k3)^2
    g = Grid(16, 16, 16)
    v = descriptor_field(TaylorGreen(), g)
    w = init_field(TaylorGreen(), g, FILT)
    raw = dict(vertical_spectrum(FieldNorms(v)))
    smooth = dict(vertical_spectrum(FieldNorms(w)))
    for k3, e in raw.items():
        if e > 0:
            a = 1.0 + FILT.alpha**2 * k3**2
            assert smooth[k3] == pytest.approx(e / a**2, rel=1e-12)
