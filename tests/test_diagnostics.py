"""Energy accounting, budget residuals, regularity and spectrum reports."""

import math

import numpy as np
import pytest

from admles.diagnostics import (
    EnergyRecord,
    attach_residuals,
    budget_residual,
    energy_terms,
    gronwall_integrand,
    regularity_norms,
    vertical_spectrum,
)
from admles.filters import FilterSpec
from admles.grid import Grid
from admles.solver import (
    SingleMode,
    SolverConfig,
    TaylorGreen,
    ZeroForcing,
    descriptor_field,
    init_field,
    run,
)
from admles.spectral import VectorField, l2_norm, vertical_seminorm


FILT = FilterSpec(alpha=1.0, theta=1.0)


def zero_vector(g):
    return VectorField(g, np.zeros((3, *g.shape), dtype=complex))


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
    assert math.isnan(rec.budget_residual)


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
    assert rec.theta_seminorm == pytest.approx(vertical_seminorm(w, 1.0),
                                               rel=1e-12)


def test_energy_bounds_chain():
    # 0.5*(l2^2 + alpha^2 seminorm^2) <= model_energy for any order
    g = Grid(16, 16, 16)
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal((3, *g.shape)) * 1j
    coeffs += rng.standard_normal((3, *g.shape))
    from admles.spectral import hermitian_symmetrize, dealias

    w = dealias(VectorField(g, hermitian_symmetrize(coeffs)))
    for order in (0, 1, 5):
        rec = energy_terms(w, zero_vector(g), FILT, order, nu=1.0)
        lower = 0.5 * (l2_norm(w) ** 2 + vertical_seminorm(w, 1.0) ** 2)
        assert rec.model_energy >= lower * (1 - 1e-12)
        upper = 0.5 * (order + 1) * 2.0 * (
            l2_norm(w) ** 2 + vertical_seminorm(w, 1.0) ** 2
        )
        assert rec.model_energy <= upper * (1 + 1e-12)


def test_gronwall_integrand_values():
    g = Grid(16, 16, 16)
    w = descriptor_field(SingleMode(k=(0, 0, 1)), g)
    # single vertical mode: grad and theta-grad norms coincide at |k3| = 1
    val = gronwall_integrand(w, 1.0)
    from admles.spectral import grad_norm

    assert val == pytest.approx(grad_norm(w) ** 2, rel=1e-12)
    assert gronwall_integrand(zero_vector(g), 0.8) == 0.0
    with pytest.raises(ValueError):
        gronwall_integrand(w, 0.0)


# ---------------------------------------------------------------------------
# Budget residual


def run_small(nu=0.01, dt=0.001, t_end=0.02, **kw):
    cfg = SolverConfig(
        grid=Grid(16, 16, 16),
        nu=nu,
        filter=FILT,
        deconv_order=1,
        dt=dt,
        t_end=t_end,
        init=kw.pop("init", SingleMode(k=(0, 0, 1))),
        forcing=kw.pop("forcing", ZeroForcing()),
        output_every=1,
    )
    return run(cfg)


def test_budget_residual_viscous_decay():
    recs = list(attach_residuals(r for _, r in run_small()))
    assert math.isnan(recs[0].budget_residual)
    for r in recs[1:]:
        assert r.budget_residual < 1e-10


def test_budget_residual_second_order():
    coarse = run_small(dt=0.002, t_end=0.04, init=TaylorGreen())
    fine = run_small(dt=0.001, t_end=0.04, init=TaylorGreen())
    *_, last_coarse = attach_residuals(r for _, r in coarse)
    *_, last_fine = attach_residuals(r for _, r in fine)
    rc = last_coarse.budget_residual
    rf = last_fine.budget_residual
    assert rc / rf == pytest.approx(4.0, rel=0.25)


def test_budget_residual_spacing_check():
    records = [r for _, r in run_small()]
    with pytest.raises(ValueError):
        budget_residual(records[0], records[2], dt=0.001)


def test_attach_residuals_streams():
    fed = []

    def records():
        for _, r in run_small():
            fed.append(r)
            yield r

    paired = attach_residuals(records())
    first = next(paired)
    assert len(fed) == 1 and math.isnan(first.budget_residual)
    second = next(paired)
    assert len(fed) == 2
    assert second.budget_residual == budget_residual(fed[0], fed[1], 0.001)
    with pytest.raises(ValueError, match="empty trajectory"):
        next(attach_residuals(iter([])))


def test_energy_record_validation():
    with pytest.raises(ValueError):
        EnergyRecord(
            t=0.0, model_energy=-1.0, dissipation=0.0, forcing_power=0.0,
            l2_norm=0.0, theta_seminorm=0.0, gronwall_integrand=0.0,
        )


# ---------------------------------------------------------------------------
# Regularity summary


def test_regularity_norms_viscous_decay():
    rep = regularity_norms((s for s, _ in run_small(t_end=0.05)), FILT)
    w0 = next(run_small(t_end=0.05))[0].w
    # monotone decay: suprema are attained at t = 0
    assert rep["sup_l2"] == pytest.approx(l2_norm(w0), rel=1e-12)
    assert rep["sup_theta_seminorm"] == pytest.approx(
        vertical_seminorm(w0, FILT.theta), rel=1e-12
    )
    assert rep["integral_grad_sq"] > 0.0
    assert rep["integral_theta_grad_sq"] > 0.0


def test_regularity_norms_zero_trajectory():
    g = Grid(16, 16, 16)

    class S:
        def __init__(self, t, w):
            self.t = t
            self.w = w

    states = [S(0.0, zero_vector(g)), S(0.1, zero_vector(g))]
    rep = regularity_norms(iter(states), FILT)
    assert rep["sup_l2"] == 0.0
    assert rep["integral_grad_sq"] == 0.0
    with pytest.raises(ValueError, match="empty trajectory"):
        regularity_norms(iter([]), FILT)


# ---------------------------------------------------------------------------
# Vertical spectrum


def test_vertical_spectrum_single_mode():
    g = Grid(16, 16, 16)
    w = descriptor_field(SingleMode(k=(0, 0, 3)), g)
    shells = dict(vertical_spectrum(w))
    assert shells[3] == pytest.approx(l2_norm(w) ** 2, rel=1e-12)
    for k3, e in shells.items():
        if k3 != 3:
            assert e < 1e-25 * shells[3]


def test_vertical_spectrum_parseval():
    g = Grid(16, 16, 16)
    w = init_field(TaylorGreen(), g, FILT)
    shells = vertical_spectrum(w)
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
    raw = dict(vertical_spectrum(v))
    smooth = dict(vertical_spectrum(w))
    for k3, e in raw.items():
        if e > 0:
            a = 1.0 + FILT.alpha**2 * k3**2
            assert smooth[k3] == pytest.approx(e / a**2, rel=1e-12)
