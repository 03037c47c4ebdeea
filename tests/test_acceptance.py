"""Acceptance gate: the eleven verification criteria, one line each.

Every test prints exactly one PASS/FAIL line (visible with -s; pytest -v
shows the per-test verdicts either way) and enforces the stated
tolerance.  Tolerances and pinned constants are load-bearing: they are
the contract, not suggestions, and must not be loosened to make a
failing build green.
"""

import time

import numpy as np
import pytest

from admles.diagnostics import attach_residuals, gronwall_integrand
from admles.ensembles import EnsembleSpec, draw_scalar, draw_vector
from admles.filters import (
    DeconvSpec,
    FilterSpec,
    apply_bar,
    apply_deconv,
    apply_half_deconv,
    apply_half_filter,
    check_filter_identities,
    deconv_error_symbol,
    deconv_symbol,
    deconv_symbol_iterative,
    filter_symbol,
)
from admles.grid import Grid
from admles.inequalities import (
    ladyzhenskaya_ratio,
    run_sweep,
    trilinear_ratio_i,
    trilinear_ratio_ii,
    vertical_embedding_ratio,
)
from admles.solver import (
    RandomBandLimited,
    SolverConfig,
    TaylorGreen,
    ZeroForcing,
    dependence_experiment,
    descriptor_field,
    forcing_field,
    run,
)
from admles.spectral import VectorField, l2_norm, vertical_seminorm

GRID32 = Grid(32, 32, 32)
ALPHAS = (0.1, 0.5, 1.0, 2.0)
THETAS = (0.51, 0.75, 1.0)
K3_SWEEP = np.arange(-64, 65, dtype=float)

# frozen constant for the forced a priori bound: measured once as
# C_needed = 0.006528 (attained at deconvolution order 1) on the pinned
# experiment below, then frozen with headroom; regressions must not retune it
FROZEN_C = 0.007


def report(label: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'}: {label} ({detail})")
    assert passed, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# 1. symbol bounds over the full parameter sweep


def test_symbol_bounds_sweep():
    start = time.perf_counter()
    worst = np.inf
    for alpha in ALPHAS:
        for theta in THETAS:
            filt = FilterSpec(alpha, theta)
            a = filter_symbol(filt, K3_SWEEP)
            for order in range(11):
                d = deconv_symbol(DeconvSpec(filt, order), K3_SWEEP)
                worst = min(
                    worst,
                    float(np.min(d) - 1.0),
                    float(np.min((order + 1.0) - d)),
                    float(np.min(a - d)),
                )
    wall = time.perf_counter() - start
    report(
        "symbol bounds 1 <= D <= N+1 and D <= A over full sweep",
        worst >= -1e-12 and wall < 1.0,
        f"worst margin {worst:.3e}, wall {wall:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. closed form vs iterative partial sums


def test_closed_form_matches_iterative():
    worst = 0.0
    for alpha in ALPHAS:
        for theta in THETAS:
            filt = FilterSpec(alpha, theta)
            for order in range(51):
                spec = DeconvSpec(filt, order)
                closed = deconv_symbol(spec, K3_SWEEP)
                iterative = deconv_symbol_iterative(spec, K3_SWEEP)
                worst = max(
                    worst, float(np.max(np.abs(closed - iterative) / closed))
                )
    report(
        "closed-form vs iterative deconvolution symbols (N to 50)",
        worst <= 1e-12,
        f"max relative deviation {worst:.3e}",
    )


# ---------------------------------------------------------------------------
# 3. filter identities on random divergence-free fields


def test_filter_identity_residuals():
    start = time.perf_counter()
    worst = 0.0
    count = 0
    combos = [(a, t) for a in (0.5, 2.0) for t in (0.51, 1.0)]
    for i, (alpha, theta) in enumerate(combos):
        filt = FilterSpec(alpha, theta)
        spec = EnsembleSpec(count=25, band_limit=10, seed=100 + i)
        rng = spec.rng()
        for _ in range(spec.count):
            f = draw_scalar(rng, spec, GRID32)
            w = draw_vector(rng, spec, GRID32)
            residuals = check_filter_identities(filt, f, w)
            worst = max(worst, max(residuals.values()))
            count += 1
    wall = time.perf_counter() - start
    report(
        "self-adjointness, commutation, nonlinear orthogonality",
        worst <= 1e-10 and count == 100 and wall < 30.0,
        f"worst residual {worst:.3e} on {count} fields, wall {wall:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. operator norm chain


def _vertical_mass(w: VectorField) -> np.ndarray:
    # spectral mass per vertical wavenumber position, volume-weighted
    return w.grid.volume * np.sum(np.abs(w.coeffs) ** 2, axis=(0, 1, 2))


def test_operator_norm_chain():
    spec = EnsembleSpec(count=100, band_limit=10, seed=200)
    rng = spec.rng()
    fields = [draw_vector(rng, spec, GRID32) for _ in range(spec.count)]
    masses = [_vertical_mass(w) for w in fields]
    k3 = GRID32.k_axis(2)
    tol = 1e-10
    violations = 0
    checks = 0
    for alpha in ALPHAS:
        for theta in THETAS:
            filt = FilterSpec(alpha, theta)
            a = filter_symbol(filt, k3)
            for order in range(11):
                d = deconv_symbol(DeconvSpec(filt, order), k3)
                for m in masses:
                    v_sq = float(np.sum(m))
                    dv_sq = float(np.sum(d * d * m))
                    forms = float(np.sum(d * m)) <= (1 + tol) * float(
                        np.sum(a * m)
                    )
                    smoothed = float(np.sum(d / a * m)) <= (1 + tol) * v_sq
                    energy = float(np.sum(a * m)) <= (1 + tol) * float(
                        np.sum(a * d * m)
                    )
                    chain = (
                        v_sq <= (1 + tol) * dv_sq
                        and dv_sq <= (1 + tol) * (order + 1) ** 2 * v_sq
                    )
                    checks += 1
                    if not (chain and forms and smoothed and energy):
                        violations += 1

    # tie the per-mode reduction to the actual operator pipeline
    filt = FilterSpec(0.5, 0.75)
    dspec = DeconvSpec(filt, 3)
    w = fields[0]
    d_full = l2_norm(apply_deconv(w, dspec))
    d_line = np.sqrt(
        np.sum(deconv_symbol(dspec, k3) ** 2 * masses[0])
    )
    ad_bar = l2_norm(
        apply_half_filter(apply_half_deconv(apply_bar(w, filt), dspec), filt)
    )
    ad_bar_line = np.sqrt(
        np.sum(
            deconv_symbol(dspec, k3) / filter_symbol(filt, k3) * masses[0]
        )
    )
    tie = max(
        abs(d_full - d_line) / d_full, abs(ad_bar - ad_bar_line) / ad_bar
    )
    report(
        "norm chain ||v|| <= ||Dv|| <= (N+1)||v||, D <= A, smoothing bounds",
        violations == 0 and tie <= 1e-12,
        f"0 violations in {checks} checks, operator tie-in {tie:.3e}",
    )


# ---------------------------------------------------------------------------
# 5. filter Parseval identity


def test_filter_parseval_identity():
    spec = EnsembleSpec(count=20, band_limit=10, seed=300)
    rng = spec.rng()
    worst = 0.0
    for _ in range(spec.count):
        v = draw_vector(rng, spec, GRID32)
        for alpha in ALPHAS:
            for theta in THETAS:
                filt = FilterSpec(alpha, theta)
                lhs = l2_norm(apply_half_filter(v, filt)) ** 2
                rhs = (
                    l2_norm(v) ** 2
                    + alpha ** (2 * theta)
                    * vertical_seminorm(v, theta) ** 2
                )
                worst = max(worst, abs(lhs - rhs) / rhs)
    report(
        "||A^(1/2)v||^2 = ||v||^2 + alpha^(2 theta)||d3^theta v||^2",
        worst <= 1e-12,
        f"max relative defect {worst:.3e} over 240 cases",
    )


# ---------------------------------------------------------------------------
# 6. sup-norm split bound on random trigonometric polynomials


def test_sup_norm_split_bound():
    start = time.perf_counter()
    spec = EnsembleSpec(count=1000, band_limit=12, seed=77)
    exponents = (0.6, 0.75, 1.0)
    # the sweep checks the kappa-split bound on every sample and exponent
    coarse, violations = run_sweep(spec, GRID32, ["agmon"], exponents, 256)
    fine, fine_violations = run_sweep(spec, GRID32, ["agmon"], exponents, 512)
    violations += fine_violations
    drift = max(
        abs(f.max_ratio - c.max_ratio) / c.max_ratio
        for c, f in zip(coarse, fine)
    )
    wall = time.perf_counter() - start
    report(
        "sup-norm bound on 1000 samples x 3 exponents, stable under refinement",
        violations == [] and drift < 0.05 and wall < 60.0,
        f"{len(violations)} bound violations, max ratio drift {drift:.2e}, "
        f"wall {wall:.1f}s",
    )


# ---------------------------------------------------------------------------
# 7. anisotropic inequality ratio sweeps


def test_inequality_ratio_sweeps():
    g16 = Grid(16, 16, 16)
    spec = EnsembleSpec(count=500, band_limit=5, seed=78)

    # stability of ensemble maxima under resolution doubling
    drift = 0.0
    reports = []
    sweeps = [
        run_sweep(spec, grid, ["ladyzhenskaya", "vertical_embedding"],
                  (0.6, 1.0), 256)[0]
        for grid in (g16, GRID32)
    ]
    for coarse, fine in zip(*sweeps):
        reports.extend([coarse, fine])
        drift = max(
            drift, abs(fine.max_ratio - coarse.max_ratio) / coarse.max_ratio
        )
    finite = all(
        np.isfinite(r.max_ratio) and r.max_ratio > 0 for r in reports
    )

    # trilinear forms: by-parts oracle and doubling at s = 0.75
    tri_spec = EnsembleSpec(count=500, band_limit=5, seed=79)
    rng = tri_spec.rng()
    worst_gap = 0.0
    max16 = 0.0
    for _ in range(tri_spec.count):
        u = draw_vector(rng, tri_spec, g16)
        v = draw_vector(rng, tri_spec, g16)
        w = draw_vector(rng, tri_spec, g16)
        r_ii = trilinear_ratio_ii(u, v, w, 0.75)
        r_i_swapped = trilinear_ratio_i(u, w, v, 0.75)
        worst_gap = max(worst_gap, abs(r_ii - r_i_swapped) / max(r_ii, 1e-300))
        max16 = max(max16, trilinear_ratio_i(u, v, w, 0.75))
    rng = tri_spec.rng()
    max32 = 0.0
    for _ in range(tri_spec.count):
        u = draw_vector(rng, tri_spec, GRID32)
        v = draw_vector(rng, tri_spec, GRID32)
        w = draw_vector(rng, tri_spec, GRID32)
        max32 = max(max32, trilinear_ratio_i(u, v, w, 0.75))
    drift = max(drift, abs(max32 - max16) / max16)

    # scale invariance of every ratio
    scale_defect = 0.0
    rng = spec.rng()
    for lam in (1e-3, 1e3):
        for _ in range(5):
            u = draw_vector(rng, spec, g16)
            v = draw_vector(rng, spec, g16)
            w = draw_vector(rng, spec, g16)
            scaled = [
                VectorField(g16, lam * x.coeffs) for x in (u, v, w)
            ]
            pairs = (
                (ladyzhenskaya_ratio(u), ladyzhenskaya_ratio(scaled[0])),
                (
                    vertical_embedding_ratio(u, 0.75),
                    vertical_embedding_ratio(scaled[0], 0.75),
                ),
                (
                    trilinear_ratio_i(u, v, w, 0.75),
                    trilinear_ratio_i(*scaled, 0.75),
                ),
            )
            scale_defect = max(
                scale_defect,
                max(abs(b / a - 1.0) for a, b in pairs),
            )

    report(
        "mixed-norm and trilinear ratio sweeps: finite, invariant, stable",
        finite
        and drift < 0.05
        and scale_defect <= 1e-10
        and worst_gap <= 1e-8,
        f"drift {drift:.2e}, scale defect {scale_defect:.2e}, "
        f"by-parts gap {worst_gap:.2e}",
    )


# ---------------------------------------------------------------------------
# 8. semi-discrete energy law


def test_energy_budget_convergence():
    filt = FilterSpec(alpha=0.5, theta=1.0)
    worst_ratio_low, worst_ratio_high = np.inf, 0.0
    monotone = True
    max_wall = 0.0
    for order in (0, 1, 5):
        residuals = {}
        for dt in (0.002, 0.001):
            cfg = SolverConfig(
                grid=GRID32, nu=0.1, filter=filt, deconv_order=order,
                dt=dt, t_end=0.1, init=TaylorGreen(),
                forcing=ZeroForcing(), output_every=1,
            )
            start = time.perf_counter()
            records = list(attach_residuals(r for _, r in run(cfg)))
            max_wall = max(max_wall, time.perf_counter() - start)
            energies = [r.model_energy for r in records]
            monotone = monotone and all(
                b < a for a, b in zip(energies, energies[1:])
            )
            residuals[dt] = records[-1].budget_residual
        ratio = residuals[0.002] / residuals[0.001]
        worst_ratio_low = min(worst_ratio_low, ratio)
        worst_ratio_high = max(worst_ratio_high, ratio)
    report(
        "energy strictly decreasing, budget residual converges at order 2",
        monotone
        and 3.4 <= worst_ratio_low
        and worst_ratio_high <= 4.6
        and max_wall < 120.0,
        f"residual ratios in [{worst_ratio_low:.3f}, {worst_ratio_high:.3f}], "
        f"slowest run {max_wall:.1f}s",
    )


# ---------------------------------------------------------------------------
# 9. forced a priori bound with a frozen constant


def test_forced_bound_regression():
    filt = FilterSpec(alpha=0.5, theta=1.0)
    nu, t_end, dt = 0.1, 0.5, 0.005
    init = TaylorGreen(amplitude=0.25)
    forcing = RandomBandLimited(seed=2026, band=4, energy=4.0)
    f_sq = l2_norm(forcing_field(forcing, GRID32)) ** 2
    v0_sq = l2_norm(descriptor_field(init, GRID32)) ** 2
    worst_excess = -np.inf
    for order in (0, 1, 5):
        cfg = SolverConfig(
            grid=GRID32, nu=nu, filter=filt, deconv_order=order,
            dt=dt, t_end=t_end, init=init, forcing=forcing, output_every=1,
        )
        records = [r for _, r in run(cfg)]
        bound = v0_sq + FROZEN_C * (order + 1) / nu * t_end * f_sq
        sup_q = max(2.0 * r.model_energy for r in records)
        ts = np.array([r.t for r in records])
        diss = np.array([r.dissipation for r in records])
        int_q = 2.0 * float(np.trapezoid(diss, ts))
        worst_excess = max(
            worst_excess, sup_q / bound - 1.0, int_q / bound - 1.0
        )
    report(
        "forced sup and dissipation integrals under the frozen bound",
        worst_excess <= 0.0,
        f"worst margin {-worst_excess:.4f} below the bound, C={FROZEN_C}",
    )


# ---------------------------------------------------------------------------
# 10. deconvolution error per mode


def test_deconvolution_error_per_mode():
    filt = FilterSpec(alpha=1.0, theta=1.0)
    spec = EnsembleSpec(count=1, band_limit=4, seed=400)
    v = draw_vector(spec.rng(), spec, GRID32)
    active = np.abs(v.coeffs) > 1e-12 * np.max(np.abs(v.coeffs))
    k3 = GRID32.k_axis(2).reshape(1, 1, 1, -1)
    vertical = np.broadcast_to(np.abs(k3) > 0, v.coeffs.shape)
    worst_rel = 0.0
    zero_plane_exact = True
    monotone = True
    previous = None
    for order in range(7):
        dspec = DeconvSpec(filt, order)
        z = apply_deconv(apply_bar(v, filt), dspec)
        predicted = np.broadcast_to(
            deconv_error_symbol(dspec, k3), v.coeffs.shape
        )
        measured = np.zeros_like(predicted)
        np.divide(
            np.abs(z.coeffs - v.coeffs), np.abs(v.coeffs),
            out=measured, where=active,
        )
        sel = active & vertical
        worst_rel = max(
            worst_rel,
            float(np.max(np.abs(measured[sel] / predicted[sel] - 1.0))),
        )
        plane = active & ~vertical
        zero_plane_exact = zero_plane_exact and bool(
            np.all(measured[plane] == 0.0)
        )
        if previous is not None:
            monotone = monotone and bool(
                np.all(measured[sel] <= previous[sel] * (1.0 + 1e-12))
            )
        previous = measured
    report(
        "per-mode deconvolution error equals its symbol and decays in N",
        worst_rel <= 1e-10 and zero_plane_exact and monotone,
        f"max relative defect {worst_rel:.3e}, zero-plane exact, monotone",
    )


# ---------------------------------------------------------------------------
# 11. continuous dependence on initial data


def test_continuous_dependence_envelope():
    start = time.perf_counter()
    cfg = SolverConfig(
        grid=GRID32, nu=0.1, filter=FilterSpec(alpha=0.5, theta=1.0),
        deconv_order=1, dt=0.01, t_end=0.3, init=TaylorGreen(),
        forcing=ZeroForcing(), output_every=1,
    )
    base = dependence_experiment(cfg, 1e-6)
    doubled = dependence_experiment(cfg, 2e-6)
    wall = time.perf_counter() - start
    envelope = base.envelope()
    under = bool(
        np.all(base.delta_norms <= envelope * (1.0 + 1e-10))
    )
    half = len(base.times) // 2
    ratio = doubled.delta_norms[1:half] / base.delta_norms[1:half]
    doubling_defect = float(np.max(np.abs(ratio - 2.0)))
    report(
        "perturbation under Gronwall envelope; doubling epsilon doubles it",
        under
        and np.isfinite(base.fitted_c)
        and doubling_defect <= 0.2
        and wall < 300.0,
        f"C={base.fitted_c:.4f}, doubling defect {doubling_defect:.2e}, "
        f"wall {wall:.1f}s",
    )
