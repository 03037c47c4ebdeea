"""Solver: initialization, stepping, conservation, aborts, checkpoints."""

import gc
import io
import json
import re
import struct
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest
from full_layout import (
    beltrami_field,
    divergence_of_square,
    half_layout,
    hermitian_defect,
    rule_mask,
    spectral_shape,
    to_full,
)

from admles import solver
from admles.cli import main
from admles.diagnostics import energy_terms, gronwall_integrand
from admles.filters import (
    DeconvSpec,
    FilterSpec,
    apply_bar,
    apply_deconv,
    apply_filter,
    deconv_symbol,
    filter_symbol,
)
from admles.grid import Band, Grid, dealias_cutoff
from admles.solver import (
    CFL_LIMIT,
    CFLError,
    NaNError,
    RandomBandLimited,
    SingleMode,
    SolverConfig,
    SolverState,
    StepOperators,
    TaylorGreen,
    ZeroForcing,
    dependence_experiment,
    descriptor_field,
    forcing_field,
    init_field,
    initial_state,
    read_checkpoint,
    run,
    step,
    trajectory,
    write_checkpoint,
)
from admles.spectral import (
    FieldNorms,
    VectorField,
    band_inverse,
    divergence_residual,
    field_from_samples,
    inner_product,
    l2_norm,
    leray_project,
    tensor_divergence,
)


FILT = FilterSpec(alpha=0.5, theta=1.0)


def config16(**kw):
    defaults = dict(
        grid=Grid(16, 16, 16),
        nu=0.1,
        filter=FILT,
        deconv_order=1,
        dt=0.01,
        t_end=0.1,
        init=TaylorGreen(),
        forcing=ZeroForcing(),
        output_every=1,
    )
    defaults.update(kw)
    return SolverConfig(**defaults)


# ---------------------------------------------------------------------------
# Initial data


def test_taylor_green_structure():
    g = Grid(16, 16, 16)
    v0 = descriptor_field(TaylorGreen(), g)
    assert divergence_residual(v0) < 1e-13
    # sin x1 cos x2 cos x3 has amplitude coefficients of magnitude 1/8
    assert abs(v0.coeffs[0][1, 1, 1]) == pytest.approx(0.125, rel=1e-12)
    assert np.max(np.abs(v0.coeffs[2])) < 1e-15


def test_init_field_is_smoothed():
    g = Grid(16, 16, 16)
    filt = FilterSpec(alpha=1.0, theta=1.0)
    w0 = init_field(TaylorGreen(), g, filt)
    v0 = descriptor_field(TaylorGreen(), g)
    # k3 = +-1 modes halved by the symbol value 2
    assert abs(w0.coeffs[0][1, 1, 1]) == pytest.approx(
        abs(v0.coeffs[0][1, 1, 1]) / 2, rel=1e-12
    )
    back = apply_filter(w0, filt)
    assert np.max(np.abs(back.coeffs - v0.coeffs)) < 1e-12


def test_init_field_small_alpha_limit():
    g = Grid(16, 16, 16)
    alpha = 1e-3
    filt = FilterSpec(alpha=alpha, theta=1.0)
    v0 = descriptor_field(TaylorGreen(), g)
    w0 = init_field(TaylorGreen(), g, filt)
    # per-mode relative defect is at most alpha^2 |k3|^2
    kmax = dealias_cutoff(g.n3)
    bound = alpha**2 * kmax**2 * np.max(np.abs(v0.coeffs))
    assert np.max(np.abs(w0.coeffs - v0.coeffs)) <= bound * (1 + 1e-12)


def test_single_mode_horizontal_untouched_by_filter():
    g = Grid(16, 16, 16)
    desc = SingleMode(k=(1, 0, 0), amplitude=2.0)
    raw = descriptor_field(desc, g)
    w0 = init_field(desc, g, FilterSpec(alpha=2.0, theta=0.9))
    assert np.array_equal(raw.coeffs, w0.coeffs)
    assert divergence_residual(raw) < 1e-13


def test_single_mode_band_check():
    g = Grid(16, 16, 16)
    with pytest.raises(ValueError):
        descriptor_field(SingleMode(k=(6, 0, 0)), g)  # cutoff is 5
    with pytest.raises(ValueError):
        descriptor_field(SingleMode(k=(0, 0, 0)), g)


def test_random_init_normalized_after_filtering():
    g = Grid(16, 16, 16)
    desc = RandomBandLimited(seed=3, band=4, energy=2.5)
    w0 = init_field(desc, g, FILT)
    assert l2_norm(w0) == pytest.approx(2.5, rel=1e-10)
    assert divergence_residual(w0) < 1e-12
    with pytest.raises(ValueError):
        descriptor_field(RandomBandLimited(seed=3, band=6), g)


# ---------------------------------------------------------------------------
# Nonlinear term


def convection(w, order):
    """P bar div(D w x D w) of a field on the 2/3 band: minus the
    right-hand side without forcing."""
    ops = StepOperators(config16(grid=w.grid, deconv_order=order))
    return -ops.band_rhs(w.coeffs, ops.k1)


def test_stepper_transforms_one_component_at_a_time():
    # a group of three would add two half layouts of the grid's shape
    ops = StepOperators(config16())
    assert ops.work.half.shape == (1, *spectral_shape(ops.config.grid))
    assert ops.work.columns.shape[0] == 1


def fresh_grid(grid):
    """A grid equal to `grid` whose band has built no workspace yet, so
    the next one follows the slab budget that force_slab set."""
    return Grid(*grid.shape, *grid.sizes)


@pytest.mark.parametrize("order", [0, 2], ids=["N0", "N2"])
@pytest.mark.parametrize("grid", [Grid(16, 16, 16), Grid(12, 16, 24, L3=np.pi)],
                         ids=["cube", "12x16x24"])
def test_slabs_keep_the_bits_of_a_step(force_slab, grid, order):
    """The stepper streams its transforms through slabs of planes: one
    plane at a time and slabs of 5 with a short last one give the bits
    of one slab, in field_from_samples (the Taylor-Green forcing), in
    band_divergence (through tensor_divergence) and in two whole steps,
    all on the band's one workspace."""

    def stepped(planes):
        force_slab(planes, grid.shape)
        cfg = config16(grid=fresh_grid(grid), deconv_order=order, forcing=TaylorGreen(),
                       init=RandomBandLimited(seed=21, band=3))
        ops = StepOperators(cfg)
        assert ops.work.slab == (planes or grid.n1)
        first = step(initial_state(cfg), ops)
        bits = [first.w.coeffs.tobytes(), step(first, ops).w.coeffs.tobytes(),
                tensor_divergence(first.w).coeffs.tobytes()]
        assert ops.work is cfg.grid.band.workspace(grid.shape)
        return bits

    one = stepped(None)
    for planes in (1, 5):
        assert stepped(planes) == one


def test_cfl_speed_read_slab_by_slab_keeps_the_bits(force_slab):
    for planes in (None, 1, 5):
        force_slab(planes, (16, 16, 16))
        # a fresh grid, whose band builds its workspace under this budget
        cfg = config16(init=RandomBandLimited(seed=8, band=5), deconv_order=2,
                       grid=Grid(16, 16, 16))
        ops = StepOperators(cfg)
        assert ops.work.slab == (planes or 16)
        ops.band_rhs(initial_state(cfg).w.coeffs, ops.k1)
        expect = np.sqrt(np.max(np.sum(ops.samples**2, axis=0)))
        assert np.sqrt(ops.max_speed_squared()).tobytes() == expect.tobytes()


def test_a_nan_sample_in_a_later_slab_aborts_as_non_finite(force_slab, monkeypatch):
    """The slab maxima are reduced by np.max, so a NaN in the last slab
    wins over a CFL violation in the first: the step raises NaNError."""
    cfg = config16()
    force_slab(5, cfg.grid.shape)

    def spoiled(coeffs, out, work):
        band_inverse(coeffs, out, work)
        out[0, 0, 0, 0] = 1e100
        out[0, -1, 0, 0] = np.nan
        return out

    monkeypatch.setattr(solver, "band_inverse", spoiled)
    ops = StepOperators(cfg)
    assert ops.work.slab == 5
    with pytest.raises(NaNError):
        step(initial_state(cfg), ops)


def stepped_at_64():
    """A 64^3 StepOperators after one step, which builds the scratch made
    on first use, and that step's state."""
    g = Grid(64, 64, 64)
    cfg = config16(grid=g, init=RandomBandLimited(seed=3, band=4),
                   forcing=RandomBandLimited(seed=4, band=3), dt=0.001, t_end=0.002)
    ops = StepOperators(cfg)
    return ops, step(initial_state(cfg), ops)


def held_bases(*owners) -> dict[int, np.ndarray]:
    """The arrays that the attributes of `owners` hold, a field by its
    coefficients and a view by its base, each once, keyed by id."""
    bases = {}
    for owner in owners:
        for value in vars(owner).values():
            arr = getattr(value, "coeffs", value)
            if isinstance(arr, np.ndarray):
                while isinstance(arr.base, np.ndarray):
                    arr = arr.base
                bases[id(arr)] = arr
    return bases


def test_stepper_holds_one_grid_sized_array():
    """At 64^3 the samples of D w are the one array of the grid's size
    that a StepOperators and its workspace hold: the transforms stream
    their half layout and products through slabs of planes.  The speed
    check squares into the workspace and allocates no slab, and a warm
    step allocates the new state, its finiteness mask and small
    objects."""
    ops, state = stepped_at_64()
    g = ops.config.grid
    held = {prefix + name: getattr(value, "coeffs", value)
            for prefix, owner in (("", ops), ("work.", ops.work))
            for name, value in vars(owner).items()}
    large = [name for name, value in held.items()
             if isinstance(value, np.ndarray) and value.nbytes >= 8 * g.n1 * g.n2 * g.n3]
    assert large == ["samples"]
    assert ops.work.half.shape[1] < g.n1
    assert len(ops.work.product) < g.n1
    tracemalloc.start()
    try:
        ops.max_speed_squared()
        speed_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        step(state, ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert speed_peak < ops.work.product[0].nbytes  # less than one plane
    new_state = 3 * np.prod(g.band.shape) * 16
    # measured: 133,000 bytes above the new state, 122,034 of them the mask
    assert peak <= new_state + new_state // 8


def test_stepper_holds_one_band_vector():
    """The predictor is built in the new state and the forcing is barred
    one component at a time into the workspace, so at 64^3 a
    StepOperators and the band's workspace hold k1, forcing_raw on its
    band-3 draw box, the samples, the viscous factor, the transforms'
    scratch and one band component, 10.68 MiB, besides two k3 lines;
    term is a view of columns.  The stepper keeps nothing of the
    forcing's box: band_rhs reads its index lists and A columns."""
    ops, _ = stepped_at_64()
    work = ops.work
    assert not {"work", "predictor", "band_forcing", "forcing_blocks", "forcing_rest",
                "forcing_filter"} & vars(ops).keys()
    assert np.shares_memory(work.term, work.columns)
    assert ops.forcing_raw.coeffs.shape == (3, 7, 7, 4)
    bases = held_bases(ops, work).values()
    named = [ops.samples, ops.k1, ops.forcing_raw.coeffs, ops.band_viscous,
             work.columns, work.half, work.product, work.mode]
    lines = [arr for arr in bases if arr.shape == ops.config.grid.k3.shape]
    assert len(lines) == 2  # band_deconv and band_bar
    named_bytes = sum(arr.nbytes for arr in named)
    assert named_bytes == 11_196_784  # 10.68 MiB
    held = sum(arr.nbytes for arr in bases)
    assert held == named_bytes + sum(arr.nbytes for arr in lines)


def bar_line(cfg):
    g = cfg.grid
    return 1.0 / filter_symbol(cfg.filter, g.k3[..., g.band.cols])


def viscous_factor(cfg):
    band = cfg.grid.band
    return np.exp(-cfg.nu * cfg.dt * (band.kd1**2 + band.kd2**2 + band.kd3**2))


def test_nonlinear_term_zero_field():
    g = Grid(16, 16, 16)
    w = VectorField(g.band, np.zeros((3, *g.band.shape), dtype=complex))
    out = convection(w, 2)
    assert np.max(np.abs(out)) == 0.0


def test_nonlinear_term_divergence_free():
    g = Grid(16, 16, 16)
    w = init_field(RandomBandLimited(seed=5, band=5), g, FILT)
    out = w.with_coeffs(convection(w, 3))
    assert divergence_residual(out) < 1e-12 * np.max(np.abs(out.coeffs))


def test_nonlinear_term_order_zero_reduction():
    g = Grid(16, 16, 16)
    w = init_field(RandomBandLimited(seed=6, band=5), g, FILT)
    out = convection(w, 0)
    bar = bar_line(config16())
    ref = leray_project(w.with_coeffs(tensor_divergence(w).coeffs * bar))
    assert np.array_equal(out, ref.coeffs)


def test_nonlinear_orthogonality_pre_projection():
    g = Grid(16, 16, 16)
    w = init_field(RandomBandLimited(seed=7, band=5), g, FILT)
    dspec = DeconvSpec(FILT, 4)
    z = apply_deconv(w, dspec)
    ip = inner_product(tensor_divergence(z), z)
    scale = l2_norm(z) ** 2 * z.grid.max_dealiased_wavenumber
    assert abs(ip) < 1e-10 * scale


# ---------------------------------------------------------------------------
# Stepping


def test_pure_viscous_decay_exact():
    g = Grid(16, 16, 16)
    cfg = config16(
        init=SingleMode(k=(0, 0, 1)),
        nu=0.01,
        dt=0.001,
        t_end=0.05,
        filter=FilterSpec(alpha=1.0, theta=1.0),
        deconv_order=0,
    )
    w0 = initial_state(cfg).w
    for s, _ in run(cfg):
        expect = np.exp(-cfg.nu * 1.0 * s.t) * l2_norm(w0)
        assert l2_norm(s.w) == pytest.approx(expect, rel=1e-12)


def test_step_preserves_divergence_free():
    cfg = config16()
    state = initial_state(cfg)
    ops = StepOperators(cfg)
    for _ in range(5):
        state = step(state, ops)
        scale = np.max(np.abs(state.w.coeffs))
        assert divergence_residual(state.w) < 1e-12 * scale


def test_run_deterministic():
    cfg = config16(init=RandomBandLimited(seed=11, band=4), t_end=0.05)
    for (a, ra), (b, rb) in zip(run(cfg), run(cfg), strict=True):
        assert np.array_equal(a.w.coeffs, b.w.coeffs)
        assert ra.model_energy == rb.model_energy


def test_run_zero_everything():
    cfg = config16(
        init=RandomBandLimited(seed=1, band=4, energy=1.0), t_end=0.02
    )
    # zero initial data via a zero-amplitude Taylor-Green
    cfg = config16(init=TaylorGreen(amplitude=0.0), t_end=0.02)
    for s, r in run(cfg):
        assert np.max(np.abs(s.w.coeffs)) == 0.0
        assert r.model_energy == 0.0


def test_run_output_cadence():
    cfg = config16(dt=0.01, t_end=0.07, output_every=3)
    states, records = zip(*run(cfg))
    times = [round(s.t, 10) for s in states]
    assert times == [0.0, 0.03, 0.06, 0.07]
    assert [r.t for r in records] == pytest.approx(times)


def test_cfl_violation_raises():
    cfg = config16(dt=0.01, t_end=0.1, init=TaylorGreen(amplitude=50.0))
    with pytest.raises(CFLError):
        list(run(cfg))


def test_cfl_abort_carries_partial_results():
    # grows unstable only after the forcing pumps energy in
    cfg = config16(
        dt=0.04,
        t_end=4.0,
        nu=0.001,
        init=TaylorGreen(amplitude=1.2),
        forcing=TaylorGreen(amplitude=2.0),
    )
    yielded = []
    with pytest.raises(CFLError):
        for state, record in run(cfg):
            yielded.append((state.t, record.t))
    assert len(yielded) >= 1
    assert all(t == rt for t, rt in yielded)


def test_run_memory_independent_of_record_count():
    # run() keeps no states, so consuming 10 or 40 records peaks alike
    def peak(records):
        cfg = config16(t_end=(records - 1) * 0.01)
        tracemalloc.start()
        try:
            for _ in run(cfg):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # warms the per-grid caches
    field = 3 * 16**3 * 16
    assert abs(peak(40) - peak(10)) <= field


def test_nan_detection():
    cfg = config16()
    bad = np.full((3, *cfg.grid.band.shape), np.nan, dtype=complex)
    state = SolverState(t=0.0, step_index=0, w=VectorField(cfg.grid.band, bad))
    with pytest.raises(NaNError):
        step(state, StepOperators(cfg))


def test_cfl_speed_is_max_of_deconvolved_samples():
    """The speed step checks is max |D w| of a full complex inverse."""
    kw = dict(init=RandomBandLimited(seed=8, band=5), deconv_order=3,
              filter=FilterSpec(alpha=1.0, theta=1.0))
    cfg = config16(**kw)
    g = cfg.grid
    w = initial_state(cfg).w
    deconv = deconv_symbol(DeconvSpec(cfg.filter, cfg.deconv_order), g.k3)
    z = np.fft.ifftn(to_full(g, half_layout(w) * deconv),
                     axes=(-3, -2, -1)).real * np.prod(g.shape)
    speed = np.max(np.sqrt(np.sum(z**2, axis=0)))
    # the dt at which that speed puts the CFL number exactly on the limit
    dt_edge = CFL_LIMIT / (speed * g.max_dealiased_wavenumber)
    for factor in (1.0 + 1e-14, 1.0 - 1e-14):
        cfg = config16(**kw, dt=dt_edge * factor, t_end=dt_edge * factor)
        if factor > 1.0:
            with pytest.raises(CFLError):
                step(initial_state(cfg), StepOperators(cfg))
        else:
            step(initial_state(cfg), StepOperators(cfg))


def test_steps_keep_coefficients_hermitian():
    cfg = config16(init=RandomBandLimited(seed=9, band=5),
                   forcing=TaylorGreen(), t_end=0.06)
    ops = StepOperators(cfg)
    state = initial_state(cfg)
    for _ in range(6):
        state = step(state, ops)
    c = half_layout(state.w)
    assert hermitian_defect(to_full(cfg.grid, c)) < 1e-15 * np.max(np.abs(c))


def test_zeroth_order_reduction_bitwise():
    """An independently coded deconvolution-free step must agree bitwise."""
    cfg = config16(deconv_order=0, t_end=0.03)
    grid = cfg.grid
    ops = StepOperators(cfg)
    bar = bar_line(cfg)
    e = viscous_factor(cfg)
    bar_f = apply_bar(forcing_field(cfg.forcing, grid), cfg.filter)
    f = bar_f.band.embed(bar_f.coeffs, grid.band)

    def plain_rhs(w):
        t = tensor_divergence(w)  # no deconvolution multiply
        conv = leray_project(t.with_coeffs(t.coeffs * bar))
        return f - conv.coeffs

    def plain_step(w):
        k1 = plain_rhs(w)
        pred = w.with_coeffs(e * (w.coeffs + cfg.dt * k1))
        k2 = plain_rhs(pred)
        return w.with_coeffs(e * w.coeffs + 0.5 * cfg.dt * (e * k1 + k2))

    a = initial_state(cfg)
    b = a.w
    for _ in range(3):
        a = step(a, ops)
        b = plain_step(b)
        assert np.array_equal(a.w.coeffs, b.coeffs)


def test_vertical_mean_sector_unfiltered():
    """x3-independent flow evolves exactly as unfiltered Navier-Stokes."""
    g = Grid(16, 16, 16)
    x1, x2, _ = g.mesh()
    zeros = np.zeros(g.shape)
    samples = np.stack(
        [np.sin(x1) * np.cos(x2) + zeros, -np.cos(x1) * np.sin(x2) + zeros, zeros]
    )
    w0 = leray_project(field_from_samples(g, samples))
    cfg = config16(
        filter=FilterSpec(alpha=2.0, theta=1.0), deconv_order=5, t_end=0.03
    )
    ops = StepOperators(cfg)
    e = viscous_factor(cfg)

    def ns_rhs(w):
        return -leray_project(tensor_divergence(w)).coeffs

    def ns_step(w):
        k1 = ns_rhs(w)
        pred = w.with_coeffs(e * (w.coeffs + cfg.dt * k1))
        k2 = ns_rhs(pred)
        return w.with_coeffs(e * w.coeffs + 0.5 * cfg.dt * (e * k1 + k2))

    a = SolverState(0.0, 0, w0)
    b = w0
    for _ in range(3):
        a = step(a, ops)
        b = ns_step(b)
        assert np.array_equal(a.w.coeffs, b.coeffs)


ODD_BOX = Grid(12, 16, 10, 2.0 * np.pi, 3.0, 5.0)


@pytest.mark.parametrize("order", [0, 2])
def test_band_step_matches_half_layout_heun_bitwise(order):
    """A Heun step coded from the public operators and the symbol lines
    agrees bitwise with the band stepper."""
    cfg = config16(grid=ODD_BOX, deconv_order=order, t_end=0.03,
                   filter=FilterSpec(alpha=0.5, theta=0.75),
                   init=RandomBandLimited(seed=12, band=3),
                   forcing=RandomBandLimited(seed=13, band=2, energy=2.0))
    grid = cfg.grid
    deconv = deconv_symbol(DeconvSpec(cfg.filter, order), grid.k3[..., grid.band.cols])
    bar = bar_line(cfg)
    e = viscous_factor(cfg)
    bar_f = apply_bar(forcing_field(cfg.forcing, grid), cfg.filter)
    f = bar_f.band.embed(bar_f.coeffs, grid.band)

    def half_rhs(w):
        z = w.with_coeffs(w.coeffs * deconv)
        t = tensor_divergence(z).coeffs * bar
        return f - leray_project(w.with_coeffs(t)).coeffs

    def half_step(w):
        k1 = half_rhs(w)
        pred = w.with_coeffs(e * (w.coeffs + cfg.dt * k1))
        k2 = half_rhs(pred)
        return w.with_coeffs(e * w.coeffs + 0.5 * cfg.dt * (e * k1 + k2))

    ops = StepOperators(cfg)
    a = initial_state(cfg)
    b = a.w
    for _ in range(3):
        a = step(a, ops)
        b = half_step(b)
        assert np.array_equal(a.w.coeffs, b.coeffs)


def same_bits(a, b):
    """Equal shapes and bytes: unlike np.array_equal, -0.0 is not +0.0."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("order", [0, 2])
def test_forcing_on_its_draw_box_steps_as_on_the_band_bitwise(order):
    """band_rhs forms bar f - c on the forcing's box and 0.0 - c on the
    rest of the band; with the same forcing embedded in the band, the box
    is the whole band and the rest holds (0 / A) - c: three steps agree
    bit for bit, a -0.0 mean mode of the forcing included, and so does
    the right-hand side of the zero state, whose c is a signed zero
    everywhere, so that -c would not do for 0.0 - c."""
    cfg = config16(grid=ODD_BOX, deconv_order=order, t_end=0.03,
                   filter=FilterSpec(alpha=0.5, theta=0.75),
                   init=RandomBandLimited(seed=12, band=3),
                   forcing=RandomBandLimited(seed=13, band=2, energy=2.0))
    band = cfg.grid.band
    on_box, on_band = StepOperators(cfg), StepOperators(cfg)
    f = on_box.forcing_raw
    assert f.band.cutoffs == (2, 2, 2) != band.cutoffs
    coeffs = f.coeffs.copy()
    coeffs[:, 0, 0, 0] = complex(-0.0, -0.0)
    on_box.forcing_raw = f.with_coeffs(coeffs)
    on_band.forcing_raw = VectorField(band, f.band.embed(coeffs, band))
    zero = np.zeros((3, *band.shape), dtype=complex)
    rhs = [ops.band_rhs(zero, np.empty_like(zero)) for ops in (on_box, on_band)]
    assert same_bits(*rhs)
    a = b = initial_state(cfg)
    for _ in range(3):
        a, b = step(a, on_box), step(b, on_band)
        assert same_bits(a.w.coeffs, b.w.coeffs)


@pytest.mark.parametrize("order", [0, 2])
def test_a_forcing_swapped_across_boxes_steps_as_one_built_in(order):
    """band_rhs reads the index lists and A columns of forcing_raw's box
    on each call, so a stepper built with a Taylor-Green forcing on the
    band, its forcing swapped at every step between a random draw on its
    (2, 2, 2) box and the same draw embedded in the band, steps bit for
    bit as one built with that random forcing."""
    cfg = config16(grid=ODD_BOX, deconv_order=order,
                   filter=FilterSpec(alpha=0.5, theta=0.75),
                   init=RandomBandLimited(seed=12, band=3),
                   forcing=RandomBandLimited(seed=13, band=2, energy=2.0))
    band = cfg.grid.band
    built, swapped = StepOperators(cfg), StepOperators(replace(cfg, forcing=TaylorGreen()))
    f = built.forcing_raw
    assert swapped.forcing_raw.band is band is not f.band
    forcings = [f, VectorField(band, f.band.embed(f.coeffs, band))] * 2
    a = b = initial_state(cfg)
    for forcing in forcings:
        swapped.forcing_raw = forcing
        a, b = step(a, built), step(b, swapped)
        assert same_bits(a.w.coeffs, b.w.coeffs)


def test_an_unforced_stepper_steps_as_one_with_a_band_of_zeros():
    """A zero forcing is its mean mode, 48 bytes on any grid.  band_rhs
    forms (0 / A) - c there and 0.0 - c on the rest of the band, the
    bits of a band of zeros: the right-hand side of the zero state and
    three steps agree bit for bit with a stepper whose forcing_raw is a
    band of zeros, and the forcing power stays +0.0."""
    cfg = config16(grid=ODD_BOX, t_end=0.03, init=RandomBandLimited(seed=12, band=3))
    band = cfg.grid.band
    unforced, zeros = StepOperators(cfg), StepOperators(cfg)
    assert unforced.forcing_raw.band is cfg.grid.box((0, 0, 0))
    assert StepOperators(config16(grid=Grid(64, 64, 64))).forcing_raw.coeffs.nbytes == 48
    zeros.forcing_raw = VectorField(band, np.zeros((3, *band.shape), dtype=complex))
    zero = np.zeros((3, *band.shape), dtype=complex)
    rhs = [ops.band_rhs(zero, np.empty_like(zero)) for ops in (unforced, zeros)]
    assert same_bits(*rhs)
    a = b = initial_state(cfg)
    for _ in range(3):
        a, b = step(a, unforced), step(b, zeros)
        assert same_bits(a.w.coeffs, b.w.coeffs)
    power = energy_terms(a.w, unforced.forcing_raw, cfg.filter, cfg.deconv_order,
                         cfg.nu).forcing_power
    assert power == 0.0 and not np.signbit(power)


# Modes of one true |k|: |k|^2 = 2 on the 2 pi cube, with one |k3| or
# mixed, and |k|^2 = 5 on a box with L3 = pi, where k3 = 2 m3.
BELTRAMI_MODES = [(0, 1, 1), (0, -1, 1), (1, 0, 1), (-1, 0, 1)]
MIXED_K3_MODES = [(0, 1, 1), (1, 1, 0), (1, 0, 1)]
PI_BOX = Grid(12, 16, 24, L3=np.pi)
PI_BOX_MODES = [(1, 2, 0), (1, -2, 0), (1, 0, 1), (0, 1, 1), (0, 1, -1)]


def decay_error(grid, modes, helicities, theta, order, steps=100):
    """Largest coefficient error of a viscous run from a sum of helical
    modes of one |k|, relative to exp(-nu |k|^2 t) w(0), over `steps`."""
    k_squared = [sum((2.0 * np.pi * mj / length) ** 2
                     for mj, length in zip(m, grid.sizes)) for m in modes]
    assert np.ptp(k_squared) < 1e-12
    rng = np.random.default_rng(17)
    amplitudes = rng.standard_normal(len(modes)) + 1j * rng.standard_normal(len(modes))
    w0 = VectorField(grid.band, sum(beltrami_field(grid, [m], [a], h).coeffs
                                    for m, a, h in zip(modes, amplitudes, helicities)))
    cfg = config16(grid=grid, nu=0.05, dt=0.002, t_end=steps * 0.002,
                   filter=FilterSpec(alpha=0.3, theta=theta), deconv_order=order)
    error = 0.0
    start = SolverState(0.0, 0, w0)
    for state in trajectory(StepOperators(cfg), start):
        exact = np.exp(-cfg.nu * k_squared[0] * state.t) * w0.coeffs
        error = max(error, np.max(np.abs(state.w.coeffs - exact)) / np.max(np.abs(exact)))
    assert state.step_index == steps
    return error


@pytest.mark.parametrize("grid, modes, theta, order", [
    (Grid(16, 16, 16), BELTRAMI_MODES, 0.75, 2),
    (Grid(16, 16, 16), BELTRAMI_MODES, 1.0, 5),
    (Grid(24, 24, 24), BELTRAMI_MODES, 0.5, 1),
    (Grid(16, 16, 16), MIXED_K3_MODES, 0.75, 2),
    (PI_BOX, PI_BOX_MODES, 0.75, 2),
    (PI_BOX, PI_BOX_MODES, 0.5, 0),
], ids=["cube-N2", "cube-N5", "24-N1", "mixed-k3", "pi-box-N2", "pi-box-N0"])
def test_beltrami_state_decays_exactly(grid, modes, theta, order):
    """Positive-helicity modes of one |k| make z = D_N w Beltrami, so
    div(z x z) = grad |z|^2 / 2, whose bar the projection removes:
    w(t) = exp(-nu |k|^2 t) w(0) for every N, alpha and theta."""
    assert decay_error(grid, modes, [1] * len(modes), theta, order) <= 1e-13


def test_mixed_helicity_state_does_not_decay_exactly():
    """The control: one mode of negative helicity leaves a nonlinear
    term that the projection keeps."""
    helicities = [1, -1, 1, 1]
    assert decay_error(Grid(16, 16, 16), BELTRAMI_MODES, helicities, 0.75, 2) > 1e-2


def steady_state_error(grid, theta, order, dt, t_end=1.0):
    """max |w(T) - w*| / max |w*| of a run from a manufactured steady
    state w*: a non-Beltrami divergence-free draw, with z* = D_N w* and
    the raw forcing A F, whose bar is F, set on the stepper, with
    F = P bar div(z* x z*) + nu |k|^2 w*, div(z* x z*) from the full
    transforms of
    full_layout.divergence_of_square.  The integrating-factor Heun step
    keeps no fixed point exactly, so the error is its O(dt^2) offset;
    a wrong sign or factor of the nonlinear term leaves an O(1) one."""
    filt = FilterSpec(alpha=0.5, theta=theta)
    cfg = config16(grid=grid, nu=0.05, filter=filt, deconv_order=order, dt=dt,
                   t_end=t_end, init=RandomBandLimited(seed=3, band=3))
    ops = StepOperators(cfg)
    w = initial_state(cfg).w
    z = apply_deconv(w, DeconvSpec(filt, order))
    conv = leray_project(apply_bar(divergence_of_square(z), filt))
    band = w.band
    forcing = conv.coeffs + cfg.nu * (band.kd1**2 + band.kd2**2
                                      + band.kd3**2) * w.coeffs
    ops.forcing_raw = w.with_coeffs(
        forcing * filter_symbol(filt, grid.k3[..., band.cols]))
    for state in trajectory(ops, SolverState(0.0, 0, w)):
        pass
    return np.max(np.abs(state.w.coeffs - w.coeffs)) / np.max(np.abs(w.coeffs))


@pytest.mark.parametrize("grid, theta, order", [
    (Grid(16, 16, 16), 0.75, 2),
    (Grid(16, 16, 16), 1.0, 5),
    (PI_BOX, 0.75, 2),
], ids=["cube-N2", "cube-N5", "pi-box-N2"])
def test_manufactured_steady_state_holds_to_second_order(grid, theta, order):
    """The oracle of the nonlinear term's sign and scale, which energy
    identities cannot see: (div(z x z), z) = 0 for any factor."""
    coarse, fine = (steady_state_error(grid, theta, order, dt) for dt in (0.02, 0.01))
    assert coarse <= 1e-5
    assert 3.6 <= coarse / fine <= 4.4


def test_shared_operators_keep_trajectories_apart():
    """Alternate steps of two states through one StepOperators give each
    the states it gets alone: no workspace content leaks across calls."""
    cfg = config16(init=RandomBandLimited(seed=14, band=4),
                   forcing=TaylorGreen(), t_end=0.05)
    first = initial_state(cfg)
    second = SolverState(0.0, 0, first.w.with_coeffs(-0.5 * first.w.coeffs))

    def alone(state):
        return [s.w.coeffs for s in trajectory(StepOperators(cfg), state)]

    ops = StepOperators(cfg)
    shared = list(zip(trajectory(ops, first), trajectory(ops, second)))
    for (a, b), a_alone, b_alone in zip(shared, alone(first), alone(second),
                                        strict=True):
        assert np.array_equal(a.w.coeffs, a_alone)
        assert np.array_equal(b.w.coeffs, b_alone)


def watch_held_states(monkeypatch):
    """Wraps solver.step to count its calls and, at each, to note the
    live states of any one run (a chain of steps) when they are more
    than one.  It tracks each state a step takes or makes by weak
    references to the state and to its coefficients, live while either
    is, so a caller that keeps only the coefficients is seen too."""
    tracked, calls, faults = [], [], []  # tracked: (state, coeffs, run)
    real_step = solver.step

    def run_of(state):
        for ref, _, number in tracked:
            if ref() is state:
                return number
        number = len({n for *_, n in tracked})
        tracked.append((weakref.ref(state), weakref.ref(state.w.coeffs), number))
        return number

    def watched(state, ops):
        number = run_of(state)
        live = Counter(n for ref, coeffs, n in tracked
                       if ref() is not None or coeffs() is not None)
        calls.append(number)
        if max(live.values()) > 1:
            faults.append((number, state.step_index, dict(live)))
        new = real_step(state, ops)
        tracked.append((weakref.ref(new), weakref.ref(new.w.coeffs), number))
        return new

    monkeypatch.setattr(solver, "step", watched)
    return calls, faults


ONE_STATE_RUN = ("[grid]\nn1 = 16\nn2 = 16\nn3 = 16\n[filter]\nalpha = 0.5\n"
                 "theta = 1.0\n[solver]\nnu = 0.1\ndeconv_order = 1\ndt = 0.01\n"
                 "t_end = 0.1\noutput_every = 3\n[init]\nkind = random\nseed = 14\n"
                 "band = 4\n[forcing]\nkind = taylor-green\n")


@pytest.mark.parametrize("driver", ["run", "simulate", "dependence"])
def test_a_run_holds_one_state(tmp_path, monkeypatch, driver):
    """With the collector off, at every call of step no state of the
    stepped run is alive but the step's input: not the last one yielded,
    which run(), simulate's rows and checkpoint, and the dependence
    experiment's loop drop before they pull the next.  The dependence
    experiment steps two runs in turn, and the other holds its one state."""
    cfg = config16(init=RandomBandLimited(seed=14, band=4), forcing=TaylorGreen(),
                   output_every=3)
    calls, faults = watch_held_states(monkeypatch)
    gc.disable()
    try:
        if driver == "run":
            for state, _ in run(cfg):
                del state  # the caller's part: nothing held across a pull
        elif driver == "simulate":
            path = tmp_path / "run.ini"
            path.write_text(ONE_STATE_RUN)
            assert main(["simulate", "--config", str(path), "--output",
                         str(tmp_path / "out"), "--quiet"]) == 0
        else:
            dependence_experiment(cfg, 1e-3)
    finally:
        gc.enable()
    runs = 2 if driver == "dependence" else 1
    assert sorted(Counter(calls).values()) == [cfg.num_steps] * runs
    assert faults == []


def test_a_finished_run_frees_its_stepper():
    """With the collector off, a run() pulled to its end holds no
    StepOperators: a weak reference to it dies at the pull that raises
    StopIteration, every later pull raises it again, and the last state
    and max_cfl stay readable."""
    cfg = config16(init=RandomBandLimited(seed=14, band=4), forcing=TaylorGreen(),
                   output_every=3)
    gc.disable()
    try:
        stream = run(cfg)
        ops = weakref.ref(stream.ops)
        for state, _ in stream:
            assert ops() is not None
            last = state.w.coeffs
        assert ops() is None
        with pytest.raises(StopIteration):
            next(stream)
    finally:
        gc.enable()
    assert stream.state.step_index == cfg.num_steps
    assert stream.state.w.coeffs is last
    assert 0.0 < stream.max_cfl < CFL_LIMIT


def test_dependence_deltas_keep_the_bits_of_the_whole_difference():
    """delta_norms, formed one part of one component at a time, equal
    FieldNorms(q - b).l2() of the two runs' states bit for bit."""
    cfg = config16(t_end=0.05, filter=FilterSpec(alpha=0.5, theta=0.75),
                   init=RandomBandLimited(seed=14, band=4), forcing=TaylorGreen())
    eps = 1e-3
    report = dependence_experiment(cfg, eps, perturbation_seed=5)
    w0 = initial_state(cfg).w
    p = descriptor_field(RandomBandLimited(5, min(cfg.grid.band.cutoffs)), cfg.grid)
    start = SolverState(0.0, 0, w0.with_coeffs(w0.coeffs + p.coeffs * (eps / l2_norm(p))))
    ops = StepOperators(cfg)
    expect = [FieldNorms(q.w.with_coeffs(q.w.coeffs - b.w.coeffs)).l2()
              for b, q in zip(trajectory(ops, initial_state(cfg)), trajectory(ops, start))]
    assert len(expect) == cfg.num_steps + 1
    assert np.array_equal(report.delta_norms, expect)


def test_a_dependence_record_stays_within_a_step(monkeypatch):
    """The traced peak of each stretch between two steps of the
    dependence experiment, which holds a record or nothing, is at most
    the peak of a step, with the peak reset before and after each step:
    a record holds both states and three band-sized reals, not their
    whole difference.  At 16^3 and 32^3 a step's own temporaries (numpy's
    FFT buffer and the finiteness mask) outweigh half a state, so a
    whole difference would fit under a step there too; from 36^3 on it
    does not."""
    cfg = config16(grid=Grid(40, 40, 40), nu=0.05, filter=FilterSpec(alpha=0.5, theta=0.75),
                   deconv_order=2, dt=0.005, t_end=0.02,
                   init=RandomBandLimited(seed=1, band=4, energy=4.0),
                   forcing=RandomBandLimited(seed=2, band=3, energy=2.0))
    steps, between = [], []
    real_step = solver.step

    def watched(state, ops):
        between.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        new = real_step(state, ops)
        steps.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return new

    dependence_experiment(cfg, 1e-3)  # warms the per-grid caches
    monkeypatch.setattr(solver, "step", watched)
    tracemalloc.start()
    try:
        dependence_experiment(cfg, 1e-3)
        between.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert len(steps) == 2 * cfg.num_steps
    assert max(between[1:]) <= max(steps)  # between[0] is the setup


@pytest.mark.parametrize("start", [4, 6], ids=["between-records", "at-a-record"])
def test_a_trajectory_read_back_from_a_checkpoint_keeps_the_run_cadence(tmp_path, start):
    """trajectory counts its cadence from the state's own step_index: a
    10-step run that records every 3 steps, read back from a checkpoint of
    step 4 or step 6, records at the later steps the uninterrupted run
    records, 6, 9 and 10 from step 4, with their states and times bit for
    bit, and stops at step 10."""
    cfg = config16(t_end=0.1, output_every=3, init=RandomBandLimited(seed=14, band=4))
    every_step = list(trajectory(StepOperators(replace(cfg, output_every=1)),
                                 initial_state(cfg)))
    whole = list(trajectory(StepOperators(cfg), initial_state(cfg)))
    assert [s.step_index for s in whole] == [0, 3, 6, 9, 10]
    path = tmp_path / "state.ckpt"
    write_checkpoint(path, every_step[start], cfg)
    resumed = list(trajectory(StepOperators(cfg), read_checkpoint(path)[0]))
    later = [s for s in whole if s.step_index > start]
    assert [s.step_index for s in resumed] == [start] + [s.step_index for s in later]
    for got, want in zip(resumed[1:], later, strict=True):
        assert got.t == want.t
        assert same_bits(got.w.coeffs, want.w.coeffs)


def test_step_operators_keep_no_half_layout_array():
    """Every multiplier a step reads is a band line, and forcing_raw, the
    forcing the records read, is a field on its own box: a random
    forcing on its draw box, any other on the band.  No array of the
    half layout is kept."""
    cfg = config16(forcing=RandomBandLimited(seed=16, band=3))
    ops = StepOperators(cfg)
    half = spectral_shape(cfg.grid)
    held = [name for name, value in vars(ops).items()
            if np.shape(getattr(value, "coeffs", value))[-3:] == half]
    assert held == []
    assert ops.band_viscous.shape == cfg.grid.band.shape
    assert ops.forcing_raw.band is cfg.grid.box((3, 3, 3))
    tg = StepOperators(config16(forcing=TaylorGreen()))
    assert tg.forcing_raw.band is tg.config.grid.band


def test_run_moves_nothing_between_layouts_after_setup(monkeypatch):
    """Steps and records read each field on its own box or a smaller
    one: once run() has set up, no Band.embed is called."""
    calls = []

    def counted(method):
        def wrapper(*args, **kwargs):
            calls.append(method.__name__)
            return method(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Band, "embed", counted(Band.embed))
    stream = run(config16(init=RandomBandLimited(seed=15, band=4),
                          forcing=RandomBandLimited(seed=16, band=3), t_end=0.05))
    # setup embeds the initial draw in the band; the forcing keeps its box
    assert calls
    calls.clear()
    assert len(list(stream)) == 6
    assert calls == []


def test_grid_caches_no_multi_axis_array():
    """A Grid keeps and returns only lines: every 3-D multiplier is built
    on the box that reads it, so no 3-D table outlives a setup, a step,
    a projection or a norm, and no property builds one."""
    cfg = config16(forcing=TaylorGreen())
    g = cfg.grid
    ops = StepOperators(cfg)
    state = step(initial_state(cfg), ops)
    leray_project(state.w)
    FieldNorms(state.w).vertical_grad(0.5)
    properties = [name for name, attr in vars(Grid).items()
                  if isinstance(attr, (property, cached_property))
                  and not name.startswith("_")]
    tables = [name for name in dict.fromkeys([*vars(g), *properties])
              if isinstance(value := getattr(g, name), np.ndarray)
              and sum(size > 1 for size in value.shape) > 1]
    assert tables == []


def test_warm_step_allocates_little_beyond_the_new_state():
    cfg = config16()
    ops = StepOperators(cfg)
    state = step(initial_state(cfg), ops)  # warms the per-grid caches
    tracemalloc.start()
    try:
        step(state, ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    box = 3 * np.prod(cfg.grid.band.shape) * 16
    assert peak <= 3 * box  # a half-layout vector field alone would be 3.2 boxes


@pytest.mark.parametrize("desc", [TaylorGreen(), SingleMode(k=(1, 2, 3)),
                                  RandomBandLimited(seed=15, band=5),
                                  ZeroForcing()],
                         ids=["taylor-green", "single-mode", "random", "zero"])
def test_states_are_zero_outside_the_band(desc):
    """Initial data, forcing and stepped states carry nothing outside the
    2/3 band, the only part of them that a state and StepOperators keep."""
    init = TaylorGreen() if isinstance(desc, ZeroForcing) else desc
    cfg = config16(init=init, forcing=desc, t_end=0.05)
    g = cfg.grid
    outside = ~rule_mask(g)[..., : g.n3 // 2 + 1]
    ops = StepOperators(cfg)
    # a zero forcing is its mean mode, every other one fills the band
    box = g.box((0, 0, 0)) if isinstance(desc, ZeroForcing) else g.band
    assert forcing_field(desc, g).band is box
    assert np.all(half_layout(forcing_field(desc, g))[:, outside] == 0.0)
    assert np.all(half_layout(init_field(init, g, cfg.filter))[:, outside] == 0.0)
    state = initial_state(cfg)
    for _ in range(6):
        assert state.w.band is g.band
        assert np.all(half_layout(state.w)[:, outside] == 0.0)
        state = step(state, ops)


# ---------------------------------------------------------------------------
# Configuration validation


@pytest.mark.parametrize("make", [
    lambda: RandomBandLimited(seed=0, band=0),
    lambda: RandomBandLimited(seed=0, band=2, energy=0.0),
    lambda: RandomBandLimited(seed=0, band=2, energy=-1.0),
    lambda: RandomBandLimited(seed=0, band=2, energy=np.inf),
    lambda: SingleMode(k=(1, 2)),
    lambda: SingleMode(k=(0, 0, 0)),
    lambda: TaylorGreen(amplitude=np.nan),
    lambda: TaylorGreen(amplitude=np.inf),
    lambda: TaylorGreen(amplitude=-np.inf),
    lambda: SingleMode((1, 0, 0), amplitude=np.nan),
    lambda: SingleMode((1, 0, 0), amplitude=np.inf),
    lambda: SingleMode((1, 0, 0), amplitude=-np.inf),
], ids=["band-0", "energy-0", "energy-negative", "energy-inf", "k-two-ints",
        "k-zero", "tg-amplitude-nan", "tg-amplitude-inf", "tg-amplitude-minus-inf",
        "mode-amplitude-nan", "mode-amplitude-inf", "mode-amplitude-minus-inf"])
def test_descriptors_reject_bad_fields(make):
    with pytest.raises(ValueError):
        make()


def test_config_validation():
    with pytest.raises(ValueError):
        config16(nu=0.0)
    with pytest.raises(ValueError):
        config16(dt=-0.01)
    with pytest.raises(ValueError):
        config16(t_end=0.005)  # below dt
    with pytest.raises(ValueError):
        config16(t_end=0.055)  # not a multiple of dt
    with pytest.raises(ValueError):
        config16(output_every=0)
    with pytest.raises(ValueError):
        config16(nu=np.nan)
    with pytest.raises(ValueError, match="not a finite number of steps"):
        config16(dt=1e-320, t_end=1.0)


def test_config_lists_every_scalar_rule_without_reading_the_rest():
    with pytest.raises(ValueError) as excinfo:
        config16(grid=None, filter=None, init=None, forcing=None, nu=0.0,
                 deconv_order=-1, t_end=0.055, output_every=0)
    assert str(excinfo.value).splitlines() == [
        "nu: 0.0 must be positive and finite",
        "deconv_order: -1 must be >= 0",
        "t_end: 0.055 must be an integer multiple of dt=0.01",
        "output_every: 0 must be >= 1",
    ]


# ---------------------------------------------------------------------------
# Continuous dependence


def test_dependence_zero_epsilon():
    cfg = config16(t_end=0.03)
    report = dependence_experiment(cfg, 0.0)
    assert np.max(report.delta_norms) == 0.0
    assert report.fitted_c == 0.0


def test_dependence_rejects_small_theta():
    cfg = config16(filter=FilterSpec(alpha=0.5, theta=0.4))
    with pytest.raises(ValueError):
        dependence_experiment(cfg, 1e-6)


def test_dependence_linearity_and_envelope():
    cfg = config16(dt=0.01, t_end=0.2)
    eps = 1e-6
    r1 = dependence_experiment(cfg, eps)
    r2 = dependence_experiment(cfg, 2 * eps)
    assert r1.delta_norms[0] == pytest.approx(eps, rel=1e-12)
    ratio = r2.delta_norms[1:] / r1.delta_norms[1:]
    assert np.max(np.abs(ratio - 2.0)) < 0.2
    assert np.isfinite(r1.fitted_c)
    # envelope validity: delta stays under the fitted envelope
    env = r1.envelope()
    assert np.all(r1.delta_norms <= env * (1 + 1e-10))


def test_dependence_report_is_what_its_docstring_says():
    """integrals is the cumulative trapezoid of integrands over times, and
    integrands[i] is gronwall_integrand of the perturbed state at
    times[i], from a trajectory of its own from w0 + epsilon p, with p
    the seeded draw at unit L2 norm."""
    cfg = config16(dt=0.01, t_end=0.1, filter=FilterSpec(alpha=0.5, theta=0.75))
    eps = 1e-3
    report = dependence_experiment(cfg, eps, perturbation_seed=5)
    times, integrands = report.times, report.integrands
    steps = 0.5 * np.diff(times) * (integrands[1:] + integrands[:-1])
    np.testing.assert_allclose(report.integrals, np.concatenate([[0.0], np.cumsum(steps)]),
                               rtol=1e-13, atol=0.0)
    w0 = initial_state(cfg).w
    p = descriptor_field(RandomBandLimited(5, min(cfg.grid.band.cutoffs)), cfg.grid)
    start = SolverState(0.0, 0, w0.with_coeffs(w0.coeffs + p.coeffs * (eps / l2_norm(p))))
    states = list(trajectory(StepOperators(cfg), start))
    np.testing.assert_array_equal(times, [s.t for s in states])
    np.testing.assert_allclose(
        integrands, [gronwall_integrand(FieldNorms(s.w), 0.75) for s in states],
        rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# Checkpoints


def final_state(cfg):
    for state, _ in run(cfg):
        pass
    return state


def test_checkpoint_round_trip(tmp_path):
    cfg = config16(t_end=0.02)
    last = final_state(cfg)
    path = tmp_path / "state.ckpt"
    write_checkpoint(path, last, cfg, config_hash="abc123")
    state, header = read_checkpoint(path)
    assert state.w.grid == last.w.grid
    assert np.array_equal(state.w.coeffs, last.w.coeffs)
    assert state.t == last.t
    assert state.step_index == last.step_index
    assert header["config_hash"] == "abc123"
    assert header["grid"] == [16, 16, 16]
    assert header["format"] == "ADMCKPT3"
    assert path.read_bytes().startswith(b"ADMCKPT3\n")


def test_checkpoint_rejects_a_state_off_the_config_grid(tmp_path):
    cfg = config16()
    other = config16(grid=Grid(16, 16, 16, L3=np.pi))
    with pytest.raises(ValueError, match="not on the 2/3 band"):
        write_checkpoint(tmp_path / "state.ckpt", initial_state(other), cfg)
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_bytes_deterministic(tmp_path):
    cfg = config16(t_end=0.02)
    last = final_state(cfg)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    write_checkpoint(p1, last, cfg)
    write_checkpoint(p2, last, cfg)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_write_failure_keeps_previous_file(tmp_path, monkeypatch):
    cfg = config16()
    state = initial_state(cfg)
    path = tmp_path / "state.ckpt"
    write_checkpoint(path, state, cfg, config_hash="old")
    before = path.read_bytes()

    def fail(fh, array, **kwargs):
        fh.write(b"partial")
        raise OSError("disk full")

    monkeypatch.setattr(np.lib.format, "write_array", fail)
    with pytest.raises(OSError, match="disk full"):
        write_checkpoint(path, state, cfg, config_hash="new")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["state.ckpt"]


def forged_checkpoint(header, coeffs, magic=b"ADMCKPT3\n"):
    blob = json.dumps(header).encode()
    payload = io.BytesIO()
    np.lib.format.write_array(payload, coeffs)
    return magic + struct.pack("<Q", len(blob)) + blob + payload.getvalue()


def test_checkpoint_rejects_foreign_file(tmp_path):
    header = {"grid": [4, 4, 4], "lengths": [1.0, 1.0, 1.0], "t": 0.0,
              "step_index": 0}
    coeffs = np.zeros((3, 3, 3, 2), dtype=complex)  # the band |k| <= 1 of n = 4
    good = forged_checkpoint(header, coeffs)
    no_grid = {k: v for k, v in header.items() if k != "grid"}
    with_nan = coeffs.copy()
    with_nan[1, 2, 0, 1] = np.nan
    cases = {
        "junk": b"not a checkpoint",
        "cut_to_12_bytes": good[:12],
        "cut_in_header": good[:30],
        "cut_in_payload": good[:-8],
        "header_without_grid": forged_checkpoint(no_grid, coeffs),
        "grid_not_a_list": forged_checkpoint({**header, "grid": 4}, coeffs),
        "time_not_a_number": forged_checkpoint({**header, "t": "soon"}, coeffs),
        "header_not_an_object": forged_checkpoint([1, 2], coeffs),
        "shape_mismatch": forged_checkpoint(header, coeffs[:, :, :, :1]),
        "scalar_field": forged_checkpoint(header, coeffs[0]),
        "complex64_payload": forged_checkpoint(
            header, coeffs.astype(np.complex64)),
        "float64_payload": forged_checkpoint(header, coeffs.real),
        "half_layout_in_v3": forged_checkpoint(
            header, np.zeros((3, 4, 4, 3), dtype=complex)),
        "grid_entry_a_float": forged_checkpoint({**header, "grid": [4.0, 4, 4]}, coeffs),
        "grid_entry_a_boolean": forged_checkpoint({**header, "grid": [4, True, 4]}, coeffs),
        "length_a_string": forged_checkpoint({**header, "lengths": [1.0, "1", 1.0]}, coeffs),
        "step_index_a_fraction": forged_checkpoint({**header, "step_index": 2.7}, coeffs),
        "step_index_a_string": forged_checkpoint({**header, "step_index": "3"}, coeffs),
        "step_index_negative": forged_checkpoint({**header, "step_index": -4}, coeffs),
        "time_a_numeric_string": forged_checkpoint({**header, "t": "0.5"}, coeffs),
        "time_a_boolean": forged_checkpoint({**header, "t": True}, coeffs),
        "time_nan": forged_checkpoint({**header, "t": float("nan")}, coeffs),
        "time_infinite": forged_checkpoint({**header, "t": float("inf")}, coeffs),
        "junk_after_payload": good + bytes(700),
        "nan_in_payload": forged_checkpoint(header, with_nan),
    }
    for name, content in cases.items():
        path = tmp_path / f"{name}.bin"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_checkpoint(path)
    path = tmp_path / "half_layout_in_v3.bin"
    with pytest.raises(ValueError, match=re.escape(str(path)) + r".*\(3, 3, 3, 2\)"):
        read_checkpoint(path)
    # the full-layout ADMCKPT1 and half-layout ADMCKPT2 formats are no
    # longer read
    for version, half in ((1, np.zeros((3, 4, 4, 4), complex)),
                          (2, np.zeros((3, 4, 4, 3), complex))):
        path = tmp_path / f"v{version}_magic.bin"
        path.write_bytes(forged_checkpoint(header, half, f"ADMCKPT{version}\n".encode()))
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*bad magic"):
            read_checkpoint(path)
    path = tmp_path / "good.bin"
    path.write_bytes(good)
    state, _ = read_checkpoint(path)
    assert state.w.grid == Grid(4, 4, 4, 1.0, 1.0, 1.0)
    assert state.w.coeffs.shape == (3, 3, 3, 2)
