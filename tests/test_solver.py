"""Solver: initialization, stepping, conservation, aborts, checkpoints."""

import io
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

from admles.filters import DeconvSpec, FilterSpec, apply_filter, filter_symbol
from admles.grid import Grid
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
    init_field,
    initial_state,
    read_checkpoint,
    run,
    step,
    write_checkpoint,
)
from admles.spectral import (
    VectorField,
    dealias,
    divergence_residual,
    hermitian_residual,
    inner_product,
    l2_norm,
    leray_project,
    tensor_divergence,
    vector_from_samples,
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
    kmax = g.dealias_cutoff(2)
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
    """P bar div(D w x D w): minus the right-hand side without forcing."""
    return -StepOperators(config16(grid=w.grid, deconv_order=order)).rhs(w)


def bar_line(cfg):
    return 1.0 / filter_symbol(cfg.filter, cfg.grid.k_axis(2)).reshape(1, 1, -1)


def test_nonlinear_term_zero_field():
    g = Grid(16, 16, 16)
    w = VectorField(g, np.zeros((3, *g.shape), dtype=complex))
    out = convection(w, 2)
    assert np.max(np.abs(out)) == 0.0


def test_nonlinear_term_divergence_free():
    g = Grid(16, 16, 16)
    w = init_field(RandomBandLimited(seed=5, band=5), g, FILT)
    out = VectorField(g, convection(w, 3))
    assert divergence_residual(out) < 1e-12 * np.max(np.abs(out.coeffs))


def test_nonlinear_term_order_zero_reduction():
    g = Grid(16, 16, 16)
    w = init_field(RandomBandLimited(seed=6, band=5), g, FILT)
    out = convection(w, 0)
    bar = bar_line(config16())
    ref = leray_project(VectorField(g, tensor_divergence(w).coeffs * bar))
    assert np.array_equal(out, ref.coeffs)


def test_nonlinear_orthogonality_pre_projection():
    from admles.filters import apply_deconv

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
        state = step(state, cfg, ops)
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
    bad = np.full((3, *cfg.grid.shape), np.nan, dtype=complex)
    state = SolverState(t=0.0, step_index=0, w=VectorField(cfg.grid, bad))
    with pytest.raises(NaNError):
        step(state, cfg)


def test_cfl_speed_is_max_of_deconvolved_samples():
    """The speed step checks is max |D w| of a full complex inverse."""
    kw = dict(init=RandomBandLimited(seed=8, band=5), deconv_order=3,
              filter=FilterSpec(alpha=1.0, theta=1.0))
    cfg = config16(**kw)
    g = cfg.grid
    w = initial_state(cfg).w
    z = np.fft.ifftn(w.coeffs * StepOperators(cfg).symbols.deconv,
                     axes=(-3, -2, -1)).real * g.num_points
    speed = np.max(np.sqrt(np.sum(z**2, axis=0)))
    # the dt at which that speed puts the CFL number exactly on the limit
    dt_edge = CFL_LIMIT / (speed * g.max_dealiased_wavenumber)
    for factor in (1.0 + 1e-14, 1.0 - 1e-14):
        cfg = config16(**kw, dt=dt_edge * factor, t_end=dt_edge * factor)
        if factor > 1.0:
            with pytest.raises(CFLError):
                step(initial_state(cfg), cfg)
        else:
            step(initial_state(cfg), cfg)


def test_steps_keep_coefficients_hermitian():
    cfg = config16(init=RandomBandLimited(seed=9, band=5),
                   forcing=TaylorGreen(), t_end=0.06)
    ops = StepOperators(cfg)
    state = initial_state(cfg)
    for _ in range(6):
        state = step(state, cfg, ops)
    c = state.w.coeffs
    assert hermitian_residual(c) < 1e-15 * np.max(np.abs(c))


def test_zeroth_order_reduction_bitwise():
    """An independently coded deconvolution-free step must agree bitwise."""
    cfg = config16(deconv_order=0, t_end=0.03)
    grid = cfg.grid
    ops = StepOperators(cfg)
    bar = bar_line(cfg)

    def plain_rhs(w):
        t = tensor_divergence(w)  # no deconvolution multiply
        conv = leray_project(VectorField(grid, t.coeffs * bar))
        return ops.forcing_smoothed.coeffs - conv.coeffs

    def plain_step(state):
        e = ops.viscous_factor
        k1 = plain_rhs(state.w)
        pred = VectorField(grid, e * (state.w.coeffs + cfg.dt * k1))
        k2 = plain_rhs(pred)
        new = e * state.w.coeffs + 0.5 * cfg.dt * (e * k1 + k2)
        return SolverState(state.t + cfg.dt, state.step_index + 1,
                           VectorField(grid, new))

    a = initial_state(cfg)
    b = a
    for _ in range(3):
        a = step(a, cfg, ops)
        b = plain_step(b)
        assert np.array_equal(a.w.coeffs, b.w.coeffs)


def test_vertical_mean_sector_unfiltered():
    """x3-independent flow evolves exactly as unfiltered Navier-Stokes."""
    g = Grid(16, 16, 16)
    x1, x2, _ = g.mesh()
    zeros = np.zeros(g.shape)
    samples = np.stack(
        [np.sin(x1) * np.cos(x2) + zeros, -np.cos(x1) * np.sin(x2) + zeros, zeros]
    )
    w0 = leray_project(dealias(vector_from_samples(g, samples)))
    cfg = config16(
        filter=FilterSpec(alpha=2.0, theta=1.0), deconv_order=5, t_end=0.03
    )
    ops = StepOperators(cfg)

    def ns_rhs(w):
        return -leray_project(tensor_divergence(w)).coeffs

    def ns_step(state):
        e = ops.viscous_factor
        k1 = ns_rhs(state.w)
        pred = VectorField(g, e * (state.w.coeffs + cfg.dt * k1))
        k2 = ns_rhs(pred)
        new = e * state.w.coeffs + 0.5 * cfg.dt * (e * k1 + k2)
        return SolverState(state.t + cfg.dt, state.step_index + 1,
                           VectorField(g, new))

    a = SolverState(0.0, 0, w0)
    b = a
    for _ in range(3):
        a = step(a, cfg, ops)
        b = ns_step(b)
        assert np.array_equal(a.w.coeffs, b.w.coeffs)


# ---------------------------------------------------------------------------
# Configuration validation


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
    assert np.array_equal(state.w.coeffs, last.w.coeffs)
    assert state.t == last.t
    assert state.step_index == last.step_index
    assert header["config_hash"] == "abc123"
    assert header["grid"] == [16, 16, 16]


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


def forged_checkpoint(header, coeffs):
    blob = json.dumps(header).encode()
    payload = io.BytesIO()
    np.lib.format.write_array(payload, coeffs)
    return (b"ADMCKPT1\n" + struct.pack("<Q", len(blob)) + blob
            + payload.getvalue())


def test_checkpoint_rejects_foreign_file(tmp_path):
    header = {"grid": [4, 4, 4], "lengths": [1.0, 1.0, 1.0], "t": 0.0,
              "step_index": 0}
    coeffs = np.zeros((3, 4, 4, 4), dtype=complex)
    good = forged_checkpoint(header, coeffs)
    no_grid = {k: v for k, v in header.items() if k != "grid"}
    cases = {
        "junk": b"not a checkpoint",
        "cut_to_12_bytes": good[:12],
        "cut_in_header": good[:30],
        "cut_in_payload": good[:-8],
        "header_without_grid": forged_checkpoint(no_grid, coeffs),
        "grid_not_a_list": forged_checkpoint({**header, "grid": 4}, coeffs),
        "time_not_a_number": forged_checkpoint({**header, "t": "soon"}, coeffs),
        "header_not_an_object": forged_checkpoint([1, 2], coeffs),
        "shape_mismatch": forged_checkpoint(header, coeffs[:, :, :, :2]),
        "scalar_field": forged_checkpoint(header, coeffs[0]),
        "complex64_payload": forged_checkpoint(
            header, coeffs.astype(np.complex64)),
        "float64_payload": forged_checkpoint(header, coeffs.real),
    }
    for name, content in cases.items():
        path = tmp_path / f"{name}.bin"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_checkpoint(path)
    path = tmp_path / "good.bin"
    path.write_bytes(good)
    state, _ = read_checkpoint(path)
    assert state.w.grid == Grid(4, 4, 4, 1.0, 1.0, 1.0)
