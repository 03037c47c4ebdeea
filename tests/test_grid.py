"""Grid construction, wavenumber layout, dealiasing box."""

import gc
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from full_layout import (
    gather,
    half_layout,
    half_layout_inv_kd_squared,
    rule_mask,
    scatter,
    spectral_shape,
)

from admles.ensembles import EnsembleSpec, draw_vector
from admles.filters import FilterSpec
from admles.grid import Band, Grid, dealias_cutoff
from admles.solver import SolverConfig, StepOperators, initial_state, step
from admles.spectral import VectorField, field_from_samples, fine_samples, leray_project


def test_validation_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        Grid(7, 8, 8)
    with pytest.raises(ValueError):
        Grid(2, 8, 8)
    with pytest.raises(ValueError):
        Grid(8, 8, 8, L1=0.0)
    with pytest.raises(ValueError):
        Grid(8, 8, 8, L3=-1.0)
    with pytest.raises(ValueError):
        Grid(16, 16, 16, 1.0, 1.0, np.nan)


def test_validation_lists_every_broken_rule():
    with pytest.raises(ValueError) as excinfo:
        Grid(3, 8, 8, L2=np.inf)
    assert str(excinfo.value).splitlines() == [
        "n1: 3 must be even", "n1: 3 must be >= 4",
        "L2: inf must be positive and finite"]


def test_wavenumbers_fft_order():
    g = Grid(8, 8, 8)
    assert np.array_equal(g.k_axis(0), [0, 1, 2, 3, -4, -3, -2, -1])
    assert np.array_equal(g.k_axis(2), [0, 1, 2, 3, -4, -3, -2, -1])


def test_box_scaling_of_wavenumbers():
    g = Grid(8, 8, 8, L1=np.pi)
    # halving the box doubles the wavenumber spacing
    assert np.allclose(g.k_axis(0), 2 * np.array([0, 1, 2, 3, -4, -3, -2, -1]))


def test_dealias_mask_eight_cubed():
    g = Grid(8, 8, 8)
    # (8 - 1) // 3 = 2: indices {-2..2} survive on each axis
    kept = np.abs(np.fft.fftfreq(g.n1, 1 / g.n1)) <= 2
    assert int(np.sum(kept)) == 5
    # the half layout stores k3 = 0..4, of which 0..2 survive
    assert g.band.shape == (5, 5, 3)
    mask = scatter(g.band, np.ones(g.band.shape, dtype=bool))
    assert int(np.sum(mask)) == 5 * 5 * 3
    assert dealias_cutoff(g.n1) == 2


def test_half_layout_lines():
    g = Grid(8, 6, 8, L3=np.pi)
    assert spectral_shape(g) == (8, 6, 5)
    # k3 = 0..n3/2 with the Nyquist stored positive; L3 = pi doubles k3
    assert np.array_equal(g.k3.ravel(), 2 * np.arange(5))
    # every stored column but k3 = 0 and n3/2 also stands for its mirror
    assert np.array_equal(g.parseval_weight.ravel(), [1, 2, 2, 2, 1])
    assert np.sum(g.parseval_weight) * g.n1 * g.n2 == np.prod(g.shape)


def test_volume_and_mesh():
    g = Grid(8, 16, 4, L1=1.0, L2=2.0, L3=3.0)
    assert g.volume == 6.0
    x1, x2, x3 = g.mesh()
    assert x1.shape == (8, 1, 1)
    assert x3.shape == (1, 1, 4)
    assert x2[0, -1, 0] == pytest.approx(2.0 * 15 / 16)


def test_max_dealiased_wavenumber():
    # the cutoff is the largest |k| < n/3: 3 of 12, not 12/3 = 4
    g = Grid(12, 12, 12)
    assert g.max_dealiased_wavenumber == 3.0
    h = Grid(12, 12, 12, L3=np.pi)
    # shorter axis carries larger physical wavenumbers
    assert h.max_dealiased_wavenumber == 6.0


@pytest.mark.parametrize("g", [Grid(8, 8, 8), Grid(12, 16, 10, L2=3.0, L3=5.0),
                               Grid(32, 32, 32), Grid(12, 16, 24, L3=np.pi)])
def test_band_is_the_dealias_box(g):
    band = g.band
    k1, k2, k3 = band.cutoffs
    assert band.shape == (2 * k1 + 1, 2 * k2 + 1, k3 + 1)
    # the box holds every mode with |k_j| <= (n_j - 1) // 3 and nothing else
    mask = rule_mask(g)[..., : g.n3 // 2 + 1]
    assert np.array_equal(scatter(band, np.ones(band.shape, dtype=bool)), mask)
    boxes = [band] + ([Band(g, (5, 5, 5))] if min(g.shape) >= 11 else [])
    true = (g.k_axis(0).reshape(-1, 1, 1), g.k_axis(1).reshape(1, -1, 1), g.k3)
    for box in boxes:
        # no box holds a Nyquist mode; its lines are the true wavenumbers
        # at its modes
        for line, k, n, length in zip((box.kd1, box.kd2, box.kd3), true,
                                      g.shape, g.sizes):
            assert np.max(np.abs(line)) < n // 2 * 2.0 * np.pi / length
            assert np.array_equal(
                np.broadcast_to(line, box.shape),
                gather(box, np.broadcast_to(k, spectral_shape(g))))
        # built from its own lines, a box's inverse is the half layout's,
        # bit for bit
        assert np.array_equal(box.inv_kd_squared,
                              gather(box, half_layout_inv_kd_squared(g)))


def test_one_box_and_one_workspace_per_key():
    g = Grid(32, 32, 32)
    box = g.box((5, 5, 5))
    assert g.box((5, 5, 5)) is box
    assert g.box((4, 5, 5)) is not box
    assert g.box(g.band.cutoffs) is g.band
    # another grid of the same shape has its own boxes
    assert Grid(32, 32, 32).box((5, 5, 5)) is not box
    work = box.workspace((22, 22, 42), 3)
    assert box.workspace((22, 22, 42), 3) is work
    assert work.half.shape == (3, 22, 22, 22)
    assert work.columns.shape == (3, 22, 11, 6)
    assert box.workspace((22, 22, 42), 1) is not work
    assert box.workspace((12, 12, 22), 3) is not work
    # sampling leaves no scratch of the products in the workspace
    fine_samples(VectorField(box, np.ones((3, *box.shape), complex)), (22, 22, 42))
    assert not {"product", "mode", "term"} & vars(work).keys()


def test_a_dropped_grid_is_freed_by_reference_counting():
    """Nothing a Grid caches holds one of its boxes, a box's workspaces
    do not hold the box, and no module cache holds a Grid (the symbol
    tables are keyed by the k3 line's n3 and L3), so a grid, its boxes
    and their sampling scratch go as soon as the last field of them
    does, with the cyclic collector off, also after the grid stepped."""
    spec = EnsembleSpec(count=1, band_limit=3, seed=0)

    def stepped_grid():
        """A weak reference to a grid that built a StepOperators and
        stepped, and one to its band."""
        cfg = SolverConfig(grid=Grid(16, 16, 16), nu=0.1, filter=FilterSpec(0.5, 1.0),
                           deconv_order=1, dt=0.01, t_end=0.01)
        ops = StepOperators(cfg)
        step(initial_state(cfg), ops)
        return weakref.ref(cfg.grid), weakref.ref(ops.band)

    def sample_one_draw():
        """The bytes of the sampling workspace the draw's box keeps."""
        u = draw_vector(spec.rng(), spec, Grid(16, 16, 16))
        fine_samples(u, (16, 16, 16))
        work = u.band.workspace((16, 16, 16), 3)
        return work.half.nbytes + work.columns.nbytes

    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        assert [ref() for ref in stepped_grid()] == [None, None]
        scratch = sample_one_draw()  # warms the caches that outlive a grid
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(100):
            sample_one_draw()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    # flat: the interpreter's free lists may grow a little, far below the
    # scratch of the 100 grids (13 MiB) or even of ten of them
    assert grown < 10 * scratch


def test_a_finished_thread_frees_its_workspaces():
    """A box keeps each thread's workspaces in a threading.local, so the
    ones a pool's two threads took are freed, with the cyclic collector
    off, once the pool has shut down; the calling thread keeps its own."""
    box = Grid(16, 16, 16).band
    mine = box.workspace(box.grid.shape)
    both = threading.Barrier(2)

    def take(_):
        both.wait(timeout=30)  # one call on each of the pool's threads
        work = box.workspace(box.grid.shape)
        assert work is box.workspace(box.grid.shape) is not mine
        return weakref.ref(work)

    enabled = gc.isenabled()
    gc.disable()
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            refs = list(pool.map(take, range(2)))
            assert refs[0]() is not refs[1]()
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()
    assert box.workspace(box.grid.shape) is mine


def test_inverse_derivative_wavenumbers_read_only():
    band = Grid(8, 6, 8, L3=np.pi).band
    inv = band.inv_kd_squared
    assert not inv.flags.writeable
    ksq = (band.kd1**2 + band.kd2**2 + band.kd3**2) * np.ones(band.shape)
    assert np.array_equal(inv[ksq > 0], 1.0 / ksq[ksq > 0])
    # the box holds no Nyquist entry: only the mean mode has kd = 0
    assert np.count_nonzero(ksq == 0) == 1
    assert np.all(inv[ksq == 0] == 0.0)


def test_leray_zeroes_nyquist_modes_outside_the_band():
    # on 8^3 the band keeps |k_j| <= 2, so no Nyquist mode reaches it: the
    # field of Nyquist samples is zero, and so is its projection, +0.0
    # outside the band in the half layout a checkpoint stores
    g = Grid(8, 8, 8)
    x1, x2, x3 = g.mesh()
    for samples in (np.cos(4 * x1) * np.cos(x2) * np.cos(x3),
                    np.cos(4 * x1) * np.cos(4 * x2) * np.cos(4 * x3)):
        u = field_from_samples(g, np.stack([samples, 2 * samples, 3 * samples]))
        got = half_layout(leray_project(u))
        assert np.array_equal(got, np.zeros_like(got))
        outside = got[:, ~rule_mask(g)[..., : g.n3 // 2 + 1]]
        assert not np.signbit(outside.real).any() and not np.signbit(outside.imag).any()
