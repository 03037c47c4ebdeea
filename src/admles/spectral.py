"""Spectral fields on the periodic box and the basic Fourier calculus.

Coefficients are stored in the amplitude normalization

    f(x) = sum_k  c_k  exp(i k . x),        c_k = FFT(samples) / N,

so cos(x3) has coefficients +1/2 at k3 = +1 and -1/2 at k3 = -1 and the
k = 0 coefficient is the spatial mean.

Fields are real, so their coefficients are Hermitian, c_{-k} = conj(c_k),
and a field stores only those of k3 >= 0 on a box (a grid.Band) inside
its grid's 2/3 band: coeffs has shape (..., *band.shape), and every
mode outside the box is zero.  The solver's state and every sampled
field sit on the grid's 2/3 band, a draw and a random forcing on the
draw's (b, b, b) box.  A stored column 0 < k3 < n3/2 also stands for
its mirror -k3, so Plancherel reads

    (f, g)_{L^2} = vol * sum_k  w(k3) Re(c_k conj(d_k)),

with vol the box volume and w the grid's Parseval weight line (1 at
k3 = 0 and n3/2, 2 in between).  All norms and inner products below are
these continuum L^2 quantities of the band-limited interpolant.

Real samples enter at one boundary, field_from_samples, which keeps
their 2/3 band.  Every field is sampled through band_inverse, and
products come back through band_forward: irfftn and rfftn pruned to a
box of coefficients on any grid shape that holds it, the same 1-D
passes in the same order over only the lines the box feeds or needs,
so the retained values are the full transforms' bit for bit.  The
half layout (..., n1, n2, n3/2 + 1) is their scratch only, held one
slab of planes along axis 0 at a time by a grid.BandWorkspace of the
box, the samples' shape and a component count: every pass but the
inverse's first and the forward's last works plane by plane, so the
transforms stream the samples through slabs, and band_inverse runs each
pass once per group of that many components.  Neither changes a bit,
as numpy transforms every line on its own.  The stepper,
field_from_samples and tensor_divergence run them on the 2/3 band of the
grid, one component at a time, on the band's workspace, and form each
product of samples one slab at a time inside band_forward.
fine_samples, the one 3-D trigonometric upsampler, runs band_inverse
from a field's box onto any shape, and convective_inner from each of
three fields' boxes, every component of a field in one group, on the
box's shared workspace (Band.workspace, one per thread), so the draws of
an ensemble, which share one box, build their scratch once.  Physical-space
integrals of products of band-limited fields are taken by the
rectangle rule on quadrature_points per axis, the fewest even count
above the product's band, which integrates it exactly.  band_divergence
is the one kernel for div(u x u) on the band, project_coeffs the one
Leray formula, on a box, and pad_spectrum the 1-D upsampler of lines.

The package imports nothing but numpy, so the transforms are numpy.fft,
imported here with the module: numpy loads it lazily, and a first use
inside a run would put its import into that run's time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.fft

from .grid import Band, BandWorkspace, Grid, dealias_cutoff

# The products u_i u_j that band_divergence transforms: the six with
# i <= j, since u_j u_i is the same field.
_SYMMETRIC_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def _as_complex(arr: np.ndarray) -> np.ndarray:
    """Read-only complex128 coefficients.  A complex128 array that owns
    its data is frozen in place, not copied; a view is copied unless its
    base is a read-only array; any other dtype is converted."""
    out = np.asarray(arr, dtype=np.complex128)
    base = out.base
    if out is arr and base is not None and (
            not isinstance(base, np.ndarray) or base.flags.writeable):
        out = arr.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class _BoxField:
    """Read-only amplitude coefficients (*components, *band.shape) on the
    box `band`, which must lie inside its grid's 2/3 band."""

    band: Band
    coeffs: np.ndarray
    components = ()

    def __post_init__(self):
        shape = (*self.components, *self.band.shape)
        if self.coeffs.shape != shape:
            raise ValueError(f"coefficient shape {self.coeffs.shape} does not "
                             f"match the box shape {shape}")
        retained = tuple(map(dealias_cutoff, self.grid.shape))
        if any(k > m for k, m in zip(self.band.cutoffs, retained)):
            raise ValueError(f"band: cutoffs {self.band.cutoffs} lie outside "
                             f"the retained band (cutoffs {retained})")
        object.__setattr__(self, "coeffs", _as_complex(self.coeffs))

    @property
    def grid(self) -> Grid:
        return self.band.grid

    def with_coeffs(self, coeffs: np.ndarray):
        return type(self)(self.band, coeffs)


class SpectralField(_BoxField):
    """Scalar field: coefficients of shape band.shape."""


class VectorField(_BoxField):
    """Three-component field (3, *band.shape); components share one box."""

    components = (3,)

    def component(self, i: int) -> SpectralField:
        return SpectralField(self.band, self.coeffs[i])


Field = SpectralField | VectorField


def field_from_samples(grid: Grid, samples: np.ndarray) -> Field:
    """The field of real samples (n1, n2, n3), or a VectorField of
    (3, n1, n2, n3), on the grid's 2/3 band: band_forward of each
    component, the band of its rfftn bit for bit; the rest is dropped."""
    if samples.shape[-3:] != grid.shape:
        raise ValueError(f"sample shape {samples.shape} does not match "
                         f"grid shape {grid.shape}")
    band = grid.band
    work = band.workspace(grid.shape)
    coeffs = np.empty((*samples.shape[:-3], *band.shape), dtype=np.complex128)
    for part, out in zip(samples.reshape(-1, *grid.shape),
                         coeffs.reshape(-1, *band.shape)):
        band_forward(part, out, work)
    return (VectorField if coeffs.ndim == 4 else SpectralField)(band, coeffs)


# ---------------------------------------------------------------------------
# Differential operators


def divergence(field: VectorField) -> SpectralField:
    b = field.band
    c = field.coeffs
    return SpectralField(b, 1j * (b.kd1 * c[0] + b.kd2 * c[1] + b.kd3 * c[2]))


def project_coeffs(band: Band, c: np.ndarray, kdotu: np.ndarray,
                   term: np.ndarray) -> np.ndarray:
    """The Leray formula on (3, *band.shape) box coefficients `c`, in
    place: c_i - kd_i (kd . c) / |kd|^2 modewise, from the box's own
    lines band.kd1, kd2, kd3 and band.inv_kd_squared.  `kdotu` and
    `term`, each of one component's shape, are overwritten."""
    np.multiply(band.kd1, c[0], out=kdotu)
    np.multiply(band.kd2, c[1], out=term)
    kdotu += term
    np.multiply(band.kd3, c[2], out=term)
    kdotu += term
    kdotu *= band.inv_kd_squared
    for i, kd in enumerate((band.kd1, band.kd2, band.kd3)):
        np.multiply(kd, kdotu, out=term)
        np.subtract(c[i], term, out=c[i])
    return c


def leray_project(field: VectorField) -> VectorField:
    """L^2-orthogonal projection of u onto divergence-free fields.

    P(u)_k = u_k - k (k . u_k) / |k|^2 on each mode of the field's box,
    which holds no Nyquist entry, so only the mean mode passes through
    unchanged: project_coeffs of a copy on the box, as in the stepper.
    """
    c = field.coeffs.copy()
    return field.with_coeffs(project_coeffs(field.band, c, *np.empty_like(c[:2])))


def divergence_residual(field: VectorField) -> float:
    """sup-norm of div(u) over modes, for divergence-free checks."""
    return float(np.max(np.abs(divergence(field).coeffs)))


def band_inverse(coeffs: np.ndarray, out: np.ndarray, work: BandWorkspace) -> np.ndarray:
    """Real samples (c, m1, m2, m3) on the shape of `work` of box
    coefficients (c, *work.band_shape) into `out`: the passes of irfftn
    in its order (ifft on axis -3, ifft on axis -2, irfft on axis -1),
    each over only the lines whose input is not all zero, and each once
    per group of the workspace's components (the last group may be
    short).  The first pass runs in place on `work.columns`, over every
    plane; the other two run slab by slab (work.slabs) through
    `work.half`, each slab's irfft writing its planes of `out`.  numpy
    transforms every line on its own, so the samples are irfftn's of the
    scattered coefficients bit for bit, whatever the group size and the
    slab height.
    """
    cols, size = work.cols, len(work.half)
    (_, low1), (_, high1) = work.rows1
    (_, low2), (_, high2) = work.rows2
    work.half[..., cols.stop:] = 0
    for start in range(0, len(coeffs), size):
        c, samples = coeffs[start:start + size], out[start:start + size]
        pad = work.columns[:len(c)]
        pad[:, low1.stop:high1.start] = 0
        for b, h in work.rows1:
            pad[:, h] = c[:, b]
        np.fft.ifft(pad, axis=-3, norm="forward", out=pad)
        for planes in work.slabs():
            half = work.half[:len(c), :planes.stop - planes.start]
            for b, h in work.rows2:
                half[..., h, cols] = pad[:, planes, b]
            half[..., low2.stop:high2.start, cols] = 0
            np.fft.ifft(half[..., cols], axis=-2, norm="forward", out=half[..., cols])
            np.fft.irfft(half, n=samples.shape[-1], axis=-1, norm="forward",
                         out=samples[:, planes])
    return out


def band_forward(samples: np.ndarray, out: np.ndarray, work: BandWorkspace,
                 other: np.ndarray | None = None) -> np.ndarray:
    """Box coefficients of real samples (m1, m2, m3) into `out`, or of
    the product samples * other if `other` is given: the passes of
    rfftn in its order (rfft on axis -1, fft on axis -2, fft on axis
    -3), keeping only box columns, then box rows, after each.  The first
    two run slab by slab (work.slabs) through `work.half`, each slab's
    product formed in `work.product`, and leave their box rows in
    `work.columns`; the last runs there in place, over every plane.  Bit
    for bit the box of rfftn(samples * other, norm="forward").
    """
    pad = work.columns[0]
    for planes in work.slabs():
        block = samples[planes]
        if other is not None:
            block = np.multiply(block, other[planes], out=work.product[:len(block)])
        half = work.half[0, :len(block)]
        columns = half[..., work.cols]
        np.fft.rfft(block, axis=-1, norm="forward", out=half)
        np.fft.fft(columns, axis=-2, norm="forward", out=columns)
        for b, h in work.rows2:
            pad[planes, b] = columns[:, h]
    np.fft.fft(pad, axis=-3, norm="forward", out=pad)
    for b, h in work.rows1:
        out[b] = pad[h]
    return out


def band_divergence(band: Band, us: np.ndarray, out: np.ndarray,
                    work: BandWorkspace) -> np.ndarray:
    """div(u x u) on `band`, the box of `work`, from the samples of u,
    into `out` (3, *band.shape): component j is i sum_i kd_i FT(u_i u_j),
    from the six products u_i u_j with i <= j, each formed one slab at a
    time inside band_forward, so no product of the whole grid is held.
    Each product's box lands in work.mode, and each kd_i times it in
    work.term, which shares work.columns: it is read before the next
    band_forward overwrites them.  work.mode and work.term are free
    again on return.
    """
    kd = (band.kd1, band.kd2, band.kd3)
    mode, term = work.mode, work.term
    out[...] = 0
    for i, j in _SYMMETRIC_PAIRS:
        band_forward(us[i], mode, work, us[j])
        out[j] += np.multiply(kd[i], mode, out=term)  # d_i (u_i u_j)
        if i != j:
            out[i] += np.multiply(kd[j], mode, out=term)  # d_j (u_j u_i)
    out *= 1j
    return out


def tensor_divergence(u: VectorField) -> VectorField:
    """Dealiased div(u x u) on the 2/3 band, component j =
    sum_i d/dx_i (u_i u_j).

    For divergence-free u this is the convective term (u . grad) u.  u,
    embedded in the band unless it is on the band already, is sampled by
    band_inverse and the products go through band_divergence, on the
    band's workspace, as in the stepper; only their 2/3 band is kept,
    which removes every aliased mode (3K < n makes the retained modes
    exact).
    """
    band = u.grid.band
    work = band.workspace(u.grid.shape)
    coeffs = (u.coeffs if u.band.cutoffs == band.cutoffs
              else u.band.embed(u.coeffs, band))
    us = band_inverse(coeffs, np.empty((3, *u.grid.shape)), work)
    out = band_divergence(band, us, np.empty((3, *band.shape), dtype=np.complex128), work)
    return VectorField(band, out)


def convective_inner(u: VectorField, v: VectorField, w: VectorField) -> float:
    """((u . grad) v, w): vol times the mean of sum_ij u_i (d_i v_j) w_j
    over samples of the 15 components (u, grad v, w), each field's from
    one band_inverse of its own box.  On axis j the integrand has band
    b_u + b_v + b_w of those boxes' cutoffs, so the rectangle rule on
    quadrature_points of it is exact; the points also exceed 2 max b, so
    they hold every box.

    Requires divergence-free u for this to equal (div(u x v), w);
    callers enforce that.
    """
    if not u.grid == v.grid == w.grid:
        raise ValueError("fields live on different grids")
    per_axis = tuple(zip(*(f.band.cutoffs for f in (u, v, w))))
    shape = tuple(quadrature_points(max(sum(b), 2 * max(b))) for b in per_axis)
    dv = np.concatenate([1j * kd * v.coeffs for kd in (v.band.kd1, v.band.kd2, v.band.kd3)])
    samples = np.empty((15, *shape))
    for f, coeffs, out in ((u, u.coeffs, samples[:3]), (v, dv, samples[3:12]),
                           (w, w.coeffs, samples[12:])):
        band_inverse(coeffs, out, f.band.workspace(shape, len(coeffs)))
    us, grad_v, ws = samples[:3], samples[3:12].reshape(3, 3, *shape), samples[12:]
    return float(u.grid.volume * np.mean(np.einsum("i...,ij...,j...->...",
                                                   us, grad_v, ws)))


# ---------------------------------------------------------------------------
# Inner products and norms
#
# Every quadratic form below is diagonal in k, with a weight of the form
# r(k3), (k1^2 + k2^2) r(k3) or |k|^2 r(k3); it reduces to a k3 line of
# sums over components, k1 and k2, dotted with r and the Parseval weight.


def _mass(c: np.ndarray) -> np.ndarray:
    """|c|^2 summed over components, on the layout of `c`: re^2 + im^2
    of one component at a time, added in component order, as a sum over
    the component axis adds them, so it holds three components' worth of
    reals, not two arrays of all of them."""
    parts = c.reshape(-1, *c.shape[-3:])
    mass = parts[0].real**2
    mass += parts[0].imag**2
    if len(parts) > 1:
        square, square_imag = np.empty_like(mass), np.empty_like(mass)
        for part in parts[1:]:
            np.square(part.real, out=square)
            square += np.square(part.imag, out=square_imag)
            mass += square
    return mass


def _k3_line(grid: Grid, a: np.ndarray) -> np.ndarray:
    """`a` summed over every axis but k3, in layout order, and zero-padded
    to the grid's n3/2 + 1 columns, the length of its k3 lines."""
    out = np.zeros(grid.n3 // 2 + 1)
    out[:a.shape[-1]] = a.sum(axis=tuple(range(a.ndim - 1)))
    return out


def quadratic_form(grid: Grid, line: np.ndarray, weight=1.0) -> float:
    """vol * sum over k3 of line * weight * Parseval weight."""
    return float(grid.volume
                 * np.dot(line, np.ravel(grid.parseval_weight * weight)))


def _check_order(s: float) -> None:
    if s < 0:
        raise ValueError(f"seminorm order s={s} must be nonnegative")


class FieldNorms:
    """The norms below of one field from one |c|^2 pass over its box,
    one component at a time (_mass), which builds its k3 lines summed
    over components, k1 and k2: `plain` unweighted, `horizontal`
    weighted by k1^2 + k2^2 and `full` by |k|^2, so a caller that needs
    several norms of a field pays for the pass once.  l2, grad,
    horizontal_grad, vertical and vertical_grad are the L^2 norms of f,
    grad f, grad_h f, |d/dx3|^s f and |d/dx3|^s grad f.  The lines are zero-padded to the grid's n3/2 + 1
    columns, so every dot with a line of the grid runs over one length
    whatever the box, and a norm keeps the bits of the half layout's."""

    def __init__(self, f: Field):
        band = f.band
        self.grid = band.grid
        mass = _mass(f.coeffs)
        self.plain = _k3_line(self.grid, mass)
        mass *= band.kd1**2 + band.kd2**2  # in place, so the pass leaves one table
        self.horizontal = _k3_line(self.grid, mass)
        self.full = self.horizontal + self.grid.k3[0, 0] ** 2 * self.plain

    def _root(self, line: np.ndarray, weight=1.0) -> float:
        return float(np.sqrt(quadratic_form(self.grid, line, weight)))

    def l2(self) -> float:
        return self._root(self.plain)

    def grad(self) -> float:
        return self._root(self.full)

    def horizontal_grad(self) -> float:
        return self._root(self.horizontal)

    def vertical(self, s: float) -> float:
        _check_order(s)
        return self._root(self.plain, self.grid.k3 ** (2.0 * s))

    def vertical_grad(self, s: float) -> float:
        _check_order(s)
        return self._root(self.full, self.grid.k3 ** (2.0 * s))


def inner_product(f: Field, g: Field, weight=1.0) -> float:
    """Continuum L^2 inner product with the k3 multiplier `weight`;
    vector fields sum over components.  Fields on boxes of different
    cutoffs are read on the box of their per-axis smaller cutoffs, the
    only modes where their product is nonzero: the sums over the outer
    axes add the same terms in the same order as on the union of the
    boxes, less its zeros, so the bits are the union's.  It forms the
    products one component at a time, in the rows under the line summed
    so far, and sums those rows in layout order, the order of one sum
    over the components, k1 and k2 of a box of more than one column.
    Its temporaries, gone on return, are two components of that box and
    a field read on it, never larger than the smaller field."""
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    grid = f.grid
    common = grid.box(tuple(map(min, f.band.cutoffs, g.band.cutoffs)))
    a, b = (h.coeffs.reshape(-1, *h.band.shape) if h.band.cutoffs == common.cutoffs
            else common.restrict(h.coeffs.reshape(-1, *h.band.shape), h.band)
            for h in (f, g))
    rows = np.zeros((1 + common.shape[0] * common.shape[1], common.shape[2]))
    prod, imag = rows[1:].reshape(common.shape), np.empty(common.shape)
    for i in range(len(a)):
        np.multiply(b[i].real, a[i].real, out=prod)
        prod += np.multiply(b[i].imag, a[i].imag, out=imag)  # Re(conj(g) f)
        line = _k3_line(grid, rows)
        rows[0] = line[:len(rows[0])]
    return quadratic_form(grid, line, weight)


def l2_norm(f: Field) -> float:
    return FieldNorms(f).l2()


def vertical_seminorm(f: Field, s: float) -> float:
    """|| |d/dx3|^s f ||_{L^2}: multiplier |k3|^s, fractional s allowed."""
    return FieldNorms(f).vertical(s)


# ---------------------------------------------------------------------------
# Trigonometric interpolation on finer samples


def fine_samples(field: Field, shape: tuple[int, int, int]) -> np.ndarray:
    """Real samples on a grid of `shape` over the same box of the
    trigonometric interpolant of the field: band_inverse from the
    field's box, which `shape` must hold.  On the native shape these are
    the field's samples; on any other the interpolant is exact, so a
    power of a field whose box has band b on an axis, p b for |u|^p, is
    integrated exactly by the rectangle rule on quadrature_points(p b)
    points of that axis.
    """
    box = field.band
    coeffs = field.coeffs.reshape(-1, *box.shape)
    out = np.empty((*field.coeffs.shape[:-3], *shape))
    band_inverse(coeffs, out.reshape(-1, *shape), box.workspace(shape, len(coeffs)))
    return out


def quadrature_points(band: int) -> int:
    """The fewest even count of points above `band`: the rectangle rule
    on them integrates a trigonometric polynomial of that band exactly,
    and pad_spectrum can upsample a line of them."""
    return band + 2 - band % 2


def pad_spectrum(coeffs: np.ndarray, m: int, axis: int) -> np.ndarray:
    """Embed a spectrum of even length n into length m > n along `axis`.

    The 1-D upsampler of sample lines (Agmon lines and vertical
    profiles), whose Nyquist slot holds content or round-off.  Modes
    |k| < n/2 keep their coefficients.  The stored -n/2 entry of a real
    line represents cos(n x / 2) content, so it is split evenly between
    +n/2 and -n/2; the trigonometric interpolant then stays real and
    keeps its values at the original sample points.
    """
    n = coeffs.shape[axis]
    if n % 2 or m <= n:
        raise ValueError(f"cannot pad a spectrum of length {n} to {m}: "
                         f"need an even length and m > n")
    half = n // 2
    src = np.moveaxis(coeffs, axis, 0)
    out = np.zeros((m, *src.shape[1:]), dtype=np.complex128)
    out[:half] = src[:half]
    out[half] = 0.5 * src[half]
    out[m - half] = 0.5 * src[half]
    out[m - half + 1:] = src[half + 1:]
    return np.moveaxis(out, 0, axis)
