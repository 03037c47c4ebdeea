"""Spectral fields on the periodic box and the basic Fourier calculus.

Coefficients are stored in the amplitude normalization

    f(x) = sum_k  c_k  exp(i k . x),        c_k = FFT(samples) / N,

so cos(x3) has coefficients +1/2 at k3 = +1 and -1/2 at k3 = -1 and the
k = 0 coefficient is the spatial mean.

Fields are real, so their coefficients are Hermitian, c_{-k} = conj(c_k),
and a field stores only those of k3 >= 0 on a box (a grid.Band) inside
its grid's 2/3 band: coeffs has shape (..., *band.shape), and every
mode outside the box is zero.  A stored column 0 < k3 < n3/2 also
stands for its mirror -k3, so Plancherel reads

    (f, g)_{L^2} = vol * sum_k  w(k3) Re(c_k conj(d_k)),

with vol the box volume and w the grid's Parseval weight line (1 at
k3 = 0 and n3/2, 2 in between).  All norms and inner products below are
these continuum L^2 quantities of the band-limited interpolant.

Real samples enter through field_from_samples.  band_inverse samples a
box and band_forward brings samples back to it: irfftn and rfftn pruned
to the box, equal to the full transforms bit for bit on what they keep.
The half layout (..., n1, n2, n3/2 + 1) is their scratch only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.fft  # numpy loads it lazily: a first use in a run would time the import

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
        out[...] = band_forward(part, work)
    return (VectorField if coeffs.ndim == 4 else SpectralField)(band, coeffs)


# ---------------------------------------------------------------------------
# Differential operators


def divergence(field: VectorField) -> SpectralField:
    b = field.band
    c = field.coeffs
    return SpectralField(b, 1j * (b.kd1 * c[0] + b.kd2 * c[1] + b.kd3 * c[2]))


def _row_blocks(band: Band, scratch: np.ndarray, count: int):
    """For each block of rows along axis 0 of the box `band`: the
    block's slice, the box's lines kd1, kd2, kd3 on it, and `count`
    temporaries of the block's shape cut from the complex buffer
    `scratch`, which sets the block height."""
    flat = scratch.reshape(-1)
    rows, row = band.shape[0], math.prod(band.shape[1:])
    height = min(rows, flat.size // (count * row))
    if height < 1:
        raise ValueError(f"scratch of {flat.size} values holds no row of "
                         f"{count} temporaries of {row} values")
    for first in range(0, rows, height):
        block = slice(first, min(first + height, rows))
        size = (block.stop - first) * row
        yield (block, (band.kd1[block], band.kd2, band.kd3),
               [flat[k * size:(k + 1) * size].reshape(-1, *band.shape[1:])
                for k in range(count)])


def project_coeffs(band: Band, c: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The Leray formula c_i - kd_i (kd . c) / |kd|^2 on box
    coefficients `c` (3, *band.shape), in place; returns `c`.  It
    overwrites the contiguous complex buffer `scratch`, which must hold
    one row of two temporaries; two components' worth make one pass."""
    for rows, kd, (kdotu, term) in _row_blocks(band, scratch, 2):
        b = c[:, rows]
        np.multiply(kd[0], b[0], out=kdotu)
        np.multiply(kd[1], b[1], out=term)
        kdotu += term
        np.multiply(kd[2], b[2], out=term)
        kdotu += term
        kdotu *= band.inv_kd_squared[rows]
        for i in range(3):
            np.multiply(kd[i], kdotu, out=term)
            np.subtract(b[i], term, out=b[i])
    return c


def leray_project(field: VectorField) -> VectorField:
    """L^2-orthogonal projection of u onto divergence-free fields:
    P(u)_k = u_k - k (k . u_k) / |k|^2, the mean mode unchanged."""
    c = field.coeffs.copy()
    return field.with_coeffs(project_coeffs(field.band, c, np.empty_like(c[:2])))


def divergence_residual(field: VectorField) -> float:
    """sup-norm of div(u) over modes, for divergence-free checks."""
    return float(np.max(np.abs(divergence(field).coeffs)))


def band_inverse(coeffs: np.ndarray, out: np.ndarray, work: BandWorkspace) -> np.ndarray:
    """Real samples (c, m1, m2, m3) on the shape of `work` of box
    coefficients (c, *work.band_shape), into `out`, which it returns:
    irfftn's passes in its order over only the lines with nonzero input,
    so bit for bit irfftn of the coefficients scattered into the half
    layout.  It overwrites work.columns and work.half.
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


def band_forward(samples: np.ndarray, work: BandWorkspace,
                 other: np.ndarray | None = None) -> np.ndarray:
    """The box of rfftn(samples * other, norm="forward") bit for bit,
    for real samples (m1, m2, m3) and `other` of their shape or None.
    It overwrites work.columns, work.half and, for a product,
    work.product, and returns the box as a view of work.columns[0],
    which the workspace's next transform overwrites: a caller that keeps
    the box copies it.
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
    box = pad[:work.band_shape[0]]
    _, (high, rows) = work.rows1
    box[high] = pad[rows]  # numpy copies an overlapping block whole
    return box


def band_divergence(band: Band, us: np.ndarray, out: np.ndarray,
                    work: BandWorkspace) -> np.ndarray:
    """div(u x u) on `band`, the box of `work`, from the samples us of
    u, into `out` (3, *band.shape), which it returns: component j is
    i sum_i kd_i FT(u_i u_j).  It overwrites every buffer of `work`.
    """
    out[...] = 0
    for i, j in _SYMMETRIC_PAIRS:
        box = band_forward(us[i], work, us[j])
        for rows, kd, (term,) in _row_blocks(band, work.half, 1):
            out[j, rows] += np.multiply(kd[i], box[rows], out=term)  # d_i (u_i u_j)
            if i != j:
                out[i, rows] += np.multiply(kd[j], box[rows], out=term)  # d_j (u_j u_i)
    out *= 1j
    return out


def tensor_divergence(u: VectorField) -> VectorField:
    """Dealiased div(u x u) on the 2/3 band, component j =
    sum_i d/dx_i (u_i u_j); for divergence-free u the convective term
    (u . grad) u.  Keeping the 2/3 band removes every aliased mode.
    """
    band = u.grid.band
    work = band.workspace(u.grid.shape)
    coeffs = (u.coeffs if u.band.cutoffs == band.cutoffs
              else u.band.embed(u.coeffs, band))
    us = band_inverse(coeffs, np.empty((3, *u.grid.shape)), work)
    out = band_divergence(band, us, np.empty((3, *band.shape), dtype=np.complex128), work)
    return VectorField(band, out)


def convective_inner(u: VectorField, v: VectorField, w: VectorField) -> float:
    """((u . grad) v, w) by the rectangle rule on the fewest points per
    axis that integrate u_i (d_i v_j) w_j exactly and hold every box.
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


def _mass(c: np.ndarray, minus: np.ndarray | None = None) -> np.ndarray:
    """|c|^2, or |c - minus|^2, summed over the components in their
    order, on the layout of `c`; its temporaries are three reals the
    size of one component."""
    parts = c.reshape(-1, *c.shape[-3:])
    others = None if minus is None else minus.reshape(parts.shape)

    def square(i: int, imag: bool, out: np.ndarray | None = None) -> np.ndarray:
        """The square of one part of component i of c, or of c - minus,
        into `out` or a fresh array."""
        part = parts[i].imag if imag else parts[i].real
        if others is not None:
            part = out = np.subtract(part, others[i].imag if imag else others[i].real,
                                     out=out)
        return np.square(part, out=out)

    mass = square(0, False)
    mass += square(0, True)
    if len(parts) > 1:
        square_real, square_imag = np.empty_like(mass), np.empty_like(mass)
        for i in range(1, len(parts)):
            square(i, False, square_real)
            square_real += square(i, True, square_imag)
            mass += square_real
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
    """The norms of one field from one |c|^2 pass over its box: l2,
    grad, horizontal_grad, vertical and vertical_grad are the L^2 norms
    of f, grad f, grad_h f, |d/dx3|^s f and |d/dx3|^s grad f.  Its k3
    lines `plain`, `horizontal` (weight k1^2 + k2^2) and `full` (|k|^2)
    are zero-padded to n3/2 + 1 columns, so a norm on a box keeps the
    bits of the half layout's."""

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
    vector fields sum over components.  Fields on different boxes are
    read on the box of their per-axis smaller cutoffs, with the bits of
    a read on their union box; its temporaries are never larger than
    the smaller field."""
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


def l2_distance(f: Field, g: Field) -> float:
    """||f - g||_{L^2} of two fields on one box, with the bits of
    l2_norm(f - g) and without forming f - g."""
    if f.band is not g.band:
        raise ValueError("fields live on different boxes")
    line = _k3_line(f.grid, _mass(f.coeffs, g.coeffs))
    return float(np.sqrt(quadratic_form(f.grid, line)))


# ---------------------------------------------------------------------------
# Trigonometric interpolation on finer samples


def fine_samples(field: Field, shape: tuple[int, int, int]) -> np.ndarray:
    """Samples on a grid of `shape` of the field's trigonometric
    interpolant, which `shape` must hold; on the native shape these are
    the field's samples.
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

    Modes |k| < n/2 keep their coefficients.  The stored -n/2 entry of a real
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
