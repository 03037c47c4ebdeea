"""Spectral fields on the periodic box and the basic Fourier calculus.

Coefficients are stored in the amplitude normalization

    f(x) = sum_k  c_k  exp(i k . x),        c_k = FFT(samples) / N,

so cos(x3) has coefficients +1/2 at k3 = +1 and -1/2 at k3 = -1 and the
k = 0 coefficient is the spatial mean.  Plancherel then reads

    (f, g)_{L^2} = vol * sum_k c_k conj(d_k),

with vol the box volume.  All norms and inner products below are the
continuum L^2 quantities of the band-limited interpolant, not plain
vector norms of sample arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid

# Tolerance on the relative imaginary residue when returning physical
# samples of a field that is supposed to be real.
_IMAG_TOL = 1e-10


class RealityError(ValueError):
    """Raised when coefficients claimed Hermitian produce complex samples."""


def _as_complex(arr: np.ndarray) -> np.ndarray:
    out = np.asarray(arr, dtype=np.complex128)
    if out is arr:
        out = arr.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Scalar field as FFT-ordered amplitude coefficients on a grid."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != self.grid.shape:
            raise ValueError(
                f"coefficient shape {self.coeffs.shape} does not match "
                f"grid shape {self.grid.shape}"
            )
        object.__setattr__(self, "coeffs", _as_complex(self.coeffs))

    def with_coeffs(self, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField(self.grid, coeffs)


@dataclass(frozen=True, eq=False)
class VectorField:
    """Three-component field; components share one grid."""

    grid: Grid
    coeffs: np.ndarray  # shape (3, n1, n2, n3)

    def __post_init__(self):
        if self.coeffs.shape != (3, *self.grid.shape):
            raise ValueError(
                f"coefficient shape {self.coeffs.shape} does not match "
                f"(3, *{self.grid.shape})"
            )
        object.__setattr__(self, "coeffs", _as_complex(self.coeffs))

    def component(self, i: int) -> SpectralField:
        return SpectralField(self.grid, self.coeffs[i])

    def with_coeffs(self, coeffs: np.ndarray) -> "VectorField":
        return VectorField(self.grid, coeffs)


Field = SpectralField | VectorField


def forward_transform(grid: Grid, samples: np.ndarray) -> np.ndarray:
    """Physical samples -> amplitude coefficients (last three axes)."""
    axes = (-3, -2, -1)
    return np.fft.fftn(np.asarray(samples), axes=axes) / grid.num_points


def inverse_transform(grid: Grid, coeffs: np.ndarray, *,
                      enforce_real: bool = True) -> np.ndarray:
    """Amplitude coefficients -> physical samples (last three axes).

    With enforce_real, the imaginary residue must be negligible relative
    to the field size; violation raises RealityError rather than being
    silently discarded.
    """
    axes = (-3, -2, -1)
    samples = np.fft.ifftn(np.asarray(coeffs), axes=axes) * grid.num_points
    if not enforce_real:
        return samples
    scale = np.max(np.abs(samples))
    residue = np.max(np.abs(samples.imag))
    if scale > 0 and residue > _IMAG_TOL * scale:
        raise RealityError(
            f"imaginary residue {residue:.3e} exceeds {_IMAG_TOL:.0e} of "
            f"field scale {scale:.3e}; coefficients are not Hermitian"
        )
    return samples.real


def field_from_samples(grid: Grid, samples: np.ndarray) -> SpectralField:
    return SpectralField(grid, forward_transform(grid, samples))


def vector_from_samples(grid: Grid, samples: np.ndarray) -> VectorField:
    return VectorField(grid, forward_transform(grid, samples))


def mirror_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients at -k, respecting FFT ordering on the last three axes."""
    out = coeffs
    for axis in (-3, -2, -1):
        out = np.roll(np.flip(out, axis=axis), 1, axis=axis)
    return out


def hermitian_residual(coeffs: np.ndarray) -> float:
    """max |c_k - conj(c_{-k})|; zero iff the samples are real."""
    return float(np.max(np.abs(coeffs - np.conj(mirror_coeffs(coeffs)))))


def hermitian_symmetrize(coeffs: np.ndarray) -> np.ndarray:
    """Nearest Hermitian coefficient array (projects out imaginary samples)."""
    return 0.5 * (coeffs + np.conj(mirror_coeffs(coeffs)))


# ---------------------------------------------------------------------------
# Differential operators


def gradient(field: SpectralField) -> VectorField:
    g = field.grid
    c = field.coeffs
    return VectorField(
        g, np.stack([1j * g.kd1 * c, 1j * g.kd2 * c, 1j * g.kd3 * c])
    )


def divergence(field: VectorField) -> SpectralField:
    g = field.grid
    c = field.coeffs
    return SpectralField(
        g, 1j * (g.kd1 * c[0] + g.kd2 * c[1] + g.kd3 * c[2])
    )


def vertical_derivative(field: SpectralField) -> SpectralField:
    g = field.grid
    return SpectralField(g, 1j * g.kd3 * field.coeffs)


def leray_project(field: VectorField) -> VectorField:
    """L^2-orthogonal projection onto divergence-free fields.

    P(u)_k = u_k - k (k . u_k) / |k|^2 modewise, with the k = 0 mode
    (and Nyquist planes, where the derivative wavenumbers vanish) passed
    through unchanged.
    """
    g = field.grid
    c = field.coeffs
    ksq = g.kd_squared
    inv = np.where(ksq > 0, 1.0 / np.where(ksq > 0, ksq, 1.0), 0.0)
    kdotu = g.kd1 * c[0] + g.kd2 * c[1] + g.kd3 * c[2]
    factor = kdotu * inv
    return VectorField(
        g,
        np.stack(
            [c[0] - g.kd1 * factor, c[1] - g.kd2 * factor, c[2] - g.kd3 * factor]
        ),
    )


def dealias(field: Field) -> Field:
    """Zero every mode outside the 2/3-rule band."""
    return field.with_coeffs(field.coeffs * field.grid.dealias_mask)


def divergence_residual(field: VectorField) -> float:
    """sup-norm of div(u) over modes, for divergence-free checks."""
    return float(np.max(np.abs(divergence(field).coeffs)))


def tensor_divergence(u: VectorField, v: VectorField | None = None) -> VectorField:
    """Dealiased div(u x v), component j = sum_i d/dx_i (u_i v_j).

    For divergence-free u this is the convective term (u . grad) v.  The
    products are formed in physical space; the 2/3-rule truncation of
    the result removes every aliased mode provided both inputs are
    band-limited to the 2/3 band (3K < n makes the retained modes exact).
    """
    if v is None:
        v = u
    if u.grid != v.grid:
        raise ValueError("fields live on different grids")
    g = u.grid
    us = inverse_transform(g, u.coeffs)
    vs = us if v is u else inverse_transform(g, v.coeffs)
    out = np.empty((3, *g.shape), dtype=np.complex128)
    for j in range(3):
        p = forward_transform(g, us * vs[j][None])  # p[i] = coeffs of u_i v_j
        out[j] = 1j * (g.kd1 * p[0] + g.kd2 * p[1] + g.kd3 * p[2])
    return dealias(VectorField(g, out))


def convective_inner(u: VectorField, v: VectorField, w: VectorField) -> float:
    """((u . grad) v, w) with exact quadrature on dealiased inputs.

    Requires divergence-free u for the tensor form to coincide with the
    convective form; callers enforce that.
    """
    return inner_product(tensor_divergence(u, v), w)


# ---------------------------------------------------------------------------
# Inner products and norms


def inner_product(f: Field, g: Field) -> float:
    """Continuum L^2 inner product; vector fields sum over components."""
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    s = np.vdot(g.coeffs, f.coeffs)  # sum conj(g) * f
    return float(f.grid.volume * s.real)


def l2_norm(f: Field) -> float:
    return float(
        np.sqrt(f.grid.volume * np.sum(np.abs(f.coeffs) ** 2))
    )


def grad_norm(f: Field) -> float:
    """|| grad f ||_{L^2} = (vol * sum |k|^2 |c_k|^2)^(1/2) (true |k|)."""
    g = f.grid
    return float(
        np.sqrt(g.volume * np.sum(g.k_squared * np.abs(f.coeffs) ** 2))
    )


def horizontal_grad_norm(f: Field) -> float:
    """|| grad_h f ||_{L^2}: only the k1, k2 multipliers."""
    g = f.grid
    weight = g.k1**2 + g.k2**2
    return float(
        np.sqrt(g.volume * np.sum(weight * np.abs(f.coeffs) ** 2))
    )


def vertical_seminorm(f: Field, s: float) -> float:
    """|| |d/dx3|^s f ||_{L^2}: multiplier |k3|^s, fractional s allowed."""
    if s < 0:
        raise ValueError(f"seminorm order s={s} must be nonnegative")
    g = f.grid
    weight = np.abs(g.k3) ** (2.0 * s)
    return float(
        np.sqrt(g.volume * np.sum(weight * np.abs(f.coeffs) ** 2))
    )


def vertical_grad_seminorm(f: Field, s: float) -> float:
    """|| |d/dx3|^s grad f ||_{L^2} via the |k|^2 |k3|^{2s} multiplier."""
    if s < 0:
        raise ValueError(f"seminorm order s={s} must be nonnegative")
    g = f.grid
    weight = g.k_squared * np.abs(g.k3) ** (2.0 * s)
    return float(
        np.sqrt(g.volume * np.sum(weight * np.abs(f.coeffs) ** 2))
    )


def mean_value(f: SpectralField) -> float:
    return float(f.coeffs[0, 0, 0].real)


# ---------------------------------------------------------------------------
# Resampling between grids (trigonometric interpolation)


def pad_spectrum(coeffs: np.ndarray, m: int, axis: int) -> np.ndarray:
    """Embed a spectrum of even length n into length m > n along `axis`.

    Modes |k| < n/2 keep their coefficients.  The stored -n/2 entry of a
    real field represents cos(n x / 2) content, so it is split evenly
    between +n/2 and -n/2; the trigonometric interpolant then stays real
    and keeps its values at the original sample points.
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


def resample(field: Field, target: Grid) -> Field:
    """Re-express a field on another grid over the same box.

    Upsampling is exact (trigonometric interpolation).  Downsampling
    keeps every mode the target can represent: |m| < n/2 copies over,
    the pair m = +-n/2 folds additively into the target Nyquist slot
    (the cosine at that frequency is representable), and higher modes
    are truncated.  Round trips through a finer grid are exact.
    """
    src_grid = field.grid
    if src_grid.sizes != target.sizes:
        raise ValueError("resample requires identical box sizes")
    src = field.coeffs
    vector = src.ndim == 4

    # Odd-length extended spectrum: each mode -n/2..n/2 in its own slot,
    # ordered like fftfreq(n + 1).
    ext = src
    for axis in (-3, -2, -1):
        ext = pad_spectrum(ext, ext.shape[axis] + 1, axis)

    def axis_map(n_ext: int, n_dst: int):
        modes = np.fft.fftfreq(n_ext, d=1.0 / n_ext).astype(int)
        keep = np.abs(modes) <= n_dst // 2
        return np.nonzero(keep)[0], modes[keep] % n_dst

    tshape = target.shape
    s1, d1 = axis_map(ext.shape[-3], tshape[0])
    s2, d2 = axis_map(ext.shape[-2], tshape[1])
    s3, d3 = axis_map(ext.shape[-1], tshape[2])

    sub = ext[..., s1[:, None, None], s2[None, :, None], s3[None, None, :]]
    out_shape = (3, *tshape) if vector else tshape
    out = np.zeros(out_shape, dtype=np.complex128)
    # +-n/2 both land on the target Nyquist slot: accumulate, not assign
    if vector:
        for i in range(3):
            np.add.at(
                out[i],
                (d1[:, None, None], d2[None, :, None], d3[None, None, :]),
                sub[i],
            )
        return VectorField(target, out)
    np.add.at(
        out, (d1[:, None, None], d2[None, :, None], d3[None, None, :]), sub
    )
    return SpectralField(target, out)
