"""Test references in the half and full FFT layouts.

A field stores only the coefficients of its box (a grid.Band) inside
the 2/3 band.  Tests that build coefficients by hand, or that compare
with a reference on the rfftn half (..., n1, n2, n3/2 + 1) or the full
layout (..., n1, n2, n3), use these helpers.  The package has no entry
point for either layout: gather and scatter move a box from and to a
half layout, half_field keeps the 2/3 band of Hermitian full-layout
coefficients, and half_layout scatters a field's box.
"""

import numpy as np

from admles.spectral import FieldNorms, SpectralField, VectorField, quadratic_form

AXES = (-3, -2, -1)


def mirror(coeffs):
    """Coefficients at -k, FFT order on the last three axes."""
    return np.roll(np.flip(coeffs, AXES), 1, AXES)


def spectral_shape(grid):
    """Shape of the rfftn half layout: (n1, n2, n3/2 + 1)."""
    return (grid.n1, grid.n2, grid.n3 // 2 + 1)


def _box_index(band, shape):
    """Index of the box's modes on the half layout of grid shape `shape`:
    rows 0..K and m-K..m-1 of each full axis, columns 0..K3."""
    assert all(2 * k + 1 <= m for k, m in zip(band.cutoffs, shape))
    (k1, m1), (k2, m2) = zip(band.cutoffs[:2], shape[:2])
    return (..., *np.ix_(np.r_[0:k1 + 1, m1 - k1:m1], np.r_[0:k2 + 1, m2 - k2:m2],
                         np.arange(band.cutoffs[2] + 1)))


def gather(band, half):
    """A fresh box of half-layout coefficients (..., m1, m2, m3/2 + 1)."""
    m1, m2, m3 = half.shape[-3:]
    return half[_box_index(band, (m1, m2, 2 * m3 - 2))]


def scatter(band, coeffs, shape=None):
    """A fresh half layout of grid shape `shape` (by default the band's
    grid's): `coeffs` on the box, zero elsewhere."""
    m1, m2, m3 = shape or band.grid.shape
    out = np.zeros((*coeffs.shape[:-3], m1, m2, m3 // 2 + 1), dtype=coeffs.dtype)
    out[_box_index(band, (m1, m2, m3))] = coeffs
    return out


def half_layout(field):
    """The field's coefficients scattered into a fresh half layout."""
    return scatter(field.band, field.coeffs)


def to_full(grid, half):
    """Full-layout (..., n1, n2, n3) coefficients of half-layout ones."""
    m = grid.n3 // 2 + 1
    full = np.zeros((*half.shape[:-1], grid.n3), dtype=np.complex128)
    full[..., :m] = half
    full[..., m:] = np.conj(mirror(full))[..., m:]
    return full


def rule_mask(grid):
    """Full-layout 2/3-rule mask: True where |k_j| <= (n_j - 1) // 3 on
    every axis; its first n3/2 + 1 columns are the half layout's."""
    kept = [np.abs(np.fft.fftfreq(n, 1 / n)) <= (n - 1) // 3 for n in grid.shape]
    return kept[0][:, None, None] & kept[1][None, :, None] & kept[2][None, None, :]


def derivative_lines(grid, half=True):
    """(kd1, kd2, kd3): the grid's wavenumbers with each axis's Nyquist
    entry zeroed, which keeps odd derivatives of raw transformed samples
    real, each shaped to broadcast along its axis; kd3 holds the half
    layout's columns 0..n3/2 as magnitudes, or the full layout's n3
    entries if not `half`.  The package needs neither, since no box holds
    a Nyquist mode; the half and full layouts here do."""
    lines = []
    for axis, n in enumerate(grid.shape):
        k = grid.k_axis(axis).copy()
        k[n // 2] = 0.0
        if axis == 2 and half:
            k = np.abs(k[: n // 2 + 1])
        lines.append(k.reshape([-1 if a == axis else 1 for a in range(3)]))
    return tuple(lines)


def half_layout_inv_kd_squared(grid):
    """1 / |kd|^2 on the whole half layout, from derivative_lines, and 0
    where every kd of a mode vanishes: the mean mode, and the modes whose
    every axis sits at 0 or its Nyquist entry."""
    kd1, kd2, kd3 = derivative_lines(grid)
    ksq = kd1**2 + kd2**2 + kd3**2
    return np.divide(1.0, ksq, out=np.zeros(ksq.shape), where=ksq > 0)


def half_layout_leray(field):
    """Reference Leray projection of every mode of the field's half
    layout, c - kd (kd . c) / |kd|^2, in the order of operations of
    admles.spectral.project_coeffs: half-layout coefficients."""
    g, c = field.grid, half_layout(field)
    kd = derivative_lines(g)
    kdotu = kd[0] * c[0]
    kdotu += kd[1] * c[1]
    kdotu += kd[2] * c[2]
    kdotu *= half_layout_inv_kd_squared(g)
    return np.stack([c[i] - kd[i] * kdotu for i in range(3)])


def half_layout_lines(field):
    """The k3 lines (plain, horizontal, full) of admles.spectral.FieldNorms
    read on the field's half layout with the grid's true k1 and k2, in
    the order of operations of FieldNorms."""
    g, c = field.grid, half_layout(field)
    mass = c.real**2
    mass += c.imag**2
    if mass.ndim == 4:
        mass = mass.sum(axis=0)
    plain = mass.sum(axis=(0, 1))
    mass *= g.k_axis(0).reshape(-1, 1, 1) ** 2 + g.k_axis(1).reshape(1, -1, 1) ** 2
    horizontal = mass.sum(axis=(0, 1))
    return plain, horizontal, horizontal + g.k3[0, 0] ** 2 * plain


def three_component_mass(c):
    """|c|^2 of every component in one array, then summed over the
    component axis: the form of admles.spectral.FieldNorms before it
    went one component at a time."""
    mass = c.real**2
    mass += c.imag**2
    return mass.sum(axis=0) if mass.ndim == 4 else mass


def union_inner(f, h, weight=1.0):
    """admles.spectral.inner_product read on the union of the two boxes,
    each field embedded there, as it was before it read the common box."""
    g = f.grid
    union = g.box(tuple(map(max, f.band.cutoffs, h.band.cutoffs)))
    a, b = f.band.embed(f.coeffs, union), h.band.embed(h.coeffs, union)
    prod = b.real * a.real
    prod += b.imag * a.imag
    line = np.zeros(g.n3 // 2 + 1)
    line[:union.shape[-1]] = prod.sum(axis=tuple(range(prod.ndim - 1)))
    return quadratic_form(g, line, weight)


def half_layout_norms(field):
    """A FieldNorms whose lines are half_layout_lines(field)."""
    norms = object.__new__(FieldNorms)
    norms.grid = field.grid
    norms.plain, norms.horizontal, norms.full = half_layout_lines(field)
    return norms


def half_layout_inner(f, h, weight=1.0):
    """admles.spectral.inner_product read on the half layouts of f and h."""
    a, b = half_layout(f), half_layout(h)
    prod = b.real * a.real
    prod += b.imag * a.imag
    return quadratic_form(f.grid, prod.sum(axis=tuple(range(prod.ndim - 1))), weight)


def samples(field):
    """The field's samples on its grid: irfftn of its half layout."""
    return np.fft.irfftn(half_layout(field), s=field.grid.shape, axes=AXES,
                         norm="forward")


def divergence_of_square(field):
    """div(z x z) of a vector field z on the 2/3 band of its grid, from
    the full transforms: irfftn of its half layout, the nine products
    z_i z_j, rfftn, then component j = sum_i i kd_i FT(z_i z_j).  The
    products' band 2K < n - K aliases nothing onto the 2/3 band, so
    its coefficients there are exact."""
    g = field.grid
    z = samples(field)
    products = np.fft.rfftn(z[:, None] * z[None, :], axes=AXES, norm="forward")
    kd = derivative_lines(g)
    div = np.stack([sum(1j * kd[i] * products[i, j] for i in range(3)) for j in range(3)])
    return VectorField(g.band, gather(g.band, div))


def convective_inner_reference(u, v, w):
    """((u . grad) v, w) by the rectangle rule on the grid's own points,
    each field scattered to the half layout and sampled by irfftn.  The
    integrand's band, at most 3 (n - 1) // 3 < n per axis, is integrated
    exactly."""
    g = u.grid
    c = half_layout(v)
    grad_v = np.fft.irfftn(np.stack([1j * kd * c for kd in derivative_lines(g)]),
                           s=g.shape, axes=AXES, norm="forward")
    return g.volume * float(np.mean(np.einsum("i...,ij...,j...->...",
                                              samples(u), grad_v, samples(w))))


def beltrami_field(grid, modes, amplitudes, helicity=1):
    """A field whose mode m = (m1, m2, m3) holds amplitude times the unit
    eigenvector of v -> i k x v (the curl) for the eigenvalue helicity
    |k|, with k the mode's true wavenumber; the mirror -m holds its
    conjugate, an eigenvector of the same eigenvalue.  With helicity +1
    and one |k| for every mode the field is Beltrami: curl w = |k| w.
    No two modes may be equal or mirrors of each other."""
    full = np.zeros((3, *grid.shape), dtype=np.complex128)
    for m, amplitude in zip(modes, amplitudes, strict=True):
        k = np.array([2.0 * np.pi * mj / length for mj, length in zip(m, grid.sizes)])
        curl = 1j * np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
        values, vectors = np.linalg.eigh(curl)  # ascending: -|k|, 0, +|k|
        v = amplitude * vectors[:, 0 if helicity < 0 else 2]
        assert np.allclose(curl @ v, helicity * np.linalg.norm(k) * v)
        for sign, c in ((1, v), (-1, np.conj(v))):
            index = tuple(sign * mj % n for mj, n in zip(m, grid.shape))
            assert not full[(slice(None), *index)].any(), f"mode {m} given twice"
            full[(slice(None), *index)] = c
    assert not full[:, ~rule_mask(grid)].any(), "modes outside the 2/3 band"
    return half_field(grid, full)


def hermitian_defect(full):
    """max |c_k - conj(c_-k)| of full-layout coefficients; zero iff real."""
    return float(np.max(np.abs(full - np.conj(mirror(full)))))


def half_field(grid, full):
    """The VectorField of the 2/3 band of Hermitian full-layout
    (3, n1, n2, n3) coefficients; the rest is dropped."""
    assert hermitian_defect(full) <= 1e-10 * np.max(np.abs(full))
    band = grid.band
    return VectorField(band, gather(band, full[..., : grid.n3 // 2 + 1]))


def full_field(grid, coeffs):
    """The field of the 2/3 band of hand-built full-layout (3, n1, n2,
    n3) coefficients, symmetrized to the nearest Hermitian array first."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    return half_field(grid, 0.5 * (coeffs + np.conj(mirror(coeffs))))


def centered_draw(rng, b, decay, components):
    """Hermitian, mean-zero coefficients weighted by |k|^{-decay} on the
    whole centered cube {-b..b}^3 (axis position a holds mode a - b):
    the real parts of the cube from one standard_normal call, the
    imaginary parts from a second, and every mode symmetrized with the
    conjugate draw of its mirror."""
    side = 2 * b + 1
    shape = (components, side, side, side)
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    sym = 0.5 * (raw + np.conj(raw[:, ::-1, ::-1, ::-1]))
    m = np.arange(-b, b + 1)
    k2 = (m[:, None, None] ** 2 + m[None, :, None] ** 2
          + m[None, None, :] ** 2).astype(np.float64)
    with np.errstate(divide="ignore"):
        weights = np.where(k2 > 0, k2 ** (-decay / 2.0), 0.0)
    return sym * weights[None]


def full_layout_draw(rng, spec, grid, components=3, project=True):
    """The centered_draw of `spec` embedded in the full layout
    (components, n1, n2, n3) of `grid`, and Leray-projected there if
    `project`, in the operand order of the projection."""
    b = spec.band_limit
    cube = centered_draw(rng, b, spec.amplitude_decay, components)
    p1, p2, p3 = (np.arange(-b, b + 1) % n for n in grid.shape)
    c = np.zeros((components, *grid.shape), dtype=np.complex128)
    c[:, p1[:, None, None], p2[None, :, None], p3[None, None, :]] = cube
    if not project:
        return c
    kd1, kd2, kd3 = derivative_lines(grid, half=False)
    ksq = kd1**2 + kd2**2 + kd3**2
    inv = np.where(ksq > 0, 1.0 / np.where(ksq > 0, ksq, 1.0), 0.0)
    factor = (kd1 * c[0] + kd2 * c[1] + kd3 * c[2]) * inv
    return np.stack([c[0] - kd1 * factor, c[1] - kd2 * factor, c[2] - kd3 * factor])


def component(field, i):
    """Component i of a vector field, on its box."""
    return SpectralField(field.band, field.coeffs[i])


def gradient(field):
    """grad f of a scalar field, on its box."""
    b, c = field.band, field.coeffs
    return VectorField(b, np.stack([1j * b.kd1 * c, 1j * b.kd2 * c, 1j * b.kd3 * c]))
