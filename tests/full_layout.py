"""Test references for coefficients written in the full FFT layout.

Fields store only the rfftn half (..., n1, n2, n3/2 + 1).  Tests that
build coefficients by hand, or that compare with a full-layout
reference, use these helpers.  The package has no entry point for the
full layout: full_field and beltrami_field assert that their
coefficients are Hermitian, then keep the first n3/2 + 1 columns.
"""

import numpy as np

from admles.spectral import VectorField

AXES = (-3, -2, -1)


def mirror(coeffs):
    """Coefficients at -k, FFT order on the last three axes."""
    return np.roll(np.flip(coeffs, AXES), 1, AXES)


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


def dealias(field):
    """The field with every mode outside the 2/3-rule band zeroed: its
    band gathered and scattered into a fresh half layout."""
    band = field.grid.band
    return field.with_coeffs(band.scatter(band.gather(field.coeffs)))


def half_layout_inv_kd_squared(grid):
    """1 / |kd|^2 on the whole half layout, from the Grid's derivative
    lines, and 0 where every kd of a mode vanishes: the mean mode, and
    the modes whose every axis sits at 0 or its Nyquist entry."""
    ksq = grid.kd1**2 + grid.kd2**2 + grid.kd3**2
    return np.divide(1.0, ksq, out=np.zeros(ksq.shape), where=ksq > 0)


def half_layout_leray(field):
    """Reference Leray projection of every mode of the half layout,
    c - kd (kd . c) / |kd|^2, in the order of operations of
    admles.spectral.project_coeffs."""
    g, c = field.grid, field.coeffs
    kd = (g.kd1, g.kd2, g.kd3)
    kdotu = kd[0] * c[0]
    kdotu += kd[1] * c[1]
    kdotu += kd[2] * c[2]
    kdotu *= half_layout_inv_kd_squared(g)
    return VectorField(g, np.stack([c[i] - kd[i] * kdotu for i in range(3)]))


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
    return half_field(grid, full)


def hermitian_defect(full):
    """max |c_k - conj(c_-k)| of full-layout coefficients; zero iff real."""
    return float(np.max(np.abs(full - np.conj(mirror(full)))))


def half_field(grid, full):
    """The VectorField of Hermitian full-layout (3, n1, n2, n3)
    coefficients: their first n3/2 + 1 columns."""
    assert hermitian_defect(full) <= 1e-10 * np.max(np.abs(full))
    return VectorField(grid, full[..., : grid.n3 // 2 + 1])


def full_field(grid, coeffs):
    """The field of hand-built full-layout (3, n1, n2, n3) coefficients,
    symmetrized to the nearest Hermitian array first."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    return half_field(grid, 0.5 * (coeffs + np.conj(mirror(coeffs))))


def gradient(field):
    """grad f of a scalar field, with the derivative wavenumbers."""
    g, c = field.grid, field.coeffs
    return VectorField(g, np.stack([1j * g.kd1 * c, 1j * g.kd2 * c, 1j * g.kd3 * c]))
