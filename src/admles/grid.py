"""Uniform periodic grid and its Fourier wavenumbers.

Conventions
-----------
The box is [0, L1) x [0, L2) x [0, L3) with n_j even sample points per
axis.  Wavenumbers follow numpy FFT ordering,

    k_j in {0, 1, ..., n_j/2 - 1, -n_j/2, ..., -1} * (2*pi / L_j),

so the Nyquist mode of each axis sits at -n_j/2; wavenumbers(n, L) is
the one routine that lists them.
The 2/3-rule band of the rfftn layout (n1, n2, n3/2 + 1) is the box
Grid.band: rows 0..K and n-K..n-1 on the two full axes and columns 0..K
on the half axis, with K = (n - 1) // 3 per axis, the largest |k| < n/3,
so a product mode |k| <= 2K aliases onto |k| >= n - 2K > K, outside the
band (K = n/3 would let 2K alias onto -K).  A field stores the
coefficients of a box (a Band) inside that band, and nothing else: the
k3 lines and all built from them hold k3 = 0, 1, ..., n3/2, and a box
reads the columns band.cols of them.  Grid.box gives one Band per
cutoffs on a grid for as long as anything holds it, so every field of a
box shares its lines and its sampling scratch (Band.workspace, one per
thread).  A Band holds its grid, and nothing the grid keeps holds a
Band, so reference counting frees both.  The half layout itself is only
transform scratch, held one slab of planes at a time by a BandWorkspace.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator

import numpy as np

TWO_PI = 2.0 * np.pi

# The byte budget of one slab of half-layout planes in a BandWorkspace:
# the transforms hold this much of a half layout at a time, whatever the
# grid.  It exceeds the (3, 22, 22, 22) workspace of the inequality
# bench, 511,104 bytes, so that runs as one slab.
SLAB_BYTES = 512 * 1024


def check_rules(errors: list[str]) -> None:
    """Raise one ValueError listing `errors`, if any: one broken rule per
    line, each starting with the field it names ("n1: 7 must be even")."""
    if errors:
        raise ValueError("\n".join(errors))


def rule_errors(check, *args, rename: dict[str, str] | None = None) -> list[str]:
    """The lines of the ValueError that check(*args) raises, [] if none,
    with each line's leading field renamed through `rename`; a line
    repeated after renaming is listed once."""
    try:
        check(*args)
    except ValueError as exc:
        lines = (line.partition(":") for line in str(exc).splitlines())
        return list(dict.fromkeys((rename or {}).get(field, field) + colon + rest
                                  for field, colon, rest in lines))
    return []


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def wavenumbers(n: int, length: float) -> np.ndarray:
    """The wavenumbers of n modes on a period `length`, in FFT order."""
    return np.fft.fftfreq(n, d=1.0 / n) * (TWO_PI / length)


def dealias_cutoff(n: int) -> int:
    """The 2/3-rule cutoff of an axis of n modes: the largest |k| < n/3."""
    return (n - 1) // 3


def check_band(band: int, shape: tuple[int, int, int]) -> None:
    """Raises ValueError unless the modes |k_j| <= band lie in the 2/3
    band of a grid of `shape`."""
    cutoff = min(dealias_cutoff(n) for n in shape)
    if band > cutoff:
        raise ValueError(
            f"band: {band} lies outside the retained band (cutoff {cutoff})")


def _rows_on(cutoffs: tuple[int, int, int], shape: tuple[int, int, int]):
    """(band slice, half slice) of the low and high row block of each
    full axis of a box of `cutoffs`, on a half layout of grid shape
    `shape`."""
    if any(2 * k + 1 > n for k, n in zip(cutoffs, shape)):
        raise ValueError(f"band: cutoffs {cutoffs} do not fit "
                         f"a grid of shape {shape}")
    return tuple(((slice(0, k + 1),) * 2, (slice(k + 1, None), slice(n - k, n)))
                 for k, n in zip(cutoffs, shape[:2]))


@lru_cache(maxsize=64)
def _box_indices(inner: tuple[int, int, int], outer: tuple[int, int, int]):
    """Band.blocks_in of a box of cutoffs `inner` in one of cutoffs
    `outer`, built once per pair of cutoffs, the only thing they depend
    on; the cache holds no Band or Grid.  A box is the half layout of a
    grid of shape (2 K1 + 1, 2 K2 + 1, 2 K3 + 1)."""
    rows1, rows2 = _rows_on(inner, tuple(2 * k + 1 for k in outer))
    cols = slice(0, inner[2] + 1)
    return tuple(((..., b1, b2, slice(None)), (..., h1, h2, cols))
                 for b1, h1 in rows1 for b2, h2 in rows2)


class Band:
    """A box of half-layout coefficients with cutoffs (K1, K2, K3),
    stored compactly with shape (2 K1 + 1, 2 K2 + 1, K3 + 1).

    Band rows 0..K hold modes 0..K and rows K+1..2K hold -K..-1, on each
    of the two full axes; the half axis keeps columns 0..K3.  The box is
    the layout of every field (the grid's 2/3 band for the solver's state
    and sampled fields, cutoffs (b, b, b) for a draw and a random
    forcing); embed moves its coefficients onto a larger box, restrict
    reads them off one, and blocks_in indexes its modes on one (index
    lists cached per pair of cutoffs, not per box).
    A box fits a grid shape whose axes hold its rows (2 K + 1 <= m).
    Since 2 K + 1 <= n, a box never holds a Nyquist row or column, and
    every multiplier on it is built from its own lines kd1, kd2, kd3:
    the grid's true wavenumbers at its modes (k_axis at its rows, k3 at
    its columns).  Those and inv_kd_squared are read-only, and built on
    first use, since many boxes (the common box of two, say) only move
    coefficients; so are its sampling workspaces (see workspace), which
    are scratch.
    """

    def __init__(self, grid: "Grid", cutoffs: tuple[int, int, int]):
        k1, k2, k3 = self.cutoffs = cutoffs
        self.grid = grid
        self.shape = (2 * k1 + 1, 2 * k2 + 1, k3 + 1)
        self.cols = slice(0, k3 + 1)
        _rows_on(cutoffs, grid.shape)  # raises unless the grid holds the box
        self._scratch = threading.local()

    def _rows(self, axis: int) -> np.ndarray:
        """Indices of the box's rows on full axis `axis` of its grid."""
        k, n = self.cutoffs[axis], self.grid.shape[axis]
        return np.r_[0:k + 1, n - k:n]

    @cached_property
    def kd1(self) -> np.ndarray:
        return _read_only(self.grid.k_axis(0)[self._rows(0)].reshape(-1, 1, 1))

    @cached_property
    def kd2(self) -> np.ndarray:
        return _read_only(self.grid.k_axis(1)[self._rows(1)].reshape(1, -1, 1))

    @cached_property
    def kd3(self) -> np.ndarray:
        return _read_only(self.grid.k3[..., self.cols])

    @cached_property
    def inv_kd_squared(self) -> np.ndarray:
        """1 / |kd|^2 on the box, and 0 at the mean mode, the one mode
        whose kd all vanish."""
        ksq = self.kd1**2 + self.kd2**2 + self.kd3**2
        return _read_only(np.divide(1.0, ksq, out=np.zeros(ksq.shape), where=ksq > 0))

    def workspace(self, shape: tuple[int, int, int],
                  components: int = 1) -> BandWorkspace:
        """The calling thread's one BandWorkspace of the box on grid shape
        `shape` for groups of `components` components, the only way to
        get one: every caller on the thread shares it, and each call that
        takes it may overwrite all of its buffers.  It lives in a
        threading.local of the box, so no two threads share one, and a
        thread's workspaces go when the thread or the box does."""
        spaces = vars(self._scratch)
        key = (shape, components)
        if key not in spaces:
            spaces[key] = BandWorkspace(self, shape, components)
        return spaces[key]

    def blocks_in(self, box: "Band") -> tuple[tuple[tuple, tuple], ...]:
        """(index on this box, index on `box`) of each of this box's four
        row blocks, for a box `box` that holds it; the indices are basic
        slices, so both give views."""
        return _box_indices(self.cutoffs, box.cutoffs)

    def embed(self, coeffs: np.ndarray, box: "Band") -> np.ndarray:
        """A fresh array of the box `box` that holds this box: `coeffs` on
        this box's modes, zero elsewhere."""
        out = np.zeros((*coeffs.shape[:-3], *box.shape), dtype=coeffs.dtype)
        for mine, theirs in self.blocks_in(box):
            out[theirs] = coeffs[mine]
        return out

    def restrict(self, coeffs: np.ndarray, box: "Band") -> np.ndarray:
        """The coefficients `coeffs` of the box `box`, which holds this
        box, on this box's modes: a fresh array."""
        out = np.empty((*coeffs.shape[:-3], *self.shape), dtype=coeffs.dtype)
        for mine, theirs in self.blocks_in(box):
            out[mine] = coeffs[theirs]
        return out


class BandWorkspace:
    """Scratch of the pruned transforms (spectral.band_inverse and
    band_forward) between a box and the samples on a grid shape (m1, m2,
    m3) that holds it, for groups of `components` components; callers get
    one from Band.workspace.  It keeps the box's row blocks `rows1`,
    `rows2` on that shape, its columns `cols` and shape `band_shape`, and
    no reference to the Band.  The transforms stream the samples through
    slabs of `slab` planes along axis 0 (slabs), the most that fit
    SLAB_BYTES, at least one and at most m1.  Its buffers:

    - `columns` (components, m1, 2 K2 + 1, K3 + 1): every transform
      overwrites it and reads nothing a caller left there; band_forward
      hands back its box as a view of the first 2 K1 + 1 planes of
      columns[0], which the next transform overwrites;
    - `half` (components, slab, m2, m3/2 + 1): every transform overwrites
      it, and band_divergence and the stepper's project_coeffs cut their
      temporaries from it, so it is free between calls;
    - `product` (one slab of real samples): overwritten by band_forward
      of a product, and built on first use, so a workspace that only
      samples holds `columns` and `half`.
    """

    def __init__(self, band: Band, shape: tuple[int, int, int], components: int):
        m1, m2, m3 = self.shape = shape
        self.cols, self.band_shape = band.cols, band.shape
        self.rows1, self.rows2 = _rows_on(band.cutoffs, shape)
        plane = components * m2 * (m3 // 2 + 1) * np.dtype(np.complex128).itemsize
        self.slab = min(m1, max(1, SLAB_BYTES // plane))
        self.columns = np.zeros((components, m1, *band.shape[1:]), dtype=np.complex128)
        self.half = np.zeros((components, self.slab, m2, m3 // 2 + 1),
                             dtype=np.complex128)

    def slabs(self) -> Iterator[slice]:
        """The slabs of planes along axis 0 that the transforms stream
        through, in order; the last may be short."""
        m1 = self.shape[0]
        return (slice(first, min(first + self.slab, m1))
                for first in range(0, m1, self.slab))

    @cached_property
    def product(self) -> np.ndarray:
        return np.empty((self.slab, *self.shape[1:]))


@dataclass(frozen=True)
class Grid:
    """Discrete periodic box: modes per axis and box periods."""

    n1: int
    n2: int
    n3: int
    L1: float = TWO_PI
    L2: float = TWO_PI
    L3: float = TWO_PI

    def __post_init__(self):
        errors = []
        for name, n in zip(("n1", "n2", "n3"), self.shape):
            if n % 2:
                errors.append(f"{name}: {n} must be even")
            if n < 4:
                errors.append(f"{name}: {n} must be >= 4")
        for name, length in zip(("L1", "L2", "L3"), self.sizes):
            if not 0.0 < length < np.inf:
                errors.append(f"{name}: {length} must be positive and finite")
        check_rules(errors)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n1, self.n2, self.n3)

    @property
    def sizes(self) -> tuple[float, float, float]:
        return (self.L1, self.L2, self.L3)

    @property
    def volume(self) -> float:
        return self.L1 * self.L2 * self.L3

    def k_axis(self, axis: int) -> np.ndarray:
        """Wavenumbers along `axis` in FFT order (Nyquist at -n/2)."""
        return wavenumbers(self.shape[axis], self.sizes[axis])

    @staticmethod
    def _expand(arr: np.ndarray, axis: int) -> np.ndarray:
        shape = [1, 1, 1]
        shape[axis] = arr.size
        return arr.reshape(shape)

    @cached_property
    def k3(self) -> np.ndarray:
        """k3 = 0, 1, ..., n3/2 (the Nyquist stored positive)."""
        return self._expand(np.abs(self.k_axis(2)[: self.n3 // 2 + 1]), 2)

    @cached_property
    def parseval_weight(self) -> np.ndarray:
        """2 where stored column k3 also stands for its mirror -k3, else 1."""
        k3 = np.arange(self.n3 // 2 + 1)
        return self._expand(np.where((k3 > 0) & (k3 < self.n3 // 2), 2.0, 1.0), 2)

    @property
    def band(self) -> Band:
        """The 2/3-rule box of the half layout (see Band)."""
        return self.box(tuple(map(dealias_cutoff, self.shape)))

    @cached_property
    def _boxes(self) -> weakref.WeakValueDictionary:
        return weakref.WeakValueDictionary()

    def box(self, cutoffs: tuple[int, int, int]) -> Band:
        """The one Band of `cutoffs` on this grid: while anything holds
        it, every call with the same cutoffs returns the same object, so
        its lines and workspaces are built once.  The grid holds its
        boxes weakly, since each Band holds the grid."""
        box = self._boxes.get(cutoffs)
        if box is None:
            box = self._boxes[cutoffs] = Band(self, cutoffs)
        return box

    @cached_property
    def max_dealiased_wavenumber(self) -> float:
        """Largest physical |k_j| surviving the 2/3 rule, over all axes."""
        return max(dealias_cutoff(n) * TWO_PI / L
                   for n, L in zip(self.shape, self.sizes))

    def axis_points(self, axis: int) -> np.ndarray:
        n = self.shape[axis]
        L = self.sizes[axis]
        return np.arange(n) * (L / n)

    def mesh(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable physical coordinates (x1, x2, x3)."""
        return tuple(
            self._expand(self.axis_points(axis), axis) for axis in range(3)
        )
