"""Centered sampling grids and discrete Fourier transforms on them.

Functions are sampled on the centered lattice x_k = (k - n/2) * step,
k = 0..n-1, one axis per coordinate.  The forward transform along an axis is
the Riemann-sum Fourier integral

    F(xi_m) = sum_k f(x_k) exp(-2 pi i xi_m x_k) * step,

evaluated exactly by an FFT between shifted index conventions; the frequency
axis is again centered, with step 1 / (n * step).  A grid whose frequency
lattice coincides with its space lattice (n * step^2 = 1, i.e. n = 4 T^2 for
half-width T) is called self-dual; transforms then map a grid to itself.

``centered_dft`` is the one transform loop.  It works on plain arrays, so
the numeric layer keeps its intermediates as arrays and follows one rule:
one ``GridFunction`` per public result (the constructor copies its input).

Quadrature, norms and inner products all carry the lattice weight, so the
discrete Parseval identity holds exactly on every grid.

Norms in slabs.  ``slab_norm`` reduces a function that arrives as
consecutive slabs of axis-0 rows (``row_slabs`` cuts them), so a
phase-space norm never needs the whole array.  It reproduces the full-array
floats bit for bit: the mixed norm adds each row's |f|^p into one
accumulator in row order, as numpy reduces a leading axis, and the plain
L^p norm sums along numpy's pairwise split (halve the range, round the half
down to a multiple of 8), calling ``np.sum`` on every piece of that tree
that lies in one slab.  ``lpq_norm`` is ``slab_norm`` on one slab;
``lp_norm`` stays the direct full-array oracle.  A slab holds at least
``SLAB_BYTES`` of complex entries, or all rows: builders that run on slabs
must round like the full-array code, and numpy computes an expression in
place (with swapped operands, so a complex product rounds differently) only
for temporaries of 256 KiB or more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

#: relative outer-shell mass below which a sampled function counts as decayed
DECAY_FLAG_LEVEL = 1e-10

#: least bytes of complex entries per slab of rows (the last slab takes the
#: leftover rows).  numpy elides temporaries of 256 KiB (16384 complex
#: entries) or more: it runs e.g. ``vals * np.exp(...)`` in place in the
#: temporary, with the operands swapped, and its complex multiply does not
#: round commutatively.  A slab below that floor would change bits against
#: the full array.
SLAB_BYTES = 4 * 2**20


@dataclass(frozen=True)
class Axis:
    """One centered sampling axis: n points spaced by step."""

    n: int
    step: float

    def __post_init__(self):
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError(f"axis needs an even number of points >= 2, got {self.n}")
        if not self.step > 0.0:
            raise ValueError(f"axis step must be positive, got {self.step}")

    def points(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.step

    @property
    def extent(self) -> float:
        """Half-width T: points cover [-T, T)."""
        return self.n * self.step / 2.0

    def dual(self) -> "Axis":
        return Axis(self.n, 1.0 / (self.n * self.step))

    def close_to(self, other: "Axis") -> bool:
        return self.n == other.n and math.isclose(self.step, other.step, rel_tol=1e-9)

    @property
    def is_selfdual(self) -> bool:
        return math.isclose(self.n * self.step * self.step, 1.0, rel_tol=1e-9)


@dataclass(frozen=True)
class Grid:
    """A tensor product of centered axes."""

    axes: tuple[Axis, ...]

    def __post_init__(self):
        if not self.axes:
            raise ValueError("grid needs at least one axis")
        object.__setattr__(self, "axes", tuple(self.axes))

    # -- constructors ----------------------------------------------------

    @classmethod
    def regular(cls, d: int, n: int, extent: float) -> "Grid":
        """Isotropic grid: d axes, n points each (a power of two), half-width extent."""
        if d < 1:
            raise ValueError(f"dimension must be positive, got {d}")
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"samples per axis must be a power of two >= 8, got {n}")
        if not extent > 0.0:
            raise ValueError(f"extent must be positive, got {extent}")
        return cls((Axis(n, 2.0 * extent / n),) * d)

    @classmethod
    def selfdual(cls, d: int, n: int) -> "Grid":
        """Isotropic grid with coinciding space and frequency lattices (T = sqrt(n)/2)."""
        return cls.regular(d, n, math.sqrt(n) / 2.0)

    # -- geometry --------------------------------------------------------

    @property
    def d(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.n for ax in self.axes)

    @property
    def weight(self) -> float:
        """Quadrature weight of one lattice cell."""
        out = 1.0
        for ax in self.axes:
            out *= ax.step
        return out

    @property
    def is_selfdual(self) -> bool:
        return all(ax.is_selfdual for ax in self.axes)

    def meshgrid(self) -> list[np.ndarray]:
        return np.meshgrid(*(ax.points() for ax in self.axes), indexing="ij")

    def open_mesh(self) -> tuple[np.ndarray, ...]:
        """Coordinates as broadcastable per-axis arrays (``np.ix_``), no full copies."""
        return np.ix_(*(ax.points() for ax in self.axes))

    def dualized(self, axes: Iterable[int]) -> "Grid":
        """Replace the given 0-based axes by their frequency duals."""
        which = set(axes)
        return Grid(tuple(ax.dual() if i in which else ax for i, ax in enumerate(self.axes)))

    def close_to(self, other: "Grid") -> bool:
        return self.d == other.d and all(a.close_to(b) for a, b in zip(self.axes, other.axes))


class GridFunction:
    """Complex samples of a function on a grid; values are read-only."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=complex)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} does not match grid shape {grid.shape}")
        values = values.copy()
        values.flags.writeable = False
        self.grid = grid
        self.values = values

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.grid, values)

    @property
    def decay_ok(self) -> bool:
        """Whether the outermost index shell is negligible relative to the peak.

        Wrap-around artifacts of lattice translations and transforms are
        controlled exactly when this holds.
        """
        peak = float(np.abs(self.values).max(initial=0.0))
        if peak == 0.0:
            return True
        shell = 0.0
        for ax in range(self.grid.d):
            sl = [slice(None)] * self.grid.d
            for edge in (0, -1):
                sl[ax] = edge
                shell = max(shell, float(np.abs(self.values[tuple(sl)]).max(initial=0.0)))
        return shell <= DECAY_FLAG_LEVEL * peak

    def __repr__(self) -> str:
        return f"GridFunction(shape={self.grid.shape})"


# -- lattice arithmetic ---------------------------------------------------


def form_sum(coef, x: Sequence[np.ndarray], y: Sequence[np.ndarray] | None = None) -> np.ndarray:
    """sum_ij coef[i, j] x_i y_j (y defaults to x) for a matrix ``coef``, or
    sum_i coef[i] x_i for a vector, on broadcastable coordinate arrays.

    Nonzero terms are added one at a time, in row-major order, onto zeros of
    the broadcast shape.
    """
    y = x if y is None else y
    coef = np.asarray(coef)
    shape = np.broadcast_shapes(*(np.shape(v) for v in (*x, *y)))
    total = np.zeros(shape, dtype=np.result_type(coef, *x))
    for idx in zip(*np.nonzero(coef)):
        term = coef[idx] * x[idx[0]]
        total = total + (term * y[idx[1]] if coef.ndim == 2 else term)
    return total


def lattice_reads(
    shape: tuple[int, ...], a: int, b: int, rows: slice = slice(None)
) -> tuple[np.ndarray, ...]:
    """Per-axis indices (a (j - h) + b (k - h) + h) mod n of a periodic read.

    j runs over the first d axes of the doubled grid (*shape, *shape), k over
    the last d, and h = n // 2 is the centre of each axis.  ``rows`` keeps
    the j of axis 0 in that slice, the x-rows of one slab.  The arrays
    broadcast against the doubled shape (with axis 0 cut to ``rows``); each
    holds at most n^2 entries.
    """
    d = len(shape)
    out = []
    for ax, n in enumerate(shape):
        h = n // 2
        centred = np.arange(n) - h
        idx = h
        for coef, slot in ((a, ax), (b, d + ax)):
            if coef:
                pts = centred[rows] if slot == 0 else centred
                idx = idx + coef * pts.reshape([-1 if i == slot else 1 for i in range(2 * d)])
        out.append(idx % n)
    return tuple(out)


# -- transforms -----------------------------------------------------------


def centered_dft(
    values: np.ndarray, grid: Grid, axes: Sequence[int], inverse: bool = False
) -> np.ndarray:
    """Centered Fourier integral of samples on ``grid`` along the given 0-based
    axes (conjugate kernel if ``inverse``); the result lives on the grid with
    those axes dualized."""
    transform = np.fft.ifft if inverse else np.fft.fft
    for ax in axes:
        n, step = grid.axes[ax].n, grid.axes[ax].step
        values = np.fft.fftshift(
            transform(np.fft.ifftshift(values, axes=ax), axis=ax), axes=ax
        ) * (n * step if inverse else step)
    return values


def partial_dft(f: GridFunction, axes: Sequence[int]) -> GridFunction:
    """Centered Fourier integral along the given 0-based axes.

    Exact evaluation of the Riemann sum; the output lives on the grid with
    those axes dualized.
    """
    return GridFunction(f.grid.dualized(axes), centered_dft(f.values, f.grid, axes))


def partial_idft(f: GridFunction, axes: Sequence[int]) -> GridFunction:
    """Inverse of :func:`partial_dft` along the given axes (conjugate kernel)."""
    return GridFunction(f.grid.dualized(axes), centered_dft(f.values, f.grid, axes, inverse=True))


# -- norms and inner products ----------------------------------------------


def lp_norm(f: GridFunction, p: float) -> float:
    """Lattice L^p norm (Riemann sum with the cell weight); p may be inf."""
    if p <= 0.0:
        raise ValueError(f"p must be positive, got {p}")
    mags = np.abs(f.values)
    if math.isinf(p):
        return float(mags.max(initial=0.0))
    return float((np.sum(mags**p) * f.grid.weight) ** (1.0 / p))


def lpq_norm(f: GridFunction, p: float, q: float, split: int | None = None) -> float:
    """Mixed norm: L^p over the first ``split`` axes, then L^q over the rest.

    ``split`` defaults to half the axes (the tensor-slot convention for
    phase-space grids).
    """
    return slab_norm((f.values,), f.grid, p, q, split)


def row_slabs(grid: Grid) -> list[slice]:
    """Consecutive slices of axis 0 that cut ``grid`` into slabs of at least
    ``SLAB_BYTES`` of complex entries; the last one takes the leftover rows,
    and a grid smaller than one slab is one slab."""
    row_bytes = 16 * math.prod(grid.shape[1:])
    return row_blocks(grid.shape[0], -(-SLAB_BYTES // row_bytes))


def row_blocks(n: int, per_block: int) -> list[slice]:
    """Consecutive slices of ``range(n)`` with ``per_block`` rows each; the
    last one takes the leftover rows, and fewer than ``per_block`` rows are
    one block."""
    bounds = [k * per_block for k in range(max(1, n // per_block))] + [n]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _pairwise_sum(pieces: Iterator[np.ndarray], size: int) -> np.floating:
    """``np.sum`` of the concatenated 1-D ``pieces`` (``size`` entries), bit for bit.

    numpy sums a contiguous array pairwise: a range of more than 128 entries
    is split at half its length rounded down to a multiple of 8.  A node of
    that tree inside one piece is one ``np.sum`` call; a node across a piece
    boundary is split the same way or, at 128 entries or fewer, gathered.
    """
    piece, lo = np.empty(0), 0  # the current piece and its first index

    def node(a: int, b: int):
        nonlocal piece, lo
        while a >= lo + piece.size:
            lo, piece = lo + piece.size, next(pieces)
        if b <= lo + piece.size:
            return np.sum(piece[a - lo : b - lo])
        if b - a > 128:
            half = (b - a) // 2
            half -= half % 8
            return node(a, a + half) + node(a + half, b)
        parts = [piece[a - lo :]]
        while b > lo + piece.size:
            lo, piece = lo + piece.size, next(pieces)
            parts.append(piece[: b - lo])
        return np.sum(np.concatenate(parts))

    return node(0, size)


def slab_norm(
    rows: Iterable[np.ndarray], grid: Grid, p: float, q: float | None = None,
    split: int | None = None,
) -> float:
    """Norm of the function on ``grid`` whose values arrive as ``rows``:
    consecutive slabs of axis-0 rows, in order.

    With ``q`` this is the mixed norm of :func:`lpq_norm` (L^p over the
    first ``split`` axes, default half of them, then L^q); with ``q=None``
    it is :func:`lp_norm`.  Either float equals the full-array one exactly
    (see the module docstring), and memory stays at the size of a slab.
    """
    d = grid.d
    if q is None and p <= 0.0:
        raise ValueError(f"p must be positive, got {p}")
    if q is not None:
        if p <= 0.0 or q <= 0.0:
            raise ValueError(f"exponents must be positive, got p={p}, q={q}")
        if split is None:
            if d % 2 != 0:
                raise ValueError("mixed norm needs an explicit split for odd-dimensional grids")
            split = d // 2
        if not 0 < split < d:
            raise ValueError(f"split must cut the axes in two nonempty groups, got {split}")

    if q is None:
        if math.isinf(p):
            return float(np.max([np.abs(s).max(initial=0.0) for s in rows], initial=0.0))

        def powered():
            for slab in rows:
                mags = np.abs(slab)
                yield (mags**p).ravel()

        total = _pairwise_sum(powered(), math.prod(grid.shape))
        return float((total * grid.weight) ** (1.0 / p))

    outer_shape = grid.shape[split:]
    inner_axes = tuple(range(split))
    w_inner = 1.0
    for ax in grid.axes[:split]:
        w_inner *= ax.step
    w_outer = grid.weight / w_inner

    # each x-point's |f|^p is added in row order, as numpy reduces a
    # leading axis of a contiguous array
    acc = np.zeros(outer_shape)
    for slab in rows:
        mags = np.abs(slab)
        if math.isinf(p):
            np.maximum(acc, mags.max(axis=inner_axes), out=acc)
            continue
        for row in (mags**p).reshape((-1,) + outer_shape):
            acc += row
    inner = acc if math.isinf(p) else (acc * w_inner) ** (1.0 / p)
    if math.isinf(q):
        return float(inner.max(initial=0.0))
    return float((np.sum(inner**q) * w_outer) ** (1.0 / q))


def herm_inner(f: GridFunction, g: GridFunction) -> complex:
    """Weighted inner product <f, g> = sum f conj(g) * weight."""
    if not f.grid.close_to(g.grid):
        raise ValueError("inner product requires functions on the same grid")
    return complex(np.sum(f.values * np.conj(g.values)) * f.grid.weight)


def phase_align_distance(f: GridFunction, g: GridFunction) -> float:
    """min over |c| = 1 of ||f - c g||_2 / ||g||_2.

    Compares two sampled functions that are expected to agree up to a global
    unimodular constant.
    """
    norm_g = lp_norm(g, 2.0)
    if norm_g == 0.0:
        raise ValueError("cannot phase-align against the zero function")
    norm_f = lp_norm(f, 2.0)
    overlap = abs(herm_inner(f, g))
    gap = norm_f**2 + norm_g**2 - 2.0 * overlap
    return math.sqrt(max(gap, 0.0)) / norm_g
