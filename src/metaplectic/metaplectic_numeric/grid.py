"""Centered sampling grids and discrete Fourier transforms on them.

Functions are sampled on the centered lattice x_k = (k - n/2) * step,
k = 0..n-1, one axis per coordinate.  The forward transform along an axis is
the Riemann-sum Fourier integral

    F(xi_m) = sum_k f(x_k) exp(-2 pi i xi_m x_k) * step,

evaluated exactly by an FFT between shifted index conventions; the frequency
axis is again centered, with step 1 / (n * step).  A grid whose frequency
lattice coincides with its space lattice (n * step^2 = 1, i.e. n = 4 T^2 for
half-width T) is called self-dual; transforms then map a grid to itself.

``centered_dft`` is the one transform loop.  It shifts the input into FFT
order on every transformed axis at once and enters ``shifted_dft``, which
per axis runs the FFT and writes the two swapped half-blocks times the
lattice scale in one pass (the output shift; every axis length is even).
Callers whose samples are already in FFT order, like the distribution rows,
enter ``shifted_dft`` directly.  Both work on plain arrays, so the numeric
layer keeps its intermediates as arrays and follows one rule: one
``GridFunction`` per public result (the constructor copies its input).

Quadrature, norms and inner products all carry the lattice weight, so the
discrete Parseval identity holds exactly on every grid.  ``periodic_reads``
is the one periodic lattice read (a strided view, no index array): of the
signals for the distribution rows, of the scatter indices for the Wigner
adjoint of ``quantize``.  ``mirrored_exps`` is the one mirrored phase
table: on a centered lattice xi_{h-j} = -xi_{h+j} exactly, so a table of
exps of a phase that is odd in xi needs the exps of only about half its
entries.  The rescaling kernel and the Rihaczek rows fill it, each with its
own exps, so each keeps its own rounding.

Norms in slabs.  ``slab_norm`` reduces a function that arrives as
consecutive slabs of axis-0 rows (``row_slabs`` cuts them), so a
phase-space norm never needs the whole array; ``lp_norm`` and ``lpq_norm``
are ``slab_norm`` on one slab.  It reproduces the full-array floats bit for
bit in two loops.  The plain L^p norm of finite p sums along numpy's
pairwise split (halve the range, round the half down to a multiple of 8),
calling ``np.sum`` on every piece of that tree that lies in one slab; on
one slab that is one ``np.sum`` of all the powers.  Every other norm goes
through one accumulator over the outer axes: the mixed norm (L^p over the
first half of the axes, then L^q) adds each row's |f|^p into it in row
order, as numpy reduces a leading axis, and a sup over the inner axes
takes each slab's max into it (the plain sup norm has every axis inner
and no outer axis).  A slab holds at least ``SLAB_BYTES`` of
complex entries, or all rows: builders that run on slabs must round like
the full-array code, and numpy computes an expression in place (with
swapped operands, so a complex product rounds differently) only for
temporaries of 256 KiB or more.  ``slab_norm`` reports an overflow of
``np.abs`` on finite samples, which numpy's flag misses, through
``np.hypot``: it goes back to a slab's samples only when the magnitudes it
holds (the accumulator, or the slab's largest power) reach inf.

Worker threads.  ``worker_map`` runs the independent pieces of the two hot
loops, the rescaling's kernel blocks and the distribution slabs, on a pool
of two threads made on first use (one when the process may run on one CPU;
a forked child makes its own).  numpy releases the interpreter lock in
its exps, FFTs and BLAS products, so the two threads overlap.  Results come
back in order and no more than two run ahead (fewer if the caller says
so), and each call runs in a copy of the caller's ``contextvars`` context,
so ``np.errstate`` holds in the workers as in the caller.  A piece
computes the same floats on any thread, so the output does not depend on
the threads.
"""

from __future__ import annotations

import collections
import contextvars
import functools
import math
import os
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
#: the full array.  Above it, smaller slabs hold less memory, which counts
#: once two slabs are built ahead on the workers (``worker_map``): in the
#: benchmark's ``phase-space-norms`` (n = 2048, one BLAS thread, 2 CPUs),
#: 1 MiB slabs peaked at 61 MB of RSS for a median of 435-441 ms, 4 MiB
#: slabs at 91 MB for 409-433 ms, and the serial 4 MiB slabs at 73 MB
#: for 696-706 ms (two 20 s runs each).
SLAB_BYTES = 1 * 2**20

#: most worker threads, and most calls of ``worker_map`` in flight
MAX_WORKERS = 2


@dataclass(frozen=True)
class Axis:
    """One centered sampling axis: n points spaced by step."""

    n: int
    step: float

    def __post_init__(self):
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError(f"axis needs an even number of points >= 2, got {self.n}")
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise ValueError(f"axis step must be positive and finite, got {self.step}")

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
        if not (math.isfinite(extent) and extent > 0.0):
            raise ValueError(f"extent must be positive and finite, got {extent}")
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


def periodic_reads(values: np.ndarray):
    """``read(rows, sj, sk)``: the read-only view V[j, k] = values[(sj j + sk k)
    mod n] per axis (signs sj, sk = +-1) on the x-rows ``rows`` of the doubled
    grid (*shape, *shape), with no index array.

    It is a strided view of ``values`` tiled three times along every axis
    (entry n + m of an axis holds values[m mod n]), built once here.
    """
    shape = values.shape
    tiled = np.tile(values, (3,) * values.ndim)

    def read(rows: slice, sj: int, sk: int) -> np.ndarray:
        start, stop, _ = rows.indices(shape[0])
        corner = tuple(
            slice(n + (sj * start if ax == 0 else 0), None) for ax, n in enumerate(shape)
        )
        return np.lib.stride_tricks.as_strided(
            tiled[corner],
            (stop - start,) + shape[1:] + shape,
            tuple(sj * s for s in tiled.strides) + tuple(sk * s for s in tiled.strides),
            writeable=False,
        )

    return read


def _mirror_sources(shape: tuple[int, ...]) -> list[tuple[slice, ...]]:
    """Disjoint blocks of a lattice of ``shape`` (even lengths, h = n_1 / 2)
    that together hold every index with m_1 = 0, m_1 >= h, or, for
    1 <= m_1 < h, some later m_j = 0: the indices no mirror reaches."""
    h, d = shape[0] // 2, len(shape)
    every, inner = slice(None), slice(1, None)
    return [(slice(0, 1),) + (every,) * (d - 1), (slice(h, None),) + (every,) * (d - 1)] + [
        (slice(1, h),) + (inner,) * (j - 1) + (slice(0, 1),) + (every,) * (d - 1 - j)
        for j in range(1, d)
    ]


def mirrored_exps(out: np.ndarray, d: int, fill) -> np.ndarray:
    """Fill ``out``, a table of exps of a phase odd on its last ``d`` axes,
    from the exps of about half its entries.

    The last ``d`` axes of ``out`` index a centered frequency lattice with
    even lengths, on which xi_{h-j} = -xi_{h+j} holds exactly.  The caller's
    phase changes sign, bit for bit, when every one of these axes is
    mirrored at once.  ``fill(sl, part)`` writes the entries of the lattice
    block ``sl`` (one slice per axis) into ``part``, the view
    ``out[..., *sl]``.  It is called on the blocks of ``_mirror_sources``.
    Every other entry, (m_1, ..., m_d) with 1 <= m_1 < h and all
    m_j >= 1, is then copied from (n_1 - m_1, ..., n_d - m_d) as
    (re, 0.0 - im).  That copy has the bytes of the entry's own exp, since
    exp(-i t) is conj(exp(i t)) bit for bit.  ``np.conj`` would not do:
    a zero phase has an exp of +0 imaginary part, and conj makes it -0.
    """
    lead = (Ellipsis,)
    for sl in _mirror_sources(out.shape[-d:]):
        fill(sl, out[lead + sl])
    h = out.shape[-d] // 2
    mirror = out[lead + (slice(1, h),) + (slice(1, None),) * (d - 1)]
    np.copyto(mirror, out[lead + (slice(None, h, -1),) + (slice(None, 0, -1),) * (d - 1)])
    np.subtract(0.0, mirror.imag, out=mirror.imag)
    return out


# -- transforms -----------------------------------------------------------


def centered_dft(
    values: np.ndarray, grid: Grid, axes: Sequence[int], inverse: bool = False
) -> np.ndarray:
    """Centered Fourier integral of samples on ``grid`` along the given 0-based
    axes (conjugate kernel if ``inverse``); the result lives on the grid with
    those axes dualized."""
    axes = tuple(axes)
    return shifted_dft(np.fft.ifftshift(values, axes=axes), grid, axes, inverse)


def shifted_dft(
    values: np.ndarray, grid: Grid, axes: Sequence[int], inverse: bool = False
) -> np.ndarray:
    """:func:`centered_dft` of samples that are already in FFT order (the
    input shift done) on ``axes``.

    Each axis runs one FFT, then writes its two half-blocks, times the
    lattice scale, swapped into one fresh array: every axis length is even,
    so that is the output shift and the scaling in one pass.
    """
    transform = np.fft.ifft if inverse else np.fft.fft
    for ax in axes:
        n, step = grid.axes[ax].n, grid.axes[ax].step
        scale = n * step if inverse else step
        spec = transform(values, axis=ax)
        values = np.empty(spec.shape, dtype=spec.dtype)
        low = (slice(None),) * ax + (slice(None, n // 2),)
        high = (slice(None),) * ax + (slice(n // 2, None),)
        np.multiply(spec[high], scale, out=values[low])
        np.multiply(spec[low], scale, out=values[high])
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
    """Lattice L^p norm (Riemann sum with the cell weight; p may be inf):
    :func:`slab_norm` on one slab."""
    return slab_norm((f.values,), f.grid, p)


def _report_abs_overflow(values: np.ndarray, mags: np.ndarray) -> None:
    """Report, as ``np.errstate`` says, where ``mags = np.abs(values)``
    overflowed on finite samples.

    np.abs overflows near the largest float without setting numpy's flag;
    the magnitudes it overflowed on are redone with np.hypot, which sets it.
    """
    big = np.isinf(mags) & np.isfinite(values)
    np.hypot(values.real[big], values.imag[big])


def lpq_norm(f: GridFunction, p: float, q: float) -> float:
    """Mixed norm on a grid of 2k axes (phase space): L^p over the first k
    axes, then L^q over the rest."""
    return slab_norm((f.values,), f.grid, p, q)


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


@functools.cache
def _worker_pool():
    """The process's worker threads, made on first use, and their number:
    ``MAX_WORKERS``, or one when the process may run on one CPU only."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(MAX_WORKERS, cpus or 1)
    # imported here: the CLI's start-up does not pay for it
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(workers, thread_name_prefix="metaplectic-worker"), workers


if hasattr(os, "register_at_fork"):
    # a forked child inherits the cached pool but not its threads, and would
    # wait for ever on the first call it submits
    os.register_at_fork(after_in_child=_worker_pool.cache_clear)


def worker_map(fn, items: Iterable, ahead: int = MAX_WORKERS) -> Iterator:
    """``fn(item)`` for each of ``items``, in order, computed on the worker
    threads.

    The calls run ahead of the consumer by at most ``ahead``, and by no
    more than there are workers: a call starts when the consumer asks for a
    result and fewer than that many calls are started and not yet handed
    back.  With a bound of one (one CPU, or ``ahead=1``) the calls run one
    after the other, each when its result is asked for, as in a serial
    loop.  Each call runs in its own copy of the caller's ``contextvars``
    context, which holds numpy's ``errstate``, so a worker raises (or
    warns) on floating-point faults as the caller would.  A call's
    exception is raised here when its result is reached; the calls still in
    flight are then cancelled, or waited for if they have started, as they
    are when the consumer stops early and closes the iterator.

    ``fn`` must not call ``worker_map`` itself: with the workers waiting on
    it, the nested calls would never start.
    """
    from concurrent.futures import wait

    pool, workers = _worker_pool()
    ahead = min(ahead, workers)
    pending = collections.deque()
    try:
        for item in items:
            if len(pending) == ahead:
                yield pending.popleft().result()
            pending.append(pool.submit(contextvars.copy_context().run, fn, item))
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()
        wait(pending)


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

    total = node(0, size)
    # node refers to itself through its closure cell, a cycle that would keep
    # the last slab alive until the next garbage collection
    del node
    return total


def slab_norm(rows: Iterable[np.ndarray], grid: Grid, p: float, q: float | None = None) -> float:
    """Norm of the function on ``grid`` whose values arrive as ``rows``:
    consecutive slabs of axis-0 rows, in order.

    With ``q`` this is the mixed norm of :func:`lpq_norm` (L^p over the
    first half of the axes, then L^q); with ``q=None`` it is the L^p norm
    of :func:`lp_norm`.  Either float equals the full-array one exactly,
    from numpy's pairwise sum for a finite plain p and from the outer-axes
    accumulator otherwise (see the module docstring); memory stays at the
    size of a slab.
    """
    d = grid.d
    if q is None and p <= 0.0:
        raise ValueError(f"p must be positive, got {p}")
    if q is not None:
        if p <= 0.0 or q <= 0.0:
            raise ValueError(f"exponents must be positive, got p={p}, q={q}")
        if d % 2 != 0:
            raise ValueError(f"mixed norm needs an even number of axes, got {d}")

    if q is None and not math.isinf(p):

        def powered():
            for slab in rows:
                mags = np.abs(slab)
                powers = (mags**p).ravel()
                if math.isinf(powers.max(initial=0.0)):
                    _report_abs_overflow(slab, mags)
                yield powers

        total = _pairwise_sum(powered(), math.prod(grid.shape))
        return float((total * grid.weight) ** (1.0 / p))

    # the plain sup norm (q None) has every axis inner and no outer axis
    k = d if q is None else d // 2
    outer_shape = grid.shape[k:]
    inner_axes = tuple(range(k))
    w_inner = Grid(grid.axes[:k]).weight
    w_outer = grid.weight / w_inner

    # each x-point's |f|^p is added in row order, as numpy reduces a
    # leading axis of a contiguous array
    acc = np.zeros(outer_shape)
    for slab in rows:
        mags = np.abs(slab)
        if math.isinf(p):
            np.maximum(acc, mags.max(axis=inner_axes), out=acc)
        else:
            for row in (mags**p).reshape((-1,) + outer_shape):
                acc += row
        # an overflow of np.abs leaves an inf in the accumulator
        if np.isinf(acc).any():
            _report_abs_overflow(slab, mags)
    inner = acc if math.isinf(p) else (acc * w_inner) ** (1.0 / p)
    if q is None or math.isinf(q):
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
