"""Wigner-type time-frequency distributions on sampled signals.

All of these arise by applying a metaplectic-type operator to the tensor
f (x) conj(g) on the doubled grid; three classical cases get dedicated exact
implementations, and ``wigner_metaplectic`` handles an arbitrary phase-space
matrix through the factorization pipeline.

* ``wigner``  — W(f,g)(x, xi) = int f(x + t/2) conj(g(x - t/2)) e^{-2 pi i t xi} dt.
  Substituting t = 2u makes every sample an exact lattice read:
  W(x, xi) = 2^d int f(x+u) conj(g(x-u)) e^{-2 pi i (2 xi) u} du, so the DFT
  over u lands on the half-step frequency lattice.
* ``stft``    — V_g f(x, xi) = int f(t) conj(g(t - x)) e^{-2 pi i t xi} dt,
  a lattice gather followed by a DFT in t.
* ``rihacek`` — f(x) conj(FT g)(xi) e^{-2 pi i x xi}, a rank-one product.

Sign conventions and normalizations follow the operator layer; each agrees
with direct quadrature of its defining integral to roundoff on decaying
input (see the test suite).

Each classical distribution has one row builder: the values on a slab of
x-points (``grid.row_slabs``: a tuple of slices of the leading axes, at
least ``grid.SLAB_BYTES`` of entries, one rule for every d), written into a
buffer set that its caller owns (``_row_buffers``: two flat complex arrays
of the largest slab's entries; a slab goes into views of their first
entries in its shape).  The gather, the product, the transform and the
Rihaczek phase table all go into the set, and the slab returned is a view
of it.  ``_row_builder`` is the one prelude that checks the signals and
makes a distribution's builder, once per call.  Where one x-row (n^(2d-1)
points) fits in ``SLAB_BYTES``, as at every d = 1, a slab is a block of
x-rows; past it, the slab cuts a later x axis, so at d = 2 and n = 128 a
slab is 4 of the 128 x_2-lines of one x_1-row.  Every caller walks the slabs
through one walk, ``_slab_walk``, so its working memory is a few slabs
instead of n^(2d) points: ``distribution_norm`` and ``mp_norm``;
``streamed_distribution``, which gives a writer the norm and then copies of
the slabs; and ``wigner``, ``stft`` and ``rihacek`` (``_filled``), whose
workers write each slab into its points of one output array, which the
result then takes without a copy.  The whole builds and the streamed output
are capped at ``MAX_DISTRIBUTION_POINTS``, before anything is allocated;
the norms are not.

The walk builds the slabs on the worker threads (``grid.worker_map``) and
keeps a free list of sets of its largest slab: a worker pops a set (or
makes one), builds its slab in it, runs the walk's per-slab function there
(for a norm, |f|^p: ``grid.slab_powers``) and pushes the set back, so no
two slabs share a set and none outlives the walk.  Only what the per-slab
function returns reaches the calling thread, which, for a norm, adds the
powers up in C order (``grid.reduce_powers``).  Slabs are built up to two
ahead of it.

The Wigner and STFT rows read the signals through read-only strided views:
every read is a Toeplitz or Hankel pattern in (x-row j, column k), so once
the input shift of the transform is folded into the column order one
``grid.periodic_reads`` view of the signal tiled three times per axis serves
it, with no index array and no shift copy, and ``grid.shifted_dft``
transforms the product.

The Rihaczek rows take the exps of about half their phase table: on the
centered lattice xi_{h-j} = -xi_{h+j} exactly, so the phase x . xi changes
sign, bit for bit, when every frequency index m_j >= 1 goes to n_j - m_j at
once, and ``grid.mirrored_exps`` copies those entries from their partners.
The phase itself (``form_sum``) is also computed on the source entries only.

The floats equal the full-array norms exactly: a point's values do not
depend on the slab around it, nor on the thread or the buffer set that
builds it (every entry of a slab is written before it is read).  The slab floor
(1 MiB) still matters for that: it must not fall below 256 KiB.  The
per-entry Rihaczek expression ``vals * np.exp(...)`` runs in place in the
exp temporary, as exp * vals, from numpy's 256 KiB temporary-elision size
on, and out of place, as vals * exp, below it; a complex product rounds
differently in the two orders.  The rows keep both: the product is
``np.multiply(exps, vals, out=exps)`` from 256 KiB on and
``np.multiply(vals, exps, out=vals)`` below, so every grid keeps the bits
of the per-entry rows (the oracle ``gathered_rows`` in the tests).  The Wigner and STFT products are
written as ``np.multiply(f_view, conj_g)``, so their operand order is fixed.
Their scalings (the transform's, and the Wigner rows' 2^d, done in place)
multiply by a real number, which rounds the same in either operand order.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterator

import numpy as np

from ..symplectic_core import (
    IndexSet,
    SymplecticMatrix,
    chirp_block,
    dilation_block,
    interchange,
)
from .grid import Axis, Grid, GridFunction, centered_dft, form_sum, mirrored_exps
from .grid import lpq_norm, periodic_reads, row_slabs, shifted_dft
from .grid import reduce_powers, slab_powers, worker_map
from .operators import apply_metaplectic


#: refuse to build a whole distribution (or tensor), or to stream one out,
#: beyond this many points
MAX_DISTRIBUTION_POINTS = 2**26

#: numpy's temporary-elision size: from here on, ``a * <temporary>`` runs in
#: place in the temporary with the operands swapped
_ELIDE_BYTES = 256 * 2**10


def _check_same_grid(f: GridFunction, g: GridFunction) -> None:
    if not f.grid.close_to(g.grid):
        raise ValueError("distribution arguments must share one grid")


def _check_points(what: str, npts: int) -> None:
    if npts > MAX_DISTRIBUTION_POINTS:
        raise ValueError(
            f"{what} would have {npts} points; limit is {MAX_DISTRIBUTION_POINTS} "
            "(distribution_norm and mp_norm compute norms of the classical "
            "distributions without building them)"
        )


def _row_buffers(entries: int) -> tuple[np.ndarray, np.ndarray]:
    """A buffer set for a row builder: two flat complex arrays of
    ``entries`` entries.  A builder writes a slab into views of their first
    entries in the slab's shape (``_view``)."""
    return np.empty(entries, dtype=complex), np.empty(entries, dtype=complex)


def _view(buffer: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The first entries of the flat ``buffer``, viewed in ``shape``."""
    return buffer[: math.prod(shape)].reshape(shape)


def _wigner_rows(f: GridFunction, g: GridFunction):
    d = f.grid.d
    doubled = Grid(f.grid.axes + f.grid.axes)
    f_at, g_at = periodic_reads(f.values), periodic_reads(g.values)

    def build(slab: tuple[slice, ...], buffers) -> np.ndarray:
        # f(x + u) conj(g(x - u)) with the u axes already in FFT order:
        # f at (j + k) mod n and g at (j - k) mod n
        paired = g_at(slab, 1, -1)
        spectral, spare = (_view(b, paired.shape) for b in buffers)
        np.conj(paired, out=spectral)
        np.multiply(f_at(slab, 1, 1), spectral, out=spectral)
        shifted_dft(spectral, spare, doubled, tuple(range(d, 2 * d)))
        spectral *= 2.0**d
        return spectral

    return wigner_grid(f.grid), build


def _stft_rows(f: GridFunction, g: GridFunction):
    d = f.grid.d
    freq = tuple(range(d, 2 * d))
    doubled = Grid(f.grid.axes + f.grid.axes)
    f_shifted = np.fft.ifftshift(f.values)
    g_at = periodic_reads(g.values)

    def build(slab: tuple[slice, ...], buffers) -> np.ndarray:
        # V(x, t) = f(t) conj(g(t - x)) with the t axes already in FFT order:
        # g at (k - j) mod n
        read = g_at(slab, -1, 1)
        gathered, spare = (_view(b, read.shape) for b in buffers)
        np.conj(read, out=gathered)
        np.multiply(f_shifted, gathered, out=gathered)
        return shifted_dft(gathered, spare, doubled, freq)

    return doubled.dualized(freq), build


def _rihacek_rows(f: GridFunction, g: GridFunction):
    d = f.grid.d
    ghat_conj = np.conj(centered_dft(g.values, g.grid, range(d)))
    grid = Grid(f.grid.axes + g.grid.dualized(range(d)).axes)
    mesh = grid.open_mesh()
    xi_points = [ax.points() for ax in grid.axes[d:]]

    def build(slab: tuple[slice, ...], buffers) -> np.ndarray:
        f_rows = f.values[slab]
        vals, phase_exps = (_view(b, f_rows.shape + ghat_conj.shape) for b in buffers)
        np.multiply.outer(f_rows, ghat_conj, out=vals)
        # each x axis of the mesh cut to the slab's points
        x = tuple(m[(slice(None),) * i + slab[i : i + 1]] for i, m in enumerate(mesh[:d]))

        def fill(sl, part):
            xi = np.ix_(*(pts[s] for pts, s in zip(xi_points, sl)))
            np.exp(-2j * math.pi * form_sum(np.eye(d), x, xi), out=part)

        mirrored_exps(phase_exps, d, fill)
        if phase_exps.nbytes >= _ELIDE_BYTES:
            return np.multiply(phase_exps, vals, out=phase_exps)
        return np.multiply(vals, phase_exps, out=vals)

    return grid, build


#: the row builder of each classical distribution: (f, g) -> (grid, build),
#: where ``build(slab, buffers)`` writes the values on the x-points ``slab``
#: (a tuple of slices of the leading axes, ``grid.row_slabs``) into the
#: buffer set ``buffers`` (``_row_buffers``) and returns them, a view of
#: the set
_ROW_BUILDERS = {"wigner": _wigner_rows, "stft": _stft_rows, "rihacek": _rihacek_rows}


def _row_builder(kind: str, f: GridFunction, g: GridFunction, capped: bool = False):
    """``(grid, build)`` of the classical distribution ``kind`` of (f, g), from
    its ``_ROW_BUILDERS`` entry, once the two signals are checked to share a
    grid.  A ``capped`` caller, one that builds the distribution whole or
    writes it out, is refused past ``MAX_DISTRIBUTION_POINTS`` before
    anything is allocated; the streamed norms are not capped."""
    _check_same_grid(f, g)
    if capped:
        _check_points(f"{kind} distribution", math.prod(f.grid.shape) ** 2)
    return _ROW_BUILDERS[kind](f, g)


def _filled(kind: str, f: GridFunction, g: GridFunction) -> GridFunction:
    """The whole distribution ``kind`` of (f, g): one output array, each of
    whose slabs a worker builds through ``_slab_walk`` and writes into its
    points, handed to the result without a copy."""
    grid, build = _row_builder(kind, f, g, capped=True)
    out = np.empty(grid.shape, dtype=complex)

    def into_out(slab: tuple[slice, ...], buffers) -> None:
        out[slab] = build(slab, buffers)

    for _ in _slab_walk(grid, into_out, lambda _: None):
        pass
    return GridFunction._own(grid, out)


def _slab_walk(grid: Grid, build, each: Callable) -> Iterator:
    """``each(slab)`` for the slabs (``grid.row_slabs``) of the distribution
    on ``grid`` that ``build`` writes, in C order, each slab built and
    handed to ``each`` on a worker thread (``grid.worker_map``); close the
    iterator to stop early.

    A slab is a view of a buffer set that another slab reuses once ``each``
    returns, so ``each`` must not keep it.
    """
    slabs = row_slabs(grid)
    # every slab cuts the same leading axes, and only the last cut is longer
    # than one index
    largest = max(s[-1].stop - s[-1].start for s in slabs) * math.prod(grid.shape[len(slabs[0]) :])
    # buffer sets of the largest slab, made as the workers first need them:
    # a worker pops one, builds its slab and runs ``each`` in it, and pushes
    # it back, so no two slabs share a set and none outlives the walk
    free = []

    def run(slab: tuple[slice, ...]):
        try:
            buffers = free.pop()
        except IndexError:
            buffers = _row_buffers(largest)
        try:
            return each(build(slab, buffers))
        finally:
            free.append(buffers)

    return worker_map(run, slabs)


def _streamed_norm(grid: Grid, build, p: float, q: float | None) -> float:
    """The norm (as ``grid.slab_norm``) of the distribution on ``grid`` that
    ``build`` writes, from the powers of its slabs."""
    powers = _slab_walk(grid, build, lambda slab: slab_powers(slab, grid, p, q))
    with contextlib.closing(powers) as parts:
        return reduce_powers(parts, grid, p, q)


def streamed_distribution(
    kind: str, f: GridFunction, g: GridFunction
) -> tuple[Grid, float, Callable[[], Iterator[np.ndarray]]]:
    """The classical distribution ``kind`` (``"wigner"``, ``"stft"`` or
    ``"rihacek"``) of (f, g), for a caller that writes it out without
    building it whole: its grid, its L^2 norm, and a function whose every
    call walks its slabs (``grid.row_slabs``) again, yielding a copy of each
    in C order.

    The norm is the streamed one of ``distribution_norm``, bit-equal to
    ``lp_norm`` of the whole array, and the copies are the rows of
    ``wigner``, ``stft`` or ``rihacek`` bit for bit.  The whole builders'
    point cap holds here too: past ``MAX_DISTRIBUTION_POINTS`` this raises
    before it builds anything.
    """
    grid, build = _row_builder(kind, f, g, capped=True)
    l2 = _streamed_norm(grid, build, 2.0, None)
    return grid, l2, lambda: _slab_walk(grid, build, np.copy)


def wigner(f: GridFunction, g: GridFunction | None = None) -> GridFunction:
    """Cross (or auto, with g = f) Wigner distribution.

    Output grid: the space axes of f followed by frequency axes at *half* the
    dual step — the doubled-argument substitution is exact on the lattice and
    naturally lands there.

    Torus ghost: because (x, u) -> (x+u, x-u) covers the periodic lattice
    two-to-one, the output carries an exact parity-twisted copy of itself at
    half-period offset, W(x - extent, xi_m) = (-1)^m W(x, xi_m).  The ghost
    is part of the exact lattice bookkeeping (quantization duality and the
    discrete Moyal identity hold with a 2^d factor; integrating the
    distribution cancels it); pointwise comparisons against the continuum
    should stay in the central half of the window, and full-torus mixed
    norms carry an exact extra 2^(1/p) in the inner (space) norm.
    """
    return _filled("wigner", f, f if g is None else g)


def wigner_grid(signal: Grid) -> Grid:
    """Output grid of :func:`wigner`: the signal axes, then their duals at half the step."""
    return Grid(signal.axes + tuple(Axis(ax.n, ax.dual().step / 2.0) for ax in signal.axes))


def stft(f: GridFunction, g: GridFunction) -> GridFunction:
    """Short-time Fourier transform of f with window g (V_g f)."""
    return _filled("stft", f, g)


def rihacek(f: GridFunction, g: GridFunction) -> GridFunction:
    """Rank-one distribution f(x) conj(FT g)(xi) exp(-2 pi i x . xi)."""
    return _filled("rihacek", f, g)


def tensor_with_conj(f: GridFunction, g: GridFunction) -> GridFunction:
    """f (x) conj(g) on the doubled grid — the input to the generic pipeline."""
    _check_same_grid(f, g)
    _check_points("tensor", math.prod(f.grid.shape) * math.prod(g.grid.shape))
    grid = Grid(f.grid.axes + g.grid.axes)
    return GridFunction._own(grid, np.multiply.outer(f.values, np.conj(g.values)))


def wigner_metaplectic(A: SymplecticMatrix, f: GridFunction, g: GridFunction) -> GridFunction:
    """Distribution attached to an arbitrary matrix A in Sp(2d):
    the operator projecting to A applied to f (x) conj(g).

    Defined up to one global unimodular constant (the pipeline's).  When A
    equals one of the three classical projection matrices below (to 1e-12),
    the dedicated implementation is used instead: it pins the classical phase
    exactly and avoids the dense rescaling stage, whose cost grows like the
    cube of the axis length.  The generic pipeline itself is
    ``apply_metaplectic(A, tensor_with_conj(f, g))``; its output may sit on a
    different (coarser) frequency lattice than the dedicated one.
    """
    _check_phase_space(A, f)
    kind = classical_kind(A)
    if kind is not None:
        return _filled(kind, f, g)
    return apply_metaplectic(A, tensor_with_conj(f, g))


def _check_phase_space(A: SymplecticMatrix, f: GridFunction) -> None:
    if f.grid.d * 2 != A.d:
        raise ValueError(f"matrix acts on {A.d} phase-space coordinates, signals have {f.grid.d}")


def distribution_norm(
    A: SymplecticMatrix, f: GridFunction, g: GridFunction, p: float, q: float
) -> float:
    """Mixed L^{p,q} norm (as :func:`lpq_norm`) of ``wigner_metaplectic(A, f, g)``.

    For the three classical matrices the distribution is never built whole:
    the powers of its slabs stream into one reduction
    (``grid.reduce_powers``), and the float equals the full-array norm
    exactly.  Any other matrix runs the factorization pipeline on the whole
    tensor.
    """
    _check_phase_space(A, f)
    kind = classical_kind(A)
    if kind is not None:
        return _streamed_norm(*_row_builder(kind, f, g), p, q)
    return lpq_norm(apply_metaplectic(A, tensor_with_conj(f, g)), p, q)


# -- the classical projection matrices ---------------------------------------


def wigner_projection(d: int) -> SymplecticMatrix:
    """Phase-space matrix of the Wigner distribution: interchange of the second
    slot composed with the rescaling by [[I, I/2], [I, -I/2]]."""
    eye = np.eye(d)
    l_half = np.block([[eye, eye / 2.0], [eye, -eye / 2.0]])
    ft2 = interchange(IndexSet(2 * d, tuple(range(d + 1, 2 * d + 1))))
    return ft2 @ dilation_block(l_half)


def stft_projection(d: int) -> SymplecticMatrix:
    """Phase-space matrix of the short-time Fourier transform."""
    eye = np.eye(d)
    zero = np.zeros((d, d))
    l_st = np.block([[zero, eye], [-eye, eye]])
    ft2 = interchange(IndexSet(2 * d, tuple(range(d + 1, 2 * d + 1))))
    return ft2 @ dilation_block(l_st)


def rihacek_projection(d: int) -> SymplecticMatrix:
    """Phase-space matrix of the Rihaczek-type rank-one distribution."""
    eye = np.eye(d)
    zero = np.zeros((d, d))
    c0 = np.block([[zero, -eye], [-eye, zero]])
    ft2 = interchange(IndexSet(2 * d, tuple(range(d + 1, 2 * d + 1))))
    return chirp_block(c0) @ ft2.transpose()


def classical_kind(A: SymplecticMatrix) -> str | None:
    """``"wigner"``, ``"stft"`` or ``"rihacek"`` when A equals that projection
    entrywise to 1e-12 absolute (no relative slack), else None."""
    d = A.d // 2
    builders = {"wigner": wigner_projection, "stft": stft_projection, "rihacek": rihacek_projection}
    for kind, builder in builders.items():
        if np.allclose(A.mat, builder(d).mat, rtol=0.0, atol=1e-12):
            return kind
    return None


# -- modulation-space norms ---------------------------------------------------


def mp_norm(f: GridFunction, window: GridFunction, p: float, q: float | None = None) -> float:
    """Modulation norm: the L^{p,q} mixed norm of V_window f (q defaults to p),
    streamed over slabs; equal to the full-array norm of ``stft``."""
    return _streamed_norm(*_row_builder("stft", f, window), p, None if q is None or q == p else q)
