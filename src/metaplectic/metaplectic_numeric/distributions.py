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

Each classical distribution has one row builder: the values on a range of
x-rows (a slice of axis 0).  ``wigner``, ``stft`` and ``rihacek`` call it
with all rows, which ``MAX_DISTRIBUTION_POINTS`` caps; ``distribution_norm``
and ``mp_norm`` call it slab by slab (``grid.row_slabs``: at least
``grid.SLAB_BYTES`` of entries per slab, leftover rows in the last) and
stream the slabs into ``grid.slab_norm``, so their memory is a few slabs
instead of n^(2d) points.  The slabs are built on the worker threads
(``grid.worker_map``) and ``slab_norm`` reduces them in row order on the
calling thread.  Slabs of about ``SLAB_BYTES`` are built up to two ahead
of it; larger ones (one x-row of n^3 points at d = 2) one at a time, so
that the norm holds no more of them than a serial loop would.

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

The floats equal the full-array norms exactly: a row's values do not depend
on the slab around it, nor on the thread that builds it.  The slab floor
(1 MiB) still matters for that: it must not fall below 256 KiB.  The
per-entry Rihaczek expression ``vals * np.exp(...)`` runs in place in the
exp temporary, as exp * vals, from numpy's 256 KiB temporary-elision size
on, and out of place, as vals * exp, below it; a complex product rounds
differently in the two orders.  The rows keep both: the product is
``np.multiply(exps, vals, out=exps)`` from 256 KiB on and ``vals * exps``
below, so every grid keeps the bits of the per-entry rows (the oracle
``gathered_rows`` in the tests).  The Wigner and STFT products are
written as ``np.multiply(f_view, conj_g)``, so their operand order is fixed.
Their scalings (the transform's, and the Wigner rows' 2^d, done in place)
multiply by a real number, which rounds the same in either operand order.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from ..symplectic_core import (
    IndexSet,
    SymplecticMatrix,
    chirp_block,
    dilation_block,
    interchange,
)
from .grid import Axis, Grid, GridFunction, centered_dft, form_sum, mirrored_exps
from .grid import MAX_WORKERS, SLAB_BYTES, lpq_norm, periodic_reads, row_slabs, shifted_dft
from .grid import slab_norm, worker_map
from .operators import apply_metaplectic


#: refuse to build a whole distribution (or tensor) beyond this many points
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


def _wigner_rows(f: GridFunction, g: GridFunction):
    d = f.grid.d
    doubled = Grid(f.grid.axes + f.grid.axes)
    f_at, g_at = periodic_reads(f.values), periodic_reads(g.values)

    def build(rows: slice) -> np.ndarray:
        # f(x + u) conj(g(x - u)) with the u axes already in FFT order:
        # f at (j + k) mod n and g at (j - k) mod n
        paired = np.conj(g_at(rows, 1, -1))
        np.multiply(f_at(rows, 1, 1), paired, out=paired)
        spectral = shifted_dft(paired, doubled, tuple(range(d, 2 * d)))
        spectral *= 2.0**d
        return spectral

    return wigner_grid(f.grid), build


def _stft_rows(f: GridFunction, g: GridFunction):
    d = f.grid.d
    freq = tuple(range(d, 2 * d))
    doubled = Grid(f.grid.axes + f.grid.axes)
    f_shifted = np.fft.ifftshift(f.values)
    g_at = periodic_reads(g.values)

    def build(rows: slice) -> np.ndarray:
        # V(x, t) = f(t) conj(g(t - x)) with the t axes already in FFT order:
        # g at (k - j) mod n
        gathered = np.conj(g_at(rows, -1, 1))
        np.multiply(f_shifted, gathered, out=gathered)
        return shifted_dft(gathered, doubled, freq)

    return doubled.dualized(freq), build


def _rihacek_rows(f: GridFunction, g: GridFunction):
    d = f.grid.d
    ghat_conj = np.conj(centered_dft(g.values, g.grid, range(d)))
    grid = Grid(f.grid.axes + g.grid.dualized(range(d)).axes)
    mesh = grid.open_mesh()
    xi_points = [ax.points() for ax in grid.axes[d:]]

    def build(rows: slice) -> np.ndarray:
        vals = np.multiply.outer(f.values[rows], ghat_conj)
        x = (mesh[0][rows],) + mesh[1:d]

        def fill(sl, part):
            xi = np.ix_(*(pts[s] for pts, s in zip(xi_points, sl)))
            np.exp(-2j * math.pi * form_sum(np.eye(d), x, xi), out=part)

        phase_exps = mirrored_exps(np.empty(vals.shape, dtype=complex), d, fill)
        if phase_exps.nbytes >= _ELIDE_BYTES:
            return np.multiply(phase_exps, vals, out=phase_exps)
        return vals * phase_exps

    return grid, build


#: the row builder of each classical distribution: (f, g) -> (grid, build),
#: where ``build(rows)`` returns the values on the x-rows ``rows``
_ROW_BUILDERS = {"wigner": _wigner_rows, "stft": _stft_rows, "rihacek": _rihacek_rows}


def _whole(kind: str, f: GridFunction, g: GridFunction) -> GridFunction:
    _check_same_grid(f, g)
    _check_points(f"{kind} distribution", math.prod(f.grid.shape) ** 2)
    grid, build = _ROW_BUILDERS[kind](f, g)
    return GridFunction(grid, build(slice(None)))


def _streamed_norm(kind: str, f: GridFunction, g: GridFunction, p: float, q: float | None) -> float:
    _check_same_grid(f, g)
    grid, build = _ROW_BUILDERS[kind](f, g)
    # a slab built ahead is one more slab alive, with its temporaries: cheap
    # for slabs of about SLAB_BYTES, but a slab is at least one x-row, n^3
    # points at d = 2 (32 MiB at n = 128), and such slabs are built one at
    # a time, as a serial loop holds them
    ahead = MAX_WORKERS if 16 * math.prod(grid.shape[1:]) <= SLAB_BYTES else 1
    with contextlib.closing(worker_map(build, row_slabs(grid), ahead)) as slabs:
        return slab_norm(slabs, grid, p, q)


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
    return _whole("wigner", f, f if g is None else g)


def wigner_grid(signal: Grid) -> Grid:
    """Output grid of :func:`wigner`: the signal axes, then their duals at half the step."""
    return Grid(signal.axes + tuple(Axis(ax.n, ax.dual().step / 2.0) for ax in signal.axes))


def stft(f: GridFunction, g: GridFunction) -> GridFunction:
    """Short-time Fourier transform of f with window g (V_g f)."""
    return _whole("stft", f, g)


def rihacek(f: GridFunction, g: GridFunction) -> GridFunction:
    """Rank-one distribution f(x) conj(FT g)(xi) exp(-2 pi i x . xi)."""
    return _whole("rihacek", f, g)


def tensor_with_conj(f: GridFunction, g: GridFunction) -> GridFunction:
    """f (x) conj(g) on the doubled grid — the input to the generic pipeline."""
    _check_same_grid(f, g)
    _check_points("tensor", math.prod(f.grid.shape) * math.prod(g.grid.shape))
    grid = Grid(f.grid.axes + g.grid.axes)
    return GridFunction(grid, np.multiply.outer(f.values, np.conj(g.values)))


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
        return _whole(kind, f, g)
    return apply_metaplectic(A, tensor_with_conj(f, g))


def _check_phase_space(A: SymplecticMatrix, f: GridFunction) -> None:
    if f.grid.d * 2 != A.d:
        raise ValueError(f"matrix acts on {A.d} phase-space coordinates, signals have {f.grid.d}")


def distribution_norm(
    A: SymplecticMatrix, f: GridFunction, g: GridFunction, p: float, q: float
) -> float:
    """Mixed L^{p,q} norm (as :func:`lpq_norm`) of ``wigner_metaplectic(A, f, g)``.

    For the three classical matrices the distribution is never built whole:
    its x-row slabs stream into one accumulator (``grid.slab_norm``), and the
    float equals the full-array norm exactly.  Any other matrix runs the
    factorization pipeline on the whole tensor.
    """
    _check_phase_space(A, f)
    kind = classical_kind(A)
    if kind is not None:
        return _streamed_norm(kind, f, g, p, q)
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
    streamed over x-row slabs; equal to the full-array norm of ``stft``."""
    return _streamed_norm("stft", f, window, p, None if q is None or q == p else q)
