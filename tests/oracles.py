"""Independent cross-checks used by the test suite.

Everything in this module is computed from first principles: dense
transform matrices, explicit quadrature of defining integrals, and
closed-form Gaussian integrals.  None of it calls into the package's
FFT-based fast paths, so agreement between the two is evidence of
correctness rather than a tautology.  The exceptions are the slow exact
forms that a fast path must match bit for bit: ``dense_axis_scale``, the
whole-kernel form of the per-axis rescaling (kernel ``dense_kernel``),
which shares the package's spectrum; ``blocked_axis_scales``, the same
rescaling with every kernel entry an exp of its own, in the package's
blocks of rows, for several block sizes from one pass over the kernel;
``looped_centered_dft``, the transform as one shift, FFT, shift and scaling
per axis; ``gathered_rows``, the Wigner and STFT rows by index gathers and
the Rihaczek rows with an exp per entry, and ``gathered_distribution``, all
of them on the distribution's grid (the package's whole builders walk the
same slabs as its streamed norms, so they are not an oracle for them);
``scattered_wigner_adjoint``, the Wigner adjoint by an index scatter;
``looped_dj_factorize``, the interchange-set search one subset at a time;
``where_x_stack``, the search's stack of X(J) by ``np.where``;
``subset_masks`` and ``exhaustive_mask``, the interchange-set search that
scores all 2^d subsets by batched determinants of ``where_x_stack`` chunks,
whose winner the branch and bound of ``dj_factorize`` must choose;
``block_chirp``, ``block_multiplier``, ``block_dilation`` and
``block_interchange``, the generators assembled by ``np.block``;
``direct_lp_norm``, the plain L^p norm as one expression on the whole
array, with its own report of an ``np.abs`` overflow;
``looped_write_matrix``, ``looped_write_dj`` and
``looped_write_grid_function``, the text writers with one ``repr`` per
entry; and ``rowwise_export_csv``, the CSV export through ``csv.writer``
with one scalar ``abs`` per row.

The Gaussian-chirp closed forms are the exact reference for the sampled
stages: ``gaussian_integral``, the chirp's L^p norm and L^2 inner product,
its rescaling, full transform and Fourier multiplier, and
``closed_form_plan``, the interpreter that runs a stage plan on a
``GaussianChirp`` through them (``gaussian_apply`` factorizes first).

Conventions (matching the library's documented ones):
  * centered lattice  x_k = (k - n//2) * step
  * dual step         1 / (n * step)
  * forward transform integral  f^(xi) = int f(t) exp(-2 pi i t xi) dt
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from functools import lru_cache

import numpy as np

from metaplectic.metaplectic_numeric.gaussian import GaussianChirp
from metaplectic.metaplectic_numeric.grid import (
    Axis,
    Grid,
    GridFunction,
    centered_dft,
    form_sum,
    row_blocks,
)
from metaplectic.metaplectic_numeric.operators import MAX_DENSE_AXIS, stage_plan
from metaplectic.symplectic_core import (
    DJFactorization,
    IndexSet,
    SymplecticMatrix,
    dj_compose,
    dj_factorize,
    is_free,
)
from metaplectic.tolerances import default_tol, rel_invertible, singular_extremes

#: output points per dense block of the direct kernel quadrature
DIRECT_CHUNK = 1024


# --------------------------------------------------------------------------
# lattice coordinates


def axis_points(n: int, step: float) -> np.ndarray:
    return (np.arange(n) - n // 2) * step


def dual_step(n: int, step: float) -> float:
    return 1.0 / (n * step)


# --------------------------------------------------------------------------
# dense centered Fourier matrices


def dense_dft_matrix(n: int, step: float) -> np.ndarray:
    """Dense matrix of the step-weighted centered discrete Fourier transform.

    Row m, column k holds  step * exp(-2 pi i xi_m x_k)  with x on the
    centered lattice and xi on the centered dual lattice.
    """
    x = axis_points(n, step)
    xi = axis_points(n, dual_step(n, step))
    return step * np.exp(-2j * np.pi * np.outer(xi, x))


def dense_dft_apply(values: np.ndarray, steps, axes=None) -> np.ndarray:
    """Apply the dense centered transform along the selected axes."""
    vals = np.asarray(values, dtype=complex)
    if axes is None:
        axes = range(vals.ndim)
    for ax in axes:
        mat = dense_dft_matrix(vals.shape[ax], steps[ax])
        moved = np.moveaxis(vals, ax, 0)
        vals = np.moveaxis(np.tensordot(mat, moved, axes=(1, 0)), 0, ax)
    return vals


# --------------------------------------------------------------------------
# quadrature forms of the three time-frequency distributions (d = 1)


def quadrature_stft(f_vals, g_vals, step: float) -> np.ndarray:
    """V(x_j, xi_m) = step * sum_t f(t) conj(g(t - x_j)) exp(-2 pi i t xi_m).

    Shifts wrap periodically; output frequency axis is the full dual lattice.
    """
    f = np.asarray(f_vals, dtype=complex)
    g = np.asarray(g_vals, dtype=complex)
    n = f.shape[0]
    h = n // 2
    t = axis_points(n, step)
    xi = axis_points(n, dual_step(n, step))
    out = np.empty((n, n), dtype=complex)
    for j in range(n):
        shifted = g[(np.arange(n) - (j - h)) % n]
        out[j] = step * (f * np.conj(shifted)) @ np.exp(
            -2j * np.pi * np.outer(t, xi)
        )
    return out


def quadrature_wigner(f_vals, g_vals, step: float) -> np.ndarray:
    """Riemann sum of  2 int f(x+u) conj(g(x-u)) exp(-4 pi i u xi) du.

    Arguments wrap periodically on the centered lattice; the output
    frequency axis is the half-step dual lattice (n points, dual_step/2).
    """
    f = np.asarray(f_vals, dtype=complex)
    g = np.asarray(g_vals, dtype=complex)
    n = f.shape[0]
    h = n // 2
    u = axis_points(n, step)
    xi = axis_points(n, dual_step(n, step) / 2.0)
    out = np.empty((n, n), dtype=complex)
    k = np.arange(n)
    for j in range(n):
        prod = f[(j + k - h) % n] * np.conj(g[(j - k + h) % n])
        out[j] = 2.0 * step * prod @ np.exp(-4j * np.pi * np.outer(u, xi))
    return out


def quadrature_rihacek(f_vals, g_vals, step: float) -> np.ndarray:
    """R(x_j, xi_m) = f(x_j) conj(g^(xi_m)) exp(-2 pi i x_j xi_m)."""
    f = np.asarray(f_vals, dtype=complex)
    ghat = dense_dft_matrix(len(g_vals), step) @ np.asarray(g_vals, dtype=complex)
    n = f.shape[0]
    x = axis_points(n, step)
    xi = axis_points(n, dual_step(n, step))
    return np.outer(f, np.conj(ghat)) * np.exp(-2j * np.pi * np.outer(x, xi))


# --------------------------------------------------------------------------
# free-case metaplectic operator as a dense integral kernel


def free_kernel_matrix(
    S: np.ndarray, n: int, step: float, out_points: np.ndarray | None = None
) -> np.ndarray:
    """Dense quadrature kernel of the metaplectic operator for invertible B.

    (S^ f)(x) = |det B|^(-1/2) int exp(i pi [x.(D B^-1)x - 2 y.(B^-1)x
                 + y.(B^-1 A)y]) f(y) dy,
    with y on the centered input lattice (d = 1 here, so A, B, D are
    scalars).  ``out_points`` selects where the result is evaluated
    (default: the same centered lattice; pass the implementation's output
    lattice when comparing).  The overall unimodular phase is NOT pinned;
    compare results up to a global phase.
    """
    S = np.asarray(S, dtype=float)
    d = S.shape[0] // 2
    if d != 1:
        raise ValueError("dense free kernel oracle is one-dimensional")
    a, b = S[0, 0], S[0, 1]
    c, dd = S[1, 0], S[1, 1]
    if abs(b) < 1e-12:
        raise ValueError("free kernel needs invertible B")
    x = axis_points(n, step) if out_points is None else np.asarray(out_points, dtype=float)
    y = axis_points(n, step)
    phase = (
        (dd / b) * x[:, None] ** 2
        - 2.0 * np.outer(x, y) / b
        + (a / b) * y[None, :] ** 2
    )
    return abs(b) ** -0.5 * step * np.exp(1j * np.pi * phase)


def free_apply_direct(S: SymplecticMatrix, f: GridFunction) -> GridFunction:
    """Direct quadrature of the single-integral kernel for invertible B:

        (S f)(x) = |det B|^(-1/2) exp(i pi x . D B^{-1} x)
                   * int exp(-2 pi i (B^{-1} x) . t) exp(i pi t . B^{-1} A t) f(t) dt.

    O(N^2) in the number of lattice points; independent of the staged
    pipeline, and used to cross-check it.
    """
    if not is_free(S):
        raise ValueError("direct kernel form requires an invertible upper-right block")
    d = f.grid.d
    if S.d != d:
        raise ValueError(f"matrix acts in dimension {S.d}, function lives in {f.grid.d}")
    npts = int(np.prod(f.grid.shape))
    if npts > MAX_DENSE_AXIS * 4:
        raise ValueError(f"direct kernel quadrature is dense; {npts} points is too many")

    binv = np.linalg.inv(S.B)
    dbinv = S.D @ binv
    binva = binv @ S.A

    pts = np.stack(f.grid.meshgrid()).reshape(d, npts).T  # (N, d)
    fvals = f.values.ravel()
    inner_quad = np.einsum("ni,ij,nj->n", pts, binva, pts)
    weights = np.exp(1j * math.pi * inner_quad) * fvals * f.grid.weight

    out = np.empty(npts, dtype=complex)
    bx = pts @ binv.T  # (N, d): B^{-1} x for each output point
    for start in range(0, npts, DIRECT_CHUNK):
        stop = min(start + DIRECT_CHUNK, npts)
        phase = bx[start:stop] @ pts.T  # (DIRECT_CHUNK, N)
        out[start:stop] = np.exp(-2j * math.pi * phase) @ weights
    out_quad = np.einsum("ni,ij,nj->n", pts, dbinv, pts)
    out *= np.exp(1j * math.pi * out_quad) / math.sqrt(abs(np.linalg.det(S.B)))
    return f.with_values(out.reshape(f.grid.shape))


# --------------------------------------------------------------------------
# per-axis rescaling with the whole synthesis kernel


def dense_kernel(ax: Axis, a: float) -> np.ndarray:
    """The whole n x n synthesis kernel exp(2 pi i a x_k xi_m) * step, built
    in place in one complex n x n array (256 MB at n = 4096, where the one
    expression ``np.exp(2j * math.pi * np.outer(...)) * step`` held about
    four).  Each step runs the loop of that expression on the same operands,
    the real products cast to complex first, so the bytes are its bytes."""
    dual = ax.dual()
    kernel = np.empty((ax.n, dual.n), dtype=complex)
    np.multiply.outer(a * ax.points(), dual.points(), out=kernel)
    np.multiply(2j * math.pi, kernel, out=kernel)
    np.exp(kernel, out=kernel)
    kernel *= dual.step
    return kernel


def dense_axis_scale(f: GridFunction, axis: int, a: float) -> GridFunction:
    """|a|^{1/2} f(a x) along one axis by the product with the whole n x n
    synthesis kernel (``dense_kernel``, a != +-1).

    This is the rescaling's dense kernel as one array; the package builds it
    in blocks of rows and must match this bit for bit.
    """
    spec = centered_dft(f.values, f.grid, (axis,))
    kernel = dense_kernel(f.grid.axes[axis], a)
    vals = np.moveaxis(spec, axis, -1) @ kernel.T
    return f.with_values(math.sqrt(abs(a)) * np.moveaxis(vals, -1, axis))


#: per-entry kernel rows that ``blocked_axis_scales`` computes at a time
KERNEL_CHUNK_ROWS = 128


def blocked_axis_scales(f: GridFunction, axis: int, a: float, per_block) -> list[GridFunction]:
    """|a|^{1/2} f(a x) along one axis, the kernel built per entry, once for
    each block size in ``per_block`` (rows a block, split as
    ``grid.row_blocks`` splits them; a != +-1).

    Each block is the spectrum's product with exp(2 pi i a x_k xi_m) * step
    over all n columns.  BLAS may round a product differently with the
    number of rows in a block, so the package's kernel, which takes the exps
    of about a quarter of its entries and mirrors the rest across columns
    and across rows, must match this form in the same blocks, not only the
    whole kernel.  The per-entry rows do not depend on the blocks, so they
    are computed once, ``KERNEL_CHUNK_ROWS`` at a time, and each block's
    product runs as soon as the rows it needs are held: the memory is a
    chunk and the unfinished blocks, not the whole kernel.
    """
    ax = f.grid.axes[axis]
    spec = np.moveaxis(centered_dft(f.values, f.grid, (axis,)), axis, -1)
    dual = ax.dual()
    a_x, xi = a * ax.points(), dual.points()
    todo = [row_blocks(ax.n, k) for k in per_block]
    vals = [np.empty(spec.shape, dtype=complex) for _ in todo]
    # kernel holds the per-entry rows first, first + 1, ... of every block not yet applied
    kernel, first = np.empty((0, ax.n), dtype=complex), 0
    for stop in range(KERNEL_CHUNK_ROWS, ax.n + KERNEL_CHUNK_ROWS, KERNEL_CHUNK_ROWS):
        rows = slice(first + len(kernel), min(stop, ax.n))
        chunk = np.exp(2j * math.pi * np.outer(a_x[rows], xi)) * dual.step
        kernel = np.concatenate((kernel, chunk))
        for blocks, out in zip(todo, vals):
            while blocks and blocks[0].stop <= rows.stop:
                block = blocks.pop(0)
                out[..., block] = spec @ kernel[block.start - first : block.stop - first].T
        keep = min((blocks[0].start for blocks in todo if blocks), default=rows.stop)
        kernel, first = kernel[keep - first :], keep
    return [f.with_values(math.sqrt(abs(a)) * np.moveaxis(v, -1, axis)) for v in vals]


# --------------------------------------------------------------------------
# the centered transform and the distribution rows, the slow exact way


def looped_centered_dft(
    values: np.ndarray, grid: Grid, axes, inverse: bool = False
) -> np.ndarray:
    """The centered Fourier integral as one loop per axis: ifftshift, FFT,
    fftshift, then the lattice scale (``step``, or ``n * step`` if
    ``inverse``)."""
    transform = np.fft.ifft if inverse else np.fft.fft
    for ax in axes:
        n, step = grid.axes[ax].n, grid.axes[ax].step
        values = np.fft.fftshift(
            transform(np.fft.ifftshift(values, axes=ax), axis=ax), axes=ax
        ) * (n * step if inverse else step)
    return values


def _gather_index(shape, a: int, b: int, slab: tuple[slice, ...]):
    """Per-axis int64 indices (a (j - h) + b (k - h) + h) mod n on the doubled
    grid (*shape, *shape), with the j of each leading axis cut to its slice
    in ``slab``."""
    d = len(shape)
    out = []
    for ax, n in enumerate(shape):
        h = n // 2
        centred = np.arange(n) - h
        idx = h
        for coef, slot in ((a, ax), (b, d + ax)):
            if coef:
                pts = centred[slab[slot]] if slot < len(slab) else centred
                idx = idx + coef * pts.reshape([-1 if i == slot else 1 for i in range(2 * d)])
        out.append(idx % n)
    return tuple(out)


def gathered_rows(kind: str, f: GridFunction, g: GridFunction, slab: tuple[slice, ...]) -> np.ndarray:
    """Values of ``wigner(f, g)`` (``kind="wigner"``), ``stft(f, g)``
    (``kind="stft"``) or ``rihacek(f, g)`` (``kind="rihacek"``) on the
    x-points ``slab``, a tuple of slices of the leading axes (``()`` for
    every point): fancy-index gathers of f(x + u) conj(g(x - u)), or of
    f(t) conj(g(t - x)), then :func:`looped_centered_dft` over the second
    slot; or f(x) conj(FT g)(xi) times the exp of the whole phase table
    -2 pi i x . xi, every entry an exp of its own."""
    shape = f.grid.shape
    d = len(shape)
    if kind == "rihacek":
        ghat_conj = np.conj(centered_dft(g.values, g.grid, range(d)))
        mesh = Grid(f.grid.axes + g.grid.dualized(range(d)).axes).open_mesh()
        vals = np.multiply.outer(f.values[slab], ghat_conj)
        x = tuple(m[(slice(None),) * i + slab[i : i + 1]] for i, m in enumerate(mesh))
        phase = form_sum(np.eye(d), x[:d], x[d:])
        # numpy runs this product in place in the exp temporary from 256 KiB
        # on, as exp * vals; the package must round as this line does
        return vals * np.exp(-2j * math.pi * phase)
    doubled = Grid(f.grid.axes + f.grid.axes)
    freq = tuple(range(d, 2 * d))
    if kind == "wigner":
        paired = f.values[_gather_index(shape, 1, 1, slab)] * np.conj(
            g.values[_gather_index(shape, 1, -1, slab)]
        )
        spectral = looped_centered_dft(paired, doubled, freq)
        return (2.0**d) * spectral
    if kind == "stft":
        gathered = f.values[_gather_index(shape, 0, 1, slab)] * np.conj(
            g.values[_gather_index(shape, -1, 1, slab)]
        )
        return looped_centered_dft(gathered, doubled, freq)
    raise ValueError(f"no gathered rows for {kind!r}")


def gathered_distribution(kind: str, f: GridFunction, g: GridFunction) -> GridFunction:
    """The whole distribution ``kind`` of (f, g) from :func:`gathered_rows`
    on all rows, on its output grid: the signal axes, then the frequency
    axes (of g for ``"rihacek"``), at half the dual step for ``"wigner"``."""
    half = 2.0 if kind == "wigner" else 1.0
    duals = (g if kind == "rihacek" else f).grid.axes
    grid = Grid(f.grid.axes + tuple(Axis(ax.n, ax.dual().step / half) for ax in duals))
    return GridFunction(grid, gathered_rows(kind, f, g, ()))


def scattered_wigner_adjoint(a: GridFunction) -> np.ndarray:
    """The Wigner adjoint D* a of ``opA_build`` on the doubled signal grid:
    the inverse transform over the second slot on the relabeled grid, then
    ``np.add.at`` through the :func:`_gather_index` arrays of the pairing
    (x, u) -> (x + u, x - u)."""
    d = a.grid.d // 2
    sig = Grid(a.grid.axes[:d])
    relabeled = Grid(sig.axes + tuple(ax.dual() for ax in sig.axes))
    y = centered_dft(a.values, relabeled, tuple(range(d, 2 * d)), inverse=True)
    out = np.zeros(sig.shape + sig.shape, dtype=complex)
    np.add.at(out, _gather_index(sig.shape, 1, 1, ()) + _gather_index(sig.shape, 1, -1, ()), y)
    return out


# --------------------------------------------------------------------------
# the text writers one entry at a time


def _looped_rows(mat) -> list[str]:
    return ["row " + " ".join(repr(float(v)) for v in row) for row in np.asarray(mat, dtype=float)]


def looped_write_matrix(mat, label: str | None = None) -> str:
    """The ``symplectic-matrix v1`` text of ``mat``, one ``repr`` per entry."""
    out = ["symplectic-matrix v1", f"d {len(mat) // 2}"]
    if label is not None:
        out.append(f"label {label}")
    return "\n".join(out + _looped_rows(mat)) + "\n"


def looped_write_dj(fact: DJFactorization) -> str:
    """The ``dj-factorization v1`` text of ``fact``, one ``repr`` per entry."""
    members = " ".join(str(j) for j in fact.J) or "-"
    out = [
        "dj-factorization v1",
        f"d {fact.d}",
        f"subset {members}",
        f"residual {repr(float(fact.residual))}",
    ]
    for name, mat in (("Q", fact.Q), ("L", fact.L), ("P", fact.P)):
        out += [name, *_looped_rows(mat)]
    return "\n".join(out) + "\n"


def looped_write_grid_function(f: GridFunction) -> str:
    """The ``grid-function v1`` text of ``f``, one ``repr(re) repr(im)`` line
    per value in C order."""
    out = ["grid-function v1", f"d {f.grid.d}"]
    for ax in f.grid.axes:
        out.append(f"axis {ax.n} {repr(float(ax.step))}")
    out.append("values")
    out.extend(f"{repr(float(v.real))} {repr(float(v.imag))}" for v in f.values.ravel())
    return "\n".join(out) + "\n"


def rowwise_export_csv(f: GridFunction) -> str:
    """The CSV export of ``f`` one ``csv.writer`` row per sample, with the
    scalar ``abs`` of each complex value."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"x{i + 1}" for i in range(f.grid.d)] + ["re", "im", "abs"])
    coords = [m.ravel() for m in f.grid.meshgrid()]
    flat = f.values.ravel()
    for i in range(flat.size):
        writer.writerow(
            ["%.12g" % c[i] for c in coords]
            + ["%.12g" % flat[i].real, "%.12g" % flat[i].imag, "%.12g" % abs(flat[i])]
        )
    return buf.getvalue()


# --------------------------------------------------------------------------
# the interchange-set search one subset at a time


def looped_dj_factorize(S: SymplecticMatrix, tol: float | None = None) -> DJFactorization:
    """``dj_factorize`` one subset at a time, by cardinality and then
    lexicographically: X(J) = A I_{J^c} + B I_J from the 0/1 projectors, a
    scalar verdict and |det X| per subset (a strict > keeps the first best),
    then Q, L and P from the winner's projectors and the recomposition
    residual."""
    tol = default_tol() if tol is None else tol
    _, scale = singular_extremes(S.mat)
    best, best_score = None, -np.inf
    for size in range(S.d + 1):
        for combo in itertools.combinations(range(1, S.d + 1), size):
            J = IndexSet(S.d, combo)
            x = S.A @ J.complement().projector() + S.B @ J.projector()
            if rel_invertible(x, tol, scale) and abs(np.linalg.det(x)) > best_score:
                best, best_score = J, abs(np.linalg.det(x))
    if best is None:
        raise ValueError("no admissible index set found")
    pj, pjc = best.projector(), best.complement().projector()
    L = np.linalg.inv(S.A @ pjc + S.B @ pj)
    P = L @ (S.B @ pjc - S.A @ pj)
    Q = (S.C @ pjc + S.D @ pj) @ L
    residual = float(np.linalg.norm(dj_compose(DJFactorization(Q, L, P, best)).mat - S.mat))
    return DJFactorization(Q, L, P, best, residual)


def where_x_stack(S: SymplecticMatrix, masks: np.ndarray) -> np.ndarray:
    """The contiguous stack of X(J) of a stack of masks (or X(J) of one
    mask) by ``np.where``: column j from B if j is in J, else from A, each
    -0.0 then turned into +0.0."""
    x = np.where(masks[..., None, :], S.B, S.A)
    x += 0.0
    return x


#: X(J) entries per batched determinant of ``exhaustive_mask`` (8 bytes each)
EXHAUSTIVE_CHUNK_ENTRIES = 1 << 17


@lru_cache(maxsize=None)
def subset_masks(d: int) -> np.ndarray:
    """The read-only (2^d, d) boolean masks of every subset of {1..d}, by
    cardinality and then lexicographically; built once per d."""
    # code c holds coordinate j + 1 when bit d - 1 - j of c is set, so among
    # the codes of one popcount, descending order is lexicographic order; no
    # tuple of itertools.combinations is made, so only the table stays behind
    codes = np.arange((1 << d) - 1, -1, -1, dtype=">u4")
    bits = np.unpackbits(codes.view(np.uint8).reshape(-1, 4), axis=1)[:, 32 - d :]
    masks = bits[np.argsort(bits.sum(axis=1), kind="stable")].astype(bool)
    masks.flags.writeable = False
    return masks


def exhaustive_mask(S: SymplecticMatrix, tol: float | None = None) -> np.ndarray:
    """The interchange mask of ``dj_factorize`` by scoring every subset:
    |det X(J)| of every ``subset_masks`` row, in batched determinants of
    ``where_x_stack`` chunks, then the first subset in the stable descending
    order of the scores whose X(J) passes the singular-value verdict.  With
    none, the ``no admissible index set`` error of ``dj_factorize``, with the
    best sigma_min(X(J)) over every subset."""
    tol = default_tol() if tol is None else tol
    _, scale = singular_extremes(S.mat)
    masks = subset_masks(S.d)
    step = max(1, EXHAUSTIVE_CHUNK_ENTRIES // (S.d * S.d))
    chunks = [masks[i : i + step] for i in range(0, len(masks), step)]
    scores = np.concatenate([np.abs(np.linalg.det(where_x_stack(S, chunk))) for chunk in chunks])
    for k in np.argsort(-scores, kind="stable"):
        if rel_invertible(where_x_stack(S, masks[k]), tol, scale):
            return masks[k]
    best = max(np.linalg.svd(where_x_stack(S, chunk), compute_uv=False)[:, -1].max() for chunk in chunks)
    raise ValueError(
        "no admissible index set found: no X(J) reaches tol * sigma_max(S); the best "
        f"ratio sigma_min(X(J)) / sigma_max(S) is {best / scale:.3e}, tol {tol:.3e}"
    )


# --------------------------------------------------------------------------
# the generators assembled by np.block


def block_chirp(P: np.ndarray) -> np.ndarray:
    """[[I, 0], [P, I]]."""
    eye, zero = np.eye(len(P)), np.zeros(P.shape)
    return np.block([[eye, zero], [P, eye]])


def block_multiplier(P: np.ndarray) -> np.ndarray:
    """[[I, P], [0, I]]."""
    eye, zero = np.eye(len(P)), np.zeros(P.shape)
    return np.block([[eye, P], [zero, eye]])


def block_dilation(L: np.ndarray) -> np.ndarray:
    """[[inv(L), 0], [0, L^T]]."""
    zero = np.zeros(L.shape)
    return np.block([[np.linalg.inv(L), zero], [zero, L.T]])


def block_interchange(J: IndexSet) -> np.ndarray:
    """[[I_{J^c}, I_J], [-I_J, I_{J^c}]] from the 0/1 projectors, so the
    lower-left block holds -0.0 wherever it does not hold -1.0."""
    p = np.diag([1.0 if j in J else 0.0 for j in range(1, J.d + 1)])
    pc = np.eye(J.d) - p
    return np.block([[pc, p], [-p, pc]])


# --------------------------------------------------------------------------
# the plain norm, the direct full-array way


def direct_lp_norm(f: GridFunction, p: float) -> float:
    """Lattice L^p norm as one expression on the whole array: the largest
    |f| for p = inf, else (np.sum(|f|^p) * weight)^(1/p).

    An inf norm goes back to the samples: np.abs overflows near the largest
    float without setting numpy's flag, so the magnitudes that overflowed on
    finite samples are redone with np.hypot, which sets it.
    """
    if p <= 0.0:
        raise ValueError(f"p must be positive, got {p}")
    mags = np.abs(f.values)
    if math.isinf(p):
        norm = float(mags.max(initial=0.0))
    else:
        norm = float((np.sum(mags**p) * f.grid.weight) ** (1.0 / p))
    if math.isinf(norm):
        big = np.isinf(mags) & np.isfinite(f.values)
        np.hypot(f.values.real[big], f.values.imag[big])
    return norm


# --------------------------------------------------------------------------
# Gaussian closed forms


def gauss_lp_norm(a: float, p: float) -> float:
    """|| exp(-pi a x^2) ||_p on the real line (sup norm for p = inf)."""
    if np.isinf(p):
        return 1.0
    return float((a * p) ** (-1.0 / (2.0 * p)))


def stft_gauss_pair(x, xi):
    """Closed form of the short-time transform of the standard Gaussian
    against itself:  2^(-1/2) exp(-pi (x^2 + xi^2)/2) exp(-i pi x xi)."""
    return (
        2.0**-0.5
        * np.exp(-np.pi * (x**2 + xi**2) / 2.0)
        * np.exp(-1j * np.pi * x * xi)
    )


def wigner_gauss_pair(x, xi):
    """Closed form of the Wigner form of the standard Gaussian:
    sqrt(2) exp(-2 pi (x^2 + xi^2))."""
    return np.sqrt(2.0) * np.exp(-2.0 * np.pi * (x**2 + xi**2))


def rihacek_gauss_pair(x, xi):
    """Closed form of the Rihaczek form of the standard Gaussian:
    exp(-pi x^2) exp(-pi xi^2) exp(-2 pi i x xi)."""
    return np.exp(-np.pi * (x**2 + xi**2)) * np.exp(-2j * np.pi * x * xi)


def stft_dilated_gauss_abs(lam: float, x, xi):
    """|V_{g0} f_lam| for f_lam = exp(-pi lam x^2) against the standard
    window:  (1+lam)^(-1/2) exp(-pi lam x^2/(1+lam)) exp(-pi xi^2/(1+lam))."""
    return (
        (1.0 + lam) ** -0.5
        * np.exp(-np.pi * lam * x**2 / (1.0 + lam))
        * np.exp(-np.pi * xi**2 / (1.0 + lam))
    )


# --------------------------------------------------------------------------
# Gaussian-chirp closed forms and the closed-form stage interpreter


def gaussian_integral(M, b) -> complex:
    """Closed form of the absolutely convergent integral
    int exp(i pi x . M x + 2 pi i b . x) dx = det(-iM)^(-1/2) exp(-i pi b . M^{-1} b),
    for complex symmetric M with positive definite imaginary part."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    b = np.atleast_1d(np.asarray(b, dtype=complex))
    if np.linalg.eigvalsh(M.imag).min() <= 0.0:
        raise ValueError("integral diverges: Im M must be positive definite")
    det = complex(np.linalg.det(-1j * M))
    quad = complex(b @ np.linalg.solve(M, b))
    return det ** (-0.5) * np.exp(-1j * math.pi * quad)


def chirp_lp_norm(c: GaussianChirp, p: float) -> float:
    """||c||_p = |gamma| det(p Im M)^(-1/(2p)) exp(pi beta . (Im M)^{-1} beta),
    with beta = Im b; the p = inf limit is the peak modulus."""
    if p <= 0.0:
        raise ValueError(f"p must be positive, got {p}")
    a = c.M.imag
    beta = c.b.imag
    peak_shift = math.exp(math.pi * float(beta @ np.linalg.solve(a, beta)))
    if math.isinf(p):
        return abs(c.gamma) * peak_shift
    det = float(np.linalg.det(p * a))
    return abs(c.gamma) * det ** (-1.0 / (2.0 * p)) * peak_shift


def chirp_l2_inner(c: GaussianChirp, other: GaussianChirp) -> complex:
    """<c, other> = int c conj(other)."""
    return (
        c.gamma
        * np.conj(other.gamma)
        * gaussian_integral(c.M - np.conj(other.M), c.b - np.conj(other.b))
    )


def chirp_rescale(c: GaussianChirp, L) -> GaussianChirp:
    """|det L|^{1/2} c(L x) for real invertible L."""
    L = np.atleast_2d(np.asarray(L, dtype=float))
    if not rel_invertible(L):
        raise ValueError("rescaling matrix must be invertible")
    det = np.linalg.det(L)
    return GaussianChirp(c.gamma * math.sqrt(abs(det)), L.T @ c.M @ L, L.T @ c.b)


def chirp_full_ft(c: GaussianChirp, inverse: bool = False) -> GaussianChirp:
    return c.partial_ft(range(c.d), inverse=inverse)


def chirp_multiplier(c: GaussianChirp, P) -> GaussianChirp:
    """Fourier-side quadratic multiplier: FT, multiply exp(-i pi xi . P xi), inverse FT."""
    return chirp_full_ft(chirp_full_ft(c).chirp(-np.real(P)), inverse=True)


_CLOSED_FORM_STAGES = {
    "ft": lambda c, J: c.partial_ft(tuple(J.positions())),
    "ift": lambda c, J: c.partial_ft(tuple(J.positions()), inverse=True),
    "multiplier": chirp_multiplier,
    "rescale": chirp_rescale,
    "chirp": GaussianChirp.chirp,
}


def closed_form_plan(plan, c: GaussianChirp) -> GaussianChirp:
    """Interpret a stage plan (``operators.stage_plan`` or ``adjoint_plan``)
    on a Gaussian chirp, each stage exactly on its parameters."""
    for stage, param in plan:
        c = _CLOSED_FORM_STAGES[stage](c, param)
    return c


def gaussian_apply(S, c: GaussianChirp) -> GaussianChirp:
    """Run the factorization of S through the closed-form stages."""
    return closed_form_plan(stage_plan(dj_factorize(S)), c)


# --------------------------------------------------------------------------
# quantization by duality (tiny dense construction, d = 1)


def opA_oracle_wigner(a_vals: np.ndarray, n: int, step: float) -> np.ndarray:
    """Dense operator matrix built directly from the duality definition
    < K f, g > = < a, W(g, f) >  with indicator signals and the quadrature
    Wigner form.  O(n^4); keep n tiny."""
    a = np.asarray(a_vals, dtype=complex)
    ds = dual_step(n, step)
    w2 = step * (ds / 2.0)  # doubled-grid cell weight (x cell * half-step xi cell)
    K = np.empty((n, n), dtype=complex)
    for s in range(n):
        es = np.zeros(n)
        es[s] = 1.0
        for t in range(n):
            et = np.zeros(n)
            et[t] = 1.0
            w = quadrature_wigner(es, et, step)
            K[s, t] = (w2 / step) * np.sum(a * np.conj(w))
    return K
