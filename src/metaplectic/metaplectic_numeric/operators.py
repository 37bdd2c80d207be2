"""Sampled operator stages and the stage plan that chains them.

Every symplectic matrix S projects (two-to-one) from an operator.  Read right
to left, the factorization S = V_Q . D_L . V_P^T . Pi_J gives the operator,
up to one global unimodular constant, as the stages

    partial FT on J -> multiplier by P -> rescale by L -> chirp by Q.

``stage_plan`` compiles a factorization into that list of ``(stage, param)``
pairs without the identity stages (J empty, P = 0, L = I, Q = 0).  The table
``_STAGES`` defines each stage once, by its action and its inverse:
``adjoint_plan`` reverses a plan with inverted stages, ``run_plan`` runs it on
sampled functions, and ``plan_grid`` walks it for the grid it ends on and
checks the rescaling's axes, before any stage runs.  The stages:

* ``partial_ft``       — centered DFT on a subset of axes (exact quadrature);
* ``multiplier_apply`` — full DFT, multiply by exp(-i pi xi . P xi), inverse
                         DFT; singular P needs no special handling;
* ``rescale_apply``    — |det L|^{1/2} f(L x): exact index moves for signed
                         permutations, FFT phase ramps for shears, dense
                         trigonometric synthesis for per-axis scalings,
                         composed through a pivoted triangular factorization;
* ``chirp_apply``      — pointwise multiplication by exp(i pi x . Q x).

The dense synthesis of a per-axis scaling is the O(n^2) product of the
spectrum with the n x n kernel exp(2 pi i a x_k xi_m) * step.  It builds
that kernel in blocks of output rows (``KERNEL_BLOCK_BYTES`` of complex
entries each, at least 2 rows), so its memory is a few blocks, not the
whole kernel (268 MB at n = 4096).  It takes the exps of about a quarter
of the kernel.  The centered lattices have xi_{h-j} = -xi_{h+j} and
x_{n-r} = -x_r exactly (h = n / 2), so an entry whose column or row is
mirrored is a computed entry with its phase negated.  Each block takes
the exp of columns xi_0 and xi_h..xi_{n-1} only, and ``grid.mirrored_exps``
(shared with the Rihaczek rows) copies the other columns as (re, 0.0 - im).
The blocks pair up, upper block c with lower block nb-1-c, and each lower
block is a copy of upper rows in the same way.  The copies have the bytes
the entries' own exps would give, and every output row's dot product is
computed with the same block shapes and BLAS calls as with the per-entry
kernel, so the result is bit-equal to it.  The pairs fall into two
contiguous halves, one per worker thread (``grid.worker_map``; one after
the other on the one worker of a process that may run on one CPU), each
with its own buffer and its own products into disjoint columns of the
result.  Each block is the same product as in a serial loop, so the
threads change no bit.

``tf_shift`` shifts in time and frequency (trigonometric interpolation off
the lattice).
"""

from __future__ import annotations

import math

import numpy as np

from ..symplectic_core import DJFactorization, IndexSet, dj_factorize
from .grid import (
    Grid,
    GridFunction,
    centered_dft,
    form_sum,
    mirrored_exps,
    partial_dft,
    partial_idft,
    row_blocks,
    worker_map,
)

#: dense per-axis synthesis is O(n^2) per line; keep axes at desk scale
MAX_DENSE_AXIS = 4096

#: bytes of complex kernel entries per block of output rows in the dense
#: synthesis (4 rows at n = 4096).  Blocks that stay in cache run fastest:
#: at n = 4096, one BLAS thread and no workers on a 2-core Xeon with 2 MiB
#: of L2 per core, 2-16 rows took 359-384 ms per line, 64 rows 383-392 ms,
#: 256 rows 443-464 ms and the whole kernel 505-600 ms (medians of 7, two
#: runs; exps of half the kernel).  With the blocks on the two workers, 4
#: rows took a median of 171 ms and 8 rows 159 ms at one BLAS thread, but
#: 195 against 348 ms at two (medians of 15): OpenBLAS runs an 8-row gemv
#: on its own threads (alone, 9-10 us at two BLAS threads against 13-16 us
#: at one), and those contend with the workers.  With the exps of about a
#: quarter of the kernel, a line on 4-row blocks takes about 100-120 ms.
#: Blocks always hold at least 2 rows: a one-row product goes down BLAS's
#: dot path instead of gemv and rounds differently.
KERNEL_BLOCK_BYTES = 256 * 2**10


def _as_param(Q, d: int, name: str) -> np.ndarray:
    """The stage parameter ``name``, a finite d x d matrix, as a float array."""
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if Q.shape != (d, d):
        raise ValueError(f"parameter must be {d} x {d}, got {Q.shape}")
    if not np.isfinite(Q).all():
        raise ValueError(f"{name} must be finite")
    return Q


def chirp_apply(Q, f: GridFunction) -> GridFunction:
    """Multiply samples by the quadratic phase exp(i pi x . Q x)."""
    Q = _as_param(Q, f.grid.d, "chirp parameter Q")
    if not np.any(Q):
        return f
    mesh = f.grid.open_mesh()
    return GridFunction._own(f.grid, f.values * np.exp(1j * math.pi * form_sum(Q, mesh)))


def partial_ft(f: GridFunction, J: IndexSet) -> GridFunction:
    """Centered Fourier transform in the coordinates indexed by J (1-based)."""
    if J.d != f.grid.d:
        raise ValueError(f"index set lives in dimension {J.d}, grid in {f.grid.d}")
    if not J.members:
        return f
    return partial_dft(f, tuple(J.positions()))


def _spectral_product(f: GridFunction, axes, symbol) -> tuple[Grid, np.ndarray]:
    """``(grid, values)`` of f with its spectrum along ``axes`` multiplied by
    ``symbol(open frequency mesh)``.

    The grid is the dual of the dual, which equals f's grid only to rounding
    (1 / (1 / x) is not always x); results are reported on it.
    """
    spec_grid = f.grid.dualized(axes)
    spec = centered_dft(f.values, f.grid, axes) * symbol(spec_grid.open_mesh())
    return spec_grid.dualized(axes), centered_dft(spec, spec_grid, axes, inverse=True)


def multiplier_apply(P, f: GridFunction) -> GridFunction:
    """Frequency-side quadratic multiplier exp(-i pi xi . P xi).

    P may be singular or zero; the operation is a bounded multiplier either
    way.  A zero P returns ``f`` itself; any other P returns on the dual of
    the dual of f's grid (see :func:`_spectral_product`), whose steps may
    differ from f's by an ulp.
    """
    P = _as_param(P, f.grid.d, "multiplier parameter P")
    if not np.any(P):
        return f
    symbol = lambda xi: np.exp(-1j * math.pi * form_sum(P, xi))
    return GridFunction._own(*_spectral_product(f, range(f.grid.d), symbol))


# -- rescaling -------------------------------------------------------------


def _kernel_block(a_x: np.ndarray, xi: np.ndarray, step: float, out: np.ndarray) -> np.ndarray:
    """Kernel rows exp(2 pi i a_x[k] xi[m]) * step, written into ``out``
    (``a_x.size`` x ``xi.size``) from the exps of half the columns.

    The columns xi_0 and xi_h..xi_{n-1} (h = n / 2) take their own exps;
    ``grid.mirrored_exps`` copies every other column from its mirror.  Each
    step that makes an entry (the product a_x xi, the exp, the scaling by
    step) is symmetric in the sign of the phase, so the copies have the
    bytes of their own exps.  ``_axis_scale`` asks for about half the rows
    of the kernel and mirrors the rest, so the kernel takes the exps of
    about a quarter of its entries.
    """

    def fill(sl, part):
        # the exps stay the left operand of ``* step``, as in the per-entry
        # kernel ``np.exp(...) * step``; a contiguous exp block scaled into
        # ``part`` ran faster than the scaling of ``part`` in place
        np.multiply(np.exp(2j * math.pi * np.outer(a_x, xi[sl[0]])), step, out=part)

    return mirrored_exps(out, 1, fill)


def _kernel_halves(blocks: list[slice]) -> list[list[tuple[slice, slice | None]]]:
    """The row blocks as pairs (upper block c, lower block nb-1-c), in two
    contiguous halves, one per worker, each from the top down.  The middle
    block of an odd count has no pair (None) and opens the half next to it."""
    pairs = [(blocks[c], blocks[-1 - c]) for c in range(len(blocks) // 2)]
    half = (len(pairs) + 1) // 2
    middle = [(blocks[len(blocks) // 2], None)] if len(blocks) % 2 else []
    return [part for part in (pairs[:half][::-1], middle + pairs[half:][::-1]) if part]


def _kernel_rows(a_x: np.ndarray, xi: np.ndarray, step: float, blocks: list[slice], part):
    """``(rows, kernel block)`` for each block of ``part`` (one of
    ``_kernel_halves(blocks)``), in its order.  Each kernel block is a view
    into one buffer, valid until the next one is asked for.

    Upper block c comes from ``_kernel_block``.  Lower block nb-1-c is a copy
    of upper rows: a x_{n-r} = -(a x_r) exactly, so row n - r is row r with
    its phase negated, copied as (re, 0.0 - im) like the mirrored columns.
    Those rows r are block c and the first rem+1 rows of block c+1 (rem is
    the last block's leftover), which are the first rows of the upper block
    of the step before; for the top pair they are built here.
    """
    # k rows per block (n for a single block); the last block also takes
    # the rem leftover rows.  Buffer rows 0..k+rem hold lattice rows
    # ck..(c+1)k+rem, and the mirrored lower block follows them.  One buffer
    # serves the part: with a fresh array per block, n = 4096 took 256 page
    # faults per block
    k = blocks[0].stop - blocks[0].start
    rem = blocks[-1].stop - blocks[-1].start - k
    low = max((b.stop - b.start for _, b in part if b is not None), default=0)
    buf = np.empty((k + rem + 1 + low, xi.size), dtype=complex)
    held, below = buf[k : k + rem + 1], part[0][0].stop
    if part[0][1] is not None:  # block c+1 of the top pair is not this part's
        _kernel_block(a_x[below : below + rem + 1], xi, step, held)
    for i, (upper, lower) in enumerate(part):
        if i:  # block c+1 is the upper block of the step before
            np.copyto(held, buf[: rem + 1])
        yield upper, _kernel_block(a_x[upper], xi, step, buf[: upper.stop - upper.start])
        if lower is not None:
            # lattice row (nb-1-c)k + j mirrors buffer row k + rem - j
            size = lower.stop - lower.start
            kernel = buf[k + rem + 1 : k + rem + 1 + size]
            np.copyto(kernel, buf[k + rem : k + rem - size : -1])
            np.subtract(0.0, kernel.imag, out=kernel.imag)
            yield lower, kernel


def _axis_scale(f: GridFunction, axis: int, a: float) -> GridFunction:
    """|a|^{1/2} f(a x) along one axis by dense trigonometric synthesis.

    Output point x_k is the spectrum's product with kernel row k,
    exp(2 pi i a x_k xi_m) * step.  The rows are built and applied in blocks
    of ``KERNEL_BLOCK_BYTES`` (the leftover rows join the last block, so
    every block has at least 2 rows), which holds the memory to a few blocks
    and keeps the result bit-equal to the product with the whole kernel.
    The kernel takes the exps of about a quarter of its entries.  Upper
    block c computes the exps of half its columns and mirrors the other
    half (``_kernel_block``).  Lower block nb-1-c is then a copy of upper
    rows: row n - r is row r as (re, 0.0 - im), for r = 1..h-1
    (``_kernel_rows``).  Row 0 has no mirror, and the middle block of an
    odd count takes its own exps.  The mirrored entries are bit-equal to
    their own exps, so BLAS sees the same bytes in the same shapes.  The
    two contiguous halves of the pairs (``_kernel_halves``) run on the two
    worker threads (one after the other with one CPU).

    The synthesis is periodic in the window: for |a| > 1 the points a x fall
    outside it and read wrapped samples, so periodic replicas of f enter the
    output.  ``decay_ok`` of the result does not detect this.
    """
    ax = f.grid.axes[axis]
    if ax.n > MAX_DENSE_AXIS:
        raise ValueError(
            f"axis rescaling needs dense synthesis; axis size {ax.n} exceeds {MAX_DENSE_AXIS}"
        )
    if a == 1.0:
        return f
    if a == -1.0:  # exact samples of f(-x): index k -> (n - k) mod n
        return GridFunction._own(f.grid, np.take(f.values, -np.arange(ax.n) % ax.n, axis=axis))
    spec = np.moveaxis(centered_dft(f.values, f.grid, (axis,)), axis, -1)
    dual = ax.dual()
    a_x, xi = a * ax.points(), dual.points()
    vals = np.empty(spec.shape, dtype=complex)
    blocks = row_blocks(ax.n, max(2, -(-KERNEL_BLOCK_BYTES // (16 * ax.n))))

    def synthesize(part: list[tuple[slice, slice | None]]) -> None:
        for rows, kernel in _kernel_rows(a_x, xi, dual.step, blocks, part):
            vals[..., rows] = spec @ kernel.T

    list(worker_map(synthesize, _kernel_halves(blocks)))
    vals *= math.sqrt(abs(a))
    return GridFunction._own(f.grid, np.moveaxis(vals, -1, axis))


def _axis_shear(f: GridFunction, axis: int, coeffs: np.ndarray) -> GridFunction:
    """Samples of f with x_axis replaced by x_axis + sum_j coeffs[j] x_j.

    Translation along one axis by an amount depending on the other
    coordinates, realized as a phase ramp on the spectrum (f(x + s) has
    spectrum exp(2 pi i xi s) f^(xi)); spectrally exact for decaying data.
    """
    if not np.any(coeffs):
        return f
    ramp = lambda xi: np.exp(2j * math.pi * xi[axis] * form_sum(coeffs, xi))
    return GridFunction._own(*_spectral_product(f, (axis,), ramp))


def _pivoted_lu(L: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
    """Row-pivoted Doolittle factorization L[perm] = (I + lo) @ diag(dvec) @ (I + up).

    lo is strictly lower triangular, up strictly upper triangular; perm is a
    list: row i of the permuted matrix is row perm[i] of L.
    """
    d = L.shape[0]
    a = L.copy()
    perm = list(range(d))
    for k in range(d):
        pivot = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[pivot, k]) == 0.0:
            raise ValueError("rescaling matrix must be invertible")
        if pivot != k:
            a[[k, pivot]] = a[[pivot, k]]
            perm[k], perm[pivot] = perm[pivot], perm[k]
        a[k + 1 :, k] /= a[k, k]
        a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k], a[k, k + 1 :])
    dvec = np.diag(a).copy()
    return perm, np.tril(a, -1), dvec, np.triu(a, 1) / dvec[:, None]


def _require_matching_axes(perm: list[int], grid: Grid, where: str) -> None:
    """The permutation stage of the rescaling swaps axes i and perm[i]; the
    grid it runs on (described by ``where``) must carry the same lattice on
    both."""
    for i, p in enumerate(perm):
        if not grid.axes[p].close_to(grid.axes[i]):
            a, b = grid.axes[i], grid.axes[p]
            raise ValueError(
                f"rescaling permutes grid axes {i + 1} and {p + 1}, which must have equal "
                f"size and step {where} (got n={a.n}, step={a.step:g} and n={b.n}, "
                f"step={b.step:g}); an isotropic self-dual grid always has them"
            )


def rescale_apply(L, f: GridFunction) -> GridFunction:
    """|det L|^{1/2} f(L x) for real invertible L, on the function's own grid.

    The factorization L = Perm . Lo . diag . Up (row-pivoted) turns the
    substitution into a sequence of exact stages: composition obeys
    T_{M1 M2} = T_{M2} o T_{M1}, so the permutation acts first, then the
    lower shears, the per-axis scalings, and the upper shears.  The
    substitution is periodic in the window: a scaling by |a| > 1 reads
    wrapped samples (see ``_axis_scale``), and ``decay_ok`` does not
    detect it.
    """
    d = f.grid.d
    L = _as_param(L, d, "rescaling parameter L")
    if np.array_equal(L, np.eye(d)):
        return f
    perm, lo, dvec, up = _pivoted_lu(L)

    # permutation stage first: with L = P^T Lo diag Up the substitution
    # g(x) = f(P^T x) is an axis transpose of the samples by the inverse
    # permutation
    if perm != list(range(d)):
        _require_matching_axes(perm, f.grid, "on the input grid")
        out = f.with_values(np.transpose(f.values, np.argsort(perm)))
    else:
        out = f

    # lower shears read only already-final coordinates when applied in
    # increasing order; upper shears in decreasing order
    for i in range(d):
        out = _axis_shear(out, i, lo[i])
    for i in range(d):
        out = _axis_scale(out, i, float(dvec[i]))
    for i in reversed(range(d)):
        out = _axis_shear(out, i, up[i])
    return out


# -- shifts -------------------------------------------------------------------


def tf_shift(f: GridFunction, x0, xi0, tau: float = 0.0) -> GridFunction:
    """Time-frequency shift e^{2 pi i tau} e^{-i pi xi0.x0} e^{2 pi i xi0.t} f(t - x0).

    The translation uses trigonometric interpolation, so x0 need not lie on
    the lattice; lattice translations come out exact.
    """
    d = f.grid.d
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), (d,))
    xi0 = np.broadcast_to(np.asarray(xi0, dtype=float), (d,))
    for name, value in (("x0", x0), ("xi0", xi0), ("tau", tau)):
        if not np.isfinite(value).all():
            raise ValueError(f"time-frequency shift {name} must be finite")
    grid, values = f.grid, f.values
    if np.any(x0):
        shift = lambda xi: np.exp(-2j * math.pi * form_sum(x0, xi))
        grid, values = _spectral_product(f, range(d), shift)
    if np.any(xi0):
        values = values * np.exp(2j * math.pi * form_sum(xi0, grid.open_mesh()))
    constant = np.exp(2j * math.pi * tau) * np.exp(-1j * math.pi * float(xi0 @ x0))
    return GridFunction._own(grid, values * constant)


# -- the stage plan ----------------------------------------------------------


def stage_plan(fact: DJFactorization) -> list[tuple[str, object]]:
    """The factors of V_Q . D_L . V_P^T . Pi_J read right to left, as
    ``(stage, param)`` pairs, with identity stages left out."""
    stages = (
        ("ft", fact.J, bool(fact.J.members)),
        ("multiplier", fact.P, np.any(fact.P)),
        ("rescale", fact.L, not np.array_equal(fact.L, np.eye(fact.d))),
        ("chirp", fact.Q, np.any(fact.Q)),
    )
    return [(stage, param) for stage, param, active in stages if active]


#: each stage: its action, which calls the stage function by its module-level
#: name at call time, and its inverse, which is its adjoint: every stage is
#: unitary (on samples, up to the interpolation error of the dense rescaling)
_STAGES = {
    "ft": (lambda J, f: partial_ft(f, J), lambda J: ("ift", J)),
    "ift": (lambda J, f: partial_idft(f, tuple(J.positions())), lambda J: ("ft", J)),
    "multiplier": (lambda P, f: multiplier_apply(P, f), lambda P: ("multiplier", -P)),
    "rescale": (lambda L, f: rescale_apply(L, f), lambda L: ("rescale", np.linalg.inv(L))),
    "chirp": (lambda Q, f: chirp_apply(Q, f), lambda Q: ("chirp", -Q)),
}


def adjoint_plan(fact: DJFactorization) -> list[tuple[str, object]]:
    """The plan of the adjoint operator: stages reversed, each inverted."""
    return [_STAGES[stage][1](param) for stage, param in reversed(stage_plan(fact))]


def plan_grid(plan: list[tuple[str, object]], grid: Grid, where: str | None = None) -> Grid:
    """The grid ``plan`` ends on when it runs on ``grid``: ``ft`` and ``ift``
    dualize the axes of J, and every other stage keeps its grid.  Given
    ``where``, the caller's name for the grid the rescaling runs on, it also
    checks that stage's permuted axes there, so the error names the grid."""
    for stage, param in plan:
        if stage in ("ft", "ift"):
            grid = grid.dualized(param.positions())
        elif stage == "rescale" and where is not None:
            _require_matching_axes(_pivoted_lu(param)[0], grid, where)
    return grid


def run_plan(plan: list[tuple[str, object]], f: GridFunction) -> GridFunction:
    """Interpret a plan on sampled functions, one ``_STAGES`` action a stage."""
    for stage, param in plan:
        f = _STAGES[stage][0](param, f)
    return f


def apply_metaplectic(S, f: GridFunction, tol: float | None = None) -> GridFunction:
    """Apply the operator projecting to S (a matrix or a prepared factorization).

    The result equals the operator's true action up to one global unimodular
    constant shared by the whole grid.
    """
    fact = S if isinstance(S, DJFactorization) else dj_factorize(S, tol)
    if fact.d != f.grid.d:
        raise ValueError(f"matrix acts in dimension {fact.d}, function lives in {f.grid.d}")
    plan = stage_plan(fact)
    plan_grid(plan, f.grid, f"after the partial Fourier transform on J = {list(fact.J.members)}")
    return run_plan(plan, f)
