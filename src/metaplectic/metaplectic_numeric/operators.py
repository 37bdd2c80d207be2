"""Sampled operator stages and the stage plan that chains them.

Every symplectic matrix S projects (two-to-one) from an operator.  Read right
to left, the factorization S = V_Q . D_L . V_P^T . Pi_J gives the operator,
up to one global unimodular constant, as the stages

    partial FT on J -> multiplier by P -> rescale by L -> chirp by Q.

``stage_plan`` compiles a factorization into that list of ``(stage, param)``
pairs without the identity stages (J empty, P = 0, L = I, Q = 0), and
``adjoint_plan`` reverses it with inverted stages.  ``run_plan`` interprets a
plan on sampled functions; ``apply_metaplectic`` and the quantization adjoint
wrap it.  The stages:

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
whole kernel (268 MB at n = 4096).  Each block takes the exp of only half
its columns, xi_0 and xi_h..xi_{n-1} (h = n / 2): the centered lattice has
xi_{h-j} = -xi_{h+j} exactly, so each other column is a mirrored column
with its phase negated, which ``grid.mirrored_exps`` (shared with the
Rihaczek rows) copies as (re, 0.0 - im).  The copy has the bytes the
entry's own exp would give, and every output row's dot product is computed
as with the whole kernel, so the result is bit-equal to it.  The blocks
fall into two contiguous halves, one per worker thread
(``grid.worker_map``; one after the other on the one worker of a process
that may run on one CPU), each with its own block buffer and its own
products into disjoint columns of the result.
Each block is the same product as in a serial loop, so the threads change
no bit.

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
#: runs).  With the blocks on the two workers, 4 rows took a median of
#: 171 ms and 8 rows 159 ms at one BLAS thread, but 195 against 348 ms at
#: two (medians of 15): OpenBLAS runs an 8-row gemv on its own threads
#: (alone, 9-10 us at two BLAS threads against 13-16 us at one), and
#: those contend with the workers.
#: Blocks always hold at least 2 rows: a one-row product goes down BLAS's
#: dot path instead of gemv and rounds differently.
KERNEL_BLOCK_BYTES = 256 * 2**10


def _as_param(Q, d: int) -> np.ndarray:
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if Q.shape != (d, d):
        raise ValueError(f"parameter must be {d} x {d}, got {Q.shape}")
    return Q


def chirp_apply(Q, f: GridFunction) -> GridFunction:
    """Multiply samples by the quadratic phase exp(i pi x . Q x)."""
    Q = _as_param(Q, f.grid.d)
    if not np.any(Q):
        return f
    return f.with_values(f.values * np.exp(1j * math.pi * form_sum(Q, f.grid.open_mesh())))


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
    P = _as_param(P, f.grid.d)
    if not np.any(P):
        return f
    symbol = lambda xi: np.exp(-1j * math.pi * form_sum(P, xi))
    return GridFunction(*_spectral_product(f, range(f.grid.d), symbol))


# -- rescaling -------------------------------------------------------------


def _kernel_block(a_x: np.ndarray, xi: np.ndarray, step: float, out: np.ndarray) -> np.ndarray:
    """Kernel rows exp(2 pi i a_x[k] xi[m]) * step, written into ``out``
    (``a_x.size`` x ``xi.size``) from the exps of half the columns.

    The columns xi_0 and xi_h..xi_{n-1} (h = n / 2) take their own exps;
    ``grid.mirrored_exps`` copies every other column from its mirror.  Each
    step that makes an entry (the product a_x xi, the exp, the scaling by
    step) is symmetric in the sign of the phase, so the copies have the
    bytes of their own exps.
    """

    def fill(sl, part):
        # the exps stay the left operand of ``* step``, as in the per-entry
        # kernel ``np.exp(...) * step``; a contiguous exp block scaled into
        # ``part`` ran faster than the scaling of ``part`` in place
        np.multiply(np.exp(2j * math.pi * np.outer(a_x, xi[sl[0]])), step, out=part)

    return mirrored_exps(out, 1, fill)


def _axis_scale(f: GridFunction, axis: int, a: float) -> GridFunction:
    """|a|^{1/2} f(a x) along one axis by dense trigonometric synthesis.

    Output point x_k is the spectrum's product with kernel row k,
    exp(2 pi i a x_k xi_m) * step.  The rows are built and applied in blocks
    of ``KERNEL_BLOCK_BYTES`` (the leftover rows join the last block, so
    every block has at least 2 rows), which holds the memory to a few blocks
    and keeps the result bit-equal to the product with the whole kernel.
    Each block computes the exps of half its columns and mirrors the other
    half (``_kernel_block``); the mirrored entries are bit-equal to their
    own exps, so BLAS sees the same bytes in the same shapes.  The two
    contiguous halves of the blocks run on the two worker threads (one
    after the other with one CPU).

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
        return f.with_values(np.take(f.values, -np.arange(ax.n) % ax.n, axis=axis))
    spec = np.moveaxis(centered_dft(f.values, f.grid, (axis,)), axis, -1)
    dual = ax.dual()
    a_x, xi = a * ax.points(), dual.points()
    vals = np.empty(spec.shape, dtype=complex)
    blocks = row_blocks(ax.n, max(2, -(-KERNEL_BLOCK_BYTES // (16 * ax.n))))

    def synthesize(part: list[slice]) -> None:
        # one buffer serves every block of the part: with a fresh array per
        # block, n = 4096 took 256 page faults per block, which cost about
        # as much as the exps the mirror saves
        buf = np.empty((max(b.stop - b.start for b in part), ax.n), dtype=complex)
        for rows in part:
            kernel = _kernel_block(a_x[rows], xi, dual.step, buf[: rows.stop - rows.start])
            vals[..., rows] = spec @ kernel.T

    half = len(blocks) // 2
    list(worker_map(synthesize, [part for part in (blocks[:half], blocks[half:]) if part]))
    return f.with_values(math.sqrt(abs(a)) * np.moveaxis(vals, -1, axis))


def _axis_shear(f: GridFunction, axis: int, coeffs: np.ndarray) -> GridFunction:
    """Samples of f with x_axis replaced by x_axis + sum_j coeffs[j] x_j.

    Translation along one axis by an amount depending on the other
    coordinates, realized as a phase ramp on the spectrum (f(x + s) has
    spectrum exp(2 pi i xi s) f^(xi)); spectrally exact for decaying data.
    """
    if not np.any(coeffs):
        return f
    ramp = lambda xi: np.exp(2j * math.pi * xi[axis] * form_sum(coeffs, xi))
    return GridFunction(*_spectral_product(f, (axis,), ramp))


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
    L = _as_param(L, d)
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
    grid, values = f.grid, f.values
    if np.any(x0):
        shift = lambda xi: np.exp(-2j * math.pi * form_sum(x0, xi))
        grid, values = _spectral_product(f, range(d), shift)
    if np.any(xi0):
        values = values * np.exp(2j * math.pi * form_sum(xi0, grid.open_mesh()))
    constant = np.exp(2j * math.pi * tau) * np.exp(-1j * math.pi * float(xi0 @ x0))
    return GridFunction(grid, values * constant)


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


#: each stage's inverse, which is its adjoint: every stage is unitary
#: (on samples, up to the interpolation error of the dense rescaling)
_INVERSE = {
    "ft": lambda J: ("ift", J),
    "multiplier": lambda P: ("multiplier", -P),
    "rescale": lambda L: ("rescale", np.linalg.inv(L)),
    "chirp": lambda Q: ("chirp", -Q),
}


def adjoint_plan(fact: DJFactorization) -> list[tuple[str, object]]:
    """The plan of the adjoint operator: stages reversed, each inverted."""
    return [_INVERSE[stage](param) for stage, param in reversed(stage_plan(fact))]


def require_rescale_axes(plan: list[tuple[str, object]], grid: Grid, where: str) -> None:
    """Check, before ``plan`` runs, that its rescaling stage permutes only
    matching axes of ``grid``, the grid that stage will run on (described by
    ``where``), so the error names the grid requirement, not the stage."""
    for stage, L in plan:
        if stage == "rescale":
            _require_matching_axes(_pivoted_lu(L)[0], grid, where)


def run_plan(plan: list[tuple[str, object]], f: GridFunction) -> GridFunction:
    """Interpret a plan on sampled functions.  The stages are called by their
    module-level names, looked up at call time."""
    for stage, param in plan:
        if stage == "ft":
            f = partial_ft(f, param)
        elif stage == "ift":
            f = partial_idft(f, tuple(param.positions()))
        elif stage == "multiplier":
            f = multiplier_apply(param, f)
        elif stage == "rescale":
            f = rescale_apply(param, f)
        else:
            f = chirp_apply(param, f)
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
    where = f"after the partial Fourier transform on J = {list(fact.J.members)}"
    require_rescale_axes(plan, f.grid.dualized(fact.J.positions()), where)
    return run_plan(plan, f)
