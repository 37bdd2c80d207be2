"""Quantization: turn a phase-space symbol into an operator on signals.

The operator attached to a symbol a and a phase-space matrix A is defined by
duality against the matrix's distribution:

    < Op(a) f, g > = < a, W_A(g, f) >        for all signals f, g,

with weighted lattice inner products on both sides.  Discretely this makes
Op(a) an N x N matrix (N lattice points): writing the distribution as a
linear map D on the tensor g (x) conj(f), the duality collapses to

    Op(a)[s, t] = (signal cell weight) * (D* a)(s, t),

where D* is the adjoint of the discrete distribution map.  For the standard
Wigner matrix it is the adjoint of the exact doubled-argument evaluation, a
scatter through (x, u) -> (x + u, x - u) whose indices ``grid.periodic_reads``
reads (phases pinned, so the constant symbol gives the identity); for a
general matrix the factorization pipeline's stage-by-stage adjoint is used and
the operator inherits the pipeline's global unimodular constant.  The walk
``operators.plan_grid`` gives that adjoint's output grid, which must be the
doubled signal grid, before the adjoint runs.
"""

from __future__ import annotations

import math

import numpy as np

from ..symplectic_core import SymplecticMatrix, dj_factorize
from .distributions import classical_kind, wigner_grid
from .grid import Grid, GridFunction, centered_dft, periodic_reads
from .operators import adjoint_plan, plan_grid, run_plan

#: refuse to build dense operators beyond this many signal lattice points
MAX_OPERATOR_POINTS = 4096


def _check_doubled(a: GridFunction) -> int:
    d2 = a.grid.d
    if d2 % 2 != 0:
        raise ValueError("symbol must live on a doubled (phase-space) grid")
    return d2 // 2


def _wigner_pairing(shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Per-axis lattice indices of x_j + u_k, then of x_j - u_k, broadcasting
    against the doubled grid (*shape, *shape) with n^2 entries each: the reads
    of ``_wigner_rows`` (signs (1, +1), (1, -1)) of the centred index vector,
    whose entry m is (m - n/2) mod n."""
    d = len(shape)
    reads = [periodic_reads(np.fft.fftshift(np.arange(n))) for n in shape]
    return tuple(
        reads[ax]((), 1, sk).reshape([n if i in (ax, d + ax) else 1 for i in range(2 * d)])
        for sk in (1, -1)
        for ax, n in enumerate(shape)
    )


def _wigner_adjoint(a: GridFunction) -> np.ndarray:
    """Adjoint of the exact doubled-argument Wigner evaluation.

    Returns the tensor (D* a) on the doubled signal grid as an ndarray.
    """
    d = a.grid.d // 2
    sig = Grid(a.grid.axes[:d])
    if not a.grid.close_to(wigner_grid(sig)):
        raise ValueError(
            "symbol grid does not match the Wigner output grid "
            "(frequency axes must sit on the half-step dual lattice)"
        )
    # undo the half-step relabeling, invert the DFT over the second slot
    relabeled = Grid(sig.axes + tuple(ax.dual() for ax in sig.axes))
    y = centered_dft(a.values, relabeled, tuple(range(d, 2 * d)), inverse=True)
    # scatter through the pairing (x, u) -> (x + u, x - u); two index pairs
    # land on each reachable tensor entry, so accumulate
    out = np.zeros(sig.shape + sig.shape, dtype=complex)
    np.add.at(out, _wigner_pairing(sig.shape), y)
    return out


def opA_build(a: GridFunction, A: SymplecticMatrix) -> np.ndarray:
    """Dense matrix of the operator quantizing symbol ``a`` against matrix ``A``.

    The symbol must be sampled on the distribution's output grid (for the
    Wigner matrix: signal axes first, then the half-step frequency axes).
    The returned matrix acts on signal values flattened in row-major order.
    """
    d = _check_doubled(a)
    if 2 * d != A.d:
        raise ValueError(f"matrix acts on {A.d} phase-space coordinates, symbol has {2 * d}")
    npts = math.prod(a.grid.shape[:d])
    if npts > MAX_OPERATOR_POINTS:
        raise ValueError(
            f"dense operator would have {npts} rows; limit is {MAX_OPERATOR_POINTS}"
        )
    if classical_kind(A) == "wigner":
        tensor_vals = _wigner_adjoint(a)
        sig = Grid(a.grid.axes[:d])
    else:
        # the adjoint's output must be the doubled signal grid; that is
        # checked before its rescaling's axes
        plan = adjoint_plan(dj_factorize(A))
        tensor_grid = plan_grid(plan, a.grid)
        if not tensor_grid.close_to(Grid(tensor_grid.axes[:d] * 2)):
            raise ValueError("symbol grid is not the distribution's output grid for this matrix")
        plan_grid(plan, a.grid, "on the symbol grid")
        tensor = run_plan(plan, a)
        tensor_vals = tensor.values
        sig = Grid(tensor.grid.axes[:d])
    return sig.weight * tensor_vals.reshape(npts, npts)


def opA_apply(K: np.ndarray, f: GridFunction) -> GridFunction:
    """Apply a built operator matrix to a sampled signal."""
    npts = int(np.prod(f.grid.shape))
    if K.shape != (npts, npts):
        raise ValueError(f"operator is {K.shape}, signal has {npts} points")
    return GridFunction._own(f.grid, (K @ f.values.ravel()).reshape(f.grid.shape))
