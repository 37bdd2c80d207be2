"""Factorization of symplectic matrices into generator products.

The central routine writes any symplectic S as

    S = V_Q . D_L . V_P^T . Pi_J

with V_Q = [[I,0],[Q,I]], D_L = [[inv(L),0],[0,L^T]], V_P^T = [[I,P],[0,I]]
and Pi_J the partial interchange.  J is admissible exactly when
X(J) = A I_{J^c} + B I_J is invertible, and among admissible sets we keep
the best conditioned one (largest |det X|), ties going to the smaller
cardinality, then the lexicographically least set.  Given J the parameters
are forced:

    L = X^{-1},   P = X^{-1} (B I_{J^c} - A I_J),   Q = (C I_{J^c} + D I_J) X^{-1}.

Column j of X(J) is column j of A or of B, so |det X(J)| is the volume of d
columns picked one per coordinate, a maximum-volume submatrix of [A | B]
(Goreinov & Tyrtyshnikov, 2001).  J comes from a branch and bound on
projected column norms (d <= 16).  The tree picks a_j or b_j at depth j; a
node carries the volume of its chosen columns and the other columns
projected off their span, and by Hadamard's inequality its volume times,
over each coordinate left, the larger projected norm of a_j and b_j bounds
every leaf below it.  The greedy leaf, the larger projected norm at each
depth, gives the incumbent; the walk, depth first in batches of bounded
size, keeps every leaf whose bound reaches (1 - 1e-8)^2 of it.  The kept
leaves are scored by batched determinants of X(J), gathered from the
columns of [A | B], and the singular-value verdict runs on one at a time in
descending score order, then (cardinality, lexicographic) order, taking
the first to pass down to (1 - 1e-8) of the best score.  Every pruned leaf
scores below that, and a batched det decides each matrix alone, so the
winner and its bits are those of scoring all 2^d subsets.  If the verdict
refuses every candidate, the walk runs again at floor 0: it prunes
nothing, so it is the exhaustive search, and it alone raises the ``no
admissible index set`` error.  The search is an ``lru_cache(maxsize=1)``
on the matrix's bytes, d and the resolved tolerance, and caches only the
winning mask.  One entry serves the real repeats: ``shift_perturb``,
``admissible_shift_range`` and ``wigner_split`` each factorize the matrix
they are given.

Specializations: ``free_factorize`` (B invertible, a three-generator form
around the full interchange) and ``lower_tri_factorize`` (B = 0, no
interchange at all).  Both take the verdict on B from ``classify_lp``, so
inside its ambiguity band they raise ``ToleranceAmbiguityError``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..tolerances import rel_invertible, resolve_tol, singular_extremes
from .classify import BoundednessCase, classify_lp, is_free, is_symplectic
from .generators import chirp_block, dilation_block, interchange, multiplier_block
from .types import DJFactorization, IndexSet, SymplecticMatrix

#: the index-set search may score all 2^d subsets; keep it at desk scale
MAX_SEARCH_DIM = 16

#: float64 entries that one batch of the search holds: the residuals of the
#: tree walk's nodes, or the X(J) of the leaves it scores (8 bytes each)
_BATCH_ENTRIES = 1 << 13

#: relative margin of the branch and bound, far above the rounding of a
#: volume or a determinant
_MARGIN = 1e-8

#: the least walk floor whose leaves keep every norm: a projected norm at
#: or above it has a square above the least normal float
_LEAST_FLOOR = 1e-150

#: forced symmetry of the solved parameters is checked at this relative level
SYMMETRY_TOL = 1e-10


def dj_compose(f: DJFactorization) -> SymplecticMatrix:
    """Multiply the four factors V_Q . D_L . V_P^T . Pi_J back together."""
    return chirp_block(f.Q) @ dilation_block(f.L) @ multiplier_block(f.P) @ interchange(f.J)


def _columns(S: SymplecticMatrix) -> np.ndarray:
    """The columns of [A | B] as the rows of a contiguous (2d, d) array.
    Adding 0.0 turns each -0.0 into the +0.0 that the projector products
    give."""
    cols = S.mat[: S.d].T.copy()
    cols += 0.0
    return cols


def _x_of(cols: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """X(J) of one mask, or the stack of X(J) of a stack of masks, from one
    gather of ``_columns``: column j is column j of B if j is in J, else of
    A.  The result is a transposed view of the gather."""
    d = masks.shape[-1]
    return cols[np.arange(d) + d * masks].swapaxes(-1, -2)


def _masks(codes: np.ndarray, d: int) -> np.ndarray:
    """The masks of subset codes: bit d - 1 - j of a code holds coordinate
    j + 1, so among the codes of one popcount, descending order is
    lexicographic order."""
    return (codes[:, None] >> np.arange(d - 1, -1, -1)) & 1 == 1


def _children(res: np.ndarray, vol: np.ndarray, code: np.ndarray, bit: int):
    """The two children of each node of a batch.  A node at depth k holds,
    in rows 2i and 2i + 1 of ``res``, a_{k+i} and b_{k+i} projected off the
    span of its chosen columns, the volume ``vol`` those columns span and
    its subset ``code``.  Child 0 chooses a_k and child 1 b_k, which sets
    ``bit`` of its code."""
    piv = res[:, :2]
    nu = np.sqrt(np.einsum("nij,nij->ni", piv, piv))
    q = piv / np.where(nu > 0.0, nu, 1.0)[..., None]
    rest = res[:, 2:]
    # Gram-Schmidt: each child takes its pivot's direction off the rest
    kids = rest[:, None] - (q @ rest.swapaxes(1, 2))[..., None] * q[:, :, None, :]
    n, d = len(vol), res.shape[-1]
    return kids.reshape(2 * n, -1, d), (vol[:, None] * nu).ravel(), (code[:, None] | [0, bit]).ravel()


def _root(unit: np.ndarray):
    """The root node of the tree walk over the columns ``unit`` of [A | B]."""
    d = unit.shape[1]
    return unit.reshape(2, d, d).swapaxes(0, 1).reshape(1, 2 * d, d), np.ones(1), np.zeros(1, int)


def _greedy_volume(unit: np.ndarray) -> float:
    """The volume of the greedy leaf: at each depth, the child whose pivot
    has the larger projected norm."""
    d = unit.shape[1]
    res, vol, code = _root(unit)
    for k in range(d):
        res, vol, code = _children(res, vol, code, 1 << (d - 1 - k))
        i = np.argmax(vol)
        res, vol, code = res[i : i + 1], vol[i : i + 1], code[i : i + 1]
    return float(vol[0])


def _leaves(unit: np.ndarray, floor: float):
    """The codes of every leaf whose bound reaches ``floor``, in batches.

    The walk is depth first over batches of at most ``_BATCH_ENTRIES``
    residual entries.  A node's bound is its volume times, over each
    coordinate left, the larger projected norm of a_j and b_j: Hadamard's
    inequality bounds the volume of every leaf below it so.  At floor 0
    nothing is pruned and every subset comes out.
    """
    d = unit.shape[1]
    stack = [(0, *_root(unit))]
    while stack:
        k, *node = stack.pop()
        res, vol, code = _children(*node, 1 << (d - 1 - k))
        k += 1
        if k == d:
            yield code[vol >= floor]
            continue
        norms = np.sqrt(np.einsum("nij,nij->ni", res, res)).reshape(len(vol), -1, 2).max(axis=-1)
        keep = vol * norms.prod(axis=-1) >= floor
        res, vol, code = res[keep], vol[keep], code[keep]
        step = max(1, _BATCH_ENTRIES // (res.shape[1] * d))
        for i in range(0, len(vol), step):
            stack.append((k, res[i : i + step], vol[i : i + step], code[i : i + step]))


@lru_cache(maxsize=1)
def _search(mat: bytes, d: int, search_tol: float) -> np.ndarray:
    """The (read-only) mask of the interchange set of the 2d x 2d matrix with
    bytes ``mat``: the first subset in descending |det X(J)| order, then by
    (cardinality, lexicographic) order, whose X(J) passes the singular-value
    verdict.

    A branch and bound keeps the leaves that can come first.  On the columns
    over sigma_max(S), whose volumes are at most 1, the greedy leaf gives
    an incumbent volume, and the walk keeps every leaf whose bound reaches
    (1 - margin)^2 of it.  These are scored by the batched determinants, and
    a candidate is taken only with a score of at least (1 - margin) of their
    largest: every pruned leaf scores below that, so the winner is the
    exhaustive search's.  If the verdict refuses every such candidate, the
    walk runs again at floor 0, which scores every subset.
    """
    S = SymplecticMatrix(np.frombuffer(mat).reshape(2 * d, 2 * d), validate=False)
    _, scale = singular_extremes(S.mat)
    cols = _columns(S)
    unit = cols / scale
    first = (1.0 - _MARGIN) ** 2 * _greedy_volume(unit)
    # a batched det decides each matrix alone, so any batches of X(J) give
    # the same scores as one stack
    step = max(1, _BATCH_ENTRIES // (d * d))
    for floor in (first, 0.0) if first >= _LEAST_FLOOR else (0.0,):
        codes = np.concatenate(list(_leaves(unit, floor)))
        masks = _masks(codes, d)
        batches = range(0, len(masks), step)
        scores = np.concatenate([np.abs(np.linalg.det(_x_of(cols, masks[i : i + step]))) for i in batches])
        threshold = (1.0 - _MARGIN) * scores.max() if floor else 0.0
        if not np.isfinite(threshold):
            continue
        for k in np.lexsort((-codes, masks.sum(axis=1), -scores)):
            if scores[k] < threshold:
                break
            if rel_invertible(_x_of(cols, masks[k]), search_tol, scale):
                mask = masks[k].copy()
                mask.flags.writeable = False
                return mask
    # an exactly symplectic S gets here when it is too ill-conditioned for
    # the cutoff: diag(1e-5, 1e5) has X(J) = 1e-5 or 0 against sigma_max 1e5
    best = max(np.linalg.svd(_x_of(cols, masks[i : i + step]), compute_uv=False)[:, -1].max() for i in batches)
    raise ValueError(
        "no admissible index set found: no X(J) reaches tol * sigma_max(S); the best "
        f"ratio sigma_min(X(J)) / sigma_max(S) is {best / scale:.3e}, tol {search_tol:.3e}"
    )


def dj_factorize(S: SymplecticMatrix, tol: float | None = None) -> DJFactorization:
    """Factor S = V_Q . D_L . V_P^T . Pi_J with the J of ``_search``: the
    largest |det X(J)| that passes the singular-value verdict, found by
    branch and bound.

    Admissibility of J means A I_{J^c} + B I_J is invertible; at least one
    subset is always admissible.  Q and P come out symmetric (forced by the
    block relations) and the recomposition residual is recorded.  A repeat
    of the last matrix and tolerance reuses the cached J of ``_search``.
    """
    if not is_symplectic(S.mat):
        raise ValueError("input matrix is not symplectic")
    d = S.d
    if d > MAX_SEARCH_DIM:
        raise ValueError(f"exhaustive index-set search supports d <= {MAX_SEARCH_DIM}, got d={d}")
    mask = _search(S.mat.tobytes(), d, resolve_tol(tol))
    x = _x_of(_columns(S), mask)
    L = np.linalg.inv(x)
    P = L @ (np.where(mask, -S.A, S.B) + 0.0)
    Q = (np.where(mask, S.D, S.C) + 0.0) @ L
    best = IndexSet(d, tuple(np.flatnonzero(mask) + 1))

    sym_scale = max(1.0, float(np.abs(Q).max()), float(np.abs(P).max()))
    asym = max(float(np.abs(Q - Q.T).max()), float(np.abs(P - P.T).max()))
    if asym > SYMMETRY_TOL * sym_scale:
        raise ValueError(
            f"solved chirp parameters lost symmetry ({asym:.3e}); "
            "input is likely not symplectic to working precision"
        )

    f = DJFactorization(Q=Q, L=L, P=P, J=best)
    residual = float(np.linalg.norm(dj_compose(f).mat - S.mat))
    return DJFactorization(Q=Q, L=L, P=P, J=best, residual=residual)


def free_factorize(S: SymplecticMatrix, tol: float | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three-generator form for invertible B:

        S = V_{Q1} . D_{L1} . Pi_full . V_{P1}

    with Q1 = D B^{-1}, L1 = B^{-1}, P1 = B^{-1} A.  Note the + sign on P1:
    the variant with -B^{-1}A recomposes to a different matrix (kept as a
    regression test).
    """
    if not is_free(S, tol):
        raise ValueError("free factorization requires an invertible upper-right block")
    binv = np.linalg.inv(S.B)
    q1 = S.D @ binv
    l1 = binv
    p1 = binv @ S.A
    return q1, l1, p1


def lower_tri_factorize(S: SymplecticMatrix, tol: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Two-generator form for B = 0:

        S = V_Q . D_L        with Q = C A^{-1}, L = A^{-1}.
    """
    if classify_lp(S, tol).case is not BoundednessCase.LOWER_TRIANGULAR:
        raise ValueError("lower-triangular factorization requires a vanishing upper-right block")
    ainv = np.linalg.inv(S.A)
    return S.C @ ainv, ainv
