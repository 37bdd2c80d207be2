"""Factorization of symplectic matrices into generator products.

The central routine writes any symplectic S as

    S = V_Q . D_L . V_P^T . Pi_J

with V_Q = [[I,0],[Q,I]], D_L = [[inv(L),0],[0,L^T]], V_P^T = [[I,P],[0,I]]
and Pi_J the partial interchange.  The index set J is found by exhaustive
search (d <= 16): J is admissible exactly when X(J) = A I_{J^c} + B I_J is
invertible, and among admissible sets we keep the best conditioned one
(largest |det X|).  Every subset is scored by |det X(J)|, in batched
determinants of about 1 MB of X(J) entries each; the singular-value verdict
then runs on one candidate at a time in descending score order and the
first to pass wins.  The ranking is stable over the (cardinality,
lexicographic) order, so ties keep the smaller cardinality, then the
lexicographically least set.  Given J the parameters are forced:

    L = X^{-1},   P = X^{-1} (B I_{J^c} - A I_J),   Q = (C I_{J^c} + D I_J) X^{-1}.

The search is an ``lru_cache(maxsize=1)`` on the matrix's bytes, d and the
resolved tolerance, and caches only the winning mask.  One entry serves the
real repeats: ``shift_perturb``, ``admissible_shift_range`` and
``wigner_split`` each factorize the matrix they are given.

Specializations: ``free_factorize`` (B invertible, a three-generator form
around the full interchange) and ``lower_tri_factorize`` (B = 0, no
interchange at all).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..tolerances import default_tol, rel_invertible, rel_zero, singular_extremes
from .classify import is_free, is_symplectic
from .generators import chirp_block, dilation_block, interchange, multiplier_block
from .types import DJFactorization, IndexSet, SymplecticMatrix

#: exhaustive subset search is O(2^d); keep it at desk scale
MAX_SEARCH_DIM = 16

#: X(J) entries per batched determinant of the search (8 bytes each)
_DET_CHUNK_ENTRIES = 1 << 17

#: forced symmetry of the solved parameters is checked at this relative level
SYMMETRY_TOL = 1e-10


def dj_compose(f: DJFactorization) -> SymplecticMatrix:
    """Multiply the four factors V_Q . D_L . V_P^T . Pi_J back together."""
    return chirp_block(f.Q) @ dilation_block(f.L) @ multiplier_block(f.P) @ interchange(f.J)


def _x_of(S: SymplecticMatrix, masks: np.ndarray) -> np.ndarray:
    """X(J) of one mask, or the stack of X(J) of a stack of masks: column j
    from B if j is in J, else from A.  Adding 0.0 turns each -0.0 into the
    +0.0 that the projector products give."""
    x = np.where(masks[..., None, :], S.B, S.A)
    x += 0.0
    return x


@lru_cache(maxsize=1)
def _search(mat: bytes, d: int, search_tol: float) -> np.ndarray:
    """The (read-only) mask of the interchange set of the 2d x 2d matrix with
    bytes ``mat``: the first subset in descending |det X(J)| order whose X(J)
    passes the singular-value verdict."""
    S = SymplecticMatrix(np.frombuffer(mat).reshape(2 * d, 2 * d), validate=False)
    _, scale = singular_extremes(S.mat)
    masks = np.concatenate([IndexSet.size_masks(d, size) for size in range(d + 1)])
    # a batched det decides each matrix alone, so chunks of about 1 MB of
    # X(J) give the same scores as one stack
    step = max(1, _DET_CHUNK_ENTRIES // (d * d))
    scores = np.concatenate(
        [np.abs(np.linalg.det(_x_of(S, masks[i : i + step]))) for i in range(0, len(masks), step)]
    )
    # the stable sort keeps the (cardinality, lexicographic) order among ties
    for k in np.argsort(-scores, kind="stable"):
        if rel_invertible(_x_of(S, masks[k]), search_tol, scale):
            mask = masks[k].copy()
            mask.flags.writeable = False
            return mask
    # cannot happen for a true symplectic matrix; guard anyway
    raise ValueError("no admissible index set found; matrix is too far from symplectic")


def dj_factorize(S: SymplecticMatrix, tol: float | None = None) -> DJFactorization:
    """Factor S = V_Q . D_L . V_P^T . Pi_J with an exhaustively chosen J.

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
    mask = _search(S.mat.tobytes(), d, default_tol() if tol is None else tol)
    x = _x_of(S, mask)
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
    _, scale = singular_extremes(S.mat)
    if not rel_zero(S.B, tol, scale):
        raise ValueError("lower-triangular factorization requires a vanishing upper-right block")
    ainv = np.linalg.inv(S.A)
    return S.C @ ainv, ainv
