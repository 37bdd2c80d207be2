"""Factorization of symplectic matrices into generator products.

The central routine writes any symplectic S as

    S = V_Q . D_L . V_P^T . Pi_J

with V_Q = [[I,0],[Q,I]], D_L = [[inv(L),0],[0,L^T]], V_P^T = [[I,P],[0,I]]
and Pi_J the partial interchange.  The index set J is found by exhaustive
search (d <= 12): J is admissible exactly when X(J) = A I_{J^c} + B I_J is
invertible, and among admissible sets we keep the best conditioned one
(largest |det X|).  Each cardinality gets one stack of X(J), one verdict
and one determinant; ties keep the first maximum, so the smaller
cardinality wins, then the lexicographically least set.  Given J the
parameters are forced:

    L = X^{-1},   P = X^{-1} (B I_{J^c} - A I_J),   Q = (C I_{J^c} + D I_J) X^{-1}.

Specializations: ``free_factorize`` (B invertible, a three-generator form
around the full interchange) and ``lower_tri_factorize`` (B = 0, no
interchange at all).
"""

from __future__ import annotations

import numpy as np

from ..tolerances import default_tol, rel_invertible, rel_zero, singular_extremes
from .classify import is_free, is_symplectic
from .generators import chirp_block, dilation_block, interchange, multiplier_block
from .types import DJFactorization, IndexSet, SymplecticMatrix

#: exhaustive subset search is O(2^d); keep it at desk scale
MAX_SEARCH_DIM = 12

#: forced symmetry of the solved parameters is checked at this relative level
SYMMETRY_TOL = 1e-10


def dj_compose(f: DJFactorization, tol: float | None = None) -> SymplecticMatrix:
    """Multiply the four factors V_Q . D_L . V_P^T . Pi_J back together
    (``tol`` is the invertibility cutoff for L)."""
    prod = (
        chirp_block(f.Q)
        @ dilation_block(f.L, tol)
        @ multiplier_block(f.P)
        @ interchange(f.J)
    )
    return prod


def dj_factorize(S: SymplecticMatrix, tol: float | None = None) -> DJFactorization:
    """Factor S = V_Q . D_L . V_P^T . Pi_J with an exhaustively chosen J.

    Admissibility of J means A I_{J^c} + B I_J is invertible; at least one
    subset is always admissible.  Q and P come out symmetric (forced by the
    block relations) and the recomposition residual is recorded.
    """
    if not is_symplectic(S.mat):
        raise ValueError("input matrix is not symplectic")
    d = S.d
    if d > MAX_SEARCH_DIM:
        raise ValueError(f"exhaustive index-set search supports d <= {MAX_SEARCH_DIM}, got d={d}")
    _, scale = singular_extremes(S.mat)
    # the default is read once per call, not once per subset size
    default = default_tol()
    search_tol = default if tol is None else tol
    best_score = -np.inf
    for size in range(d + 1):
        masks = IndexSet.size_masks(d, size)
        # X(J) takes column j from B if j is in J, else from A; += 0.0 turns
        # each -0.0 into the +0.0 that the projector products gave
        xs = np.where(masks[:, None, :], S.B, S.A)
        xs += 0.0
        scores = np.where(rel_invertible(xs, search_tol, scale), np.abs(np.linalg.det(xs)), -np.inf)
        k = int(np.argmax(scores))  # the first maximum; a strict > across sizes
        if scores[k] > best_score:
            best_score, mask, x = scores[k], masks[k], xs[k].copy()
        del xs  # one size's stack at a time: at most about 1 MB at d=12
    if best_score == -np.inf:
        # cannot happen for a true symplectic matrix; guard anyway
        raise ValueError("no admissible index set found; matrix is too far from symplectic")
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
    residual = float(np.linalg.norm(dj_compose(f, default).mat - S.mat))
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
