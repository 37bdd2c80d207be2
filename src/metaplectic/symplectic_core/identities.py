"""Exact matrix identities behind the factorization calculus.

``free_block_test`` checks the equivalence

    I_J + P I_{J^c} invertible  <=>  P_{J^c J^c} invertible

(the submatrix of P indexed by the complement), which in turn characterizes
when a factorization with index set J can be rewritten into a free one.

``redox_split`` rewrites a conjugated multiplier factor as a product of three
generators that never mention the interchange:

    Pi_J^{-1} . V_P^T . Pi_J
        = V^T_{I_{J^c} P I_{J^c}} . D_{I + I_{J^c} P I_J} . V_{-I_J P I_J}.

The middle dilation parameter is unipotent: (I_{J^c} P I_J)^2 = 0, so its
inverse is I - I_{J^c} P I_J exactly.
"""

from __future__ import annotations

import numpy as np

from ..tolerances import rel_invertible, require_symmetric
from .generators import chirp_block, dilation_block, interchange, multiplier_block
from .types import IndexSet, SymplecticMatrix


def free_block_test(P, J: IndexSet, tol: float | None = None) -> tuple[bool, bool]:
    """Return the two sides of the invertibility equivalence as booleans.

    Left: is I_J + P I_{J^c} invertible?  Right: is the J^c x J^c submatrix
    of P invertible?  Both are tested against ``tol`` relative to the scale
    of P; by the equivalence they agree away from the cutoff.
    """
    P = require_symmetric(P, "P")
    if P.shape[0] != J.d:
        raise ValueError(f"P has size {P.shape[0]} but J lives in dimension {J.d}")
    scale = max(1.0, float(np.linalg.norm(P, 2)))
    lhs_mat = J.projector() + P @ J.complement().projector()
    pos = J.complement().positions()
    rhs_mat = P[np.ix_(pos, pos)]
    lhs = rel_invertible(lhs_mat, tol, scale)
    rhs = rel_invertible(rhs_mat, tol, scale)
    return lhs, rhs


def redox_split(
    P, J: IndexSet
) -> tuple[SymplecticMatrix, tuple[SymplecticMatrix, SymplecticMatrix, SymplecticMatrix]]:
    """Conjugate a multiplier factor through the interchange and split it.

    Returns ``(conjugated, (upper, dilation, lower))`` where ``conjugated``
    is Pi_J^{-1} V_P^T Pi_J and the triple multiplies to the same matrix:
    upper = V^T with parameter I_{J^c} P I_{J^c}, dilation with parameter
    I + I_{J^c} P I_J, lower = V with parameter -I_J P I_J.
    """
    P = require_symmetric(P, "P")
    if P.shape[0] != J.d:
        raise ValueError(f"P has size {P.shape[0]} but J lives in dimension {J.d}")
    pj = J.projector()
    pjc = J.complement().projector()
    pi = interchange(J)
    conjugated = pi.transpose() @ multiplier_block(P) @ pi

    upper = multiplier_block(pjc @ P @ pjc)
    dil = dilation_block(np.eye(J.d) + pjc @ P @ pj)
    lower = chirp_block(-pj @ P @ pj)
    return conjugated, (upper, dil, lower)


def unipotent_inverse(P, J: IndexSet) -> np.ndarray:
    """Closed-form inverse of I + I_{J^c} P I_J, namely I - I_{J^c} P I_J."""
    P = np.asarray(P, dtype=float)
    pj = J.projector()
    pjc = J.complement().projector()
    return np.eye(J.d) - pjc @ P @ pj
