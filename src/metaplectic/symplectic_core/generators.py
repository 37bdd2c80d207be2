"""Generators of the symplectic group used by the factorization routines.

Four families are enough to reach everything:

* ``chirp_block(P)``      -- [[I, 0], [P, I]], the matrix a quadratic-phase
                             multiplication projects to,
* ``multiplier_block(P)`` -- [[I, P], [0, I]], the matrix a Fourier-side
                             quadratic multiplier projects to,
* ``dilation_block(L)``   -- [[inv(L), 0], [0, L^T]], the matrix a rescaling
                             f -> |det L|^{1/2} f(L .) projects to,
* ``interchange(J)``      -- the partial swap of position/frequency planes a
                             partial Fourier transform projects to.
"""

from __future__ import annotations

import numpy as np

from ..tolerances import rel_invertible, require_symmetric
from .types import IndexSet, SymplecticMatrix


def chirp_block(P) -> SymplecticMatrix:
    """Lower unipotent block matrix [[I, 0], [P, I]] for symmetric P."""
    P = require_symmetric(P, "chirp parameter P")
    d = P.shape[0]
    mat = np.eye(2 * d)
    mat[d:, :d] = P
    return SymplecticMatrix(mat, validate=False)


def multiplier_block(P) -> SymplecticMatrix:
    """Upper unipotent block matrix [[I, P], [0, I]] for symmetric P."""
    P = require_symmetric(P, "multiplier parameter P")
    d = P.shape[0]
    mat = np.eye(2 * d)
    mat[:d, d:] = P
    return SymplecticMatrix(mat, validate=False)


def dilation_block(L) -> SymplecticMatrix:
    """Block diagonal matrix [[inv(L), 0], [0, L^T]] for invertible L."""
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError(f"dilation parameter L must be square, got shape {L.shape}")
    if not np.isfinite(L).all():
        raise ValueError("dilation parameter L must be finite")
    if not rel_invertible(L):
        raise ValueError("dilation parameter L must be invertible")
    d = L.shape[0]
    mat = np.zeros((2 * d, 2 * d))
    mat[:d, :d] = np.linalg.inv(L)
    mat[d:, d:] = L.T
    return SymplecticMatrix(mat, validate=False)


def interchange(J: IndexSet) -> SymplecticMatrix:
    """Partial position/frequency interchange for the coordinates in J.

    [[I_{J^c}, I_J], [-I_J, I_{J^c}]]; for J = {1..d} this is the standard
    involution mapping (x, xi) -> (xi, -x).  Its inverse is its transpose.
    Like the negated projector it is built from, the lower-left block holds
    -0.0 wherever it does not hold -1.0.
    """
    d = J.d
    p = J.mask().astype(float)
    pc = 1.0 - p
    mat = np.zeros((2 * d, 2 * d))
    mat[d:, :d] = -0.0
    i = np.arange(d)
    mat[i, i] = mat[d + i, d + i] = pc
    mat[i, d + i] = p
    mat[d + i, i] = -p
    return SymplecticMatrix(mat, validate=False)


def standard_involution(d: int) -> SymplecticMatrix:
    """The full interchange [[0, I], [-I, 0]]."""
    return interchange(IndexSet.full(d))


def random_symplectic(seed: int, d: int) -> SymplecticMatrix:
    """Deterministic random product of generators.

    Draws ten factors uniformly from the four generator families
    with well-conditioned parameters, so that products stay at desk scale.
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    rng = np.random.default_rng(seed)
    mat = np.eye(2 * d)
    for _ in range(10):
        kind = rng.integers(0, 4)
        if kind == 0 or kind == 1:
            w = rng.uniform(-1.0, 1.0, size=(d, d))
            p = (w + w.T) / 2.0
            factor = chirp_block(p) if kind == 0 else multiplier_block(p)
        elif kind == 2:
            # orthogonal factor times a mild diagonal stretch: condition <= 4
            q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            stretch = np.diag(rng.uniform(0.5, 2.0, size=d))
            factor = dilation_block(q @ stretch)
        else:
            members = tuple(j for j in range(1, d + 1) if rng.random() < 0.5)
            factor = interchange(IndexSet(d, members))
        mat = mat @ factor.mat
    return SymplecticMatrix(mat)
