"""Shift-invertibility analysis for phase-space (double-dimension) matrices.

A matrix in Sp(2d) acts on phase-space points (x, xi) in R^{2d}.  Viewing its
4d x 4d entries as a 4 x 4 grid of d x d blocks A_ij, the *shift submatrix*

    E = [[A_11, A_13],
         [A_21, A_23]]

collects the blocks that multiply the time and frequency shift variables of a
sesquilinear time-frequency distribution.  Invertibility of E decides whether
the distribution deforms shifts injectively ("shift-invertible").

``shift_perturb`` repairs a non-shift-invertible matrix: adding tau times the
swap R = [[0, I], [I, 0]] to the multiplier parameter of its factorization
makes the result shift-invertible for every small tau > 0 below the least
nonzero eigenvalue modulus of the obstructing block, and the perturbation is
reachable from the original matrix by an explicit free (or interchange-less)
correction factor on either side.

``wigner_split`` rewrites any matrix in Sp(2d) as a composition in which the
two d-dimensional tensor slots never mix except through one sandwiched
rescaling: D_L . V_Qd . FT2^{-1} . D_M . FT2 . V^T_Pd . Pi_J1 . Pi_J2 with
block-diagonal Qd, Pd and an explicit 2d x 2d mixing matrix M of determinant
one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..tolerances import rel_invertible, resolve_tol, singular_extremes
from .factorize import dj_compose, dj_factorize
from .generators import chirp_block, dilation_block, interchange, multiplier_block
from .identities import redox_split
from .types import DJFactorization, IndexSet, ShiftInvReport, SymplecticMatrix


def _require_double(S: SymplecticMatrix) -> int:
    """Return d for a matrix in Sp(2d); error if the dimension is odd."""
    if S.d % 2 != 0:
        raise ValueError(
            f"phase-space analysis needs a matrix in Sp(2d) (size 4d x 4d); got size {2 * S.d}"
        )
    return S.d // 2


def shift_submatrix(S: SymplecticMatrix) -> np.ndarray:
    """The 2d x 2d submatrix E of blocks acting on the shift variables."""
    d = _require_double(S)
    blk = lambda i, j: S.mat[i * d : (i + 1) * d, j * d : (j + 1) * d]
    return np.block([[blk(0, 0), blk(0, 2)], [blk(1, 0), blk(1, 2)]])


def shift_invertible(S: SymplecticMatrix, tol: float | None = None) -> ShiftInvReport:
    """Tolerance-based invertibility report for the shift submatrix."""
    d = _require_double(S)
    e = shift_submatrix(S)
    smin, smax = singular_extremes(e)
    _, scale = singular_extremes(S.mat)
    return ShiftInvReport(
        d=d,
        entries=e,
        det=float(np.linalg.det(e)),
        invertible=rel_invertible(e, tol, scale),
        sigma_min=smin,
        sigma_max=smax,
    )


def _swap_matrix(d: int) -> np.ndarray:
    """R = [[0, I], [I, 0]] of size 2d."""
    eye = np.eye(d)
    zero = np.zeros((d, d))
    return np.block([[zero, eye], [eye, zero]])


def _shift_range(f: DJFactorization, tol: float | None) -> float:
    """tau_max of :func:`admissible_shift_range`, read off a factorization."""
    d = f.d // 2
    p12 = f.P[:d, d:]
    scale = max(1.0, float(np.linalg.norm(p12, 2)))
    moduli = np.abs(np.linalg.eigvals(p12))
    nonzero = moduli[moduli > resolve_tol(tol) * scale]
    if nonzero.size == 0:
        return float(np.inf)
    return float(nonzero.min())


def admissible_shift_range(S: SymplecticMatrix, tol: float | None = None) -> float:
    """Largest open bound tau_max so that 0 < tau < tau_max perturbs safely.

    tau_max is the least nonzero eigenvalue modulus of the upper-right d x d
    block of the factorization's multiplier parameter (infinity if that block
    is nilpotent or zero): below it, adding tau R cannot cross a singularity.
    """
    _require_double(S)
    return _shift_range(dj_factorize(S, tol), tol)


def shift_perturb(
    S: SymplecticMatrix, tau: float, tol: float | None = None
) -> tuple[SymplecticMatrix, SymplecticMatrix, SymplecticMatrix]:
    """Perturb toward shift-invertibility.

    Returns ``(S_tau, Xi_tau, Theta_tau)`` where

    * ``S_tau`` recomposes the factorization of S with multiplier parameter
      P + tau R — it is shift-invertible for admissible tau;
    * ``Xi_tau`` is free with ``S = inverse(Xi_tau) @ S_tau``;
    * ``Theta_tau`` never involves an interchange and satisfies
      ``S = S_tau @ inverse(Theta_tau)``.
    """
    d = _require_double(S)
    f = dj_factorize(S, tol)
    tau_max = _shift_range(f, tol)
    if not 0.0 < tau < tau_max:
        raise ValueError(f"tau must lie in (0, {tau_max:g}), got {tau}")
    r = _swap_matrix(d)

    s_tau = dj_compose(DJFactorization(Q=f.Q, L=f.L, P=f.P + tau * r, J=f.J))

    linv = np.linalg.inv(f.L)
    m = tau * (linv @ r @ linv.T)
    xi_tau = chirp_block(f.Q) @ multiplier_block(m) @ chirp_block(-f.Q)

    # Theta_tau is exactly the interchange-free split of the factor V^T_{tau R}
    # conjugated through Pi_J
    _, (upper, dil, lower) = redox_split(tau * r, f.J)
    theta_tau = upper @ dil @ lower
    return s_tau, xi_tau, theta_tau


@dataclass(frozen=True)
class WignerSplit:
    """Tensor-compatible decomposition of a matrix in Sp(2d).

    The composition is, left to right,

        D_L . V_Qd . FT2^{-1} . D_M . FT2 . V^T_Pd . Pi_J1 . Pi_J2

    where Qd and Pd are block-diagonal (no mixing between the two tensor
    slots), J1 lives in the first slot, J2 in the second, FT2 is the full
    interchange of the second slot, and M is the only factor coupling the
    slots.  M always has determinant one.
    """

    L: np.ndarray
    Q_diag: np.ndarray
    M: np.ndarray
    P_diag: np.ndarray
    J1: IndexSet
    J2: IndexSet

    @property
    def d(self) -> int:
        return self.L.shape[0] // 2

    def factors(self) -> list[SymplecticMatrix]:
        d = self.d
        ft2 = interchange(IndexSet(2 * d, tuple(range(d + 1, 2 * d + 1))))
        j1 = IndexSet(2 * d, self.J1.members)
        j2 = IndexSet(2 * d, tuple(j + d for j in self.J2.members))
        return [
            dilation_block(self.L),
            chirp_block(self.Q_diag),
            ft2.transpose(),
            dilation_block(self.M),
            ft2,
            multiplier_block(self.P_diag),
            interchange(j1),
            interchange(j2),
        ]

    def compose(self) -> SymplecticMatrix:
        out = None
        for factor in self.factors():
            out = factor if out is None else out @ factor
        return out


def wigner_split(S: SymplecticMatrix, tol: float | None = None) -> WignerSplit:
    """Split S in Sp(2d) so the tensor slots couple through one factor only.

    Starting from S = V_Q . D_L . V_P^T . Pi_J, rewrite V_Q D_L = D_L V_Q'
    with Q' = inv(L)^T Q inv(L), split Q' and P into block-diagonal and
    off-diagonal parts, and absorb the off-diagonal parts into the sandwiched
    factor: with p = P_12 and q = Q'_12,

        M = [[I + p q^T, -p], [-q^T, I]],

    which satisfies det M = 1 and inv(M) = [[I, p], [q^T, I + q^T p]].
    """
    d = _require_double(S)
    f = dj_factorize(S, tol)
    linv = np.linalg.inv(f.L)
    q_conv = linv.T @ f.Q @ linv

    def diag_part(mat: np.ndarray) -> np.ndarray:
        out = np.zeros_like(mat)
        out[:d, :d] = mat[:d, :d]
        out[d:, d:] = mat[d:, d:]
        return out

    p12 = f.P[:d, d:]
    q12 = q_conv[:d, d:]
    eye = np.eye(d)
    m = np.block([[eye + p12 @ q12.T, -p12], [-q12.T, eye]])

    j1 = IndexSet(d, tuple(j for j in f.J.members if j <= d))
    j2 = IndexSet(d, tuple(j - d for j in f.J.members if j > d))
    return WignerSplit(
        L=f.L, Q_diag=diag_part(q_conv), M=m, P_diag=diag_part(f.P), J1=j1, J2=j2
    )
