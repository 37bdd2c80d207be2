"""Value types for the symplectic matrix layer."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from ..tolerances import DEFAULT_RELATION_TOL


def symplectic_residual(mat: np.ndarray) -> float:
    """Frobenius norm of the defect in the three symplectic block relations.

    For M = [[A, B], [C, D]] the relations are
        A^T C = C^T A,   B^T D = D^T B,   A^T D - C^T B = I.
    """
    mat = np.asarray(mat, dtype=float)
    n = mat.shape[0]
    d = n // 2
    a, b = mat[:d, :d], mat[:d, d:]
    c, dd = mat[d:, :d], mat[d:, d:]
    r1 = a.T @ c - c.T @ a
    r2 = b.T @ dd - dd.T @ b
    r3 = a.T @ dd - c.T @ b - np.eye(d)
    return float(np.sqrt(np.sum(r1 * r1) + np.sum(r2 * r2) + np.sum(r3 * r3)))


class SymplecticMatrix:
    """A real 2d x 2d matrix whose blocks satisfy the symplectic relations.

    The matrix is stored read-only; the four d x d blocks are exposed as the
    views ``A`` (top left), ``B`` (top right), ``C`` (bottom left) and ``D``
    (bottom right).  Construction verifies the block relations up to a
    relative tolerance unless ``validate=False`` (used internally when the
    result is symplectic by construction).
    """

    __slots__ = ("mat", "d")

    def __init__(self, entries, tol: float = DEFAULT_RELATION_TOL, validate: bool = True):
        mat = np.array(entries, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        if mat.shape[0] % 2 != 0 or mat.shape[0] == 0:
            raise ValueError(f"symplectic matrices have even positive size, got {mat.shape[0]}")
        mat.flags.writeable = False
        self.mat = mat
        self.d = mat.shape[0] // 2
        if validate:
            residual = symplectic_residual(mat)
            scale = max(1.0, float(np.linalg.norm(mat)))
            if not residual <= tol * scale:  # a residual that is NaN fails too
                raise ValueError(
                    f"matrix is not symplectic: block relation residual {residual:.3e} "
                    f"exceeds {tol:g} * {scale:.3e}"
                )

    # -- block views ---------------------------------------------------

    @property
    def A(self) -> np.ndarray:
        return self.mat[: self.d, : self.d]

    @property
    def B(self) -> np.ndarray:
        return self.mat[: self.d, self.d :]

    @property
    def C(self) -> np.ndarray:
        return self.mat[self.d :, : self.d]

    @property
    def D(self) -> np.ndarray:
        return self.mat[self.d :, self.d :]

    # -- group structure -----------------------------------------------

    def inverse(self) -> "SymplecticMatrix":
        """Closed-form inverse [[D^T, -B^T], [-C^T, A^T]]."""
        return SymplecticMatrix(
            np.block([[self.D.T, -self.B.T], [-self.C.T, self.A.T]]), validate=False
        )

    def __matmul__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        if not isinstance(other, SymplecticMatrix):
            return NotImplemented
        return SymplecticMatrix(self.mat @ other.mat, validate=False)

    def transpose(self) -> "SymplecticMatrix":
        return SymplecticMatrix(self.mat.T, validate=False)

    # -- misc ------------------------------------------------------------

    def __repr__(self) -> str:
        return f"SymplecticMatrix(d={self.d})"

    def __array__(self, dtype=None, copy=None):
        if dtype is None:
            return self.mat
        return self.mat.astype(dtype)


@dataclass(frozen=True)
class IndexSet:
    """A subset of coordinate indices {1, ..., d} (1-based, sorted)."""

    d: int
    members: tuple[int, ...]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be positive, got {self.d}")
        mem = tuple(sorted(set(int(j) for j in self.members)))
        if mem and (mem[0] < 1 or mem[-1] > self.d):
            raise ValueError(f"members {mem} out of range 1..{self.d}")
        object.__setattr__(self, "members", mem)

    @classmethod
    def of(cls, d: int, members: Iterable[int] = ()) -> "IndexSet":
        return cls(d, tuple(members))

    @classmethod
    def full(cls, d: int) -> "IndexSet":
        return cls(d, tuple(range(1, d + 1)))

    def complement(self) -> "IndexSet":
        return IndexSet(self.d, tuple(j for j in range(1, self.d + 1) if j not in self.members))

    def positions(self) -> np.ndarray:
        """0-based positions, for indexing arrays."""
        return np.array([j - 1 for j in self.members], dtype=int)

    def mask(self) -> np.ndarray:
        return np.isin(np.arange(1, self.d + 1), self.members)

    def projector(self) -> np.ndarray:
        """Diagonal 0/1 matrix selecting the member coordinates."""
        return np.diag(self.mask().astype(float))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, j: int) -> bool:
        return j in self.members

    @staticmethod
    def size_masks(d: int, size: int) -> np.ndarray:
        """The (C(d, size), d) boolean masks of the subsets of one cardinality,
        in lexicographic order of their members."""
        combos = np.array(list(itertools.combinations(range(d), size)), dtype=int)
        masks = np.zeros((len(combos), d), dtype=bool)
        np.put_along_axis(masks, combos.reshape(len(combos), size), True, axis=1)
        return masks


@dataclass(frozen=True)
class DJFactorization:
    """Factorization S = V_Q . D_L . V_P^T . Pi_J.

    ``Q`` and ``P`` are symmetric d x d matrices (the lower/upper chirp-type
    generator parameters), ``L`` is invertible (the rescaling generator
    parameter) and ``J`` indexes the coordinates hit by the partial Fourier
    factor.  ``residual`` records the recomposition defect measured when the
    factorization was produced.
    """

    Q: np.ndarray
    L: np.ndarray
    P: np.ndarray
    J: IndexSet
    residual: float = 0.0

    @property
    def d(self) -> int:
        return self.J.d


@dataclass(frozen=True)
class ShiftInvReport:
    """Invertibility report for the shift submatrix of a phase-space matrix.

    ``entries`` is the 2d x 2d submatrix assembled from the blocks that act on
    the shift variables; ``invertible`` is the tolerance-based verdict, and
    ``sigma_min``/``sigma_max`` record the singular values it was based on.
    """

    d: int
    entries: np.ndarray
    det: float
    invertible: bool
    sigma_min: float
    sigma_max: float
