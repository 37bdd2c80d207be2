"""Gaussian chirps with closed-form transforms.

A Gaussian chirp is

    f(x) = gamma * exp(i pi x . M x + 2 pi i b . x)

with complex symmetric M whose imaginary part is positive definite, complex
b, and complex amplitude gamma.  The class is closed under every operator
stage used in this package (quadratic chirp multiplication, rescaling, full
and partial Fourier transforms, Fourier-side multipliers, time-frequency
shifts), each realized exactly on the parameters; L^p norms and L^2 inner
products have closed forms.  These exact values are what the sampled
operators are tested against.

Square-root branches are taken principal, so the tracked gamma is exact up to
a possible global sign; comparisons of sampled data against chirps should be
phase-aligned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..tolerances import rel_invertible
from .grid import Grid, GridFunction, form_sum


def _as_matrix(M, d: int | None = None) -> np.ndarray:
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if d is not None and M.shape[0] != d:
        raise ValueError(f"expected size {d}, got {M.shape[0]}")
    if not np.allclose(M, M.T, atol=1e-12 * max(1.0, float(np.abs(M).max()))):
        raise ValueError("quadratic form matrix must be symmetric")
    return M


def gaussian_integral(M, b) -> complex:
    """Closed form of the absolutely convergent integral
    int exp(i pi x . M x + 2 pi i b . x) dx = det(-iM)^(-1/2) exp(-i pi b . M^{-1} b),
    for complex symmetric M with positive definite imaginary part."""
    M = _as_matrix(M)
    b = np.atleast_1d(np.asarray(b, dtype=complex))
    imag_eigs = np.linalg.eigvalsh(M.imag)
    if imag_eigs.min() <= 0.0:
        raise ValueError("integral diverges: Im M must be positive definite")
    det = complex(np.linalg.det(-1j * M))
    quad = complex(b @ np.linalg.solve(M, b))
    return det ** (-0.5) * np.exp(-1j * math.pi * quad)


@dataclass(frozen=True)
class GaussianChirp:
    gamma: complex
    M: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        M = _as_matrix(self.M)
        b = np.atleast_1d(np.asarray(self.b, dtype=complex))
        if b.shape != (M.shape[0],):
            raise ValueError(f"b must be a vector of length {M.shape[0]}, got shape {b.shape}")
        if np.linalg.eigvalsh(M.imag).min() <= 0.0:
            raise ValueError("Im M must be positive definite (the chirp must decay)")
        M = M.copy()
        b = b.copy()
        M.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "gamma", complex(self.gamma))
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "b", b)

    # -- constructors ------------------------------------------------------

    @classmethod
    def standard(cls, d: int) -> "GaussianChirp":
        """exp(-pi |x|^2)."""
        return cls(1.0, 1j * np.eye(d), np.zeros(d))

    @classmethod
    def dilated(cls, d: int, a) -> "GaussianChirp":
        """exp(-pi x . diag(a) x) for positive scale(s) a."""
        a = np.broadcast_to(np.asarray(a, dtype=float), (d,))
        if a.min() <= 0.0:
            raise ValueError("dilation scales must be positive")
        return cls(1.0, 1j * np.diag(a), np.zeros(d))

    @property
    def d(self) -> int:
        return self.M.shape[0]

    # -- evaluation ---------------------------------------------------------

    def __call__(self, *coords: np.ndarray) -> np.ndarray:
        """Evaluate on broadcastable coordinate arrays (one per dimension)."""
        if len(coords) != self.d:
            raise ValueError(f"expected {self.d} coordinate arrays, got {len(coords)}")
        xs = [np.asarray(c, dtype=float) for c in coords]
        quad = form_sum(self.M, xs)
        lin = form_sum(self.b, xs)
        return self.gamma * np.exp(1j * math.pi * quad + 2j * math.pi * lin)

    def sample(self, grid: Grid) -> GridFunction:
        if grid.d != self.d:
            raise ValueError(f"grid dimension {grid.d} does not match chirp dimension {self.d}")
        return GridFunction(grid, self(*grid.open_mesh()))

    # -- closed-form functionals ---------------------------------------------

    def lp_norm(self, p: float) -> float:
        """||f||_p = |gamma| det(p Im M)^(-1/(2p)) exp(pi beta . (Im M)^{-1} beta),
        with beta = Im b; the p = inf limit is the peak modulus."""
        if p <= 0.0:
            raise ValueError(f"p must be positive, got {p}")
        a = self.M.imag
        beta = self.b.imag
        peak_shift = math.exp(math.pi * float(beta @ np.linalg.solve(a, beta)))
        if math.isinf(p):
            return abs(self.gamma) * peak_shift
        det = float(np.linalg.det(p * a))
        return abs(self.gamma) * det ** (-1.0 / (2.0 * p)) * peak_shift

    def l2_inner(self, other: "GaussianChirp") -> complex:
        """<f, g> = int f conj(g)."""
        return (
            self.gamma
            * np.conj(other.gamma)
            * gaussian_integral(self.M - np.conj(other.M), self.b - np.conj(other.b))
        )

    # -- operator stages -----------------------------------------------------

    def chirp(self, Q) -> "GaussianChirp":
        """Multiply by exp(i pi x . Q x) for real symmetric Q."""
        Q = _as_matrix(Q, self.d)
        return GaussianChirp(self.gamma, self.M + Q.real, self.b)

    def rescale(self, L) -> "GaussianChirp":
        """|det L|^{1/2} f(L x) for real invertible L."""
        L = np.atleast_2d(np.asarray(L, dtype=float))
        if not rel_invertible(L):
            raise ValueError("rescaling matrix must be invertible")
        det = np.linalg.det(L)
        return GaussianChirp(
            self.gamma * math.sqrt(abs(det)), L.T @ self.M @ L, L.T @ self.b
        )

    def partial_ft(self, positions: Sequence[int], inverse: bool = False) -> "GaussianChirp":
        """Fourier transform in the coordinates at the given 0-based positions.

        Block Gaussian integration: with W = inv(M_JJ), the transformed
        parameters are M'_JJ = -W, M'_Jc = +/- W M_Jc (sign - for the inverse
        kernel), M'_cc = M_cc - M_cJ W M_Jc, b'_J = +/- W b_J,
        b'_c = b_c - M_cJ W b_J, and gamma picks up
        det(-i M_JJ)^(-1/2) exp(-i pi b_J . W b_J).
        """
        d = self.d
        jj = sorted(set(int(i) for i in positions))
        if not jj:
            return self
        if jj[0] < 0 or jj[-1] >= d:
            raise ValueError(f"positions {jj} out of range 0..{d - 1}")
        cc = [i for i in range(d) if i not in jj]
        mjj = self.M[np.ix_(jj, jj)]
        bj = self.b[jj]
        sign = -1.0 if inverse else 1.0

        if np.linalg.eigvalsh(mjj.imag).min() <= 0.0:
            raise ValueError("partial transform diverges: Im M_JJ must be positive definite")
        w = np.linalg.inv(mjj)
        det = complex(np.linalg.det(-1j * mjj))
        gamma = self.gamma * det ** (-0.5) * np.exp(-1j * math.pi * complex(bj @ w @ bj))

        m_new = np.zeros((d, d), dtype=complex)
        b_new = np.zeros(d, dtype=complex)
        m_new[np.ix_(jj, jj)] = -w
        b_new[jj] = sign * (w @ bj)
        if cc:
            mjc = self.M[np.ix_(jj, cc)]
            mcc = self.M[np.ix_(cc, cc)]
            bc = self.b[cc]
            cross = w @ mjc
            m_new[np.ix_(jj, cc)] = sign * cross
            m_new[np.ix_(cc, jj)] = sign * cross.T
            m_new[np.ix_(cc, cc)] = mcc - mjc.T @ cross
            b_new[cc] = bc - mjc.T @ (w @ bj)
        return GaussianChirp(gamma, m_new, b_new)

    def full_ft(self, inverse: bool = False) -> "GaussianChirp":
        return self.partial_ft(range(self.d), inverse=inverse)

    def multiplier(self, P) -> "GaussianChirp":
        """Fourier-side quadratic multiplier: FT, multiply exp(-i pi xi . P xi), inverse FT."""
        P = _as_matrix(P, self.d)
        return self.full_ft().chirp(-P.real).full_ft(inverse=True)

    def tf_shift(self, x0, xi0, tau: float = 0.0) -> "GaussianChirp":
        """Time-frequency shift: e^{2 pi i tau} e^{-i pi xi0.x0} e^{2 pi i xi0.t} f(t - x0)."""
        x0 = np.broadcast_to(np.asarray(x0, dtype=float), (self.d,))
        xi0 = np.broadcast_to(np.asarray(xi0, dtype=float), (self.d,))
        quad = complex(x0 @ self.M @ x0)
        gamma = (
            self.gamma
            * np.exp(2j * math.pi * tau)
            * np.exp(-1j * math.pi * float(xi0 @ x0))
            * np.exp(1j * math.pi * quad - 2j * math.pi * complex(self.b @ x0))
        )
        return GaussianChirp(gamma, self.M, self.b - self.M @ x0 + xi0)
