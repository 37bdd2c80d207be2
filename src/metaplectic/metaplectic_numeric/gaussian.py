"""Gaussian chirps: the decaying test signals of the probes and the CLI.

A Gaussian chirp is

    f(x) = gamma * exp(i pi x . M x + 2 pi i b . x)

with complex symmetric M whose imaginary part is positive definite, complex
b, and complex amplitude gamma.  The class is closed under every operator
stage used in this package, each realized exactly on the parameters.  This
module keeps the stages the probes and the CLI build their inputs with
(quadratic chirp multiplication, partial Fourier transforms and
time-frequency shifts); the other closed forms (rescaling, multipliers, the
full transform, L^p norms, L^2 inner products and the closed-form
interpreter of a stage plan) live with the test oracles in
``tests/oracles.py``, where the sampled operators are checked against them.

Square-root branches are taken principal, so the tracked gamma is exact up to
a possible global sign; comparisons of sampled data against chirps should be
phase-aligned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..tolerances import require_symmetric
from .grid import Grid, GridFunction, form_sum


def _as_matrix(M, d: int | None = None) -> np.ndarray:
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if d is not None and M.shape[0] != d:
        raise ValueError(f"expected size {d}, got {M.shape[0]}")
    return require_symmetric(M, "quadratic form matrix", complex)


@dataclass(frozen=True)
class GaussianChirp:
    gamma: complex
    M: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if not np.isfinite(np.r_[self.gamma, np.ravel(self.M), np.ravel(self.b)]).all():
            raise ValueError("chirp parameters gamma, M and b must be finite")
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
        if not np.isfinite(a).all():
            raise ValueError("dilation scales must be finite")
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
        return GridFunction._own(grid, self(*grid.open_mesh()))

    # -- operator stages -----------------------------------------------------

    def chirp(self, Q) -> "GaussianChirp":
        """Multiply by exp(i pi x . Q x) for real symmetric Q."""
        Q = _as_matrix(Q, self.d)
        return GaussianChirp(self.gamma, self.M + Q.real, self.b)

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

    def tf_shift(self, x0, xi0, tau: float = 0.0) -> "GaussianChirp":
        """Time-frequency shift: e^{2 pi i tau} e^{-i pi xi0.x0} e^{2 pi i xi0.t} f(t - x0)."""
        x0 = np.broadcast_to(np.asarray(x0, dtype=float), (self.d,))
        xi0 = np.broadcast_to(np.asarray(xi0, dtype=float), (self.d,))
        if not (np.isfinite(x0).all() and np.isfinite(xi0).all() and math.isfinite(tau)):
            raise ValueError("time-frequency shifts must be finite")
        quad = complex(x0 @ self.M @ x0)
        gamma = (
            self.gamma
            * np.exp(2j * math.pi * tau)
            * np.exp(-1j * math.pi * float(xi0 @ x0))
            * np.exp(1j * math.pi * quad - 2j * math.pi * complex(self.b @ x0))
        )
        return GaussianChirp(gamma, self.M, self.b - self.M @ x0 + xi0)
