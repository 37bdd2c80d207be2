"""Shared tolerance policy.

Invertibility and zero-ness of matrices are always decided from singular
values relative to a scale, never from determinant signs alone, by the one
comparison in ``_verdict``: ``sigma_min >= tol * scale`` (:func:`rel_invertible`)
or ``sigma_max <= tol * scale`` (:func:`rel_zero`).  Passing ``what=`` turns on
the ambiguity band; only ``classify_lp`` does.  ``tol=None`` means
:func:`default_tol`, which the ``METAPLECTIC_TOL`` environment variable
overrides (used by the CLI; library callers pass ``tol=`` explicitly).
"""

from __future__ import annotations

import os

import numpy as np

ENV_TOL = "METAPLECTIC_TOL"

#: relative invertibility cutoff: sigma_min >= tol * scale
DEFAULT_TOL = 1e-9

#: relative tolerance for the symplectic block relations
DEFAULT_RELATION_TOL = 1e-8

#: verdicts within a factor of this around the cutoff are "ambiguous"
AMBIGUITY_BAND = 10.0


class ToleranceAmbiguityError(ValueError):
    """A yes/no verdict fell inside the ambiguity band around the cutoff.

    Raised instead of silently picking a side when a singular value sits too
    close to ``tol * scale`` to call.  The CLI maps this to a dedicated exit
    code.
    """

    def __init__(self, what: str, ratio: float, cutoff: float):
        super().__init__(
            f"{what}: relative singular value {ratio:.3e} lies within a factor "
            f"{AMBIGUITY_BAND:g} of the cutoff {cutoff:.3e}; verdict is numerically ambiguous"
        )
        self.ratio = ratio
        self.cutoff = cutoff


def default_tol() -> float:
    """Default relative tolerance, honoring the environment override."""
    raw = os.environ.get(ENV_TOL)
    if raw is None:
        return DEFAULT_TOL
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{ENV_TOL} must be a positive float, got {raw!r}") from None
    if not value > 0.0:
        raise ValueError(f"{ENV_TOL} must be a positive float, got {raw!r}")
    return value


def singular_extremes(mat: np.ndarray) -> tuple[float, float]:
    """Return (smallest, largest) singular value of ``mat``.

    The empty 0x0 matrix counts as perfectly invertible: (1.0, 1.0).
    """
    mat = np.asarray(mat, dtype=float)
    if mat.size == 0:
        return 1.0, 1.0
    s = np.linalg.svd(mat, compute_uv=False)
    return float(s[-1]), float(s[0])


def _verdict(value: float, tol: float | None, scale: float, what: str | None, below: bool) -> bool:
    """``value <= tol * scale`` if ``below``, else ``>=``; with ``what``, raise inside the band."""
    if tol is None:
        tol = default_tol()
    if what is not None:
        ratio = value / scale
        if tol / AMBIGUITY_BAND < ratio < tol * AMBIGUITY_BAND:
            raise ToleranceAmbiguityError(what, ratio, tol)
    cutoff = tol * scale
    return value <= cutoff if below else value >= cutoff


def rel_invertible(
    mat: np.ndarray, tol: float | None = None, scale: float | None = None, *, what: str | None = None
) -> bool:
    """True when sigma_min(mat) >= tol * scale.

    ``scale`` defaults to sigma_max(mat); pass the ambient matrix norm when
    testing a block of a larger matrix.  Nothing is invertible relative to a
    zero scale.
    """
    smin, smax = singular_extremes(mat)
    if scale is None:
        scale = smax
    if scale == 0.0:
        return False
    return _verdict(smin, tol, scale, what, below=False)


def rel_zero(
    mat: np.ndarray, tol: float | None = None, scale: float | None = None, *, what: str | None = None
) -> bool:
    """True when sigma_max(mat) <= tol * scale (the block vanishes).

    ``scale`` defaults to 1.  The empty matrix, and every matrix relative to
    a zero scale, counts as vanishing.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.size == 0 or scale == 0.0:
        return True
    _, smax = singular_extremes(mat)
    return _verdict(smax, tol, 1.0 if scale is None else scale, what, below=True)


def require_symmetric(mat: np.ndarray, name: str) -> np.ndarray:
    """Validate approximate symmetry and return the matrix as float array."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {mat.shape}")
    scale = max(1.0, float(np.abs(mat).max(initial=0.0)))
    if float(np.abs(mat - mat.T).max(initial=0.0)) > 1e-8 * scale:
        raise ValueError(f"{name} must be symmetric")
    return mat
