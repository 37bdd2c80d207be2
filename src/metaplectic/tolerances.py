"""Shared tolerance policy.

Invertibility and zero-ness of matrices are always decided from singular
values relative to a scale, never from determinant signs alone, by the one
comparison in ``_verdict``: ``sigma_min >= tol * scale`` (:func:`rel_invertible`)
or ``sigma_max <= tol * scale`` (:func:`rel_zero`).  Each verdict is about
one matrix; the interchange-set search ranks its candidates by |det| and
asks for one verdict at a time, in rank order.  Passing ``what=`` turns on
the ambiguity band; only ``classify_lp`` does, and it is the one judge of the
upper-right block.  :func:`resolve_tol` turns every ``tol`` argument into a
cutoff: ``tol=None`` means :func:`default_tol`, which the ``METAPLECTIC_TOL``
environment variable overrides (used by the CLI; library callers pass ``tol=``
explicitly), and every value must pass :func:`positive_tol`, 0 < tol < 1.
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


def positive_tol(raw: str | float, name: str) -> float:
    """``raw`` as a float in 0 < tol < 1 (nan is not); otherwise a ValueError
    that names ``name``, the setting ``raw`` came from.  A relative cutoff of
    1 or more calls every block zero, since sigma_max(B) <= sigma_max(S)."""
    try:
        value = float(raw)
    except ValueError:
        value = 0.0
    if not value > 0.0:
        raise ValueError(f"{name} must be a positive float, got {raw!r}")
    if value >= 1.0:
        raise ValueError(f"{name} must be below 1, got {raw!r}")
    return value


def default_tol() -> float:
    """Default relative tolerance, honoring the environment override."""
    raw = os.environ.get(ENV_TOL)
    return DEFAULT_TOL if raw is None else positive_tol(raw, ENV_TOL)


def resolve_tol(tol: float | None) -> float:
    """The cutoff of a ``tol`` argument: :func:`default_tol` for None, else
    ``tol`` after :func:`positive_tol`."""
    return default_tol() if tol is None else positive_tol(tol, "tol")


def singular_extremes(mat: np.ndarray) -> tuple[float, float]:
    """Return (smallest, largest) singular value of ``mat`` as floats.

    The empty 0x0 matrix counts as perfectly invertible: (1.0, 1.0).
    """
    mat = np.asarray(mat, dtype=float)
    if mat.size == 0:
        return 1.0, 1.0
    s = np.linalg.svd(mat, compute_uv=False)
    return float(s[-1]), float(s[0])


def _verdict(value: float, tol: float, scale: float, what: str | None, below: bool) -> bool:
    """``value <= tol * scale`` if ``below``, else ``>=``, for a resolved
    ``tol``; with ``what``, raise inside the band."""
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
    tol = resolve_tol(tol)
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
    tol = resolve_tol(tol)
    mat = np.asarray(mat, dtype=float)
    if mat.size == 0 or scale == 0.0:
        return True
    _, smax = singular_extremes(mat)
    return _verdict(smax, tol, 1.0 if scale is None else scale, what, below=True)


def require_symmetric(mat: np.ndarray, name: str, dtype=float) -> np.ndarray:
    """Validate approximate symmetry and return the matrix as a ``dtype``
    array (float, or complex for a complex quadratic form).  Non-finite
    entries are refused first, since a nan passes every cutoff."""
    mat = np.asarray(mat, dtype=dtype)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError(f"{name} must be finite")
    scale = max(1.0, float(np.abs(mat).max(initial=0.0)))
    if float(np.abs(mat - mat.T).max(initial=0.0)) > 1e-8 * scale:
        raise ValueError(f"{name} must be symmetric")
    return mat
