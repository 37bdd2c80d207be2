"""L^p boundedness classification by upper-right block structure.

A symplectic matrix S = [[A, B], [C, D]] falls in exactly one of three cases:

* ``LOWER_TRIANGULAR`` (B = 0): the projected operator is bounded on every
  L^p, 0 < p <= infinity, with norm |det A|^(1/p - 1/2).
* ``FREE`` (B invertible): bounded L^p -> L^p' for 1 <= p <= 2, with norm
  |det B|^(1/2 - 1/p) * (p^(1/p) / p'^(1/p'))^(d/2); unbounded between other
  Lebesgue pairs.
* ``SINGULAR_NONZERO_B`` (B != 0 singular): bounded for no (p, q) except
  p = q = 2.

The closed forms are pinned here exactly as the sampled-operator layer
measures them; see tests for the measured cross-checks, including the
regression tests against the sign-flipped exponent variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..tolerances import DEFAULT_RELATION_TOL, rel_invertible, rel_zero, singular_extremes
from .types import SymplecticMatrix


def is_symplectic(mat, tol: float = DEFAULT_RELATION_TOL) -> bool:
    """Whether ``mat`` passes the validation of :class:`SymplecticMatrix`."""
    mat = np.asarray(mat, dtype=float)
    try:
        SymplecticMatrix(mat, tol)
    except ValueError:
        return False
    return True


def is_free(S: SymplecticMatrix, tol: float | None = None) -> bool:
    """Whether :func:`classify_lp` finds the upper-right block invertible.

    Cutoff: sigma_min(B) >= tol * sigma_max(S).  Raises
    :class:`ToleranceAmbiguityError` inside the band, as ``classify_lp`` does.
    """
    return classify_lp(S, tol).case is BoundednessCase.FREE


class BoundednessCase(Enum):
    LOWER_TRIANGULAR = "lower-triangular"
    FREE = "free"
    SINGULAR_NONZERO_B = "singular-nonzero-B"


def conjugate_exponent(p: float) -> float:
    """Hoelder conjugate, with the p = 1 and p = infinity limits."""
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def _x_to_inv_x(x: float) -> float:
    """x^(1/x) with the limit value 1 at x = infinity."""
    if math.isinf(x):
        return 1.0
    return x ** (1.0 / x)


def beckner_constant(p: float, d: int) -> float:
    """Sharp Hausdorff-Young constant (p^(1/p) / p'^(1/p'))^(d/2) for 1 <= p <= 2."""
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"constant defined for 1 <= p <= 2, got p={p}")
    pp = conjugate_exponent(p)
    return (_x_to_inv_x(p) / _x_to_inv_x(pp)) ** (d / 2.0)


@dataclass(frozen=True)
class BoundednessVerdict:
    """Classification outcome plus closed-form operator norm evaluators."""

    case: BoundednessCase
    d: int
    det_A: float
    det_B: float

    def _refusal(self, p: float, q: float | None) -> str | None:
        """Why no L^p -> L^q bound exists (q defaults per case), or None."""
        if p <= 0.0:
            return f"p must be positive, got {p}"
        if self.case is BoundednessCase.LOWER_TRIANGULAR:
            if (p if q is None else q) != p:
                return "lower-triangular case maps L^p to L^p only"
        elif self.case is BoundednessCase.FREE:
            if not 1.0 <= p <= 2.0:
                return f"free case is bounded only for 1 <= p <= 2, got p={p}"
            pp = conjugate_exponent(p)
            if q is not None and q != pp:
                return f"free case maps L^{p:g} to its conjugate L^{pp:g} only"
        elif not (p == 2.0 and (q is None or q == 2.0)):
            return (
                "no L^p -> L^q bound exists for a singular nonzero upper-right block "
                "except p = q = 2"
            )
        return None

    def bounded(self, p: float, q: float | None = None) -> bool:
        """Whether the operator maps L^p into L^q boundedly (q defaults per case)."""
        return self._refusal(p, q) is None

    def norm(self, p: float, q: float | None = None) -> float:
        """Operator norm of the projected operator from L^p to L^q.

        For the lower-triangular case q must equal p; for the free case q must
        be the conjugate exponent of p with 1 <= p <= 2.  Raises ValueError
        for pairs where no bound exists, exactly those :meth:`bounded` refuses,
        and OverflowError when the lower-triangular norm is past the largest
        float.
        """
        if (refusal := self._refusal(p, q)) is not None:
            raise ValueError(refusal)
        if self.case is BoundednessCase.LOWER_TRIANGULAR:
            exponent = (0.0 if math.isinf(p) else 1.0 / p) - 0.5
            try:
                return abs(self.det_A) ** exponent
            except OverflowError:
                # Python's own text names neither the power nor p; the free
                # case's power has an exponent of at most 1/2 and stays finite
                raise OverflowError(
                    f"|det A| ** (1/p - 1/2) is out of range for p={p:g} "
                    f"(|det A| = {abs(self.det_A):g})"
                ) from None
        if self.case is BoundednessCase.FREE:
            exponent = 0.5 - (0.0 if math.isinf(p) else 1.0 / p)
            return abs(self.det_B) ** exponent * beckner_constant(p, self.d)
        return 1.0


def classify_lp(S: SymplecticMatrix, tol: float | None = None) -> BoundednessVerdict:
    """Classify by the upper-right block: zero, invertible, or in between.

    This is the one verdict on the block; :func:`is_free`, ``free_factorize``
    and ``lower_tri_factorize`` ask it.  Raises :class:`ToleranceAmbiguityError`
    when the block sits inside the ambiguity band of either test, rather than
    silently picking a side.
    """
    _, scale = singular_extremes(S.mat)
    if rel_zero(S.B, tol, scale, what="upper-right block zero test"):
        case = BoundednessCase.LOWER_TRIANGULAR
    elif rel_invertible(S.B, tol, scale, what="upper-right block invertibility"):
        case = BoundednessCase.FREE
    else:
        case = BoundednessCase.SINGULAR_NONZERO_B
    return BoundednessVerdict(
        case=case,
        d=S.d,
        det_A=float(np.linalg.det(S.A)),
        det_B=float(np.linalg.det(S.B)),
    )
