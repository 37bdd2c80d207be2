"""Symplectic matrix calculus: generators, factorization, classification."""

from .types import (
    DJFactorization,
    IndexSet,
    ShiftInvReport,
    SymplecticMatrix,
    symplectic_residual,
)
from .generators import (
    chirp_block,
    dilation_block,
    generator,
    interchange,
    multiplier_block,
    random_symplectic,
    standard_involution,
)
from .classify import (
    BoundednessCase,
    BoundednessVerdict,
    beckner_constant,
    classify_lp,
    conjugate_exponent,
    is_free,
    is_symplectic,
)
from .factorize import (
    dj_compose,
    dj_factorize,
    free_compose,
    free_factorize,
    lower_tri_alternate,
    lower_tri_factorize,
)
from .identities import free_block_test, redox_split, unipotent_inverse
from .shiftinv import (
    WignerSplit,
    admissible_shift_range,
    shift_invertible,
    shift_perturb,
    shift_submatrix,
    wigner_split,
)

__all__ = [
    "BoundednessCase",
    "BoundednessVerdict",
    "DJFactorization",
    "IndexSet",
    "ShiftInvReport",
    "SymplecticMatrix",
    "WignerSplit",
    "admissible_shift_range",
    "beckner_constant",
    "chirp_block",
    "classify_lp",
    "conjugate_exponent",
    "dilation_block",
    "dj_compose",
    "dj_factorize",
    "free_block_test",
    "free_compose",
    "free_factorize",
    "generator",
    "interchange",
    "is_free",
    "is_symplectic",
    "lower_tri_alternate",
    "lower_tri_factorize",
    "multiplier_block",
    "random_symplectic",
    "redox_split",
    "shift_invertible",
    "shift_perturb",
    "shift_submatrix",
    "standard_involution",
    "symplectic_residual",
    "unipotent_inverse",
    "wigner_split",
]
