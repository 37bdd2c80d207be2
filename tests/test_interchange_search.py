"""The interchange-set search of ``dj_factorize``, bit for bit.

``dj_factorize`` scores every subset by |det X(J)|, one stack of X(J) per
cardinality, and runs the singular-value verdict on one candidate at a time
in descending score order.  The oracle ``looped_dj_factorize`` builds each
X(J) from 0/1 projectors and decides it alone.  Both must choose the same J
and give the same floats, compared by ``tobytes()``; the negated matrices
hold -0.0 entries, and the ``vetoed-top`` matrices have a largest-|det|
subset that fails the verdict at tol 1e-3.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from metaplectic.metaplectic_numeric.distributions import (
    rihacek_projection,
    stft_projection,
    wigner_projection,
)
from metaplectic.symplectic_core import (
    IndexSet,
    SymplecticMatrix,
    dilation_block,
    dj_factorize,
    random_symplectic,
    standard_involution,
)

import oracles

def _rotation45(d: int) -> SymplecticMatrix:
    a = np.sqrt(0.5) * np.eye(d)
    return SymplecticMatrix(np.block([[a, a], [-a, a]]))


def _vetoed_top(seed: int) -> SymplecticMatrix:
    # stretching one direction by 100 grows some |det X(J)| while their
    # sigma_min falls below 1e-3 of the scale
    stretch = dilation_block(np.diag([100.0, 1.0, 1.0, 1.0]))
    return random_symplectic(seed, 4) @ stretch @ random_symplectic(seed + 1000, 4)


#: seeds of ``_vetoed_top`` whose best-scored subsets fail the 1e-3 verdict
VETOED_TOP_SEEDS = (115, 179, 195)

_BASE = {
    **{f"random-{s}-d{d}": (random_symplectic, s, d) for d in (1, 2, 3, 4, 6) for s in (0, 7, 12)},
    **{
        f"{builder.__name__}-{d}": (builder, d)
        for builder in (wigner_projection, stft_projection, rihacek_projection)
        for d in (1, 2, 3)
    },
    **{f"standard_involution-{d}": (standard_involution, d) for d in (1, 2, 3)},
    **{f"identity-{d}": (lambda d: SymplecticMatrix(np.eye(2 * d)), d) for d in (1, 2, 3)},
    # every subset scores the same |det X| = a^d: ties within and across sizes
    **{f"rotation45-{d}": (_rotation45, d) for d in (1, 2, 3)},
    **{f"vetoed-top-{s}": (_vetoed_top, s) for s in VETOED_TOP_SEEDS},
}

CORPUS = {
    **{name: (False, spec) for name, spec in _BASE.items()},
    **{f"minus-{name}": (True, spec) for name, spec in _BASE.items()},
}


def _matrix(name: str) -> SymplecticMatrix:
    negate, (builder, *args) = CORPUS[name]
    S = builder(*args)
    return SymplecticMatrix(-S.mat) if negate else S


@pytest.mark.parametrize("tol", [None, 1e-3])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_dj_factorize_bitwise_equals_the_subset_loop(name, tol):
    S = _matrix(name)
    got, want = dj_factorize(S, tol), oracles.looped_dj_factorize(S, tol)
    assert got.J == want.J
    for field in ("Q", "L", "P"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
    assert np.float64(got.residual).tobytes() == np.float64(want.residual).tobytes()


@pytest.mark.parametrize("seed", VETOED_TOP_SEEDS)
def test_vetoed_top_matrices_do_not_take_the_largest_det(seed):
    # if the verdict stopped vetoing, these cases would test nothing new
    S = _vetoed_top(seed)
    masks = np.concatenate([IndexSet.size_masks(4, size) for size in range(5)])
    scores = [abs(np.linalg.det(S.A @ np.diag(~m) + S.B @ np.diag(m))) for m in masks]
    top = masks[int(np.argmax(scores))]
    assert dj_factorize(S, 1e-3).J != IndexSet(4, tuple(np.flatnonzero(top) + 1))


def test_search_holds_one_stack_of_one_size_at_a_time():
    # at d=12 the largest size (6) stacks 924 X(J) in about 1.1 MB; all
    # 4096 subsets at once would take 4.7 MB
    S = random_symplectic(4, 12)
    dj_factorize(S)
    tracemalloc.start()
    try:
        dj_factorize(S)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_negated_corpus_holds_negative_zeros():
    S = _matrix("minus-standard_involution-2")
    assert np.any(np.signbit(S.mat) & (S.mat == 0.0))


@pytest.mark.parametrize("d", range(1, 7))
def test_size_masks_follow_lexicographic_combinations(d):
    for size in range(d + 1):
        members = [tuple(np.flatnonzero(m) + 1) for m in IndexSet.size_masks(d, size)]
        assert members == list(itertools.combinations(range(1, d + 1), size))
