"""The interchange-set search of ``dj_factorize``, bit for bit.

``dj_factorize`` decides every subset of one cardinality at once: one stack
of X(J), one singular-value verdict and one determinant per stack.  The
oracle ``looped_dj_factorize`` builds each X(J) from 0/1 projectors and
decides it alone.  Both must choose the same J and give the same floats,
compared by ``tobytes()``; the negated matrices hold -0.0 entries.
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
    dj_factorize,
    random_symplectic,
    standard_involution,
)
from metaplectic.tolerances import rel_invertible, singular_extremes

import oracles

def _rotation45(d: int) -> SymplecticMatrix:
    a = np.sqrt(0.5) * np.eye(d)
    return SymplecticMatrix(np.block([[a, a], [-a, a]]))


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


def _stack():
    rng = np.random.default_rng(5)
    mats = rng.normal(size=(9, 4, 4))
    mats[3, :, 0] = 0.0  # singular
    mats[4, :, 1] = 1e-12 * mats[4, :, 2] + mats[4, :, 3]  # nearly singular
    mats[5] = -0.0
    return mats


def test_singular_extremes_of_a_stack_bitwise_equal_each_matrix():
    mats = _stack()
    smin, smax = singular_extremes(mats)
    assert smin.shape == smax.shape == (len(mats),)
    for k, mat in enumerate(mats):
        one_min, one_max = singular_extremes(mat)
        assert np.float64(one_min).tobytes() == smin[k].tobytes()
        assert np.float64(one_max).tobytes() == smax[k].tobytes()


@pytest.mark.parametrize("tol", [1e-9, 1e-3, 0.5])
def test_rel_invertible_of_a_stack_bitwise_equals_each_matrix(tol):
    mats = _stack()
    got = rel_invertible(mats, tol, 2.5)
    assert got.dtype == bool and got.shape == (len(mats),)
    assert list(got) == [rel_invertible(mat, tol, 2.5) for mat in mats]
    assert not rel_invertible(mats, tol, 0.0)
