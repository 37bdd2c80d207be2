"""The interchange-set search of ``dj_factorize``, bit for bit.

``dj_factorize`` scores every subset by |det X(J)|, one stack of X(J) per
cardinality, and runs the singular-value verdict on one candidate at a time
in descending score order.  The oracle ``looped_dj_factorize`` builds each
X(J) from 0/1 projectors and decides it alone.  Both must choose the same J
and give the same floats, compared by ``tobytes()``; the negated matrices
hold -0.0 entries, and the ``vetoed-top`` matrices have a largest-|det|
subset that fails the verdict at tol 1e-3.

The search's one-entry memo is watched through ``IndexSet.size_masks``,
which each search calls once per cardinality.
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
    admissible_shift_range,
    dilation_block,
    dj_factorize,
    random_symplectic,
    shift_perturb,
    standard_involution,
    wigner_split,
)
from metaplectic.symplectic_core import factorize
from metaplectic.tolerances import ENV_TOL

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


def _bytes(f):
    return [f.J, f.Q.tobytes(), f.L.tobytes(), f.P.tobytes(), np.float64(f.residual).tobytes()]


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


@pytest.mark.parametrize("d, bound", [(12, 2e6), (16, 6e6)])
def test_search_holds_one_chunk_of_x_at_a_time(monkeypatch, d, bound):
    # the determinants take about 1 MB of X(J) at a time: at d=12 all 4096
    # subsets at once would take 4.7 MB, and at d=16 the size-8 stack alone
    # 26 MB; the masks, scores and order of 2^16 subsets take about 3 MB
    S = random_symplectic(4, d)
    dj_factorize(S)
    factorize._search.cache_clear()
    tracemalloc.start()
    try:
        dj_factorize(S)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_d13_search_bitwise_equals_the_subset_loop():
    S = random_symplectic(2, 13)
    assert _bytes(dj_factorize(S)) == _bytes(oracles.looped_dj_factorize(S))


def test_d16_factorization_recomposes():
    S = random_symplectic(5, 16)
    assert dj_factorize(S).residual < 1e-11 * np.linalg.norm(S.mat)


def test_negated_corpus_holds_negative_zeros():
    S = _matrix("minus-standard_involution-2")
    assert np.any(np.signbit(S.mat) & (S.mat == 0.0))


@pytest.mark.parametrize("d", range(1, 7))
def test_size_masks_follow_lexicographic_combinations(d):
    for size in range(d + 1):
        members = [tuple(np.flatnonzero(m) + 1) for m in IndexSet.size_masks(d, size)]
        assert members == list(itertools.combinations(range(1, d + 1), size))


# -- the one-entry memo of the search -------------------------------------------


@pytest.fixture
def searches(monkeypatch):
    """The d of each search from here on; the memo starts empty."""
    seen = []
    size_masks = IndexSet.size_masks

    def spy(d, size):
        if size == 0:
            seen.append(d)
        return size_masks(d, size)

    monkeypatch.setattr(IndexSet, "size_masks", staticmethod(spy))
    factorize._search.cache_clear()
    return seen


@pytest.mark.parametrize("tol", [None, 1e-3])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_memo_hit_bitwise_equals_a_fresh_search_and_the_subset_loop(searches, name, tol):
    S = _matrix(name)
    fresh = dj_factorize(S, tol)
    hit = dj_factorize(S, tol)
    assert searches == [S.d]
    assert _bytes(hit) == _bytes(fresh) == _bytes(oracles.looped_dj_factorize(S, tol))


def test_writing_into_the_factors_bitwise_leaves_the_next_call(searches):
    S = random_symplectic(7, 4)
    first = dj_factorize(S)
    want = _bytes(first)
    for field in ("Q", "L", "P"):
        getattr(first, field)[...] = 7.0
    assert _bytes(dj_factorize(S)) == want
    assert searches == [4]


def _next_ulp(S):
    mat = S.mat.copy()
    i, j = np.unravel_index(np.argmax(np.abs(mat)), mat.shape)
    mat[i, j] = np.nextafter(mat[i, j], np.inf)
    return SymplecticMatrix(mat), None


def _negative_zero(S):
    mat = S.mat.copy()
    i, j = np.argwhere((mat == 0.0) & ~np.signbit(mat))[0]
    mat[i, j] = -0.0
    return SymplecticMatrix(mat), None


MISSES = {
    "one-ulp": _next_ulp,
    "negative-zero": _negative_zero,
    "other-tol": lambda S: (S, 1e-3),
    "environment-tol": lambda S: (S, None),
}


@pytest.mark.parametrize("case", sorted(MISSES))
def test_memo_misses_on_any_change_of_its_key(searches, monkeypatch, case):
    # the interchange of both coordinates of a stretch and shear: X(J)
    # is singular for every J but the full set, and B holds +0.0 entries
    S = standard_involution(2) @ dilation_block(np.array([[2.0, 1.0], [0.0, 0.5]]))
    assert np.any((S.mat == 0.0) & ~np.signbit(S.mat))
    dj_factorize(S)
    other, tol = MISSES[case](S)
    if case == "environment-tol":
        monkeypatch.setenv(ENV_TOL, "1e-6")
    dj_factorize(other, tol)
    assert searches == [2, 2]
    # the new key took the entry
    dj_factorize(other, tol)
    assert searches == [2, 2]


def test_one_analysis_of_a_matrix_searches_once(searches):
    S = random_symplectic(6, 4)
    dj_factorize(S)
    tau_max = admissible_shift_range(S)
    shift_perturb(S, 0.5 * tau_max if np.isfinite(tau_max) else 0.5)
    wigner_split(S)
    assert searches == [4]


def test_alternating_matrices_search_on_every_call(searches):
    S, T = random_symplectic(6, 4), random_symplectic(8, 4)
    for _ in range(3):
        dj_factorize(S)
        dj_factorize(T)
    assert searches == [4] * 6


def test_a_search_that_raises_keeps_the_last_entry(searches):
    S = random_symplectic(7, 4)
    first = _bytes(dj_factorize(S))
    with pytest.raises(ValueError, match="no admissible index set"):
        dj_factorize(random_symplectic(8, 4), 2.0)
    assert _bytes(dj_factorize(S)) == first
    assert searches == [4, 4]
