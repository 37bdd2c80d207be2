"""The interchange-set search of ``dj_factorize``, bit for bit.

``dj_factorize`` finds J by a branch and bound on projected column norms:
the greedy leaf's volume is the incumbent, the tree walk keeps every leaf
whose Hadamard bound reaches (1 - 1e-8)^2 of it, the kept leaves are scored
by batched |det X(J)| on X(J) gathered from the columns of [A | B], and the
singular-value verdict runs on one candidate at a time in descending score
order, down to (1 - 1e-8) of the best score.  When it refuses them all, the
walk runs again at floor 0 and scores every subset.  The oracle
``looped_dj_factorize`` builds each X(J) from 0/1 projectors and decides
it alone, and ``oracles.exhaustive_mask`` scores all 2^d subsets as the
search did before the branch and bound.  All must choose the same J, and
the factors must be the same floats, compared by ``tobytes()``; the
negated matrices hold -0.0 entries, and the ``vetoed-top`` matrices have a
largest-|det| subset that fails the verdict at tol 1e-3, so they take the
rerun.  Each gathered chunk must equal, byte for byte, the ``np.where``
stack of ``oracles.where_x_stack``.

The search's one-entry memo is watched through
``factorize._greedy_volume``, the incumbent of the branch and bound, which
each search computes once.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    masks = oracles.subset_masks(4)
    scores = [abs(np.linalg.det(S.A @ np.diag(~m) + S.B @ np.diag(m))) for m in masks]
    top = masks[int(np.argmax(scores))]
    assert dj_factorize(S, 1e-3).J != IndexSet(4, tuple(np.flatnonzero(top) + 1))


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("d", [12, 16])
def test_search_holds_a_bounded_frontier(d):
    # the walk and the determinants hold batches of 64 KiB: at d=12 all
    # 4096 X(J) at once would take 4.7 MB, and at d=16 the size-8 stack
    # alone 26 MB
    S = random_symplectic(4, d)
    dj_factorize(S)
    factorize._search.cache_clear()
    assert _peak_bytes(lambda: dj_factorize(S)) < 1e6


def test_a_walk_at_floor_zero_holds_a_bounded_frontier_at_d16():
    # the rerun's walk prunes nothing; breadth first, the residuals of the
    # 2^15 nodes at depth 15 alone would take 8.4 MB
    S = random_symplectic(4, 16)
    unit = factorize._columns(S) / np.linalg.norm(S.mat, 2)
    leaves = []
    assert _peak_bytes(lambda: leaves.extend(len(codes) for codes in factorize._leaves(unit, 0.0))) < 1.5e6
    assert sum(leaves) == 1 << 16


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
def test_subset_masks_run_by_cardinality_then_lexicographically(d):
    masks = oracles.subset_masks(d)
    members = [tuple(np.flatnonzero(m) + 1) for m in masks]
    assert members == [c for size in range(d + 1) for c in itertools.combinations(range(1, d + 1), size)]
    assert not masks.flags.writeable
    assert oracles.subset_masks(d) is masks
    # the search's subset codes give the same masks in the same order
    codes = np.array([sum(1 << (d - j) for j in c) for c in members], dtype=int)
    assert np.array_equal(factorize._masks(codes, d), masks)


def test_subset_mask_table_at_d16_takes_one_mib():
    # the oracle's table: 2^16 masks of 16 bools, and no index table beside
    # it; the search itself keeps no table
    oracles.subset_masks.cache_clear()
    tracemalloc.start()
    try:
        masks = oracles.subset_masks(16)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert masks.shape == (1 << 16, 16) and masks.dtype == bool
    assert held <= 1.1 * 2**20


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_gathered_x_chunks_bitwise_equal_the_where_stack(name):
    S = _matrix(name)
    masks = oracles.subset_masks(S.d)
    cols = factorize._columns(S)
    for i in range(0, len(masks), 5):
        chunk = masks[i : i + 5]
        assert factorize._x_of(cols, chunk).tobytes() == oracles.where_x_stack(S, chunk).tobytes()
    for mask in (masks[0], masks[-1]):  # J empty and J full
        assert factorize._x_of(cols, mask).tobytes() == oracles.where_x_stack(S, mask).tobytes()


# -- the one-entry memo of the search -------------------------------------------


@pytest.fixture
def searches(monkeypatch):
    """The d of each search from here on; the memo starts empty."""
    seen = []
    greedy_volume = factorize._greedy_volume

    def spy(unit):
        seen.append(unit.shape[1])
        return greedy_volume(unit)

    monkeypatch.setattr(factorize, "_greedy_volume", spy)
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
    # no X(J) of this matrix reaches half of sigma_max(S); a cutoff of 1 or
    # more is refused before the search
    with pytest.raises(ValueError, match="no admissible index set"):
        dj_factorize(random_symplectic(8, 4), 0.5)
    assert _bytes(dj_factorize(S)) == first
    assert searches == [4, 4]


# -- the branch and bound against the exhaustive oracle ---------------------------

#: the ``matrix-analysis`` pool of ``perfbench/workloads.py`` at its default
#: seed 0: 32 ``random_symplectic`` seeds at d = 12
POOL_SEEDS = tuple(int(s) for s in np.random.default_rng([0, 3]).integers(0, 2**31, size=32))


@pytest.fixture
def walks(monkeypatch):
    """(floor, leaves kept) of each tree walk from here on; the memo starts empty."""
    seen = []
    leaves = factorize._leaves

    def spy(unit, floor):
        seen.append([floor, 0])
        for codes in leaves(unit, floor):
            seen[-1][1] += len(codes)
            yield codes

    monkeypatch.setattr(factorize, "_leaves", spy)
    factorize._search.cache_clear()
    return seen


def _chosen_mask(S, tol=None) -> np.ndarray:
    return dj_factorize(S, tol).J.mask()


@pytest.mark.parametrize("tol", [None, 1e-3])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_chosen_mask_bitwise_equals_the_exhaustive_oracle(name, tol):
    S = _matrix(name)
    assert np.array_equal(_chosen_mask(S, tol), oracles.exhaustive_mask(S, tol))


@pytest.mark.parametrize("seed", POOL_SEEDS)
def test_pool_mask_bitwise_equals_the_exhaustive_oracle_at_d12(walks, seed):
    S = random_symplectic(seed, 12)
    assert np.array_equal(_chosen_mask(S), oracles.exhaustive_mask(S))
    # one walk, which scores a small part of the 4096 subsets
    [(floor, kept)] = walks
    assert floor > 0.0 and kept <= 1 << 10


@pytest.mark.parametrize("seed", range(8))
def test_d16_mask_bitwise_equals_the_exhaustive_oracle(walks, seed):
    S = random_symplectic(seed, 16)
    assert np.array_equal(_chosen_mask(S), oracles.exhaustive_mask(S))
    [(floor, kept)] = walks
    assert floor > 0.0 and kept <= 1 << 13


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), d=st.integers(1, 10), tol=st.sampled_from([None, 1e-3, 0.05]))
def test_drawn_mask_bitwise_equals_the_exhaustive_oracle(seed, d, tol):
    S = random_symplectic(seed, d)
    try:
        want = oracles.exhaustive_mask(S, tol)
    except ValueError as error:
        with pytest.raises(ValueError) as got:
            dj_factorize(S, tol)
        assert str(got.value) == str(error)
    else:
        assert np.array_equal(_chosen_mask(S, tol), want)


@pytest.mark.parametrize("d", range(1, 9))
def test_tied_subsets_keep_every_leaf_and_take_the_first(walks, d):
    # every X(J) of rotation45 is the same matrix, so every leaf ties with
    # the incumbent, and the empty set comes first by cardinality
    S = _rotation45(d)
    assert dj_factorize(S).J == IndexSet(d, ())
    assert np.array_equal(_chosen_mask(S), oracles.exhaustive_mask(S))
    assert [kept for _, kept in walks] == [1 << d]


@pytest.mark.parametrize("seed", VETOED_TOP_SEEDS)
def test_vetoed_top_matrices_take_the_rerun_at_floor_zero(walks, seed):
    S = _vetoed_top(seed)
    assert np.array_equal(_chosen_mask(S, 1e-3), oracles.exhaustive_mask(S, 1e-3))
    [(floor, kept), rerun] = walks
    assert floor > 0.0 and kept < 16
    assert rerun == [0.0, 16]


@pytest.mark.parametrize(
    "S, tol",
    [
        (random_symplectic(8, 4), 0.5),
        (SymplecticMatrix(np.diag([1e-5, 1e5])), None),
        (random_symplectic(3, 9), 0.3),
    ],
    ids=["random-half", "stretch", "random-d9"],
)
def test_a_refused_search_bitwise_gives_the_oracle_error(S, tol):
    with pytest.raises(ValueError, match="no admissible index set") as error:
        dj_factorize(S, tol)
    with pytest.raises(ValueError) as want:
        oracles.exhaustive_mask(S, tol)
    assert str(error.value) == str(want.value)


def test_a_tiny_incumbent_walks_every_leaf(walks):
    # on [A | B] over sigma_max(S) every column here is about 1e-80 long,
    # so the incumbent volume is about 1e-160: below the least floor, a
    # projected norm could lose its square to underflow, so the one walk
    # runs at floor 0
    S = dilation_block(1e40 * np.eye(2)) @ random_symplectic(3, 2)
    assert np.array_equal(_chosen_mask(S, 1e-100), oracles.exhaustive_mask(S, 1e-100))
    assert walks == [[0.0, 4]]


def test_overflowing_scores_take_the_rerun(walks):
    # every |det X(J)| overflows to inf, so all tie and the empty set comes
    # first; the walk prunes it on the columns over sigma_max(S), where its
    # volume is 0.057 against 6.3 of the full set, so only the rerun finds it
    S = dilation_block(1e-160 * np.eye(2)) @ random_symplectic(2, 2)
    with np.errstate(over="ignore"):
        mask = _chosen_mask(S)
        assert np.array_equal(mask, oracles.exhaustive_mask(S))
    assert not mask.any()
    assert [floor > 0.0 for floor, _ in walks] == [True, False]
