"""Generators, index sets, and the block identities behind the factorization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaplectic.symplectic_core import (
    IndexSet,
    SymplecticMatrix,
    chirp_block,
    dilation_block,
    free_block_test,
    interchange,
    is_symplectic,
    multiplier_block,
    random_symplectic,
    redox_split,
    standard_involution,
    symplectic_residual,
)
from metaplectic.symplectic_core import factorize

import oracles


def _sym(rng, d):
    w = rng.normal(size=(d, d))
    return (w + w.T) / 2.0


# --------------------------------------------------------------------------
# generators


def test_generators_are_symplectic():
    rng = np.random.default_rng(0)
    for d in (1, 2, 3, 5):
        p = _sym(rng, d)
        l = rng.normal(size=(d, d)) + 3.0 * np.eye(d)
        for s in (
            chirp_block(p),
            multiplier_block(p),
            dilation_block(l),
            standard_involution(d),
            interchange(IndexSet(d, (1,))),
        ):
            assert symplectic_residual(s.mat) < 1e-12
            assert is_symplectic(s.mat)


def _negative_zero_sym(rng, d):
    p = _sym(rng, d)
    p[0, 0] = -0.0
    p[d - 1, 0] = p[0, d - 1] = -0.0
    return p


_PARAMETERS = {
    "random": _sym,
    "negative-zero": _negative_zero_sym,
    "zero": lambda rng, d: np.zeros((d, d)),
    "all-negative-zero": lambda rng, d: np.full((d, d), -0.0),
}


@pytest.mark.parametrize("kind", sorted(_PARAMETERS))
@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_sliced_generators_bitwise_equal_np_block(kind, d):
    rng = np.random.default_rng([d, 5])
    p = _PARAMETERS[kind](rng, d)
    assert chirp_block(p).mat.tobytes() == oracles.block_chirp(p).tobytes()
    assert multiplier_block(p).mat.tobytes() == oracles.block_multiplier(p).tobytes()
    l = rng.normal(size=(d, d)) + 3.0 * np.eye(d)
    if d > 1:
        l[0, d - 1] = -0.0
    assert dilation_block(l).mat.tobytes() == oracles.block_dilation(l).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_sliced_interchange_bitwise_equals_np_block(d):
    rng = np.random.default_rng(d)
    subsets = [(), tuple(range(1, d + 1)), tuple(j for j in range(1, d + 1) if rng.random() < 0.5)]
    for members in subsets:
        J = IndexSet(d, members)
        got, want = interchange(J).mat, oracles.block_interchange(J)
        assert got.tobytes() == want.tobytes(), members
        # -p keeps its -0.0 entries: every zero of the lower-left block
        lower_left = got[d:, :d]
        assert np.all(np.signbit(lower_left[lower_left == 0.0]))
    assert standard_involution(d).mat.tobytes() == oracles.block_interchange(IndexSet.full(d)).tobytes()


def test_chirp_and_multiplier_are_transposes():
    rng = np.random.default_rng(1)
    p = _sym(rng, 3)
    assert np.array_equal(chirp_block(p).mat, multiplier_block(p).mat.T)


def test_chirp_rejects_nonsymmetric_parameter():
    with pytest.raises(ValueError):
        chirp_block(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_dilation_rejects_singular_parameter():
    with pytest.raises(ValueError):
        dilation_block(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_interchange_inverse_is_transpose():
    for d, members in ((1, (1,)), (3, (2,)), (4, (1, 3))):
        pj = interchange(IndexSet(d, members))
        assert np.max(np.abs(pj.mat @ pj.mat.T - np.eye(2 * d))) < 1e-15


def test_standard_involution_squares_to_minus_identity():
    j = standard_involution(3)
    assert np.array_equal(j.mat @ j.mat, -np.eye(6))


def test_symplectic_matrix_rejects_non_symplectic():
    with pytest.raises(ValueError):
        SymplecticMatrix(np.eye(3))
    with pytest.raises(ValueError):
        SymplecticMatrix(2.0 * np.eye(4))


def test_block_accessors_and_inverse():
    s = random_symplectic(42, 3)
    d = s.d
    assert np.array_equal(s.A, s.mat[:d, :d])
    assert np.array_equal(s.B, s.mat[:d, d:])
    assert np.array_equal(s.C, s.mat[d:, :d])
    assert np.array_equal(s.D, s.mat[d:, d:])
    assert np.max(np.abs(s.inverse().mat @ s.mat - np.eye(2 * d))) < 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), d=st.integers(1, 5))
def test_random_symplectic_block_relations(seed, d):
    s = random_symplectic(seed, d)
    assert symplectic_residual(s.mat) < 1e-10
    # the three block relations that characterize the group
    assert np.max(np.abs(s.A.T @ s.C - s.C.T @ s.A)) < 1e-10
    assert np.max(np.abs(s.B.T @ s.D - s.D.T @ s.B)) < 1e-10
    assert np.max(np.abs(s.A.T @ s.D - s.C.T @ s.B - np.eye(d))) < 1e-10


def test_random_symplectic_is_deterministic():
    assert np.array_equal(random_symplectic(7, 2).mat, random_symplectic(7, 2).mat)
    assert not np.array_equal(random_symplectic(7, 2).mat, random_symplectic(8, 2).mat)


# --------------------------------------------------------------------------
# index sets


def test_index_set_basics():
    j = IndexSet(4, (1, 3))
    assert j.complement().members == (2, 4)
    assert list(j.positions()) == [0, 2]
    assert np.array_equal(j.mask(), np.array([True, False, True, False]))
    pr = j.projector()
    assert np.array_equal(pr, np.diag([1.0, 0.0, 1.0, 0.0]))
    assert np.array_equal(pr @ pr, pr)
    for empty_or_full in (IndexSet(3, ()), IndexSet.full(3)):
        mask = empty_or_full.mask()
        assert mask.dtype == bool and list(mask) == [len(empty_or_full) == 3] * 3


def _subsets(d):
    """All 2^d index sets, in the search's (cardinality, lexicographic) order."""
    return [IndexSet(d, tuple(np.flatnonzero(mask) + 1)) for mask in oracles.subset_masks(d)]


def test_index_set_subsets_enumeration():
    subsets = _subsets(3)
    assert len(subsets) == 8
    assert IndexSet(3, ()) in subsets
    assert IndexSet(3, (1, 2, 3)) in subsets


def test_index_set_validation():
    with pytest.raises(ValueError):
        IndexSet(2, (3,))
    with pytest.raises(ValueError):
        IndexSet(2, (0,))
    # duplicates are normalized away rather than rejected
    assert IndexSet(2, (1, 1)).members == (1,)
    # numpy integers are integers; 1.5 is not truncated to 1, and 2.0 is refused too
    assert IndexSet(3, (np.int64(3), np.int32(1))).members == (1, 3)
    assert all(type(j) is int for j in IndexSet(3, (np.int64(3),)).members)
    for member in (1.5, 2.0, np.float64(1.0), "1"):
        with pytest.raises(ValueError, match="index set members must be integers"):
            IndexSet(2, (member,))


# --------------------------------------------------------------------------
# block identities


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), d=st.integers(1, 4), pick=st.integers(0, 1000))
def test_unipotent_inverse_identity(seed, d, pick):
    # closed-form inverse of the unipotent factor I + I_{J^c} P I_J
    rng = np.random.default_rng(seed)
    p = _sym(rng, d)
    subsets = _subsets(d)
    j = subsets[pick % len(subsets)]
    m = np.eye(d) + j.complement().projector() @ p @ j.projector()
    inv = np.eye(d) - j.complement().projector() @ p @ j.projector()
    assert np.max(np.abs(m @ inv - np.eye(d))) < 1e-12
    assert np.max(np.abs(inv @ m - np.eye(d))) < 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), d=st.integers(1, 4), pick=st.integers(0, 1000))
def test_redox_split_multiplies_back(seed, d, pick):
    rng = np.random.default_rng(seed)
    p = _sym(rng, d)
    subsets = _subsets(d)
    j = subsets[pick % len(subsets)]
    conjugated, (upper, dil, lower) = redox_split(p, j)
    pj = interchange(j)
    lhs = pj.inverse().mat @ multiplier_block(p).mat @ pj.mat
    assert np.max(np.abs(conjugated.mat - lhs)) < 1e-12
    prod = upper.mat @ dil.mat @ lower.mat
    assert np.max(np.abs(conjugated.mat - prod)) < 1e-12


def test_free_block_test_two_sides_agree():
    rng = np.random.default_rng(9)
    hits = {True: 0, False: 0}
    for d in (1, 2, 3, 4):
        for j in _subsets(d):
            for _ in range(10):
                p = _sym(rng, d)
                lhs, rhs = free_block_test(p, j)
                assert lhs == rhs
                hits[lhs] += 1
    # a rank-deficient corner must drive both sides false together
    p = np.zeros((2, 2))
    lhs, rhs = free_block_test(p, IndexSet(2, ()))
    assert (lhs, rhs) == (False, False)
    assert hits[True] > 0


def test_free_block_test_rejects_mismatched_sizes():
    with pytest.raises(ValueError):
        free_block_test(np.eye(3), IndexSet(2, (1,)))
