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


def test_index_set_subsets_enumeration():
    subsets = list(IndexSet.all_subsets(3))
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


# --------------------------------------------------------------------------
# block identities


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), d=st.integers(1, 4), pick=st.integers(0, 1000))
def test_unipotent_inverse_identity(seed, d, pick):
    # closed-form inverse of the unipotent factor I + I_{J^c} P I_J
    rng = np.random.default_rng(seed)
    p = _sym(rng, d)
    subsets = list(IndexSet.all_subsets(d))
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
    subsets = list(IndexSet.all_subsets(d))
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
        for j in IndexSet.all_subsets(d):
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
