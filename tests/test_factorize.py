"""Round trips and edge cases for the generator factorizations."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metaplectic.symplectic_core import (
    IndexSet,
    SymplecticMatrix,
    chirp_block,
    dilation_block,
    dj_compose,
    dj_factorize,
    free_factorize,
    interchange,
    lower_tri_factorize,
    multiplier_block,
    random_symplectic,
    standard_involution,
)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000), d=st.integers(1, 5))
def test_dj_round_trip_random(seed, d):
    s = random_symplectic(seed, d)
    f = dj_factorize(s)
    assert f.residual < 1e-10
    assert np.max(np.abs(dj_compose(f).mat - s.mat)) < 1e-10
    assert np.max(np.abs(f.Q - f.Q.T)) < 1e-10
    assert np.max(np.abs(f.P - f.P.T)) < 1e-10


def test_identity_factorizes_trivially():
    f = dj_factorize(SymplecticMatrix(np.eye(4)))
    assert f.J.members == ()
    assert np.array_equal(f.L, np.eye(2))
    assert np.array_equal(f.P, np.zeros((2, 2)))
    assert np.array_equal(f.Q, np.zeros((2, 2)))
    assert f.residual == 0.0


def test_standard_involution_needs_full_interchange():
    d = 3
    f = dj_factorize(standard_involution(d))
    assert f.J.members == (1, 2, 3)
    assert np.array_equal(f.L, np.eye(d))


def test_tie_break_prefers_smaller_then_lexicographic():
    # for the identity every subset with X invertible scores |det X| = ...
    # only J = {} has X = A = I; any nonempty J zeroes columns of X, so the
    # winner is forced.  For a diagonal dilation with equal best scores the
    # first-seen (smallest, lexicographically least) subset must win.
    s = dilation_block(np.diag([1.0, 1.0]))
    f = dj_factorize(s)
    assert f.J.members == ()
    # mixed matrix: interchange on coordinate 2 only
    s2 = interchange(IndexSet(2, (2,)))
    f2 = dj_factorize(s2)
    assert f2.J.members == (2,)
    assert f2.residual < 1e-14


def test_factorize_picks_best_conditioned_subset():
    # rotation by 80 degrees: both subsets are admissible in d = 1 but the
    # search must keep the one with the larger |det X| (the sine column)
    th = np.deg2rad(80.0)
    s = SymplecticMatrix(
        np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]])
    )
    f = dj_factorize(s)
    assert f.J.members == (1,)
    assert f.residual < 1e-12


def test_factorize_rejects_hopelessly_conditioned_input():
    # admissibility is relative to the matrix scale, so a dilation with a
    # 1e8 condition number has no subset that clears the cutoff
    eps = 1e-8
    a = np.diag([1.0, eps])
    s = SymplecticMatrix(
        np.block([[a, np.zeros((2, 2))], [np.zeros((2, 2)), np.linalg.inv(a).T]])
    )
    with pytest.raises(ValueError, match="no admissible index set"):
        dj_factorize(s)


def test_dj_rejects_non_symplectic_and_big_dimension():
    with pytest.raises(ValueError):
        dj_factorize(SymplecticMatrix(np.eye(4) * 1.5, validate=False))
    big = SymplecticMatrix(np.eye(34))
    with pytest.raises(ValueError, match="d <= 16"):
        dj_factorize(big)


def test_generators_recover_their_own_parameters():
    rng = np.random.default_rng(12)
    p = rng.normal(size=(3, 3))
    p = (p + p.T) / 2.0
    f = dj_factorize(chirp_block(p))
    assert f.J.members == ()
    assert np.max(np.abs(f.Q - p)) < 1e-12
    assert np.max(np.abs(f.P)) < 1e-12


# draws whose recomposition error passed the former fixed bound
# 1e-9 * max|S|, where B is ill-conditioned (cond(B) 7e4 to 4.5e5), and the
# two draws closest to the bound below (error / bound 0.21 and 0.14) among
# every seed of the strategy
@example(seed=1516, d=3)
@example(seed=69560, d=2)
@example(seed=54490, d=3)
@example(seed=33515, d=4)
@example(seed=46485, d=4)
@example(seed=61135, d=4)
@example(seed=35223, d=2)
@example(seed=18371, d=4)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), d=st.integers(1, 4))
def test_free_factorize_round_trip(seed, d):
    s = random_symplectic(seed, d)
    if abs(np.linalg.det(s.B)) < 1e-6:
        return
    q1, l1, p1 = free_factorize(s)
    comp = chirp_block(q1) @ dilation_block(l1) @ standard_involution(d) @ chirp_block(p1)
    # the factors come from B^{-1}, so rounding grows with cond(B)
    rel = max(1e-9, 1e-11 * np.linalg.cond(s.B))
    assert np.max(np.abs(comp.mat - s.mat)) < rel * max(1.0, np.abs(s.mat).max())


def test_free_factorize_sign_regression():
    # The positive sign on the last chirp parameter matters: flipping it
    # recomposes to a different matrix.  This pins the convention.
    s = random_symplectic(77, 2)
    assert abs(np.linalg.det(s.B)) > 1e-6
    q1, l1, p1 = free_factorize(s)
    flipped = chirp_block(q1) @ dilation_block(l1) @ standard_involution(2) @ chirp_block(-p1)
    assert np.max(np.abs(flipped.mat - s.mat)) > 1e-3


def test_free_factorize_rejects_singular_b():
    with pytest.raises(ValueError):
        free_factorize(SymplecticMatrix(np.eye(4)))


def test_free_parameters_match_block_formulas():
    s = random_symplectic(5, 2)
    assert abs(np.linalg.det(s.B)) > 1e-6
    q1, l1, p1 = free_factorize(s)
    binv = np.linalg.inv(s.B)
    assert np.max(np.abs(q1 - s.D @ binv)) < 1e-12
    assert np.max(np.abs(l1 - binv)) < 1e-12
    assert np.max(np.abs(p1 - binv @ s.A)) < 1e-12


def _random_lower_tri(seed, d):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d)) + 2.5 * np.eye(d)
    w = rng.normal(size=(d, d))
    sym = (w + w.T) / 2.0
    c = np.linalg.inv(a).T @ sym  # makes A^T C symmetric
    zero = np.zeros((d, d))
    return SymplecticMatrix(np.block([[a, zero], [c, np.linalg.inv(a).T]]))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000), d=st.integers(1, 3))
def test_lower_tri_forms_agree(seed, d):
    s = _random_lower_tri(seed, d)
    q, l = lower_tri_factorize(s)
    comp = chirp_block(q) @ dilation_block(l)
    assert np.max(np.abs(comp.mat - s.mat)) < 1e-9
    l2, p2 = np.linalg.inv(s.A), s.A.T @ s.C
    comp2 = dilation_block(l2) @ chirp_block(p2)
    assert np.max(np.abs(comp2.mat - s.mat)) < 1e-9


def test_lower_tri_rejects_nonzero_b():
    with pytest.raises(ValueError):
        lower_tri_factorize(standard_involution(2))


def test_singular_b_forces_singular_corner_for_every_subset():
    # For matrices with singular nonzero B the solved multiplier parameter
    # has a singular J^c x J^c corner no matter which admissible subset the
    # search lands on; this drives the witness construction downstream.
    s = SymplecticMatrix(
        np.array(
            [
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [-1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
    )
    f = dj_factorize(s)
    pos = f.J.complement().positions()
    corner = f.P[np.ix_(pos, pos)]
    if corner.size:
        assert np.linalg.svd(corner, compute_uv=False)[-1] < 1e-12
