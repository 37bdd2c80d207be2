"""Boundedness classification: cases, closed-form norms, ambiguity policy."""

import math

import numpy as np
import pytest

from metaplectic import ToleranceAmbiguityError
from metaplectic.symplectic_core import (
    BoundednessCase,
    SymplecticMatrix,
    beckner_constant,
    chirp_block,
    classify_lp,
    conjugate_exponent,
    dilation_block,
    is_free,
    multiplier_block,
    random_symplectic,
    standard_involution,
)

SINGULAR_B = SymplecticMatrix(
    np.array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
)


def test_case_assignment():
    assert classify_lp(SymplecticMatrix(np.eye(4))).case is BoundednessCase.LOWER_TRIANGULAR
    assert classify_lp(chirp_block(np.eye(2))).case is BoundednessCase.LOWER_TRIANGULAR
    assert classify_lp(standard_involution(2)).case is BoundednessCase.FREE
    assert classify_lp(SINGULAR_B).case is BoundednessCase.SINGULAR_NONZERO_B


def test_conjugate_exponent_limits():
    assert conjugate_exponent(1.0) == math.inf
    assert conjugate_exponent(math.inf) == 1.0
    assert conjugate_exponent(2.0) == 2.0
    assert abs(conjugate_exponent(4.0 / 3.0) - 4.0) < 1e-12


def test_beckner_constant_frozen_values():
    assert beckner_constant(2.0, 1) == 1.0
    assert beckner_constant(1.0, 3) == 1.0
    assert abs(beckner_constant(4.0 / 3.0, 1) - 0.9366870743752481) < 1e-15
    assert abs(beckner_constant(4.0 / 3.0, 2) - 0.8773826753016616) < 1e-15
    # dimension enters as a power of the one-dimensional constant
    assert abs(beckner_constant(1.5, 4) - beckner_constant(1.5, 1) ** 4) < 1e-15
    with pytest.raises(ValueError):
        beckner_constant(3.0, 1)
    with pytest.raises(ValueError):
        beckner_constant(0.5, 1)


def test_lower_triangular_norm_closed_form():
    s = dilation_block(np.diag([0.5, 1.0]))  # A = inv(L) = diag(2, 1), det A = 2
    v = classify_lp(s)
    assert v.case is BoundednessCase.LOWER_TRIANGULAR
    assert abs(v.det_A - 2.0) < 1e-12
    # |det A|^(1/p - 1/2), frozen for det A = 2
    assert abs(v.norm(1.0) - 1.4142135623730951) < 1e-15
    assert v.norm(2.0) == 1.0
    assert abs(v.norm(4.0) - 0.8408964152537145) < 1e-15
    assert abs(v.norm(math.inf) - 2.0**-0.5) < 1e-15


def test_lower_triangular_norm_sign_regression():
    # the exponent is 1/p - 1/2, NOT 1/2 - 1/p; for det A = 2, p = 1 the
    # flipped variant would give 1/sqrt(2) instead of sqrt(2)
    v = classify_lp(dilation_block(np.diag([0.5, 1.0])))
    flipped = abs(v.det_A) ** (0.5 - 1.0)
    assert abs(v.norm(1.0) - flipped) > 0.7


def test_free_norm_closed_form():
    s = dilation_block(np.diag([2.0, 1.0])) @ standard_involution(2)
    v = classify_lp(s)
    assert v.case is BoundednessCase.FREE
    assert abs(abs(v.det_B) - 0.5) < 1e-12
    assert v.norm(2.0) == 1.0
    expected_p1 = 0.5**-0.5  # |det B|^(1/2 - 1) * beckner(1) = |det B|^(-1/2)
    assert abs(v.norm(1.0) - expected_p1) < 1e-14
    got = v.norm(4.0 / 3.0)
    expected = 0.5 ** (0.5 - 0.75) * 0.8773826753016616  # d = 2 sharp constant
    assert abs(got - expected) < 1e-14


def test_free_norm_detb_four_regression():
    # |det B| = 4, p = 1: the norm is 4^(1/2 - 1) = 0.5; the sign-flipped
    # exponent would print 2.0 -- a factor-of-four disagreement that the
    # sampled pipeline resolves in favor of 0.5 (see the acceptance suite)
    s = dilation_block(np.diag([0.25, 1.0])) @ standard_involution(2)
    v = classify_lp(s)
    assert abs(abs(v.det_B) - 4.0) < 1e-12
    assert abs(v.norm(1.0) - 0.5) < 1e-14
    assert abs(abs(v.det_B) ** (1.0 - 0.5) - 2.0) < 1e-12  # the flipped value
    assert v.norm(1.0) != pytest.approx(2.0, rel=0.5)


def test_bounded_truth_table():
    lt = classify_lp(SymplecticMatrix(np.eye(4)))
    assert lt.bounded(2.0)
    assert lt.bounded(1.0)
    assert lt.bounded(math.inf)
    assert not lt.bounded(1.0, 2.0)

    free = classify_lp(standard_involution(1))
    assert free.bounded(1.0)  # defaults to the conjugate target
    assert free.bounded(2.0, 2.0)
    assert free.bounded(1.5, 3.0)
    assert not free.bounded(3.0)
    assert not free.bounded(1.0, 2.0)

    snb = classify_lp(SINGULAR_B)
    assert snb.bounded(2.0)
    assert snb.bounded(2.0, 2.0)
    assert not snb.bounded(1.0, math.inf)
    assert not snb.bounded(1.0)


def test_norm_raises_outside_bounded_range():
    lt = classify_lp(SymplecticMatrix(np.eye(4)))
    with pytest.raises(ValueError):
        lt.norm(1.0, 2.0)
    with pytest.raises(ValueError):
        lt.norm(0.0)
    free = classify_lp(standard_involution(1))
    with pytest.raises(ValueError):
        free.norm(3.0)
    with pytest.raises(ValueError):
        free.norm(1.0, 1.0)
    snb = classify_lp(SINGULAR_B)
    assert snb.norm(2.0) == 1.0
    with pytest.raises(ValueError):
        snb.norm(1.0, math.inf)


BOUNDED_TABLE_P = [-math.inf, -1.0, 0.0, 0.25, 0.5, 1.0, 4.0 / 3.0, 1.5, 2.0, 3.0, 4.0, math.inf, math.nan]


@pytest.mark.parametrize(
    "S",
    [SymplecticMatrix(np.diag([2.0, 0.5])), standard_involution(1), SINGULAR_B],
    ids=["lower-triangular", "free", "singular-nonzero-B"],
)
def test_bounded_exactly_when_norm_raises_no_value_error(S):
    # one check decides both; they used to disagree on a lower-triangular p = nan
    verdict = classify_lp(S)
    for p in BOUNDED_TABLE_P:
        for q in BOUNDED_TABLE_P + [None]:
            try:
                verdict.norm(p, q)
                raised = False
            except ValueError:
                raised = True
            assert verdict.bounded(p, q) is not raised, (p, q)


def test_lower_triangular_norm_refuses_nan():
    verdict = classify_lp(SymplecticMatrix(np.diag([2.0, 0.5])))
    assert not verdict.bounded(math.nan)
    with pytest.raises(ValueError, match="lower-triangular case maps L\\^p to L\\^p only"):
        verdict.norm(math.nan)


def test_classifier_matches_block_test_on_random_matrices():
    for seed in range(40):
        for d in (1, 2, 3):
            s = random_symplectic(seed, d)
            v = classify_lp(s)
            if v.case is BoundednessCase.FREE:
                assert is_free(s)
                assert abs(v.det_B) > 0.0
            elif v.case is BoundednessCase.LOWER_TRIANGULAR:
                assert np.abs(s.B).max() < 1e-9 * max(1.0, np.abs(s.mat).max())


def test_ambiguous_block_refuses_verdict():
    # an upper-right block inside the ambiguity band around the cutoff
    s = multiplier_block(np.array([[5e-9]]))
    with pytest.raises(ToleranceAmbiguityError):
        classify_lp(s)
    # explicit tight tolerance resolves it
    v = classify_lp(s, tol=1e-12)
    assert v.case is BoundednessCase.FREE
