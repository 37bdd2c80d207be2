"""The shared singular-value cutoff and its ambiguity band.

Every yes/no matrix verdict of the library (zero block, invertible block,
admissible interchange set, shift-invertibility) ends in the one comparison
of ``tolerances.py``; these tests pin its boundary conventions directly.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from metaplectic import ToleranceAmbiguityError, default_tol, tolerances
from metaplectic.symplectic_core import (
    SymplecticMatrix,
    chirp_block,
    classify_lp,
    dj_factorize,
    free_factorize,
    is_free,
    is_symplectic,
    lower_tri_factorize,
    multiplier_block,
    random_symplectic,
    standard_involution,
)
from metaplectic.tolerances import (
    AMBIGUITY_BAND,
    DEFAULT_TOL,
    ENV_TOL,
    positive_tol,
    rel_invertible,
    rel_zero,
)

TOL = 1e-9


@pytest.fixture(autouse=True)
def _no_env_override(monkeypatch):
    monkeypatch.delenv(ENV_TOL, raising=False)


@pytest.mark.parametrize("scale", [1.0, 3.0, 0.7])
def test_sigma_min_equal_to_cutoff_counts_as_invertible(scale):
    assert rel_invertible(np.array([[TOL * scale]]), TOL, scale)
    assert not rel_invertible(np.array([[np.nextafter(TOL * scale, 0.0)]]), TOL, scale)


@pytest.mark.parametrize("scale", [1.0, 3.0, 0.7])
def test_sigma_max_equal_to_cutoff_counts_as_zero(scale):
    assert rel_zero(np.array([[TOL * scale]]), TOL, scale)
    assert not rel_zero(np.array([[np.nextafter(TOL * scale, 1.0)]]), TOL, scale)


def test_band_edges_do_not_raise():
    lo, hi = TOL / AMBIGUITY_BAND, TOL * AMBIGUITY_BAND
    assert not rel_invertible(np.array([[lo]]), TOL, 1.0, what="edge")
    assert rel_invertible(np.array([[hi]]), TOL, 1.0, what="edge")
    assert rel_zero(np.array([[lo]]), TOL, 1.0, what="edge")
    assert not rel_zero(np.array([[hi]]), TOL, 1.0, what="edge")


def test_inside_the_band_raises_only_when_named():
    inside = np.array([[5.0 * TOL]])
    assert rel_invertible(inside, TOL, 1.0)
    assert not rel_zero(inside, TOL, 1.0)
    with pytest.raises(ToleranceAmbiguityError, match="block test") as info:
        rel_invertible(inside, TOL, 1.0, what="block test")
    assert info.value.ratio == 5.0 * TOL
    assert info.value.cutoff == TOL
    with pytest.raises(ToleranceAmbiguityError, match="zero test"):
        rel_zero(inside, TOL, 1.0, what="zero test")


def test_classify_lp_is_clear_just_outside_the_band():
    # sigma_max(S) is about 1, so B alone sets the ratio of both tests; the
    # other block verdicts follow classify_lp
    zero, free = multiplier_block([[TOL / 20.0]]), multiplier_block([[TOL * 20.0]])
    assert classify_lp(zero, TOL).case.value == "lower-triangular"
    assert classify_lp(free, TOL).case.value == "free"
    assert not is_free(zero, TOL) and is_free(free, TOL)
    with pytest.raises(ValueError, match="requires an invertible upper-right block"):
        free_factorize(zero, TOL)
    with pytest.raises(ValueError, match="requires a vanishing upper-right block"):
        lower_tri_factorize(free, TOL)


@pytest.mark.parametrize("what", [None, "empty"])
def test_empty_matrix_is_both_invertible_and_zero(what):
    empty = np.zeros((0, 0))
    assert rel_invertible(empty, TOL, what=what)
    assert rel_zero(empty, TOL, what=what)


def test_default_scales():
    # rel_zero measures against 1, rel_invertible against sigma_max(mat)
    small = np.array([[1e-10]])
    assert rel_zero(small, TOL)
    assert rel_invertible(small, TOL)
    assert not rel_invertible(np.diag([1.0, 1e-10]), TOL)
    assert not rel_invertible(np.zeros((2, 2)), TOL)


def test_explicit_zero_scale():
    # nothing is invertible, everything vanishes, relative to a zero scale
    assert not rel_invertible(np.eye(2), TOL, 0.0)
    assert rel_zero(np.eye(2), TOL, 0.0)
    assert not rel_invertible(np.eye(2), TOL, 0.0, what="zero scale")
    assert rel_zero(np.eye(2), TOL, 0.0, what="zero scale")


def test_default_tol_without_override():
    assert default_tol() == DEFAULT_TOL


def test_environment_override_is_honoured(monkeypatch):
    mat = np.diag([1.0, 1e-4])
    assert rel_invertible(mat)
    monkeypatch.setenv(ENV_TOL, "1e-3")
    assert default_tol() == 1e-3
    assert not rel_invertible(mat)
    assert rel_zero(np.array([[5e-4]]))
    # an explicit tol wins over the environment
    assert rel_invertible(mat, 1e-9)


@pytest.mark.parametrize("raw", ["abc", "0", "-1", "nan"])
def test_environment_override_rejects_non_positive(monkeypatch, raw):
    monkeypatch.setenv(ENV_TOL, raw)
    with pytest.raises(ValueError, match=ENV_TOL):
        default_tol()
    with pytest.raises(ValueError, match=ENV_TOL):
        rel_invertible(np.eye(2))
    with pytest.raises(ValueError, match=ENV_TOL):
        rel_zero(np.eye(2))


@pytest.mark.parametrize("raw", ["abc", "0", "-1", "nan", "-inf"])
def test_environment_override_refusal_text(monkeypatch, raw):
    monkeypatch.setenv(ENV_TOL, raw)
    with pytest.raises(ValueError) as info:
        default_tol()
    assert str(info.value) == f"METAPLECTIC_TOL must be a positive float, got {raw!r}"


@pytest.mark.parametrize("value", [0.0, -1.0, -0.0, math.nan, -math.inf])
def test_positive_tol_refuses_what_the_environment_refuses(value):
    with pytest.raises(ValueError) as info:
        positive_tol(value, "--tol")
    assert str(info.value) == f"--tol must be a positive float, got {value!r}"
    assert positive_tol(1e-3, "--tol") == 1e-3


@pytest.mark.parametrize("value", [1.0, 100.0, math.inf])
def test_positive_tol_refuses_one_and_above(value):
    # sigma_max(B) <= sigma_max(S), so a relative cutoff of 1 or more would
    # call every upper-right block zero
    with pytest.raises(ValueError) as info:
        positive_tol(value, "--tol")
    assert str(info.value) == f"--tol must be below 1, got {value!r}"
    assert positive_tol(np.nextafter(1.0, 0.0), "--tol") < 1.0


@pytest.mark.parametrize("raw", ["1", "2", "inf"])
def test_environment_override_refuses_one_and_above(monkeypatch, raw):
    monkeypatch.setenv(ENV_TOL, raw)
    with pytest.raises(ValueError) as info:
        classify_lp(standard_involution(1))
    assert str(info.value) == f"METAPLECTIC_TOL must be below 1, got {raw!r}"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: classify_lp(standard_involution(1), tol=100.0), "tol must be below 1, got 100.0"),
        (lambda: classify_lp(standard_involution(1), tol=math.nan), "tol must be a positive float, got nan"),
        (lambda: dj_factorize(random_symplectic(3, 2), tol=0.0), "tol must be a positive float, got 0.0"),
        (lambda: rel_zero(np.zeros((0, 0)), tol=math.nan), "tol must be a positive float, got nan"),
        (lambda: rel_invertible(np.eye(2), tol=math.nan, scale=0.0), "tol must be a positive float, got nan"),
    ],
    ids=["classify-100", "classify-nan", "dj-zero", "rel-zero-empty", "rel-invertible-zero-scale"],
)
def test_an_explicit_tol_goes_through_the_same_check(call, message):
    # these used to call the Fourier matrix lower-triangular, call it
    # singular-nonzero-B, and search with a zero cutoff; the empty matrix
    # and the zero scale used to return before the check
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("call", [is_free, free_factorize, lower_tri_factorize])
def test_every_block_verdict_carries_the_band(call):
    # 3e-9 lies inside the band around the default cutoff 1e-9; is_free used
    # to say True here and free_factorize to return L1 = 3.3e8
    with pytest.raises(ToleranceAmbiguityError, match="upper-right block"):
        call(multiplier_block([[3e-9]]))


def test_non_finite_matrix_fails_the_block_relations():
    # the relation residual is NaN here; it must not pass the residual cutoff
    mat = np.array([[np.nan, 0.0], [0.0, 1.0]])
    assert not is_symplectic(mat)
    with pytest.raises(ValueError, match="not symplectic"):
        SymplecticMatrix(mat)


@pytest.mark.parametrize(
    "build, P, name",
    [
        (chirp_block, [[np.nan, 0.0], [1.0, 0.0]], "chirp parameter P"),
        (multiplier_block, [[np.nan]], "multiplier parameter P"),
        (chirp_block, [[np.inf]], "chirp parameter P"),
    ],
    ids=["chirp-nan", "multiplier-nan", "chirp-inf"],
)
def test_symmetry_policy_refuses_non_finite_entries(build, P, name):
    # max|P - P^T| is nan for a nan entry, which no cutoff refuses, and an
    # inf entry makes inf - inf; the policy refuses both before it subtracts
    with np.errstate(all="raise"), pytest.raises(ValueError) as info:
        build(np.array(P))
    assert str(info.value) == f"{name} must be finite"


def test_dj_factorize_resolves_the_default_tolerance_once(monkeypatch):
    # the subset search decides 2^d candidates with one reading of the
    # environment override, and decides them as an explicit tol would; the
    # residual's dilation_block(L) check makes the one other reading
    reads = []

    class Environ(dict):
        def get(self, key, default=None):
            reads.append(key)
            return super().get(key, default)

    S = random_symplectic(3, 4)
    explicit = dj_factorize(S, DEFAULT_TOL)
    monkeypatch.setattr(tolerances, "os", SimpleNamespace(environ=Environ()))
    fact = dj_factorize(S)
    assert reads == [ENV_TOL, ENV_TOL]
    assert fact.J == explicit.J and fact.residual == explicit.residual
    for name in ("Q", "L", "P"):
        assert np.array_equal(getattr(fact, name), getattr(explicit, name))
