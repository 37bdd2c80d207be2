"""Tests for the numerical probe layer.

Each probe is exercised on matrices whose behaviour is known in closed form,
so the measured ratios have frozen expected values; the verdict boundaries
(converges / bounded / diverges / inconclusive) are each hit at least once
with deterministic parameters.
"""

import math

import numpy as np
import pytest

from metaplectic.metaplectic_numeric import (
    GaussianChirp,
    Grid,
    GridFunction,
    lp_norm,
    lpq_norm,
    rescale_apply,
    tensor_with_conj,
)
from metaplectic.metaplectic_numeric.distributions import (
    rihacek_projection,
    wigner_projection,
)
from metaplectic.probes import (
    ProbeReport,
    _spread_verdict,
    beckner_probe,
    norm_equiv_probe,
    quasi_isometry_probe,
    unbounded_probe,
)
from metaplectic.symplectic_core import dilation_block, standard_involution

# singular-but-nonzero upper-right block: plain Fourier transform in the
# first variable only
SINGULAR_B = np.array(
    [
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)


def test_probe_report_spread():
    r = ProbeReport("x", {}, (2.0, 4.0, 3.0), None, "bounded")
    assert r.spread == 2.0


@pytest.mark.parametrize(
    "spread, verdict",
    [(10.0, "diverges"), (2.0, "bounded"), (2.0000010314, "inconclusive"), (5.0, "inconclusive")],
)
def test_spread_verdict_boundaries(spread, verdict):
    # both cutoffs are inclusive; 2.0000010314 is the measured Rihaczek
    # spread that sits just above the flatness cutoff
    assert _spread_verdict(spread) == verdict
    assert ProbeReport("x", {}, (), None, "inconclusive").spread == 1.0


# -- sharp-constant probe ------------------------------------------------------


def test_beckner_flat_at_unit_constant():
    for p, ref in ((1.0, 1.0), (2.0, 1.0)):
        r = beckner_probe(standard_involution(1), p)
        assert r.verdict == "bounded"
        assert r.reference == ref
        assert all(abs(x - ref) < 1e-9 for x in r.ratios)


def test_beckner_interior_exponent_saturates_sharp_constant():
    r = beckner_probe(standard_involution(1), 4.0 / 3.0)
    assert r.verdict == "bounded"
    assert np.isclose(r.reference, 0.9366870743752481, rtol=0, atol=1e-15)
    # every dilated gaussian is an extremizer, so the family is flat at the
    # constant to roundoff
    assert r.parameters["overshoot"] < 1e-12
    assert all(np.isclose(x, r.reference, rtol=1e-9) for x in r.ratios)


def test_beckner_determinant_scaling():
    # |det B| = 4 at p = 1 scales the constant to 4^{-1/2} = 0.5
    s = dilation_block(np.diag([0.25])) @ standard_involution(1)
    r = beckner_probe(s, 1.0)
    assert r.verdict == "bounded"
    assert np.isclose(r.reference, 0.5, rtol=0, atol=1e-12)
    assert all(np.isclose(x, 0.5, rtol=1e-9) for x in r.ratios)


def test_beckner_refuses_a_norm_that_underflows():
    # q = 2001; the output of lambda = 4 peaks at 1/2, so |out|^q underflows
    # in every sample and the ratio is undefined, not 0 under "bounded"
    message = "lp_norm of the output underflows to 0.0 at p = 1.0005, q = 2001"
    with pytest.raises(ArithmeticError, match=message):
        beckner_probe(standard_involution(1), 1.0005, lambdas=(1.0, 2.0, 4.0))


def test_beckner_requires_free_matrix():
    with pytest.raises(ValueError, match="invertible upper-right block"):
        beckner_probe(np.eye(2), 2.0)


# -- fixed-ratio probe ---------------------------------------------------------


def test_quasi_isometry_converges_for_all_exponents():
    s = dilation_block(np.diag([0.5]))  # |det A| = 2
    for p, ref in (
        (1.0, 2.0**0.5),
        (2.0, 1.0),
        (4.0, 2.0**-0.25),
        (np.inf, 2.0**-0.5),
    ):
        r = quasi_isometry_probe(s, p)
        assert r.verdict == "converges"
        assert np.isclose(r.reference, ref, rtol=0, atol=1e-12)
        assert r.parameters["worst_rel_err"] < 1e-4
        # the family includes shifted and chirped members — all at the ratio
        assert len(r.ratios) == 7


def test_quasi_isometry_refuses_a_norm_that_underflows():
    # the output peaks at 2^(-1/2), so |out|^3000 underflows in every sample;
    # the operator is bounded on every L^p, and a ratio of 0 is no evidence
    message = "lp_norm of the output underflows to 0.0 at p = 3000, q = 3000"
    with pytest.raises(ArithmeticError, match=message):
        quasi_isometry_probe(np.diag([2.0, 0.5]), 3000.0)


def test_quasi_isometry_requires_vanishing_block():
    with pytest.raises(ValueError, match="vanishing upper-right block"):
        quasi_isometry_probe(standard_involution(1), 2.0)


# -- unboundedness witness -----------------------------------------------------


def test_unbounded_probe_detects_divergence():
    r = unbounded_probe(SINGULAR_B, 1.0, np.inf, lambdas=np.geomspace(1.0, 100.0, 5), n=128)
    assert r.verdict == "diverges"
    assert r.parameters["growth"] >= 10.0
    assert np.isclose(r.parameters["growth"], 11.313708498984761, rtol=1e-12)


def test_unbounded_probe_flat_at_l2():
    # p = q = 2 is the one surviving pair; every witness keeps its norm
    r = unbounded_probe(SINGULAR_B, 2.0, 2.0, n=64)
    assert r.verdict == "bounded"
    assert np.isclose(r.parameters["growth"], 1.0, rtol=0, atol=1e-9)
    assert all(np.isclose(x, 1.0, rtol=1e-9) for x in r.ratios)


def test_unbounded_probe_inconclusive_on_short_family():
    r = unbounded_probe(SINGULAR_B, 1.0, np.inf, lambdas=(1.0, 1.5, 2.25), n=64)
    assert r.verdict == "inconclusive"
    assert 2.0 < r.parameters["growth"] < 10.0


def test_unbounded_probe_skips_undecayed_members():
    # members squeezed past the window resolution are dropped; with no
    # family left the probe refuses to guess
    r = unbounded_probe(SINGULAR_B, 1.0, np.inf, lambdas=(100.0, 200.0, 400.0), n=32)
    assert r.verdict == "inconclusive"
    assert math.isnan(r.parameters["growth"])
    assert r.ratios == ()
    assert r.parameters["skipped"] > 0


def test_unbounded_probe_requires_singular_nonzero_block():
    with pytest.raises(ValueError, match="singular nonzero upper-right block"):
        unbounded_probe(standard_involution(1), 1.0, np.inf)


# -- distribution norm equivalence ----------------------------------------------


def test_norm_equiv_rihacek_diverges():
    # the rank-one distribution is not shift-invertible and its L^1 norm
    # collapses like (1 + lam^2)^{-1/2} on the squeeze family
    r = norm_equiv_probe(
        rihacek_projection(1), 1.0, 1.0,
        lambdas=np.geomspace(1.0, 15.0, 4), grid=Grid.regular(1, 1024, 4.0),
    )
    assert r.verdict == "diverges"
    assert r.parameters["spread"] >= 10.0
    assert np.isclose(r.ratios[0], 2.0**-0.5, rtol=1e-6)


def test_norm_equiv_wigner_flat():
    r = norm_equiv_probe(
        wigner_projection(1), 1.0, 1.0,
        lambdas=np.geomspace(1.0, 15.0, 4), grid=Grid.regular(1, 1024, 4.0),
    )
    assert r.verdict == "bounded"
    assert np.isclose(r.parameters["spread"], 1.0, rtol=0, atol=1e-12)


def test_norm_equiv_inconclusive_band():
    r = norm_equiv_probe(
        rihacek_projection(1), 1.0, 1.0,
        lambdas=np.geomspace(1.0, 6.0, 3), grid=Grid.regular(1, 512, 4.0),
    )
    assert r.verdict == "inconclusive"
    assert 2.0 < r.parameters["spread"] < 10.0


def test_norm_equiv_rejects_odd_matrix():
    with pytest.raises(ValueError, match="even block count"):
        norm_equiv_probe(standard_involution(1), 2.0, 2.0)


def test_norm_equiv_accepts_custom_window():
    grid = Grid.regular(1, 256, 4.0)
    w = GaussianChirp.dilated(1, 2.0).sample(grid)
    r = norm_equiv_probe(wigner_projection(1), 2.0, 2.0, window=w, lambdas=(0.5, 1.0, 2.0), grid=grid)
    assert r.verdict in ("bounded", "inconclusive")
    assert len(r.ratios) == 3


# -- mixed-norm substitution check -----------------------------------------------


def test_mixed_norm_product_form_holds_for_equal_exponents():
    grid = Grid.regular(1, 256, 8.0)
    f = GaussianChirp.standard(1).sample(grid)
    g = GaussianChirp.dilated(1, 2.0).sample(grid)
    M = np.array([[1.0, 1.0], [0.0, 1.0]])
    u = rescale_apply(M, tensor_with_conj(f, g))
    ratio = lpq_norm(u, 1.0, 1.0) / (lp_norm(f, 1.0) * lp_norm(g, 1.0))
    assert np.isclose(ratio, 1.0, rtol=0, atol=1e-6)


def test_mixed_norm_product_form_fails_for_split_exponents():
    # swapping the two slots moves the wide factor to the inner norm; for
    # these gaussians the measured ratio is exactly 2^{-1/3}
    grid = Grid.regular(1, 256, 8.0)
    f = GaussianChirp.standard(1).sample(grid)
    g = GaussianChirp.dilated(1, 2.0).sample(grid)
    M = np.array([[0.0, 1.0], [1.0, 0.0]])
    u = rescale_apply(M, tensor_with_conj(f, g))
    ratio = lpq_norm(u, 1.0, 3.0) / (lp_norm(f, 1.0) * lp_norm(g, 3.0))
    assert np.isclose(ratio, 2.0 ** (-1.0 / 3.0), rtol=1e-6)

