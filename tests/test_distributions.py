"""Tests for the time-frequency distribution layer.

The three dedicated transforms are checked sample-for-sample against the
plain quadrature oracles in oracles.py (identical finite sums, so the
agreement bar is roundoff), then against closed forms for Gaussian inputs
on the central part of the window where periodic wrap is negligible.
"""

import tracemalloc

import numpy as np
import pytest

from metaplectic.metaplectic_numeric import GaussianChirp, apply_metaplectic
from metaplectic.metaplectic_numeric.distributions import (
    MAX_DISTRIBUTION_POINTS,
    mp_norm,
    rihacek,
    rihacek_projection,
    stft,
    stft_projection,
    tensor_with_conj,
    wigner,
    wigner_metaplectic,
    wigner_projection,
)
from metaplectic.metaplectic_numeric.grid import (
    Grid,
    GridFunction,
    herm_inner,
    lp_norm,
)

from oracles import (
    gauss_lp_norm,
    quadrature_rihacek,
    quadrature_stft,
    quadrature_wigner,
    rihacek_gauss_pair,
    stft_gauss_pair,
    wigner_gauss_pair,
)


def _random_function(grid, seed):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    return GridFunction(grid, vals)


def _gaussian_chirp_sample(grid, seed):
    # mild rates so the spectrum stays well inside the dual box
    rng = np.random.default_rng(seed)
    m = np.array([[rng.uniform(-0.4, 0.4) + 1j * rng.uniform(0.6, 1.4)]])
    b = 0.3 * (rng.normal() + 1j * rng.normal())
    return GaussianChirp(1.0, m, np.array([b])).sample(grid)


# -- agreement with direct quadrature on random data -------------------------


def test_wigner_matches_quadrature_oracle():
    grid = Grid.regular(1, 32, 6.0)
    f = _random_function(grid, 0)
    g = _random_function(grid, 1)
    w = wigner(f, g)
    expected = quadrature_wigner(f.values, g.values, grid.axes[0].step)
    assert w.values.shape == (32, 32)
    # output frequency axis sits on the half-step dual lattice
    assert w.grid.axes[0].step == grid.axes[0].step
    assert np.isclose(w.grid.axes[1].step, grid.axes[0].dual().step / 2.0, rtol=0, atol=0)
    assert np.max(np.abs(w.values - expected)) < 1e-12 * np.max(np.abs(expected))


def test_wigner_auto_defaults_to_second_argument():
    grid = Grid.regular(1, 16, 4.0)
    f = _random_function(grid, 2)
    assert np.array_equal(wigner(f).values, wigner(f, f).values)


def test_stft_matches_quadrature_oracle():
    grid = Grid.regular(1, 32, 6.0)
    f = _random_function(grid, 3)
    g = _random_function(grid, 4)
    v = stft(f, g)
    expected = quadrature_stft(f.values, g.values, grid.axes[0].step)
    assert np.max(np.abs(v.values - expected)) < 1e-12 * np.max(np.abs(expected))
    assert np.isclose(v.grid.axes[1].step, grid.axes[0].dual().step, rtol=0, atol=0)


def test_rihacek_matches_quadrature_oracle():
    grid = Grid.regular(1, 32, 6.0)
    f = _random_function(grid, 5)
    g = _random_function(grid, 6)
    r = rihacek(f, g)
    expected = quadrature_rihacek(f.values, g.values, grid.axes[0].step)
    assert np.max(np.abs(r.values - expected)) < 1e-12 * np.max(np.abs(expected))


def test_wigner_2d_separable_product():
    # W(f1 x f2, g1 x g2) = W(f1,g1) x W(f2,g2) with axes ordered
    # (x1, x2, xi1, xi2); exact because the finite sums factor.
    ax = Grid.regular(1, 16, 4.0)
    f1, g1 = _random_function(ax, 7), _random_function(ax, 8)
    f2, g2 = _random_function(ax, 9), _random_function(ax, 10)
    grid2 = Grid(ax.axes + ax.axes)
    f = GridFunction(grid2, np.multiply.outer(f1.values, f2.values))
    g = GridFunction(grid2, np.multiply.outer(g1.values, g2.values))
    w = wigner(f, g)
    w1 = wigner(f1, g1).values
    w2 = wigner(f2, g2).values
    expected = np.einsum("ik,jl->ijkl", w1, w2)
    assert np.max(np.abs(w.values - expected)) < 1e-12 * np.max(np.abs(expected))


# -- closed forms for Gaussian inputs -----------------------------------------


def test_wigner_standard_gaussian_closed_form():
    # half-width 5 balances the two error sources on the central half: the
    # parity-twisted copy in x and the spectral wrap on the narrow xi window
    grid = Grid.regular(1, 64, 5.0)
    f = GaussianChirp.standard(1).sample(grid)
    w = wigner(f, f)
    xs, xis = np.meshgrid(w.grid.axes[0].points(), w.grid.axes[1].points(), indexing="ij")
    expected = wigner_gauss_pair(xs, xis)
    c = slice(16, 48)
    assert np.max(np.abs(w.values[c, c] - expected[c, c])) < 1e-12


def test_stft_standard_gaussian_closed_form():
    grid = Grid.regular(1, 64, 4.0)
    f = GaussianChirp.standard(1).sample(grid)
    v = stft(f, f)
    xs, xis = np.meshgrid(v.grid.axes[0].points(), v.grid.axes[1].points(), indexing="ij")
    expected = stft_gauss_pair(xs, xis)
    c = slice(16, 48)
    assert np.max(np.abs(v.values[c, c] - expected[c, c])) < 1e-10


def test_rihacek_standard_gaussian_closed_form():
    grid = Grid.regular(1, 64, 4.0)
    f = GaussianChirp.standard(1).sample(grid)
    r = rihacek(f, f)
    xs, xis = np.meshgrid(r.grid.axes[0].points(), r.grid.axes[1].points(), indexing="ij")
    expected = rihacek_gauss_pair(xs, xis)
    c = slice(16, 48)
    assert np.max(np.abs(r.values[c, c] - expected[c, c])) < 1e-10


# -- lattice bookkeeping: ghost copy, orthogonality, transform relations ------


def test_wigner_ghost_parity_twist():
    # the (x, u) -> (x+u, x-u) substitution covers the periodic lattice 2:1,
    # so the row at the window edge is an exact alternating-sign copy of the
    # central row
    grid = Grid.regular(1, 32, 5.0)
    f = _random_function(grid, 11)
    g = _random_function(grid, 12)
    w = wigner(f, g).values
    n = 32
    h = n // 2
    signs = (-1.0) ** (np.arange(n) - h)
    assert np.max(np.abs(w[0, :] * signs - w[h, :])) < 1e-12 * np.max(np.abs(w))


def test_wigner_moyal_identity_exact_on_torus():
    # full discrete identity: the 2:1 cover restricts the pair sum to indices
    # of equal parity, which adds a Nyquist-modulated companion term
    grid = Grid.regular(1, 32, 6.0)
    f1, g1 = _random_function(grid, 13), _random_function(grid, 14)
    f2, g2 = _random_function(grid, 15), _random_function(grid, 16)
    lhs = herm_inner(wigner(f1, g1), wigner(f2, g2))
    plain = herm_inner(f1, f2) * np.conj(herm_inner(g1, g2))
    eps = (-1.0) ** np.arange(32)
    twist = lambda u: GridFunction(grid, u.values * eps)  # noqa: E731
    twisted = herm_inner(twist(f1), f2) * np.conj(herm_inner(twist(g1), g2))
    assert abs(lhs - 2.0 * (plain + twisted)) < 1e-12 * abs(lhs)


def test_wigner_moyal_identity_band_limited():
    # for decaying inputs whose spectra avoid the Nyquist edge the companion
    # term is spectral-tail small and the classical form holds with the 2^d
    # lattice factor
    grid = Grid.regular(1, 256, 8.0)
    f1, g1 = _gaussian_chirp_sample(grid, 17), _gaussian_chirp_sample(grid, 18)
    f2, g2 = _gaussian_chirp_sample(grid, 19), _gaussian_chirp_sample(grid, 20)
    lhs = herm_inner(wigner(f1, g1), wigner(f2, g2))
    rhs = 2.0 * herm_inner(f1, f2) * np.conj(herm_inner(g1, g2))
    assert abs(lhs - rhs) < 1e-10 * abs(lhs)


def test_wigner_from_stft_lattice_identity():
    # W(f,g)[j, m] = 2^d exp(4 pi i x_j xi_m) V_{g(-.)} f[(2j - h) % n, m],
    # exact on the whole torus (ghosts included)
    grid = Grid.regular(1, 32, 6.0)
    f = _random_function(grid, 21)
    g = _random_function(grid, 22)
    n = 32
    h = n // 2
    w = wigner(f, g)
    reflected = GridFunction(grid, g.values[(-np.arange(n)) % n])
    v = stft(f, reflected)
    x = grid.axes[0].points()
    xi = w.grid.axes[1].points()
    jj, mm = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    candidate = 2.0 * np.exp(4j * np.pi * np.outer(x, xi)) * v.values[(2 * jj - h) % n, mm]
    assert np.max(np.abs(w.values - candidate)) < 1e-12 * np.max(np.abs(w.values))


# -- the generic matrix-driven construction -----------------------------------


def test_projection_matrices_are_symplectic():
    for builder in (wigner_projection, stft_projection, rihacek_projection):
        for d in (1, 2):
            s = builder(d)
            assert s.d == 2 * d


def test_wigner_metaplectic_dispatches_to_dedicated():
    grid = Grid.regular(1, 32, 6.0)
    f = _random_function(grid, 23)
    g = _random_function(grid, 24)
    for builder, dedicated in (
        (wigner_projection, wigner),
        (stft_projection, stft),
        (rihacek_projection, rihacek),
    ):
        got = wigner_metaplectic(builder(1), f, g)
        want = dedicated(f, g)
        assert got.grid.close_to(want.grid)
        assert np.array_equal(got.values, want.values)


def test_wigner_metaplectic_generic_pipeline():
    # bypassing the dedicated shortcut runs the factorization pipeline; its
    # output sits on the full-step frequency lattice (twice the dedicated
    # window) with the origin rolled to the array edge, and is defined up to
    # one global unimodular constant
    grid = Grid.selfdual(1, 32)
    f = GaussianChirp.standard(1).sample(grid)
    got = apply_metaplectic(wigner_projection(1), tensor_with_conj(f, f))
    assert np.isclose(np.max(np.abs(got.values)), np.sqrt(2.0), rtol=0, atol=1e-12)
    assert np.isclose(got.grid.axes[1].step, grid.axes[0].step, rtol=0, atol=1e-15)
    rolled = np.roll(got.values, 16, axis=1)
    xs, xis = np.meshgrid(got.grid.axes[0].points(), got.grid.axes[1].points(), indexing="ij")
    expected = wigner_gauss_pair(xs, xis)
    c = slice(12, 21)  # central quarter: the rolled ghost tail is ~7e-13 there
    phase = rolled[16, 16] / expected[16, 16]
    assert abs(abs(phase) - 1.0) < 1e-10
    assert np.max(np.abs(rolled[c, c] - phase * expected[c, c])) < 1e-10


def test_wigner_metaplectic_rejects_dimension_mismatch():
    grid = Grid.regular(1, 16, 4.0)
    f = _random_function(grid, 25)
    with pytest.raises(ValueError, match="phase-space coordinates"):
        wigner_metaplectic(wigner_projection(2), f, f)


def test_tensor_with_conj_is_outer_product():
    grid = Grid.regular(1, 16, 4.0)
    f = _random_function(grid, 26)
    g = _random_function(grid, 27)
    t = tensor_with_conj(f, g)
    assert t.grid.d == 2
    assert np.array_equal(t.values, np.multiply.outer(f.values, np.conj(g.values)))


def test_distributions_reject_mismatched_grids():
    f = _random_function(Grid.regular(1, 16, 4.0), 28)
    g = _random_function(Grid.regular(1, 16, 5.0), 29)
    for fn in (wigner, stft, rihacek, tensor_with_conj):
        with pytest.raises(ValueError, match="share one grid"):
            fn(f, g)


# -- modulation norms ----------------------------------------------------------


def test_mp_norm_standard_gaussian():
    # V_g g for the standard gaussian is 2^{-1/2} e^{-pi(x^2+xi^2)/2} times a
    # unimodular chirp, so every L^p norm separates into 1-d gaussian factors;
    # the self-dual window keeps the L^1 truncation tail below the tolerance
    # on both axes
    grid = Grid.selfdual(1, 256)
    f = GaussianChirp.standard(1).sample(grid)
    for p in (1.0, 2.0, 4.0):
        expected = (2.0 ** -0.5) * gauss_lp_norm(0.5, p) ** 2
        assert np.isclose(mp_norm(f, f, p), expected, rtol=1e-6, atol=0)
    # sup norm: peak value of the envelope
    assert np.isclose(mp_norm(f, f, np.inf), 2.0 ** -0.5, rtol=1e-8, atol=0)


def test_mp_norm_mixed_exponents():
    grid = Grid.selfdual(1, 256)
    f = GaussianChirp.standard(1).sample(grid)
    got = mp_norm(f, f, 1.0, 2.0)
    expected = (2.0 ** -0.5) * gauss_lp_norm(0.5, 1.0) * gauss_lp_norm(0.5, 2.0)
    assert np.isclose(got, expected, rtol=1e-6, atol=0)
    # q defaults to p
    assert mp_norm(f, f, 2.0) == mp_norm(f, f, 2.0, 2.0)


def test_mp_norm_all_exponents_positive_on_random_data():
    grid = Grid.regular(1, 32, 5.0)
    f = _random_function(grid, 30)
    g = _random_function(grid, 31)
    assert mp_norm(f, g, 2.0) > 0.0
    assert mp_norm(f, g, 1.0, np.inf) > 0.0


# -- guards ------------------------------------------------------------------


@pytest.mark.parametrize("builder", [wigner, stft, rihacek, tensor_with_conj])
def test_full_builders_refuse_oversized_grids_before_allocating(builder):
    # 128^4 = 2^28 points would be 4.3 GB per complex array
    grid = Grid.selfdual(2, 128)
    f = GaussianChirp.standard(2).sample(grid)
    assert 128**4 > MAX_DISTRIBUTION_POINTS
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"limit is {MAX_DISTRIBUTION_POINTS}"):
            builder(f, f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("builder", [wigner, stft, rihacek])
def test_whole_builds_peak_at_one_output_array_and_a_few_slabs(builder):
    # the walk fills one output array, built in 1 MiB slabs on the workers,
    # and hands it over without a copy: 64 MiB here, against 2.0 arrays
    # (2.75 for rihacek) for a build into a whole-size buffer set and a copy
    grid = Grid.selfdual(1, 2048)
    f, g = _random_function(grid, 40), _random_function(grid, 41)
    tracemalloc.start()
    try:
        out = builder(f, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * out.values.nbytes, peak / out.values.nbytes


@pytest.mark.parametrize("projection", [wigner_projection, stft_projection])
def test_generic_pipeline_names_the_grid_requirement(projection):
    # on a grid that is not self-dual the partial FT leaves a frequency axis
    # whose step differs from the space axis the rescaling swaps it with
    f = GaussianChirp.standard(1).sample(Grid.regular(1, 64, 5.0))
    with pytest.raises(ValueError, match=r"permutes grid axes 1 and 2.*partial Fourier transform on J"):
        apply_metaplectic(projection(1), tensor_with_conj(f, f))
