"""Sampling grids, centered transforms, and lattice norms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaplectic.metaplectic_numeric import (
    Axis,
    GaussianChirp,
    Grid,
    GridFunction,
    herm_inner,
    lp_norm,
    lpq_norm,
    multiplier_apply,
    opA_build,
    partial_dft,
    partial_idft,
    phase_align_distance,
    rihacek,
    stft,
    tf_shift,
    wigner,
    wigner_projection,
)

import oracles


# --------------------------------------------------------------------------
# construction and geometry


def test_axis_geometry():
    ax = Axis(8, 0.5)
    assert list(ax.points()) == [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]
    assert ax.extent == 2.0
    assert ax.dual().step == pytest.approx(0.25)
    assert Axis(16, 0.25).is_selfdual
    assert not ax.is_selfdual


def test_axis_validation():
    with pytest.raises(ValueError):
        Axis(7, 0.5)
    with pytest.raises(ValueError):
        Axis(0, 0.5)
    with pytest.raises(ValueError):
        Axis(8, 0.0)


def test_grid_constructors():
    g = Grid.regular(2, 16, 4.0)
    assert g.d == 2
    assert g.shape == (16, 16)
    assert g.weight == pytest.approx(0.25)
    sd = Grid.selfdual(1, 64)
    assert sd.is_selfdual
    assert sd.axes[0].step == pytest.approx(0.125)
    with pytest.raises(ValueError):
        Grid.regular(1, 24, 4.0)  # not a power of two
    with pytest.raises(ValueError):
        Grid.regular(0, 16, 4.0)


def test_grid_function_shape_validation():
    g = Grid.regular(1, 16, 4.0)
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros(8))


def test_decay_flag():
    g = Grid.regular(1, 64, 8.0)
    assert GaussianChirp.standard(1).sample(g).decay_ok
    wide = GaussianChirp.dilated(1, 0.001).sample(g)
    assert not wide.decay_ok


# --------------------------------------------------------------------------
# transforms against the dense oracle


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_full_dft_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    g = Grid.regular(1, 32, 5.0)
    f = GridFunction(g, rng.normal(size=32) + 1j * rng.normal(size=32))
    got = partial_dft(f, (0,))
    expected = oracles.dense_dft_matrix(32, g.axes[0].step) @ f.values
    assert np.max(np.abs(got.values - expected)) < 1e-12
    assert got.grid.axes[0].close_to(g.axes[0].dual())


def test_partial_dft_single_axis_matches_dense_oracle():
    rng = np.random.default_rng(2)
    g = Grid((Axis(16, 0.5), Axis(8, 0.25)))
    f = GridFunction(g, rng.normal(size=(16, 8)) + 1j * rng.normal(size=(16, 8)))
    got = partial_dft(f, (1,))
    expected = oracles.dense_dft_apply(f.values, (0.5, 0.25), axes=(1,))
    assert np.max(np.abs(got.values - expected)) < 1e-12
    assert got.grid.axes[0].close_to(g.axes[0])
    assert got.grid.axes[1].close_to(g.axes[1].dual())


def test_partial_dft_both_axes_matches_dense_oracle():
    rng = np.random.default_rng(3)
    g = Grid((Axis(8, 0.7), Axis(8, 0.3)))
    f = GridFunction(g, rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    got = partial_dft(f, (0, 1))
    expected = oracles.dense_dft_apply(f.values, (0.7, 0.3))
    assert np.max(np.abs(got.values - expected)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_round_trip_and_parseval(seed):
    rng = np.random.default_rng(seed)
    g = Grid.regular(1, 64, 6.0)
    f = GridFunction(g, rng.normal(size=64) + 1j * rng.normal(size=64))
    back = partial_idft(partial_dft(f, (0,)), (0,))
    assert np.max(np.abs(back.values - f.values)) < 1e-12
    assert lp_norm(partial_dft(f, (0,)), 2.0) == pytest.approx(lp_norm(f, 2.0), rel=1e-12)


def test_partial_idft_inverts_partial_dft():
    rng = np.random.default_rng(4)
    g = Grid((Axis(8, 0.7), Axis(16, 0.3)))
    f = GridFunction(g, rng.normal(size=(8, 16)) + 1j * rng.normal(size=(8, 16)))
    back = partial_idft(partial_dft(f, (1,)), (1,))
    assert np.max(np.abs(back.values - f.values)) < 1e-12
    assert back.grid.close_to(g)


def test_dft_of_standard_gaussian_is_itself():
    g = Grid.selfdual(1, 64)
    f = GaussianChirp.standard(1).sample(g)
    out = partial_dft(f, (0,))
    assert np.max(np.abs(out.values - f.values)) < 1e-13


# --------------------------------------------------------------------------
# norms


def test_lp_norm_matches_gaussian_closed_form():
    g = Grid.regular(1, 512, 8.0)
    for a in (0.5, 1.0, 2.0):
        f = GaussianChirp.dilated(1, a).sample(g)
        for p in (1.0, 2.0, 4.0):
            assert lp_norm(f, p) == pytest.approx(oracles.gauss_lp_norm(a, p), rel=1e-12)
        assert lp_norm(f, np.inf) == pytest.approx(1.0)


def test_lp_norm_rejects_nonpositive_exponent():
    g = Grid.regular(1, 16, 4.0)
    f = GaussianChirp.standard(1).sample(g)
    with pytest.raises(ValueError):
        lp_norm(f, 0.0)


def test_lpq_norm_splits_separable_functions():
    g1 = Grid.regular(1, 256, 8.0)
    f = GaussianChirp.dilated(1, 2.0).sample(g1)
    h = GaussianChirp.dilated(1, 0.5).sample(g1)
    prod = GridFunction(Grid(g1.axes * 2), np.multiply.outer(f.values, h.values))
    for p, q in ((1.0, 1.0), (1.0, 2.0), (2.0, np.inf), (np.inf, 1.0)):
        expected = lp_norm(f, p) * lp_norm(h, q)
        assert lpq_norm(prod, p, q) == pytest.approx(expected, rel=1e-12)


def test_lpq_norm_requires_split_for_odd_dimensions():
    g = Grid.regular(1, 16, 4.0)
    f = GaussianChirp.standard(1).sample(g)
    with pytest.raises(ValueError):
        lpq_norm(f, 2.0, 2.0)


def test_lpq_norm_explicit_split_bounds():
    g = Grid.regular(2, 16, 4.0)
    f = GaussianChirp.standard(2).sample(g)
    with pytest.raises(ValueError):
        lpq_norm(f, 2.0, 2.0, split=0)
    with pytest.raises(ValueError):
        lpq_norm(f, 2.0, 2.0, split=2)


# --------------------------------------------------------------------------
# inner products and phase alignment


def test_herm_inner_weights_and_grid_check():
    g = Grid.regular(1, 32, 4.0)
    rng = np.random.default_rng(5)
    f = GridFunction(g, rng.normal(size=32) + 1j * rng.normal(size=32))
    h = GridFunction(g, rng.normal(size=32) + 1j * rng.normal(size=32))
    direct = np.sum(f.values * np.conj(h.values)) * g.weight
    assert herm_inner(f, h) == pytest.approx(direct)
    other = GaussianChirp.standard(1).sample(Grid.regular(1, 32, 5.0))
    with pytest.raises(ValueError):
        herm_inner(f, other)


def test_phase_align_distance_detects_global_phase_only():
    g = Grid.regular(1, 64, 6.0)
    f = GaussianChirp.standard(1).sample(g)
    rotated = f.with_values(np.exp(1j * 0.7) * f.values)
    assert phase_align_distance(rotated, f) < 1e-12
    shifted = GaussianChirp.standard(1).tf_shift(np.array([0.5]), np.zeros(1)).sample(g)
    assert phase_align_distance(shifted, f) > 0.1
    zero = f.with_values(np.zeros_like(f.values))
    with pytest.raises(ValueError):
        phase_align_distance(f, zero)


# --------------------------------------------------------------------------
# one GridFunction per public result


def test_each_public_result_builds_one_grid_function(monkeypatch):
    g = Grid.selfdual(2, 8)
    f = GaussianChirp.standard(2).sample(g)
    h = GaussianChirp(1.0, 1j * np.eye(2), np.array([0.1, -0.2])).sample(g)
    symbol = wigner(GaussianChirp.standard(1).sample(Grid.selfdual(1, 16)))
    built = []
    init = GridFunction.__init__

    def counted(self, grid, values):
        built.append(grid)
        init(self, grid, values)

    monkeypatch.setattr(GridFunction, "__init__", counted)
    calls = {
        "wigner": lambda: wigner(f, h),
        "stft": lambda: stft(f, h),
        "rihacek": lambda: rihacek(f, h),
        "multiplier_apply": lambda: multiplier_apply(np.array([[0.3, 0.1], [0.1, -0.2]]), f),
        "tf_shift": lambda: tf_shift(f, [0.3, -0.1], [0.2, 0.4], 0.1),
        "partial_dft": lambda: partial_dft(f, (1,)),
        "partial_idft": lambda: partial_idft(f, (0, 1)),
        "opA_build": lambda: opA_build(symbol, wigner_projection(1)),
    }
    counts = {}
    for name, call in calls.items():
        built.clear()
        call()
        counts[name] = len(built)
    assert counts == {**{name: 1 for name in calls}, "opA_build": 0}
