"""Tests for the symbol-to-operator quantization layer.

The defining property is duality against the matrix's distribution,
    < Op(a) f, g > = < a, W_A(g, f) >,
checked with weighted lattice inner products on raw random data (the
discrete construction makes it an identity, so the bar is roundoff), plus
an O(n^4) brute-force matrix oracle on a tiny grid.
"""

import math

import numpy as np
import pytest

from metaplectic.metaplectic_numeric import GaussianChirp, apply_metaplectic
from metaplectic.metaplectic_numeric.distributions import (
    rihacek_projection,
    stft,
    stft_projection,
    tensor_with_conj,
    wigner,
    wigner_projection,
)
from metaplectic.metaplectic_numeric.grid import Axis, Grid, GridFunction, herm_inner
from metaplectic.metaplectic_numeric.quantize import (
    MAX_OPERATOR_POINTS,
    _wigner_pairing,
    opA_apply,
    opA_build,
)

from oracles import _gather_index, opA_oracle_wigner, scattered_wigner_adjoint


def _wigner_symbol_grid(grid):
    return Grid(grid.axes + tuple(Axis(ax.n, ax.dual().step / 2.0) for ax in grid.axes))


def _random_function(grid, seed):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    return GridFunction(grid, vals)


def test_constant_symbol_gives_identity():
    grid = Grid((Axis(8, 0.5),))
    a = GridFunction(_wigner_symbol_grid(grid), np.ones((8, 8)))
    K = opA_build(a, wigner_projection(1))
    assert np.max(np.abs(K - np.eye(8))) == 0.0


def test_duality_identity_on_random_data():
    grid = Grid.regular(1, 32, 5.0)
    f = _random_function(grid, 0)
    g = _random_function(grid, 1)
    a = _random_function(_wigner_symbol_grid(grid), 2)
    K = opA_build(a, wigner_projection(1))
    lhs = herm_inner(opA_apply(K, f), g)
    rhs = herm_inner(a, wigner(g, f))
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_matches_brute_force_matrix_oracle():
    n, step = 8, 0.5
    grid = Grid((Axis(n, step),))
    a = _random_function(_wigner_symbol_grid(grid), 3)
    K = opA_build(a, wigner_projection(1))
    expected = opA_oracle_wigner(a.values, n, step)
    assert np.max(np.abs(K - expected)) < 1e-10 * np.max(np.abs(expected))


def test_real_symbol_gives_self_adjoint_operator():
    grid = Grid.regular(1, 16, 4.0)
    rng = np.random.default_rng(4)
    a = GridFunction(_wigner_symbol_grid(grid), rng.normal(size=(16, 16)))
    K = opA_build(a, wigner_projection(1))
    assert np.max(np.abs(K - K.conj().T)) < 1e-12 * np.max(np.abs(K))


def test_gaussian_wigner_symbol_acts_as_scaled_projector():
    # quantizing W(g0, g0) gives (by the orthogonality relation, with the
    # lattice's 2^d factor) a positive rank-one-dominated operator with
    # < K g0, g0 > = 2^d ||g0||^4
    grid = Grid.selfdual(1, 64)
    g0 = GaussianChirp.standard(1).sample(grid)
    w0 = wigner(g0, g0)
    K = opA_build(GridFunction(w0.grid, w0.values), wigner_projection(1))
    val = herm_inner(opA_apply(K, g0), g0)
    l2sq = herm_inner(g0, g0).real
    assert np.isclose(val.real, 2.0 * l2sq**2, rtol=1e-10, atol=0)
    assert abs(val.imag) < 1e-12
    eigs = np.linalg.eigvalsh(0.5 * (K + K.conj().T))
    assert eigs.min() > -1e-12


def test_generic_matrix_duality():
    # a non-Wigner matrix goes through the factorization pipeline and its
    # stage-by-stage adjoint; duality still holds to roundoff
    for A in (rihacek_projection(1), stft_projection(1)):
        grid = Grid.selfdual(1, 16)
        f = GaussianChirp.standard(1).sample(grid)
        g = GaussianChirp.dilated(1, 1.3).sample(grid)
        w = apply_metaplectic(A, tensor_with_conj(g, f))
        mesh = w.grid.meshgrid()
        vals = np.exp(-0.7 * (mesh[0] ** 2 + mesh[1] ** 2)) * np.exp(0.3j * mesh[0])
        a = GridFunction(w.grid, vals)
        K = opA_build(a, A)
        lhs = herm_inner(opA_apply(K, f), g)
        rhs = herm_inner(a, w)
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_symbol_must_live_on_doubled_grid():
    a = _random_function(Grid((Axis(8, 0.5),)), 5)
    with pytest.raises(ValueError, match="doubled"):
        opA_build(a, wigner_projection(1))


def test_symbol_dimension_must_match_matrix():
    grid = Grid.regular(1, 16, 4.0)
    a = _random_function(_wigner_symbol_grid(grid), 6)
    with pytest.raises(ValueError, match="phase-space coordinates"):
        opA_build(a, wigner_projection(2))


def test_wigner_symbol_grid_validated():
    # frequency axes must sit on the half-step dual lattice
    grid = Grid.regular(1, 16, 4.0)
    a = _random_function(Grid(grid.axes + grid.axes), 7)
    with pytest.raises(ValueError, match="half-step dual lattice"):
        opA_build(a, wigner_projection(1))


def test_generic_symbol_grid_validated():
    # for a pipeline matrix the symbol must sit on that matrix's output grid
    grid = Grid.regular(1, 16, 4.0)
    a = _random_function(Grid(grid.axes + grid.axes), 8)
    with pytest.raises(ValueError, match="output grid"):
        opA_build(a, rihacek_projection(1))


def test_stft_symbol_on_a_grid_that_is_not_self_dual_names_the_grid_requirement():
    # the symbol sits on the STFT's own output grid, but the adjoint's
    # rescaling swaps its space and frequency axes, whose steps differ
    f = GaussianChirp.standard(1).sample(Grid.regular(1, 64, 5.0))
    with pytest.raises(ValueError, match=r"permutes grid axes 1 and 2.*on the symbol grid"):
        opA_build(stft(f, f), stft_projection(1))


def test_dense_operator_size_guard():
    n = MAX_OPERATOR_POINTS + 2
    sig = Axis(n, 0.01)
    symbol_grid = Grid((sig, Axis(n, sig.dual().step / 2.0)))
    a = GridFunction(symbol_grid, np.zeros((n, n), dtype=complex))
    with pytest.raises(ValueError, match="limit is"):
        opA_build(a, wigner_projection(1))


def test_opA_apply_checks_shape():
    grid = Grid.regular(1, 16, 4.0)
    f = _random_function(grid, 9)
    with pytest.raises(ValueError, match="operator is"):
        opA_apply(np.eye(8), f)


# --------------------------------------------------------------------------
# the Wigner adjoint's scatter indices, read through grid.periodic_reads

PAIRING_SHAPES = [(6,), (8,), (512,), (4, 6), (4, 6, 2)]


@pytest.mark.parametrize("shape", PAIRING_SHAPES)
def test_wigner_pairing_equals_the_gathered_indices(shape):
    doubled = shape + shape
    gathered = _gather_index(shape, 1, 1, ()) + _gather_index(shape, 1, -1, ())
    pairing = _wigner_pairing(shape)
    assert len(pairing) == len(gathered) == 2 * len(shape)
    for idx, expected in zip(pairing, gathered):
        assert idx.dtype == expected.dtype
        assert np.array_equal(np.broadcast_to(idx, doubled), np.broadcast_to(expected, doubled))


@pytest.mark.parametrize("shape", PAIRING_SHAPES)
def test_wigner_pairing_stays_at_n_squared_entries(shape):
    doubled = shape + shape
    for idx, n in zip(_wigner_pairing(shape), shape * 2):
        assert np.broadcast_shapes(doubled, idx.shape) == doubled
        assert idx.size <= n * n


def test_wigner_pairing_reads_x_plus_u_and_x_minus_u_periodically():
    # one axis of 6 points, centre 3, by direct periodic arithmetic
    plus, minus = _wigner_pairing((6,))
    j, k = np.meshgrid(np.arange(6), np.arange(6), indexing="ij")
    assert np.array_equal(plus, (j + k - 3) % 6)
    assert np.array_equal(minus, (j - k + 3) % 6)


@pytest.mark.parametrize("shape", [(6,), (512,), (8, 8), (4, 6)])
def test_wigner_opA_build_equals_the_scattered_adjoint_bitwise(shape):
    grid = Grid(tuple(Axis(n, 0.3 + 0.1 * ax) for ax, n in enumerate(shape)))
    a = wigner(_random_function(grid, 10), _random_function(grid, 11))
    K = opA_build(a, wigner_projection(len(shape)))
    npts = math.prod(shape)
    expected = grid.weight * scattered_wigner_adjoint(a).reshape(npts, npts)
    assert K.tobytes() == expected.tobytes()
