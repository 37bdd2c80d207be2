"""Sampled operator stages against closed forms and the dense kernel oracle."""

import functools
import math
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaplectic.metaplectic_numeric import operators
from metaplectic.metaplectic_numeric.grid import row_blocks
from metaplectic.metaplectic_numeric import (
    Axis,
    GaussianChirp,
    Grid,
    GridFunction,
    apply_metaplectic,
    chirp_apply,
    lp_norm,
    multiplier_apply,
    partial_dft,
    partial_ft,
    phase_align_distance,
    rescale_apply,
    rihacek_projection,
    stft_projection,
    tf_shift,
    wigner_metaplectic,
)
from metaplectic.symplectic_core import (
    IndexSet,
    SymplecticMatrix,
    chirp_block,
    dilation_block,
    dj_factorize,
    interchange,
    multiplier_block,
    random_symplectic,
    standard_involution,
)

import oracles
from oracles import (
    chirp_full_ft,
    chirp_l2_inner,
    chirp_lp_norm,
    chirp_rescale,
    free_apply_direct,
    gaussian_apply,
    gaussian_integral,
)


def _sample_chirp(seed, d=1):
    """A decaying random Gaussian chirp (positive-definite imaginary part)."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(d, d))
    im = w @ w.T + 0.4 * np.eye(d)
    re = rng.normal(size=(d, d))
    re = 0.3 * (re + re.T)
    b = 0.4 * (rng.normal(size=d) + 1j * rng.normal(size=d))
    return GaussianChirp(1.0, re + 1j * im, b)


# --------------------------------------------------------------------------
# gaussian chirp closed forms vs sampling


def test_gaussian_integral_matches_riemann_sum():
    # integral of exp(i pi x.Mx + 2 pi i b.x); checked against a wide dense
    # Riemann sum rather than a closed form (no branch-cut guessing)
    M = np.array([[0.3 + 1.2j]])
    b = np.array([0.25 - 0.1j])
    val = gaussian_integral(M, b)
    x = (np.arange(4096) - 2048) * (40.0 / 4096)
    integrand = np.exp(1j * np.pi * M[0, 0] * x**2 + 2j * np.pi * b[0] * x)
    riemann = np.sum(integrand) * (40.0 / 4096)
    assert abs(val - riemann) < 1e-10
    with pytest.raises(ValueError):
        gaussian_integral(np.array([[1.0 - 0.5j]]), np.zeros(1))


def test_gaussian_chirp_full_ft_matches_grid_transform():
    gc = _sample_chirp(0)
    g = Grid.regular(1, 128, 8.0)
    lhs = partial_dft(gc.sample(g), (0,))
    rhs = chirp_full_ft(gc).sample(lhs.grid)
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10


def test_gaussian_chirp_partial_ft_inverse_round_trip():
    gc = _sample_chirp(1, d=2)
    back = gc.partial_ft((0,)).partial_ft((0,), inverse=True)
    g = Grid.regular(2, 32, 6.0)
    assert np.max(np.abs(back.sample(g).values - gc.sample(g).values)) < 1e-10


def test_gaussian_chirp_lp_norm_closed_form():
    gc = GaussianChirp.dilated(1, 3.0)
    for p in (1.0, 2.0, 4.0):
        assert chirp_lp_norm(gc, p) == pytest.approx(oracles.gauss_lp_norm(3.0, p), rel=1e-12)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GaussianChirp(np.inf, 1j * np.eye(1), [0.0]), "must be finite"),
        (lambda: GaussianChirp(1.0, [[1j, np.nan], [np.nan, 1j]], [0.0, 0.0]), "must be finite"),
        (lambda: GaussianChirp(1.0, 1j * np.eye(1), [complex(0.0, np.inf)]), "must be finite"),
        (lambda: GaussianChirp.dilated(2, [1.0, np.nan]), "dilation scales must be finite"),
        (lambda: GaussianChirp.dilated(1, np.inf), "dilation scales must be finite"),
        (lambda: GaussianChirp.dilated(1, -np.inf), "dilation scales must be positive"),
        (lambda: GaussianChirp.standard(2).tf_shift([0.0, np.inf], 0.0), "shifts must be finite"),
        (lambda: GaussianChirp.standard(1).tf_shift(0.0, np.nan), "shifts must be finite"),
        (lambda: GaussianChirp.standard(1).tf_shift(0.0, 0.0, tau=np.inf), "shifts must be finite"),
    ],
    ids=["gamma", "M", "b", "scale-nan", "scale-inf", "scale-minus-inf", "shift", "modulation", "tau"],
)
def test_gaussian_chirp_refuses_non_finite_parameters(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: GaussianChirp(1.0, [[1j, 1 + 5e-6], [1, 1j]], [0.0, 0.0]),
        lambda: GaussianChirp.standard(2).chirp([[1.0, 1 + 5e-6], [1.0, 1.0]]),
    ],
    ids=["M", "chirp"],
)
def test_gaussian_chirp_symmetry_is_the_matrix_layers_rule(build):
    # an asymmetry of 5e-6 is past tolerances.require_symmetric's 1e-8 *
    # max(1, max|M|), which chirp_block applies; np.allclose's default rtol
    # of 1e-5 used to let it through here
    with pytest.raises(ValueError, match="quadratic form matrix must be symmetric"):
        build()


def test_gaussian_chirp_modulate_and_shift_sampling():
    gc = GaussianChirp.standard(1).tf_shift(np.array([0.75]), np.array([-0.5]))
    g = Grid.regular(1, 128, 8.0)
    x = g.axes[0].points()
    direct = np.exp(-np.pi * (x - 0.75) ** 2) * np.exp(2j * np.pi * (-0.5) * x)
    got = gc.sample(g).values
    # global phase free (the shift convention fixes phase only up to tau)
    num = np.vdot(direct, got)
    phase = num / abs(num)
    assert np.max(np.abs(got - phase * direct)) < 1e-12


# --------------------------------------------------------------------------
# single stages


def test_chirp_apply_is_pointwise_quadratic_phase():
    g = Grid.regular(1, 64, 6.0)
    f = _sample_chirp(2).sample(g)
    q = np.array([[0.8]])
    got = chirp_apply(q, f)
    x = g.axes[0].points()
    # association of the float phase products differs by a few ulp, which
    # the large phase arguments at the box edge amplify to ~1e-12
    assert np.max(np.abs(got.values - f.values * np.exp(1j * np.pi * 0.8 * x**2))) < 1e-11


def test_multiplier_apply_matches_dense_conjugation():
    g = Grid.regular(1, 64, 6.0)
    f = _sample_chirp(3).sample(g)
    p = np.array([[-0.6]])
    got = multiplier_apply(p, f)
    F = oracles.dense_dft_matrix(64, g.axes[0].step)
    xi = oracles.axis_points(64, oracles.dual_step(64, g.axes[0].step))
    spec = F @ f.values
    spec *= np.exp(-1j * np.pi * (-0.6) * xi**2)
    expected = np.linalg.solve(F, spec)
    assert np.max(np.abs(got.values - expected)) < 1e-10


def test_partial_ft_matches_dense_oracle_on_selected_axis():
    rng = np.random.default_rng(4)
    g = Grid.regular(2, 16, 4.0)
    f = GridFunction(g, rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
    got = partial_ft(f, IndexSet(2, (2,)))
    expected = oracles.dense_dft_apply(f.values, (0.5, 0.5), axes=(1,))
    assert np.max(np.abs(got.values - expected)) < 1e-12
    same = partial_ft(f, IndexSet(2, ()))
    assert same is f


def test_rescale_apply_scalar_axis_matches_closed_form():
    g = Grid.regular(1, 128, 8.0)
    gc = GaussianChirp.standard(1)
    f = gc.sample(g)
    got = rescale_apply(np.array([[1.7]]), f)
    x = g.axes[0].points()
    expected = np.sqrt(1.7) * np.exp(-np.pi * (1.7 * x) ** 2)
    # spectral synthesis reads the periodic extension once 1.7 x leaves the
    # box, so compare where the scaled argument stays inside
    inside = np.abs(1.7 * x) <= 0.9 * g.axes[0].extent
    assert np.max(np.abs(got.values - expected)[inside]) < 1e-12


# the blocked synthesis must reproduce the whole-kernel product bit for bit;
# CI reruns the tests named "bitwise" with one BLAS thread
BITWISE_SCALES = (0.37, 1.37, -1.3, -2.4967)


def _random_function(grid, seed):
    rng = np.random.default_rng(seed)
    return GridFunction(grid, rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape))


@pytest.mark.parametrize("n", [8, 64, 512, 4096])
def test_rescale_apply_bitwise_equals_whole_kernel(n):
    f = _random_function(Grid.selfdual(1, n), n)
    ax = f.grid.axes[0]
    for a in BITWISE_SCALES:
        if n <= 512:
            # the oracle builds its kernel in place; its bytes are the one
            # expression's
            dual = ax.dual()
            one = np.exp(2j * math.pi * np.outer(a * ax.points(), dual.points())) * dual.step
            assert oracles.dense_kernel(ax, a).tobytes() == one.tobytes(), a
        got = rescale_apply([[a]], f).values
        assert np.array_equal(got, oracles.dense_axis_scale(f, 0, a).values), a


def test_rescale_apply_bitwise_equals_whole_kernel_on_each_axis_in_2d():
    f = _random_function(Grid((Axis(32, 0.21), Axis(24, 0.35))), 2)
    for a in BITWISE_SCALES:
        for axis in (0, 1):
            L = np.eye(2)
            L[axis, axis] = a
            got = rescale_apply(L, f).values
            assert np.array_equal(got, oracles.dense_axis_scale(f, axis, a).values), (a, axis)


def test_rescale_apply_bitwise_folds_a_leftover_row(monkeypatch):
    # 7 rows per block leaves 64 = 9 * 7 + 1: the last row must join the
    # last block, since a one-row product rounds differently
    monkeypatch.setattr(operators, "KERNEL_BLOCK_BYTES", 7 * 16 * 64)
    f = _random_function(Grid.selfdual(1, 64), 7)
    for a in BITWISE_SCALES:
        got = rescale_apply([[a]], f).values
        assert np.array_equal(got, oracles.dense_axis_scale(f, 0, a).values), a


# the kernel computes about a quarter of its entries and mirrors the rest,
# columns within a block and lower blocks from upper ones; it must match the
# per-entry kernel in the same blocks of rows, since BLAS may round a
# product differently with the number of rows it is given.  At 4 rows
# axis-20 has 5 blocks, the middle one alone, and at 7 rows 2 blocks with 6
# leftover rows; at 5 rows axis-36 has 7 blocks and one leftover row, so a
# lower block mirrors rows of its pair's upper block and two rows of the
# next, and selfdual-4096 has 819 blocks and one leftover row
BLOCKED_GRIDS = {
    "selfdual-8": Grid.selfdual(1, 8),
    "selfdual-64": Grid.selfdual(1, 64),
    "selfdual-512": Grid.selfdual(1, 512),
    "selfdual-4096": Grid.selfdual(1, 4096),
    "regular-1024": Grid.regular(1, 1024, 7.0),
    "axis-20": Grid((Axis(20, 0.17),)),
    "axis-36": Grid((Axis(36, 0.2),)),
    "axis-100": Grid((Axis(100, 0.1),)),
    "32x24": Grid((Axis(32, 0.21), Axis(24, 0.35))),
    "256x16": Grid((Axis(256, 0.13), Axis(16, 0.4))),
    "16x256": Grid((Axis(16, 0.4), Axis(256, 0.13))),
    "2x6": Grid((Axis(2, 0.3), Axis(6, 0.5))),
}

#: -1e-300 underflows the phase to signed zeros and subnormals
MIRROR_SCALES = BITWISE_SCALES + (0.5, 2.0, 3.0, 1e-3, -1e-300)


#: rows a block for each grid; None keeps the default KERNEL_BLOCK_BYTES,
#: which is 4 rows at n = 4096, so selfdual-4096 skips 4
BLOCKED_CASES = [
    (name, rows)
    for name in sorted(BLOCKED_GRIDS)
    for rows in (2, 4, 5, 7, None)
    if (name, rows) != ("selfdual-4096", 4)
]
DEFAULT_KERNEL_BLOCK_BYTES = operators.KERNEL_BLOCK_BYTES


def _rows_per_block(rows, n):
    size = DEFAULT_KERNEL_BLOCK_BYTES if rows is None else rows * 16 * n
    return max(2, -(-size // (16 * n)))


@functools.lru_cache(maxsize=2 * len(MIRROR_SCALES))
def _blocked_oracle(name, axis, a):
    # one pass over the per-entry kernel gives the blocked rescaling for
    # every rows value of the grid, by rows; a grid's cases run in a row, so
    # the cache holds one grid's axes and scales
    grid = BLOCKED_GRIDS[name]
    f = _random_function(grid, sum(grid.shape))
    rows_values = [rows for case, rows in BLOCKED_CASES if case == name]
    ks = [_rows_per_block(rows, grid.shape[axis]) for rows in rows_values]
    return dict(zip(rows_values, oracles.blocked_axis_scales(f, axis, a, ks)))


@pytest.mark.parametrize("name, rows", BLOCKED_CASES)
def test_rescale_apply_bitwise_equals_the_blocked_per_entry_kernel(monkeypatch, name, rows):
    # besides the bytes: the blocks are built on the worker threads (both
    # halves of the block pairs on the one worker when the process has one
    # CPU), and the kernel takes the exps of about a quarter of its entries,
    # at most n^2/4 + 2kn for k rows a block
    threads, exps = set(), []
    kernel_block, mirrored_exps = operators._kernel_block, operators.mirrored_exps

    def recorded(*args):
        threads.add(threading.current_thread())
        return kernel_block(*args)

    def counted(out, d, fill):
        def fill_counted(sl, part):
            exps.append(part.size)
            fill(sl, part)

        return mirrored_exps(out, d, fill_counted)

    monkeypatch.setattr(operators, "_kernel_block", recorded)
    monkeypatch.setattr(operators, "mirrored_exps", counted)
    grid = BLOCKED_GRIDS[name]
    f = _random_function(grid, sum(grid.shape))
    for axis in range(grid.d):
        n = grid.shape[axis]
        k = _rows_per_block(rows, n)
        if rows is not None:  # else the default KERNEL_BLOCK_BYTES
            monkeypatch.setattr(operators, "KERNEL_BLOCK_BYTES", rows * 16 * n)
        for a in MIRROR_SCALES:
            L = np.eye(grid.d)
            L[axis, axis] = a
            threads.clear()
            exps.clear()
            got = rescale_apply(L, f).values
            want = _blocked_oracle(name, axis, a)[rows].values
            assert got.tobytes() == want.tobytes(), (a, axis)
            assert threads and threading.main_thread() not in threads, (a, axis)
            assert sum(exps) <= n * n / 4 + 2 * k * n, (a, axis, sum(exps))


@settings(max_examples=200, deadline=None)
@given(half=st.integers(1, 4096), step=st.floats(1e-150, 1e150))
def test_centered_lattice_points_mirror_bitwise(half, step):
    # the mirror rests on x[h - j] = -x[h + j], j = 1..h-1, on both lattices
    j = np.arange(1, half)
    for ax in (Axis(2 * half, step), Axis(2 * half, step).dual()):
        p = ax.points()
        assert p[half + j].tobytes() == (-p[half - j]).tobytes()


@pytest.mark.parametrize("n", [2, 8, 64, 100])
@pytest.mark.parametrize("a", [0.37, -1.3, -1e-300])
def test_kernel_block_bitwise_equals_its_exps(n, a):
    ax = Axis(n, 0.17)
    dual, h = ax.dual(), n // 2
    a_x, xi = a * ax.points(), dual.points()
    want = np.exp(2j * np.pi * np.outer(a_x, xi)) * dual.step
    got = operators._kernel_block(a_x, xi, dual.step, np.empty((n, n), dtype=complex))
    assert got.tobytes() == want.tobytes()
    # the a x = 0 row and the xi = 0 column, where a zero phase keeps its
    # +0 imaginary part (np.conj of a mirrored entry would give -0)
    assert got[h].tobytes() == want[h].tobytes()
    assert got[:, h].tobytes() == want[:, h].tobytes()
    assert not np.signbit(got[h].imag).any()


@pytest.mark.parametrize(
    "n, rows", [(2, 2), (6, 4), (8, 2), (20, 4), (20, 7), (36, 5), (64, 7), (100, 3)]
)
@pytest.mark.parametrize("a", [0.37, -1.3, -1e-300])
def test_kernel_rows_bitwise_equal_their_exps(n, rows, a):
    # every block, built or mirrored from upper rows, has the bytes of the
    # per-entry kernel, signed zeros included (np.conj would give -0 where
    # the exp gives +0, which no BLAS product shows); the two halves cover
    # each block once
    ax = Axis(n, 0.17)
    dual = ax.dual()
    a_x, xi = a * ax.points(), dual.points()
    want = np.exp(2j * np.pi * np.outer(a_x, xi)) * dual.step
    blocks = row_blocks(n, rows)
    seen = []
    for part in operators._kernel_halves(blocks):
        for block, kernel in operators._kernel_rows(a_x, xi, dual.step, blocks, part):
            assert kernel.tobytes() == want[block].tobytes(), block
            seen.append(block)
    assert sorted(seen, key=lambda b: b.start) == blocks


def test_rescale_apply_memory_is_a_few_kernel_blocks():
    # the whole 4096 x 4096 kernel would be three 268 MB temporaries
    f = GaussianChirp.standard(1).sample(Grid.selfdual(1, 4096))
    tracemalloc.start()
    try:
        rescale_apply([[1.37]], f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_rescale_apply_signed_permutation_is_exact_index_move():
    rng = np.random.default_rng(5)
    g = Grid.regular(2, 16, 4.0)
    f = GridFunction(g, rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
    perm = np.array([[0.0, 1.0], [-1.0, 0.0]])  # (x1, x2) -> (x2, -x1)
    got = rescale_apply(perm, f)
    n = 16
    # value at lattice point (x1_i, x2_j) is f(x2_j, -x1_i); the index of
    # -x_k on a centered axis is (n - k) mod n
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    expected = f.values[jj, (n - ii) % n]
    assert np.max(np.abs(got.values - expected)) < 1e-13


def _in_box_mask(grid, L, frac=0.9):
    """Lattice points whose image under L stays inside the sampling box."""
    mesh = grid.meshgrid()
    ok = np.ones(grid.shape, dtype=bool)
    for i in range(grid.d):
        arg = sum(L[i, j] * mesh[j] for j in range(grid.d))
        ok &= np.abs(arg) <= frac * grid.axes[i].extent
    return ok


def test_rescale_apply_shear_matches_gaussian_closed_form():
    # n = 128 on [-8, 8) puts the dual box at +-4 where the standard
    # Gaussian's spectrum has decayed to 1e-22, so the ramp is exact; the
    # comparison masks corners whose sheared argument leaves the box
    g = Grid.regular(2, 128, 8.0)
    gc = GaussianChirp.dilated(2, 1.0)
    L = np.array([[1.0, 0.6], [0.0, 1.0]])
    got = rescale_apply(L, gc.sample(g))
    expected = chirp_rescale(gc, L).sample(g)
    mask = _in_box_mask(g, L)
    assert np.max(np.abs(got.values - expected.values)[mask]) < 1e-10


def test_rescale_apply_general_matrix_matches_gaussian_closed_form():
    # mild chirp so that the instantaneous frequency stays inside the dual box
    rng = np.random.default_rng(6)
    re = rng.normal(size=(2, 2))
    gc = GaussianChirp(1.0, 0.15 * (re + re.T) + 1j * np.eye(2), np.zeros(2))
    g = Grid.regular(2, 256, 8.0)
    L = np.array([[1.3, 0.5], [-0.4, 0.9]])
    got = rescale_apply(L, gc.sample(g))
    expected = chirp_rescale(gc, L).sample(g)
    mask = _in_box_mask(g, L)
    assert np.max(np.abs(got.values - expected.values)[mask]) < 1e-8


def test_rescale_apply_rejects_singular_matrix():
    g = Grid.regular(1, 16, 4.0)
    f = GaussianChirp.standard(1).sample(g)
    with pytest.raises(ValueError):
        rescale_apply(np.array([[0.0]]), f)


def test_gaussian_rescale_uses_the_shared_invertibility_cutoff():
    # det 1e-15 is nonzero, but far below the relative singular-value cutoff
    L = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    with pytest.raises(ValueError, match="must be invertible"):
        dilation_block(L)
    with pytest.raises(ValueError, match="must be invertible"):
        chirp_rescale(GaussianChirp.standard(2), L)


def test_tf_shift_off_lattice_matches_closed_form():
    g = Grid.regular(1, 128, 8.0)
    f = GaussianChirp.standard(1).sample(g)
    x0, xi0 = np.array([0.3137]), np.array([-0.41])
    got = tf_shift(f, x0, xi0)
    expected = GaussianChirp.standard(1).tf_shift(x0, xi0).sample(g)
    # phase_align_distance bottoms out near 1e-8 (cancellation in the
    # norm-overlap gap), so this asserts agreement at that floor
    assert phase_align_distance(got, expected) < 1e-7


# --------------------------------------------------------------------------
# pipeline vs dense kernel oracle vs gaussian closed forms


def test_apply_metaplectic_fourier_case_is_dft():
    g = Grid.selfdual(1, 64)
    f = _sample_chirp(7).sample(g)
    got = apply_metaplectic(standard_involution(1), f)
    expected = partial_dft(f, (0,))
    assert phase_align_distance(got, expected) < 1e-10


def test_apply_metaplectic_matches_dense_kernel_oracle_free_case():
    # matrices with |A/B| and |D/B| of order one keep the oracle's
    # oscillatory kernel inside the lattice Nyquist band, where its plain
    # Riemann quadrature is trustworthy
    g = Grid.selfdual(1, 128)
    step = g.axes[0].step
    f = _sample_chirp(8).sample(g)
    mats = [
        np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
        for t in np.deg2rad((50.0, 90.0, 130.0))
    ]
    mats.append(np.array([[1.0, 1.0], [-0.5, 0.5]]))
    for mat in mats:
        s = SymplecticMatrix(mat)
        got = apply_metaplectic(s, f)
        K = oracles.free_kernel_matrix(s.mat, 128, step, out_points=got.grid.axes[0].points())
        expected = got.with_values(K @ f.values)
        assert phase_align_distance(got, expected) < 1e-4


def test_free_apply_direct_agrees_with_pipeline():
    g = Grid.selfdual(1, 128)
    f = _sample_chirp(9).sample(g)
    s = random_symplectic(21, 1)
    assert abs(s.B[0, 0]) > 0.2
    via_pipeline = apply_metaplectic(s, f)
    direct = free_apply_direct(s, f)
    assert via_pipeline.grid.close_to(direct.grid)
    assert phase_align_distance(direct, via_pipeline) < 1e-8


def test_apply_metaplectic_matches_gaussian_closed_form():
    # seeds chosen so the transformed chirp rates stay inside the lattice
    # Nyquist band; wilder products alias on any fixed grid
    g = Grid.regular(1, 256, 12.0)
    gc = _sample_chirp(10)
    for seed in (0, 3, 4, 7, 9):
        s = random_symplectic(seed, 1)
        got = apply_metaplectic(s, gc.sample(g))
        expected = gaussian_apply(s, gc).sample(got.grid)
        assert phase_align_distance(got, expected) < 1e-6, f"seed {seed}"


def test_apply_metaplectic_accepts_prefactorized_input():
    g = Grid.selfdual(1, 64)
    f = GaussianChirp.standard(1).sample(g)
    s = random_symplectic(41, 1)
    fact = dj_factorize(s)
    a = apply_metaplectic(s, f)
    b = apply_metaplectic(fact, f)
    assert np.max(np.abs(a.values - b.values)) == 0.0


def test_apply_metaplectic_composes_up_to_phase():
    g = Grid.selfdual(1, 128)
    gc = GaussianChirp.standard(1)
    s1 = random_symplectic(51, 1)
    s2 = random_symplectic(52, 1)
    prod = SymplecticMatrix(s2.mat @ s1.mat)
    once = apply_metaplectic(prod, gc.sample(g))
    twice = apply_metaplectic(s2, apply_metaplectic(s1, gc.sample(g)))
    if not once.grid.close_to(twice.grid):
        expected = gaussian_apply(prod, gc).sample(twice.grid)
        assert phase_align_distance(twice, expected) < 1e-6
    else:
        assert phase_align_distance(twice, once) < 1e-6


def test_gaussian_apply_unitary_preserves_l2():
    gc = _sample_chirp(11)
    n2 = chirp_l2_inner(gc, gc)
    for seed in (61, 62):
        s = random_symplectic(seed, 1)
        out = gaussian_apply(s, gc)
        assert abs(chirp_l2_inner(out, out) - n2) < 1e-10 * abs(n2)


def test_identity_matrix_is_identity_operator():
    g = Grid.regular(1, 64, 6.0)
    f = _sample_chirp(12).sample(g)
    out = apply_metaplectic(SymplecticMatrix(np.eye(2)), f)
    assert np.max(np.abs(out.values - f.values)) < 1e-12


def test_l2_norm_is_preserved_by_pipeline():
    g = Grid.selfdual(1, 128)
    f = _sample_chirp(13).sample(g)
    before = lp_norm(f, 2.0)
    for seed in (7, 8, 9, 12, 13, 16):
        out = apply_metaplectic(random_symplectic(seed, 1), f)
        assert lp_norm(out, 2.0) == pytest.approx(before, rel=1e-6)


def test_apply_metaplectic_names_the_grid_requirement_before_running():
    # the partial FT on J = {1, 2} leaves axes of unequal step, which the
    # rescaling stage then swaps
    grid = Grid((Axis(16, 0.31), Axis(8, 0.7)))
    f = GaussianChirp.standard(2).sample(grid)
    with pytest.raises(ValueError, match=r"permutes grid axes 1 and 2.*partial Fourier transform on J"):
        apply_metaplectic(random_symplectic(2, 2), f)


def test_rescale_apply_names_the_grid_requirement():
    f = GaussianChirp.standard(2).sample(Grid((Axis(16, 0.31), Axis(8, 0.7))))
    with pytest.raises(ValueError, match=r"permutes grid axes 1 and 2.*equal size and step on the input grid"):
        rescale_apply(np.array([[0.0, 1.0], [1.0, 0.0]]), f)



WALK_GRIDS = {
    "selfdual": Grid.selfdual,
    "regular": lambda d, n: Grid.regular(d, n, 6.0),
    "mixed": lambda d, n: Grid((Axis(n, 0.31), Axis(n // 2, 0.7))[:d]),
}


def _walks_as_it_runs(plan, f) -> None:
    # the walk ends on the grid the plan's run ends on, and it refuses a
    # rescaling's swapped axes with the text of the stage itself, so it
    # checks them on the grid that stage runs on
    try:
        walked = operators.plan_grid(plan, f.grid, "on the input grid")
    except ValueError as err:
        with pytest.raises(ValueError, match=re.escape(str(err))):
            operators.run_plan(plan, f)
        return
    assert walked.close_to(operators.run_plan(plan, f).grid)


@pytest.mark.parametrize("kind", sorted(WALK_GRIDS))
@pytest.mark.parametrize("d", [1, 2])
def test_plan_grid_is_the_grid_the_plan_produces(d, kind):
    f = _random_function(WALK_GRIDS[kind](d, 16), d)
    for seed in range(12):
        _walks_as_it_runs(operators.stage_plan(dj_factorize(random_symplectic(seed, d))), f)


@pytest.mark.parametrize("kind", sorted(WALK_GRIDS))
@pytest.mark.parametrize(
    "A",
    [stft_projection(1), rihacek_projection(1), random_symplectic(3, 2)],
    ids=["stft", "rihacek", "non-classical"],
)
def test_plan_grid_is_the_grid_the_adjoint_plan_produces(A, kind):
    # the adjoint runs on the distribution's output grid, the symbol grid of
    # opA_build, which reads the adjoint's output grid from the walk
    f = _random_function(WALK_GRIDS[kind](1, 16), 1)
    a = _random_function(wigner_metaplectic(A, f, f).grid, 2)
    _walks_as_it_runs(operators.adjoint_plan(dj_factorize(A)), a)
