"""The distribution rows and the centered transform, bit for bit.

The Wigner and STFT row builders read the signals through strided views and
transform with ``grid.shifted_dft``; the Rihaczek rows take the exps of
about half their phase table and mirror the rest (``grid.mirrored_exps``).
The slow exact forms in ``oracles`` gather through int64 index arrays and
shift, transform, shift and scale one axis at a time, or take an exp per
entry.  Both must give the same floats, compared by ``tobytes()``, slab by
slab and for the whole distributions, which the walk fills slab by slab
into one output array, on grids whose slabs are blocks of x-rows and on
grids whose x-rows are too large for one slab, which are cut along a later
x axis.  The builders write into a buffer set that the walk
reuses slab after slab, so a slab must not read what an earlier one left
there.
"""

import math
import sys

import numpy as np
import pytest

from metaplectic.metaplectic_numeric.distributions import (
    _ROW_BUILDERS,
    _row_buffers,
    rihacek,
    stft,
    wigner,
)
from metaplectic.metaplectic_numeric.grid import Axis, Grid, GridFunction, centered_dft, row_slabs

import oracles
from test_streamed_norms import GRIDS, _random_function

#: 1d-64 and 1d-128 put the whole array just below and exactly at numpy's
#: 256 KiB temporary-elision size, where the Rihaczek product flips its
#: operand order.  In 3d-2x2x128 an x-row is 2 MiB, so each slab holds the
#: 1 MiB of one (x_1, x_2) pair; GRIDS' 2d-2x256 cuts its 2 MiB x-rows in two
ROW_GRIDS = {
    **GRIDS,
    "1d-64": Grid.selfdual(1, 64),
    "1d-128": Grid.selfdual(1, 128),
    "1d-2048": Grid.selfdual(1, 2048),
    "3d-6x10x8": Grid((Axis(6, 0.3), Axis(10, 0.21), Axis(8, 0.55))),
    "3d-2x2x128": Grid((Axis(2, 0.8), Axis(2, 0.45), Axis(128, 0.09))),
}

DFT_GRIDS = {
    "1d-64": Grid.selfdual(1, 64),
    "1d-50x0.13": Grid((Axis(50, 0.13),)),
    "2d-16": Grid.selfdual(2, 16),
    "2d-128": Grid.selfdual(2, 128),
    "2d-12x20": Grid((Axis(12, 0.4), Axis(20, 0.17))),
    "3d-8": Grid.selfdual(3, 8),
    "3d-6x10x8": Grid((Axis(6, 0.3), Axis(10, 0.21), Axis(8, 0.55))),
}


def _dft_cases():
    for name, grid in DFT_GRIDS.items():
        every = tuple(range(grid.d))
        for axes in dict.fromkeys([(0,), (1,), (0, 2), every]):
            if max(axes) < grid.d:
                yield name, axes


@pytest.mark.parametrize("grid_name", ROW_GRIDS)
@pytest.mark.parametrize("kind", ["wigner", "stft", "rihacek"])
def test_rows_bitwise_equal_the_gathered_rows(kind, grid_name):
    grid = ROW_GRIDS[grid_name]
    f, g = _random_function(grid, 1), _random_function(grid, 2)
    _assert_rows_equal(kind, f, g)


@pytest.mark.parametrize("grid_name", ROW_GRIDS)
@pytest.mark.parametrize("kind", ["wigner", "stft", "rihacek"])
def test_whole_builders_bitwise_equal_the_gathered_rows(kind, grid_name):
    # the whole builders fill one output through the slab walk: several
    # slabs with leftover rows, one slab below 256 KiB (1d-64), and the
    # Rihaczek operand order of the whole array on each side of it
    grid = ROW_GRIDS[grid_name]
    f, g = _random_function(grid, 1), _random_function(grid, 2)
    got = {"wigner": wigner, "stft": stft, "rihacek": rihacek}[kind](f, g)
    want = oracles.gathered_distribution(kind, f, g)
    assert got.grid == want.grid
    assert got.values.tobytes() == want.values.tobytes()


def test_whole_build_stays_bitwise_under_fast_thread_switches():
    # the workers write disjoint rows of one output and share the walk's
    # free list of buffer sets: with the interpreter switching threads every
    # microsecond, a slab written twice, lost or built in a shared set would
    # change the bytes (15 slabs, the last with leftover rows)
    grid = ROW_GRIDS["1d-1000"]
    f, g = _random_function(grid, 3), _random_function(grid, 4)
    want = oracles.gathered_rows("stft", f, g, ()).tobytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            assert stft(f, g).values.tobytes() == want
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("grid_name", ["1d-64", "1d-128", "2d-24x16", "3d-6x10x8"])
def test_rihacek_rows_bitwise_equal_the_gathered_rows_on_zero_samples(grid_name):
    # zero samples of f (+0 and -0) make products whose zero signs follow
    # the signs of the phase exps, zeros included
    grid = ROW_GRIDS[grid_name]
    values = _random_function(grid, 3).values.copy()
    values.flat[::3] = 0.0
    values.flat[1::5] = complex(-0.0, -0.0)
    values[(grid.shape[0] // 2,) + (slice(None),) * (grid.d - 1)] = 0.0  # the row x_1 = 0
    _assert_rows_equal("rihacek", GridFunction(grid, values), _random_function(grid, 4))


def _entries(grid, slab):
    """The number of entries of ``grid`` on the x-points ``slab``."""
    return math.prod(np.broadcast_to(0, grid.shape)[slab].shape)


def _assert_rows_equal(kind, f, g):
    out_grid, build = _ROW_BUILDERS[kind](f, g)
    for slab in row_slabs(out_grid) + [()]:
        got = build(slab, _row_buffers(_entries(out_grid, slab)))
        want = oracles.gathered_rows(kind, f, g, slab)
        assert got.shape == want.shape, slab
        assert got.tobytes() == want.tobytes(), slab


@pytest.mark.parametrize("grid_name", ROW_GRIDS)
@pytest.mark.parametrize("kind", ["wigner", "stft", "rihacek"])
def test_rows_bitwise_equal_the_gathered_rows_in_reused_buffers(kind, grid_name):
    # one buffer set of the largest slab, filled with nan, serves every slab
    # in reverse order, the larger last slab first: each slab must write
    # every entry it returns, and return a view of the set, not a fresh array
    grid = ROW_GRIDS[grid_name]
    f, g = _random_function(grid, 1), _random_function(grid, 2)
    out_grid, build = _ROW_BUILDERS[kind](f, g)
    slabs = row_slabs(out_grid)
    buffers = _row_buffers(max(_entries(out_grid, slab) for slab in slabs))
    for buffer in buffers:
        buffer.fill(np.nan)
    for slab in reversed(slabs):
        got = build(slab, buffers)
        want = oracles.gathered_rows(kind, f, g, slab)
        assert got.shape == want.shape, slab
        assert got.tobytes() == want.tobytes(), slab
        assert any(np.shares_memory(got, buffer) for buffer in buffers), slab


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("grid_name, axes", list(_dft_cases()))
def test_centered_dft_bitwise_equals_the_axis_loop(grid_name, axes, inverse):
    grid = DFT_GRIDS[grid_name]
    values = _random_function(grid, 7).values
    got = centered_dft(values, grid, axes, inverse)
    want = oracles.looped_centered_dft(values, grid, axes, inverse)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()

