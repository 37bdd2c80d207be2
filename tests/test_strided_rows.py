"""The Wigner and STFT rows and the centered transform, bit for bit.

The row builders read the signals through strided views and transform with
``grid.shifted_dft``; the slow exact forms in ``oracles`` gather through
int64 index arrays and shift, transform, shift and scale one axis at a
time.  Both must give the same floats, compared by ``tobytes()``: the
streamed-norm tests compare the builders only with themselves.
"""

import numpy as np
import pytest

from metaplectic.metaplectic_numeric.distributions import _ROW_BUILDERS
from metaplectic.metaplectic_numeric.grid import Axis, Grid, centered_dft, row_slabs

import oracles
from test_streamed_norms import GRIDS, _random_function

ROW_GRIDS = {**GRIDS, "1d-2048": Grid.selfdual(1, 2048)}

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
@pytest.mark.parametrize("kind", ["wigner", "stft"])
def test_rows_bitwise_equal_the_gathered_rows(kind, grid_name):
    grid = ROW_GRIDS[grid_name]
    f, g = _random_function(grid, 1), _random_function(grid, 2)
    out_grid, build = _ROW_BUILDERS[kind](f, g)
    for rows in row_slabs(out_grid) + [slice(None)]:
        got, want = build(rows), oracles.gathered_rows(kind, f, g, rows)
        assert got.shape == want.shape, rows
        assert got.tobytes() == want.tobytes(), rows


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("grid_name, axes", list(_dft_cases()))
def test_centered_dft_bitwise_equals_the_axis_loop(grid_name, axes, inverse):
    grid = DFT_GRIDS[grid_name]
    values = _random_function(grid, 7).values
    got = centered_dft(values, grid, axes, inverse)
    want = oracles.looped_centered_dft(values, grid, axes, inverse)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()

