"""Norms of the classical distributions streamed over x-row slabs.

``distribution_norm`` and ``mp_norm`` never build the n^(2d)-point array:
each slab of rows goes into one accumulator (``grid.slab_norm``).  The
full-array path is the oracle, and the floats must agree exactly
(``==``), not to a tolerance: ``lpq_norm`` of the whole distribution for a
mixed norm, ``lp_norm`` of the whole STFT for ``mp_norm`` with p = q.
"""

import gc
import math
import time
import tracemalloc

import numpy as np
import pytest

from metaplectic.metaplectic_numeric import distributions
from metaplectic.metaplectic_numeric.distributions import (
    distribution_norm,
    mp_norm,
    rihacek,
    rihacek_projection,
    stft,
    stft_projection,
    wigner,
    wigner_projection,
)
from metaplectic.metaplectic_numeric.grid import (
    MAX_WORKERS,
    SLAB_BYTES,
    Axis,
    Grid,
    GridFunction,
    lp_norm,
    lpq_norm,
    row_slabs,
    slab_norm,
)
from metaplectic.probes import norm_equiv_probe
from oracles import direct_lp_norm

INF = math.inf

KINDS = {
    "wigner": (wigner, wigner_projection),
    "stft": (stft, stft_projection),
    "rihacek": (rihacek, rihacek_projection),
}

GRIDS = {
    "1d-1024": Grid.selfdual(1, 1024),
    "1d-1000": Grid((Axis(1000, 0.031),)),
    "1d-250": Grid((Axis(250, 0.063),)),
    "2d-32": Grid.selfdual(2, 32),
    "2d-24x16": Grid((Axis(24, 0.21), Axis(16, 0.37))),
}

MIXED = [(2.0, 1.0), (1.0, 4.0), (0.5, 3.0), (INF, 2.0), (2.0, INF), (INF, INF)]
PLAIN = [1.0, 2.0, 3.0, INF]


def _random_function(grid, seed):
    rng = np.random.default_rng(seed)
    return GridFunction(grid, rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape))


@pytest.mark.parametrize("grid_name", GRIDS)
@pytest.mark.parametrize("kind", KINDS)
def test_streamed_norm_equals_the_full_array_norm(kind, grid_name):
    grid = GRIDS[grid_name]
    builder, projection = KINDS[kind]
    f, g = _random_function(grid, 1), _random_function(grid, 2)
    full = builder(f, g)
    A = projection(grid.d)
    for p, q in MIXED + [(1.0, 1.0)]:
        assert distribution_norm(A, f, g, p, q) == lpq_norm(full, p, q), (p, q)


@pytest.mark.parametrize("grid_name", GRIDS)
def test_mp_norm_equals_the_full_stft_norm(grid_name):
    grid = GRIDS[grid_name]
    f, g = _random_function(grid, 3), _random_function(grid, 4)
    full = stft(f, g)
    for p in PLAIN:
        assert mp_norm(f, g, p) == lp_norm(full, p)
        assert mp_norm(f, g, p, p) == lp_norm(full, p)
    for p, q in MIXED:
        assert mp_norm(f, g, p, q) == lpq_norm(full, p, q)


def test_test_grids_cover_several_slabs_and_leftover_rows():
    doubled = {k: Grid(grid.axes * 2) for k, grid in GRIDS.items()}
    assert [len(row_slabs(grid)) for grid in doubled.values()] == [16, 15, 1, 16, 2]
    # 1000 rows of 16000 bytes: 66-row slabs, the last one takes 76 rows
    assert [s.stop - s.start for s in row_slabs(doubled["1d-1000"])] == [66] * 14 + [76]


@pytest.mark.parametrize("grid_name", GRIDS)
def test_row_slabs_cover_axis_zero_with_slabs_of_at_least_the_floor(grid_name):
    grid = Grid(GRIDS[grid_name].axes * 2)
    slabs = row_slabs(grid)
    row_bytes = 16 * math.prod(grid.shape[1:])
    assert slabs[0].start == 0 and slabs[-1].stop == grid.shape[0]
    assert all(a.stop == b.start for a, b in zip(slabs, slabs[1:]))
    assert len(slabs) == 1 or all((s.stop - s.start) * row_bytes >= SLAB_BYTES for s in slabs)


@pytest.mark.parametrize("rows_per_slab", [1, 3, 7, 64, 500])
def test_slab_norm_of_any_row_cut_equals_the_full_array_norms(rows_per_slab):
    # the reducer alone: the pairwise split of the plain sum and the row-order
    # accumulation of the mixed norm do not depend on where slabs are cut
    grid = Grid((Axis(300, 0.1), Axis(70, 0.2)))
    f = _random_function(grid, 5)
    cut = lambda: (f.values[i : i + rows_per_slab] for i in range(0, 300, rows_per_slab))
    for p in PLAIN + [0.5]:
        assert slab_norm(cut(), grid, p) == lp_norm(f, p), p
    for p, q in MIXED:
        assert slab_norm(cut(), grid, p, q) == lpq_norm(f, p, q), (p, q)


def _norm_outcome(norm, f, p):
    """``repr`` of the float, or the floating-point fault it raised."""
    try:
        return repr(norm(f, p))
    except FloatingPointError as exc:
        return f"FloatingPointError: {exc}"


@pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
@pytest.mark.parametrize("grid_name", GRIDS)
def test_lp_norm_is_bitwise_the_direct_full_array_norm(grid_name, scale):
    # lp_norm is slab_norm on one slab: one np.sum of the raveled powers, or
    # the outer-axes accumulator with every axis inner for p = inf
    grid = GRIDS[grid_name]
    f = _random_function(grid, 10)
    f = f.with_values(f.values * scale)
    planted = [f, f.with_values(np.zeros(grid.shape))]
    # nan, inf and zero samples, and one whose np.abs overflows
    for value in (np.nan, complex(0.0, np.inf), 0.0, 1.5e308 + 1.5e308j):
        vals = f.values.copy()
        vals.flat[[0, vals.size // 3, -1]] = value
        planted.append(f.with_values(vals))
    for g in planted:
        for p in PLAIN + [0.5, 1.5, 4.0]:
            for over in ("raise", "ignore"):
                with np.errstate(over=over):
                    ours = _norm_outcome(lp_norm, g, p)
                    direct = _norm_outcome(direct_lp_norm, g, p)
                assert ours == direct, (p, over)


@pytest.mark.parametrize("grid_name", ["1d-1000", "2d-32"])
@pytest.mark.parametrize("kind", KINDS)
def test_streamed_plain_norm_bitwise_equals_the_direct_norm(kind, grid_name):
    # 1 MiB slabs (15 and 16 of them here), built on the worker threads and
    # reduced in row order on the calling one
    assert SLAB_BYTES == 2**20
    grid = GRIDS[grid_name]
    f, g = _random_function(grid, 12), _random_function(grid, 13)
    full = KINDS[kind][0](f, g)
    for p in PLAIN + [0.5, 1.5]:
        assert distributions._streamed_norm(kind, f, g, p, None) == direct_lp_norm(full, p), p


def test_streamed_norm_builds_at_most_two_slabs_ahead(monkeypatch):
    # a slow consumer: unbounded look-ahead would let the workers build
    # every slab before the reducer reached the second
    started, ahead = [], []
    stft_rows = distributions._ROW_BUILDERS["stft"]

    def recorded_rows(f, g):
        grid, build = stft_rows(f, g)

        def recorded(rows):
            started.append(rows.start)
            return build(rows)

        return grid, recorded

    def slow_slab_norm(rows, grid, p, q=None):
        def watched():
            for k, slab in enumerate(rows):
                ahead.append(len(started) - k)
                time.sleep(0.005)
                yield slab

        return slab_norm(watched(), grid, p, q)

    monkeypatch.setitem(distributions._ROW_BUILDERS, "stft", recorded_rows)
    monkeypatch.setattr(distributions, "slab_norm", slow_slab_norm)
    grid = GRIDS["1d-1024"]
    f, g = _random_function(grid, 14), _random_function(grid, 15)
    mp_norm(f, g, 2.0, 1.0)
    assert len(ahead) == len(row_slabs(Grid(grid.axes * 2))) == 16
    assert max(ahead) <= MAX_WORKERS == 2
    assert sorted(started) == list(range(0, 1024, 64))


@pytest.mark.parametrize("kind", ["wigner", "stft"])
def test_streamed_norm_of_one_row_slabs_peaks_as_the_serial_loop(kind):
    # at d = 2 a slab is one x-row of n^3 points (4 MiB at n = 64, above
    # SLAB_BYTES); such slabs are built one at a time, and the norm's peak
    # stays at the serial loop's (built two ahead, it rose by 4 slabs)
    grid = Grid.selfdual(2, 64)
    f, g = _random_function(grid, 16), _random_function(grid, 17)
    doubled, build = distributions._ROW_BUILDERS[kind](f, g)
    slab = 16 * math.prod(doubled.shape[1:])
    assert slab > SLAB_BYTES and len(row_slabs(doubled)) == 64
    serial = lambda: slab_norm((build(rows) for rows in row_slabs(doubled)), doubled, 2.0, 1.0)
    values, peaks = [], []
    for norm in (serial, lambda: distributions._streamed_norm(kind, f, g, 2.0, 1.0)):
        gc.collect()
        tracemalloc.start()
        try:
            values.append(norm())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert values[0] == values[1]
    assert peaks[1] < peaks[0] + slab / 2, [peak / slab for peak in peaks]


@pytest.mark.parametrize("state", ["raise", "ignore"])
def test_worker_built_slabs_keep_the_callers_errstate(state):
    # numpy's errstate is a context variable, and each slab is built in a
    # copy of the caller's context: f(x) conj(FT g)(xi) overflows in the
    # Rihaczek rows of slab 14 of 16, and the streamed norm must fail (or
    # not) as the full array does
    grid = GRIDS["1d-1024"]
    vals = np.zeros(grid.shape, dtype=complex)
    vals[900] = 1e308
    f = GridFunction(grid, vals)
    g = GridFunction(grid, 10.0 * np.exp(-math.pi * grid.axes[0].points() ** 2))
    A = rihacek_projection(1)
    outcomes = []
    for norm in (lambda: distribution_norm(A, f, g, 2.0, 1.0), lambda: lpq_norm(rihacek(f, g), 2.0, 1.0)):
        with np.errstate(all=state):
            try:
                outcomes.append(repr(norm()))
            except FloatingPointError as exc:
                outcomes.append(f"FloatingPointError: {exc}")
    assert outcomes[0] == outcomes[1]
    assert outcomes[0].startswith("FloatingPointError: overflow") == (state == "raise")


def test_slab_norm_checks_exponents_and_split():
    grid = Grid.selfdual(1, 16)
    f = _random_function(grid, 6)
    with pytest.raises(ValueError, match="p must be positive"):
        slab_norm((f.values,), grid, 0.0)
    with pytest.raises(ValueError, match="exponents must be positive"):
        slab_norm((f.values,), grid, 1.0, -1.0)
    with pytest.raises(ValueError, match="mixed norm needs an even number of axes, got 1"):
        slab_norm((f.values,), grid, 1.0, 2.0)


@pytest.mark.parametrize("kind", ["wigner", "rihacek"])
def test_norm_equiv_probe_peak_memory_stays_bounded(kind):
    # one lambda on Grid.selfdual(1, 2048): a whole distribution would be
    # 67 MB, and the full-array probe peaked at 256 MB
    A = KINDS[kind][1](1)
    grid = Grid.selfdual(1, 2048)
    tracemalloc.start()
    try:
        report = norm_equiv_probe(A, 2.0, 1.0, lambdas=(1.0,), grid=grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ratios[0] > 0.0
    assert peak < 32e6


def test_plain_streamed_norm_leaves_no_reference_cycle():
    # a cycle through the pairwise-sum closure kept the last slab (8 MiB at
    # n=4096) alive until the next garbage collection
    grid = GRIDS["1d-1024"]
    f, g = _random_function(grid, 8), _random_function(grid, 9)
    gc.collect()
    gc.disable()
    try:
        mp_norm(f, g, 1.0)
        assert gc.collect() == 0
    finally:
        gc.enable()
