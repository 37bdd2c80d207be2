"""Norms of the classical distributions streamed over slabs of x-points.

``distribution_norm`` and ``mp_norm`` never build the n^(2d)-point array:
each slab of rows goes into one accumulator (``grid.slab_norm``).  The
full-array norm of the per-entry distribution ``oracles.gathered_distribution``
(not of the package's whole builders, which walk the same slabs) is the
oracle, and the floats must agree exactly (``==``), not to a tolerance:
``lpq_norm`` for a mixed norm, ``lp_norm`` of the STFT for ``mp_norm`` with
p = q.
"""

import gc
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest

from metaplectic.metaplectic_numeric import distributions
from metaplectic.metaplectic_numeric.distributions import (
    classical_kind,
    distribution_norm,
    mp_norm,
    rihacek_projection,
    stft_projection,
    wigner_metaplectic,
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
    reduce_powers,
    row_slabs,
    slab_norm,
)
from metaplectic.probes import norm_equiv_probe
from metaplectic.symplectic_core import chirp_block
from oracles import direct_lp_norm, gathered_distribution

INF = math.inf

KINDS = {"wigner": wigner_projection, "stft": stft_projection, "rihacek": rihacek_projection}

GRIDS = {
    "1d-1024": Grid.selfdual(1, 1024),
    "1d-1000": Grid((Axis(1000, 0.031),)),
    "1d-250": Grid((Axis(250, 0.063),)),
    "2d-32": Grid.selfdual(2, 32),
    "2d-24x16": Grid((Axis(24, 0.21), Axis(16, 0.37))),
    # an x-row is 2 MiB: four slabs, each half of one x-row
    "2d-2x256": Grid((Axis(2, 0.7), Axis(256, 0.0625))),
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
    f, g = _random_function(grid, 1), _random_function(grid, 2)
    full = gathered_distribution(kind, f, g)
    A = KINDS[kind](grid.d)
    for p, q in MIXED + [(1.0, 1.0)]:
        assert distribution_norm(A, f, g, p, q) == lpq_norm(full, p, q), (p, q)


def test_a_non_classical_matrix_takes_the_whole_distribution_norm():
    # no classical kind: distribution_norm builds the distribution through
    # the factorization pipeline and takes its norm whole
    grid = Grid.selfdual(1, 64)
    f, g = _random_function(grid, 5), _random_function(grid, 6)
    A = wigner_projection(1) @ chirp_block(0.3 * np.eye(2))
    assert classical_kind(A) is None
    for p, q in ((2.0, 2.0), (2.0, 1.0), (1.0, 4.0), (INF, 2.0)):
        assert distribution_norm(A, f, g, p, q) == lpq_norm(wigner_metaplectic(A, f, g), p, q), (p, q)


@pytest.mark.parametrize("grid_name", GRIDS)
def test_mp_norm_equals_the_full_stft_norm(grid_name):
    grid = GRIDS[grid_name]
    f, g = _random_function(grid, 3), _random_function(grid, 4)
    full = gathered_distribution("stft", f, g)
    for p in PLAIN:
        assert mp_norm(f, g, p) == lp_norm(full, p)
        assert mp_norm(f, g, p, p) == lp_norm(full, p)
    for p, q in MIXED:
        assert mp_norm(f, g, p, q) == lpq_norm(full, p, q)


def test_test_grids_cover_several_slabs_and_leftover_rows():
    doubled = {k: Grid(grid.axes * 2) for k, grid in GRIDS.items()}
    assert [len(row_slabs(grid)) for grid in doubled.values()] == [16, 15, 1, 16, 2, 4]
    # 1000 rows of 16000 bytes: 66-row slabs, the last one takes 76 rows
    assert [s[-1].stop - s[-1].start for s in row_slabs(doubled["1d-1000"])] == [66] * 14 + [76]
    # where an x-row fits in a slab, a slab is a block of x-rows
    assert all(len(s) == 1 for k, grid in doubled.items() if k != "2d-2x256" for s in row_slabs(grid))
    # 2 MiB x-rows, cut along x_2 into two 128-line halves
    assert row_slabs(doubled["2d-2x256"]) == [
        (slice(i, i + 1), slice(j, j + 128)) for i in (0, 1) for j in (0, 128)
    ]


#: phase-space grids whose slabs cut axis 0 or a later x axis; the last two
#: are only cut, never built: an x-row of 2d-4x4096 is 1 GiB, cut along
#: x_2, and the 2 MiB that 2d-4x32768 holds at each x-point are already
#: past the floor, so each of its slabs is one x-point
CUT_GRIDS = {
    **{name: Grid(grid.axes * 2) for name, grid in GRIDS.items()},
    "3d-2x2x128": Grid((Axis(2, 0.8), Axis(2, 0.45), Axis(128, 0.09)) * 2),
    "2d-4x4096": Grid((Axis(4, 0.5), Axis(4096, 0.01)) * 2),
    "2d-4x32768": Grid((Axis(4, 0.5), Axis(32768, 0.01)) * 2),
}


@pytest.mark.parametrize("grid_name", CUT_GRIDS)
def test_row_slabs_tile_the_x_points_in_order_with_slabs_of_at_least_the_floor(grid_name):
    grid = CUT_GRIDS[grid_name]
    x_shape = grid.shape[: grid.d // 2]
    slabs = row_slabs(grid)
    # each slab is a tuple of slices of the leading x axes, and the x-points
    # of the slabs, in order, are every x-point once, in C order
    flat = np.arange(math.prod(x_shape)).reshape(x_shape)
    points = np.concatenate([flat[slab].ravel() for slab in slabs])
    assert np.array_equal(points, np.arange(flat.size))
    # at least SLAB_BYTES of complex entries each, unless the grid is one slab
    tail = math.prod(grid.shape[len(slabs[0]) :])
    entries = [math.prod(s.stop - s.start for s in slab) * tail for slab in slabs]
    assert all(len(slab) == len(slabs[0]) for slab in slabs)
    assert len(slabs) == 1 or all(16 * e >= SLAB_BYTES for e in entries)
    assert sum(entries) == math.prod(grid.shape)


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


@pytest.mark.parametrize("grid_name", ["1d-1000", "2d-32", "2d-2x256"])
@pytest.mark.parametrize("kind", KINDS)
def test_streamed_plain_norm_bitwise_equals_the_direct_norm(kind, grid_name):
    # 1 MiB slabs (15, 16 and 4 of them here, the last four each half an
    # x-row), built on the worker threads and reduced in C order on the
    # calling one
    assert SLAB_BYTES == 2**20
    grid = GRIDS[grid_name]
    f, g = _random_function(grid, 12), _random_function(grid, 13)
    full = gathered_distribution(kind, f, g)
    for p in PLAIN + [0.5, 1.5]:
        streamed = distributions._streamed_norm(*distributions._row_builder(kind, f, g), p, None)
        assert streamed == direct_lp_norm(full, p), p


def test_streamed_norm_builds_at_most_two_slabs_ahead(monkeypatch):
    # a slow consumer: unbounded look-ahead would let the workers build
    # every slab before the reducer reached the second
    started, ahead = [], []
    stft_rows = distributions._ROW_BUILDERS["stft"]

    def recorded_rows(f, g):
        grid, build = stft_rows(f, g)

        def recorded(slab, buffers):
            started.append(slab[0].start)
            return build(slab, buffers)

        return grid, recorded

    def slow_reduce_powers(parts, grid, p, q=None):
        def watched():
            for k, part in enumerate(parts):
                ahead.append(len(started) - k)
                time.sleep(0.005)
                yield part

        return reduce_powers(watched(), grid, p, q)

    monkeypatch.setitem(distributions._ROW_BUILDERS, "stft", recorded_rows)
    monkeypatch.setattr(distributions, "reduce_powers", slow_reduce_powers)
    grid = GRIDS["1d-1024"]
    f, g = _random_function(grid, 14), _random_function(grid, 15)
    mp_norm(f, g, 2.0, 1.0)
    assert len(ahead) == len(row_slabs(Grid(grid.axes * 2))) == 16
    assert max(ahead) <= MAX_WORKERS == 2
    assert sorted(started) == list(range(0, 1024, 64))


@pytest.mark.parametrize("kind", KINDS)
def test_streamed_norm_of_sub_row_slabs_bitwise_equals_the_serial_loop_in_a_few_slabs(kind):
    # at d = 2 and n = 64 an x-row is 64^3 points, 4 MiB, so each slab is a
    # quarter of one, 1 MiB, built up to two ahead like any other slab; the
    # norm equals the serial loop's, which builds every slab in one buffer
    # set.  When a slab was a whole x-row, built one at a time, the norm
    # peaked at 14.4-16.2 SLAB_BYTES
    grid = Grid.selfdual(2, 64)
    f, g = _random_function(grid, 16), _random_function(grid, 17)
    doubled, build = distributions._ROW_BUILDERS[kind](f, g)
    slabs = row_slabs(doubled)
    assert 16 * math.prod(doubled.shape[1:]) > SLAB_BYTES and len(slabs) == 256
    buffers = distributions._row_buffers(SLAB_BYTES // 16)
    serial = slab_norm((build(slab, buffers) for slab in slabs), doubled, 2.0, 1.0)
    del buffers
    gc.collect()
    tracemalloc.start()
    try:
        streamed = distribution_norm(KINDS[kind](2), f, g, 2.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert streamed == serial
    assert peak <= 10 * SLAB_BYTES, peak / SLAB_BYTES


def test_streamed_norm_gives_each_slab_in_flight_its_own_buffer_set(monkeypatch):
    # the workers share one free list of buffer sets: with the interpreter
    # switching threads every microsecond, one set handed to two slabs at
    # once would change the floats, and a call makes no more sets than it
    # builds slabs at once, each of the largest slab (76 x-rows of 1000
    # entries here)
    grid = GRIDS["1d-1000"]
    f, g = _random_function(grid, 18), _random_function(grid, 19)
    want = lpq_norm(gathered_distribution("stft", f, g), 2.0, 1.0)
    made = []
    row_buffers = distributions._row_buffers

    def counted(entries):
        made.append(entries)
        return row_buffers(entries)

    monkeypatch.setattr(distributions, "_row_buffers", counted)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            made.clear()
            assert mp_norm(f, g, 2.0, 1.0) == want
            assert 1 <= len(made) <= MAX_WORKERS and set(made) == {76 * 1000}
    finally:
        sys.setswitchinterval(interval)


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
    whole = lambda: lpq_norm(gathered_distribution("rihacek", f, g), 2.0, 1.0)
    for norm in (lambda: distribution_norm(A, f, g, 2.0, 1.0), whole):
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
    A = KINDS[kind](1)
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
