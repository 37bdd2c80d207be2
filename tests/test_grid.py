"""Sampling grids, centered transforms, and lattice norms."""

import contextvars
import math
import os
import signal
import time
import warnings

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
    mp_norm,
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

from metaplectic.metaplectic_numeric import grid as grid_module
from metaplectic.metaplectic_numeric.grid import form_sum, mirrored_exps, slab_norm, worker_map

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


def test_axis_rejects_an_infinite_step():
    with pytest.raises(ValueError, match="positive and finite, got inf"):
        Axis(4, math.inf)
    with pytest.raises(ValueError, match="got nan"):
        Axis(4, math.nan)


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


@pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
def test_lp_norm_reports_the_overflow_of_finite_samples(p):
    # np.abs of 1.5e308 + 1.5e308j is inf, with no floating-point flag
    f = GridFunction(Grid.regular(1, 8, 2.0), np.full(8, 1.5e308 + 1.5e308j))
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        lp_norm(f, p)
    with np.errstate(over="ignore"):
        assert lp_norm(f, p) == np.inf
    # an infinite sample is no overflow
    g = f.with_values(np.full(8, complex(np.inf, 0.0)))
    with np.errstate(over="raise"):
        assert lp_norm(g, p) == np.inf


@pytest.mark.parametrize("p, q", [(1.0, 2.0), (2.0, 1.0), (np.inf, 2.0), (1.0, None), (np.inf, None)])
def test_slab_norm_reports_the_overflow_of_finite_samples(p, q):
    # the mixed path (q given) and the plain one (q None); the sample whose
    # np.abs overflows sits in the last of three slabs
    grid = Grid.regular(2, 8, 2.0)
    values = np.ones(grid.shape, dtype=complex)
    values[7, 3] = 1.5e308 + 1.5e308j
    slabs = lambda: iter([values[:3], values[3:6], values[6:]])
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        slab_norm(slabs(), grid, p, q)
    with np.errstate(over="ignore"):
        assert slab_norm(slabs(), grid, p, q) == np.inf
    # an infinite sample is no overflow
    values[7, 3] = complex(np.inf, 0.0)
    with np.errstate(over="raise"):
        assert slab_norm(slabs(), grid, p, q) == np.inf


@pytest.mark.parametrize("p, q", [(2.0, 1.0), (np.inf, np.inf)])
def test_lpq_norm_reports_the_overflow_of_finite_samples(p, q):
    f = GridFunction(Grid.regular(2, 8, 2.0), np.full((8, 8), 1.5e308 + 1.5e308j))
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        lpq_norm(f, p, q)


# the mirrored entries must have the bytes of their own exps; CI reruns the
# tests named "bitwise" with one BLAS thread
MIRROR_SHAPES = [(2,), (8,), (100,), (2, 6), (24, 16), (6, 10, 8)]


@pytest.mark.parametrize("shape", MIRROR_SHAPES)
def test_mirrored_exps_bitwise_equal_their_own_exps(shape):
    # the Rihaczek phase table -2 pi i x . xi on 4 x-points per axis, the
    # third of them x = 0, where the whole phase row is zero
    d = len(shape)
    steps = (0.21, 0.37, 0.55)[:d]
    grid = Grid((Axis(4, 0.3),) * d + tuple(Axis(n, step).dual() for n, step in zip(shape, steps)))
    mesh = grid.open_mesh()
    xi_points = [ax.points() for ax in grid.axes[d:]]
    want = np.exp(-2j * np.pi * form_sum(np.eye(d), mesh[:d], mesh[d:]))
    filled = []

    def fill(sl, part):
        xi = np.ix_(*(pts[s] for pts, s in zip(xi_points, sl)))
        np.exp(-2j * np.pi * form_sum(np.eye(d), mesh[:d], xi), out=part)
        filled.append(part.size)

    got = mirrored_exps(np.empty(want.shape, dtype=complex), d, fill)
    assert got.tobytes() == want.tobytes()
    # every entry with 1 <= m_1 < n_1 / 2 and all m_j >= 1 is a mirror copy
    mirrored = (shape[0] // 2 - 1) * math.prod(n - 1 for n in shape[1:])
    assert sum(filled) == want.size - 4**d * mirrored
    # a zero phase keeps its +0 imaginary part (np.conj would give -0)
    origin = got[(2,) * d]
    assert origin.tobytes() == np.ones(shape, dtype=complex).tobytes()
    assert not np.signbit(got.imag[want.imag == 0.0]).any()


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


# --------------------------------------------------------------------------
# worker threads

_CALLER = contextvars.ContextVar("caller", default="unset")


@pytest.fixture(params=[2, 1])
def workers(request, monkeypatch):
    """Run a test on the worker threads of a process that may run on 2 CPUs,
    and on those of a process that may run on one."""
    monkeypatch.setattr(grid_module.os, "sched_getaffinity", lambda pid: set(range(request.param)))
    grid_module._worker_pool.cache_clear()
    yield request.param
    grid_module._worker_pool()[0].shutdown()
    grid_module._worker_pool.cache_clear()


def test_worker_map_starts_no_more_calls_than_workers_or_ahead(workers):
    # a call starts only while fewer than min(ahead, workers) calls are
    # started and not yet handed back
    started = []
    for ahead in (1, 2, 3):
        started.clear()
        ahead_of_consumer = []
        for k, _ in enumerate(worker_map(started.append, range(6), ahead)):
            ahead_of_consumer.append(len(started) - k)
        assert max(ahead_of_consumer) <= min(ahead, workers), ahead


def test_worker_map_runs_each_call_in_its_own_copy_of_the_callers_context(workers):
    def call(k):
        seen = (k, _CALLER.get(), np.geterr()["over"])
        _CALLER.set(f"call {k}")  # seen by no later call, nor by the caller
        return seen

    token = _CALLER.set("caller")
    try:
        with np.errstate(over="raise"):
            assert list(worker_map(call, range(5))) == [(k, "caller", "raise") for k in range(5)]
        assert _CALLER.get() == "caller"
    finally:
        _CALLER.reset(token)


def test_worker_map_raises_a_calls_exception_in_the_caller(workers):
    def call(k):
        if k == 3:
            raise ValueError(f"call {k} failed")
        return k

    results = worker_map(call, range(8))
    assert [next(results) for _ in range(3)] == [0, 1, 2]
    with pytest.raises(ValueError, match="call 3 failed"):
        next(results)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_makes_its_own_worker_threads():
    # the child inherits the parent's cached pool but not its threads; the
    # fork hook clears the cache, else the child's first call waits for ever
    grid = Grid.selfdual(1, 256)
    f = GridFunction(grid, np.exp(-math.pi * grid.axes[0].points() ** 2) + 0j)
    norm = mp_norm(f, f, 2.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if mp_norm(f, f, 2.0, 1.0) == norm else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's norm did not finish in 30 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status[1]) == 0
