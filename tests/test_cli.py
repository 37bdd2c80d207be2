"""End-to-end tests of the command-line front end, run in process.

Every invocation goes through main(argv); exit codes and the printed text
are part of the contract (0 success, 2 invalid input, 3 tolerance
ambiguity; output byte-stable across repeated runs).
"""

import gc
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from metaplectic.cli import _hermitian_defect, _write_text, main
from metaplectic.io import (
    export_csv,
    parse_dj,
    parse_grid_function,
    write_grid_function,
    write_matrix,
)
from metaplectic.metaplectic_numeric import (
    Axis,
    GaussianChirp,
    Grid,
    GridFunction,
    lp_norm,
    rihacek,
    rihacek_projection,
    stft,
    wigner,
    wigner_projection,
)
from metaplectic.metaplectic_numeric import grid as grid_module
from metaplectic.metaplectic_numeric.grid import row_slabs
from metaplectic.symplectic_core import (
    multiplier_block,
    random_symplectic,
    standard_involution,
)

SINGULAR_B = np.array(
    [
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)


def _matrix_file(tmp_path, mat, name="matrix.txt"):
    path = tmp_path / name
    path.write_text(write_matrix(np.asarray(mat, dtype=float)))
    return str(path)


# -- check ----------------------------------------------------------------------


def test_check_accepts_symplectic(tmp_path, capsys):
    path = _matrix_file(tmp_path, random_symplectic(11, 2).mat)
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "d 2" in out
    assert "symplectic yes" in out


def test_check_rejects_non_symplectic(tmp_path, capsys):
    path = _matrix_file(tmp_path, 2.0 * np.eye(4))
    assert main(["check", path]) == 2
    assert "symplectic no" in capsys.readouterr().out


def test_missing_file_is_exit_2(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.txt")]) == 2
    assert "error:" in capsys.readouterr().err


# -- factorize --------------------------------------------------------------------


def test_factorize_writes_parseable_report(tmp_path, capsys):
    path = _matrix_file(tmp_path, random_symplectic(3, 2).mat)
    out_path = tmp_path / "fact.txt"
    assert main(["factorize", path, "--out", str(out_path)]) == 0
    stdout = capsys.readouterr().out
    assert "subset" in stdout and "residual" in stdout
    fact = parse_dj(out_path.read_text())
    assert fact.d == 2


def test_factorize_is_byte_stable(tmp_path, capsys):
    path = _matrix_file(tmp_path, random_symplectic(4, 3).mat)
    assert main(["factorize", path]) == 0
    first = capsys.readouterr().out
    assert main(["factorize", path]) == 0
    second = capsys.readouterr().out
    assert first == second


# -- classify ---------------------------------------------------------------------


def test_classify_free_case(tmp_path, capsys):
    path = _matrix_file(tmp_path, standard_involution(1).mat)
    assert main(["classify", path, "--p", "1"]) == 0
    out = capsys.readouterr().out
    assert "case free" in out
    assert "bounded yes" in out
    assert "norm 1" in out


def test_classify_reports_unbounded_pair(tmp_path, capsys):
    path = _matrix_file(tmp_path, SINGULAR_B)
    assert main(["classify", path, "--p", "1", "--q", "inf"]) == 0
    out = capsys.readouterr().out
    assert "case singular-nonzero-B" in out
    assert "bounded no" in out
    assert "norm" not in out.replace("bounded no", "")


def test_classify_norm_overflow_names_the_power_and_p(tmp_path, capsys):
    # Python's own text was "(34, 'Numerical result out of range')"
    path = _matrix_file(tmp_path, np.diag([1e10, 1e-10]))
    assert main(["classify", path, "--p", "0.01"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: |det A| ** (1/p - 1/2) is out of range for p=0.01 (|det A| = 1e+10)\n"


def test_classify_ambiguous_tolerance_is_exit_3(tmp_path, capsys):
    # upper-right block sits inside the ambiguity band around the rank cutoff
    path = _matrix_file(tmp_path, multiplier_block(np.array([[5e-9]])).mat)
    assert main(["classify", path, "--p", "2"]) == 3
    assert "error:" in capsys.readouterr().err
    # an explicit tolerance resolves it
    assert main(["classify", path, "--p", "2", "--tol", "1e-12"]) == 0
    assert "case free" in capsys.readouterr().out


# -- sample / apply ------------------------------------------------------------------


def test_sample_then_apply_preserves_l2(tmp_path, capsys):
    sig = tmp_path / "sig.txt"
    assert main(["sample", "--d", "1", "--n", "128", "--out", str(sig)]) == 0
    sampled = capsys.readouterr().out
    assert "decay-ok yes" in sampled
    mat = _matrix_file(tmp_path, standard_involution(1).mat)
    out_file = tmp_path / "out.txt"
    assert main(["apply", mat, str(sig), "--out", str(out_file)]) == 0
    out = capsys.readouterr().out
    lines = dict(line.split(maxsplit=1) for line in out.splitlines())
    assert lines["l2-in"] == lines["l2-out"]
    transformed = parse_grid_function(out_file.read_text())
    assert transformed.grid.shape == (128,)


def test_apply_rejects_a_header_larger_than_the_file(tmp_path, capsys):
    # 4e6 x 4e6 declared samples would be 233 TiB; the file holds one line
    sig = tmp_path / "huge.txt"
    sig.write_text("grid-function v1\nd 2\naxis 4000000 1\naxis 4000000 1\nvalues\n0 0\n")
    mat = _matrix_file(tmp_path, standard_involution(2).mat)
    assert main(["apply", mat, str(sig)]) == 2
    assert "line 7: unexpected end of input" in capsys.readouterr().err


def test_apply_rejects_an_infinite_axis_step(tmp_path, capsys):
    # the step's dual would be 0; the error names the axis line instead
    sig = tmp_path / "inf.txt"
    sig.write_text("grid-function v1\nd 1\naxis 4 inf\nvalues\n" + "1 0\n" * 4)
    mat = _matrix_file(tmp_path, standard_involution(1).mat)
    assert main(["apply", mat, str(sig)]) == 2
    err = capsys.readouterr().err
    assert re.search(r"line \d+: axis step must be positive and finite, got inf", err)


def test_sample_rejects_an_infinite_extent(tmp_path, capsys):
    out = tmp_path / "sig.txt"
    assert main(["sample", "--d", "1", "--n", "8", "--extent", "inf", "--out", str(out)]) == 2
    assert "extent must be positive and finite, got inf" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--shift", "nan", "time-frequency shifts must be finite"),
        ("--shift", "inf", "time-frequency shifts must be finite"),
        ("--shift", "-inf", "time-frequency shifts must be finite"),
        ("--mod", "nan", "time-frequency shifts must be finite"),
        ("--mod", "inf", "time-frequency shifts must be finite"),
        ("--lam", "nan", "dilation scales must be finite"),
        ("--lam", "inf", "dilation scales must be finite"),
        ("--lam", "-inf", "dilation scales must be positive"),
        ("--lam", "0", "dilation scales must be positive"),
    ],
    ids=lambda v: v.split()[-1] if " " in v else v,
)
def test_sample_rejects_non_finite_parameters(tmp_path, capsys, option, value, message):
    # these used to write an all-nan file with exit 0, or fail with numpy
    # warnings and a message about symmetry
    out = tmp_path / "sig.txt"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sample", "--d", "2", "--n", "8", f"{option}={value}", "--out", str(out)]) == 2
    assert caught == []
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_sample_reports_poor_decay(tmp_path, capsys):
    sig = tmp_path / "wide.txt"
    assert main(["sample", "--d", "1", "--n", "16", "--lam", "1e-6", "--out", str(sig)]) == 0
    assert "decay-ok no" in capsys.readouterr().out


# -- wigner -----------------------------------------------------------------------


def test_written_files_are_the_text_across_write_slices(tmp_path):
    # the blocks are written one by one, two-byte characters at their ends
    blocks = ["a" * ((1 << 20) - 1) + "é", "é" + "b" * ((1 << 20) - 1), "", "c" * (1 << 19)]
    path = tmp_path / "big.txt"
    _write_text(str(path), iter(blocks))
    assert path.read_bytes() == "".join(blocks).encode("utf-8")
    _write_text(str(path), iter([]))
    assert path.read_bytes() == b""


# id: (grid of the signal, whether a --window file is given)
WIGNER_FILE_CASES = {
    "d1-selfdual": (Grid.selfdual(1, 64), False),
    "d1-50-points": (Grid((Axis(50, 0.11),)), False),
    "d1-window": (Grid.selfdual(1, 64), True),
    "d2-selfdual": (Grid.selfdual(2, 8), False),
    "d2-mixed-steps-window": (Grid((Axis(8, 0.3), Axis(6, 0.45))), True),
}


@pytest.mark.parametrize("case", WIGNER_FILE_CASES)
@pytest.mark.parametrize("kind", ["wigner", "stft", "rihacek"])
def test_wigner_files_bitwise_equal_the_whole_distribution_writers(tmp_path, capsys, monkeypatch, kind, case):
    # the verb writes its files from x-row slabs, built again for each file;
    # 4 KiB slabs cut every case into several, with leftover rows at n = 50
    monkeypatch.setattr(grid_module, "SLAB_BYTES", 4096)
    grid, windowed = WIGNER_FILE_CASES[case]
    rng = np.random.default_rng(22)
    f, g = (GridFunction(grid, rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)) for _ in range(2))
    sig, win, out, csv = (tmp_path / name for name in ("sig.gf", "win.gf", "W.gf", "W.csv"))
    _write_text(str(sig), [write_grid_function(f)])
    argv = ["wigner", str(sig), "--kind", kind, "--out", str(out), "--csv", str(csv)]
    if windowed:
        _write_text(str(win), [write_grid_function(g)])
        argv += ["--window", str(win)]
    else:
        g = f if kind == "wigner" else GaussianChirp.standard(grid.d).sample(grid)
    assert main(argv) == 0
    whole = {"wigner": wigner, "stft": stft, "rihacek": rihacek}[kind](f, g)
    assert len(row_slabs(whole.grid)) > 2
    shape = " ".join(str(n) for n in whole.grid.shape)
    assert capsys.readouterr().out == f"kind {kind}\nshape {shape}\nl2 {lp_norm(whole, 2.0):.12g}\n"
    assert out.read_bytes() == write_grid_function(whole).encode()
    assert csv.read_bytes() == export_csv(whole).encode()


def test_wigner_out_peak_stays_at_a_few_slabs(tmp_path, capsys):
    # n = 512: the distribution is 4 MiB and its text about 12 MB, and a
    # whole build written from one string takes about 27 MiB.  The verb holds
    # the norm's two buffer sets of 1 MiB slabs, then the writer's, a few
    # slab copies and one block of text
    sig, out = tmp_path / "sig.gf", tmp_path / "W.gf"
    assert main(["sample", "--n", "512", "--lam", "1.2", "--out", str(sig)]) == 0
    capsys.readouterr()
    gc.collect()
    tracemalloc.start()
    try:
        assert main(["wigner", str(sig), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > 10 * 2**20
    assert peak < 3 * 16 * 512**2


def test_wigner_kinds_and_csv(tmp_path, capsys):
    sig = tmp_path / "sig.txt"
    main(["sample", "--d", "1", "--n", "64", "--out", str(sig)])
    capsys.readouterr()
    for kind in ("wigner", "stft", "rihacek"):
        csv_path = tmp_path / f"{kind}.csv"
        assert main(["wigner", str(sig), "--kind", kind, "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert f"kind {kind}" in out
        assert "shape 64 64" in out
        assert csv_path.read_text().splitlines()[0] == "x1,x2,re,im,abs"


def test_wigner_accepts_explicit_window(tmp_path, capsys):
    sig = tmp_path / "sig.txt"
    win = tmp_path / "win.txt"
    main(["sample", "--d", "1", "--n", "32", "--out", str(sig)])
    main(["sample", "--d", "1", "--n", "32", "--lam", "2.0", "--out", str(win)])
    capsys.readouterr()
    assert main(["wigner", str(sig), "--kind", "stft", "--window", str(win)]) == 0
    assert "kind stft" in capsys.readouterr().out


# -- quantize ---------------------------------------------------------------------


def test_quantize_constant_symbol_is_identity(tmp_path, capsys):
    sig_axis = Axis(8, 0.5)
    symbol_grid = Grid((sig_axis, Axis(8, sig_axis.dual().step / 2.0)))
    symbol = GridFunction(symbol_grid, np.ones((8, 8)))
    sym_path = tmp_path / "symbol.txt"
    sym_path.write_text(write_grid_function(symbol))
    assert main(["quantize", str(sym_path)]) == 0
    out = capsys.readouterr().out
    assert "points 8" in out
    assert "trace 8 0" in out
    assert "selfadjoint-defect 0" in out


def test_quantize_applies_to_signal(tmp_path, capsys):
    grid = Grid((Axis(16, 0.25),))
    rng = np.random.default_rng(0)
    symbol_grid = Grid((grid.axes[0], Axis(16, grid.axes[0].dual().step / 2.0)))
    symbol = GridFunction(symbol_grid, rng.normal(size=(16, 16)))
    signal = GridFunction(grid, rng.normal(size=16) + 1j * rng.normal(size=16))
    sym_path = tmp_path / "symbol.txt"
    sig_path = tmp_path / "signal.txt"
    sym_path.write_text(write_grid_function(symbol))
    sig_path.write_text(write_grid_function(signal))
    out_path = tmp_path / "out.txt"
    assert main(["quantize", str(sym_path), "--signal", str(sig_path), "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "l2-out" in out
    assert parse_grid_function(out_path.read_text()).grid.shape == (16,)


def test_quantize_on_a_signal_of_the_wrong_grid_prints_nothing(tmp_path, capsys):
    sig_axis = Axis(8, 0.5)
    symbol = GridFunction(Grid((sig_axis, Axis(8, sig_axis.dual().step / 2.0))), np.ones((8, 8)))
    signal = GridFunction(Grid((Axis(6, 0.5),)), np.ones(6))
    sym_path, sig_path = tmp_path / "symbol.txt", tmp_path / "signal.txt"
    sym_path.write_text(write_grid_function(symbol))
    sig_path.write_text(write_grid_function(signal))
    assert main(["quantize", str(sym_path), "--signal", str(sig_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: operator is (8, 8), signal has 6 points\n"


def test_hermitian_defect_bitwise_equals_the_two_temporary_expression():
    # quantize prints the norm of K - K^H, now from one n x n temporary
    rng = np.random.default_rng(21)
    for n in (1, 5, 64, 300):
        K = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        kept = K.copy()
        old = K - K.conj().T
        new = _hermitian_defect(K)
        assert new.flags.c_contiguous and new.tobytes() == old.tobytes()
        assert float(np.linalg.norm(new)).hex() == float(np.linalg.norm(old)).hex()
        assert K.tobytes() == kept.tobytes()


def test_quantize_rejects_odd_symbol(tmp_path, capsys):
    f = GridFunction(Grid((Axis(8, 0.5),)), np.ones(8))
    path = tmp_path / "odd.txt"
    path.write_text(write_grid_function(f))
    assert main(["quantize", str(path)]) == 2
    assert "doubled grid" in capsys.readouterr().err


# -- non-finite samples ------------------------------------------------------------

NON_FINITE_CASES = {
    # the input each verb reads the bad file as, and the argv around it
    "apply": ("signal", lambda bad, files: ["apply", files["mat"], bad]),
    "wigner": ("signal", lambda bad, files: ["wigner", bad]),
    "wigner-window": (
        "signal",
        lambda bad, files: ["wigner", files["signal"], "--kind", "stft", "--window", bad],
    ),
    "quantize-symbol": (
        "symbol",
        lambda bad, files: ["quantize", bad, "--signal", files["signal"]],
    ),
    "quantize-signal": (
        "signal",
        lambda bad, files: ["quantize", files["symbol"], "--signal", bad],
    ),
}


@pytest.mark.parametrize("token", ["inf", "nan", "1e999"])
@pytest.mark.parametrize("case", sorted(NON_FINITE_CASES))
def test_non_finite_samples_are_exit_2(tmp_path, capsys, case, token):
    # 1e999 is in the writer's own shape, so the whole-block parser reads it
    # (as inf); a non-finite sample used to run on and print nan
    sig_axis = Axis(8, 0.5)
    rng = np.random.default_rng(3)
    functions = {
        "signal": GridFunction(Grid((sig_axis,)), rng.normal(size=8)),
        "symbol": GridFunction(
            Grid((sig_axis, Axis(8, sig_axis.dual().step / 2.0))), rng.normal(size=(8, 8))
        ),
    }
    files = {"mat": _matrix_file(tmp_path, standard_involution(1).mat)}
    for name, f in functions.items():
        files[name] = str(tmp_path / f"{name}.txt")
        (tmp_path / f"{name}.txt").write_text(write_grid_function(f))
    kind, argv = NON_FINITE_CASES[case]
    lines = write_grid_function(functions[kind]).splitlines(keepends=True)
    lines[-3] = f"{token} 0.0\n"
    bad = tmp_path / "bad.txt"
    bad.write_text("".join(lines))
    out = tmp_path / "out.txt"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv(str(bad), files) + ["--out", str(out)]) == 2
    assert caught == []
    out_text, err = capsys.readouterr()
    # every input is loaded before the first result line is printed
    assert out_text == ""
    assert err == f"error: {bad}: samples must be finite, found inf or nan\n"
    assert "Warning" not in err
    assert not out.exists()


# -- failing runs ------------------------------------------------------------------

_NON_FINITE = "matrix entries must be finite, found inf or nan"

FAILING_RUNS = {
    # argv around the files {I, J, T, R, H, W, Rh, big, b, Sy, Inf, NaN, E999}
    # and the file the run must not write
    "sample-overflow": (["sample", "--n", "8", "--shift", "1e200", "--out", "{t}"], "overflow"),
    "apply-csv-overflow": (["apply", "{I}", "{big}", "--out", "{o}", "--csv", "{t}"], "overflow"),
    "wigner-overflow": (["wigner", "{b}", "--out", "{t}"], "overflow"),
    "apply-overflow": (["apply", "{I}", "{b}", "--out", "{t}"], "overflow"),
    "apply-norm-overflow": (["apply", "{I}", "{big}", "--out", "{t}"], "overflow"),
    "probe-isometry-q": (
        ["probe", "isometry", "{T}", "--p", "2", "--q", "4", "--out", "{t}"],
        "--q must equal --p",
    ),
    "probe-normequiv-tol": (
        ["probe", "normequiv", "{R}", "--p", "2", "--q", "2", "--n", "16", "--tol", "0.3", "--out", "{t}"],
        "takes no --tol",
    ),
    # --tol gets the positivity check of METAPLECTIC_TOL; these used to
    # decide with the bad cutoff
    "check-tol-zero": (["check", "{T}", "--tol", "0"], "--tol must be a positive float, got 0.0"),
    "classify-tol-negative": (["classify", "{T}", "--p", "2", "--tol", "-1"], "got -1.0"),
    "classify-tol-nan": (["classify", "{T}", "--p", "2", "--tol", "nan"], "got nan"),
    "factorize-tol": (["factorize", "{T}", "--tol=-1e-9", "--out", "{t}"], "got -1e-09"),
    "apply-tol": (["apply", "{T}", "{b}", "--tol", "0", "--out", "{t}"], "got 0.0"),
    "probe-tol": (["probe", "isometry", "{T}", "--p", "2", "--tol", "-1", "--out", "{t}"], "got -1.0"),
    # a relative cutoff of 1 or more calls every upper-right block zero; these
    # used to print "case lower-triangular" for the Fourier matrix
    "classify-tol-hundred": (["classify", "{J}", "--p", "1.5", "--tol", "100"], "--tol must be below 1, got 100.0"),
    "classify-tol-one": (["classify", "{J}", "--p", "1.5", "--tol", "1"], "--tol must be below 1, got 1.0"),
    "classify-tol-inf": (["classify", "{J}", "--p", "1.5", "--tol", "inf"], "--tol must be below 1, got inf"),
    # this used to exit 0 and write neither file
    "quantize-out-without-signal": (
        ["quantize", "{Sy}", "--out", "{o}", "--csv", "{t}"],
        "quantize writes --out and --csv only with --signal",
    ),
    # these used to end in a traceback with exit 1: a Python float overflow
    # (1e10 ** 99.5 in the closed-form norm), which np.errstate does not see,
    # and an array numpy refuses to allocate (1 EiB, past any address space)
    "classify-norm-overflow": (["classify", "{H}", "--p", "0.01"], "out of range"),
    "probe-isometry-overflow": (
        ["probe", "isometry", "{H}", "--p", "0.01", "--out", "{t}"],
        "out of range",
    ),
    "sample-memory": (["sample", "--d", "4", "--n", "16384", "--out", "{t}"], "Unable to allocate"),
    # the streamed Wigner norm: slabs built on the worker threads, |W|^3000
    # overflowing in the reducer
    "probe-normequiv-overflow": (
        ["probe", "normequiv", "{W}", "--p", "3000", "--q", "1", "--n", "16", "--out", "{t}"],
        "overflow encountered in power",
    ),
    # |V_g f|^3000 underflows in every sample, so the reference norm is 0.0;
    # this used to say "float division by zero"
    "probe-normequiv-underflow": (
        ["probe", "normequiv", "{Rh}", "--p", "3000", "--q", "1", "--n", "8", "--out", "{t}"],
        "mp_norm underflows to 0.0 at p = 3000, q = 1",
    ),
    # these used to exit 0 and print a ratio of 0: |out|^3000 underflows in
    # every sample of the L^3000 norm (and |out|^2001 of the conjugate norm),
    # and the isometry run then said "diverges" for a bounded operator
    "probe-isometry-underflow": (
        ["probe", "isometry", "{T}", "--p", "3000", "--out", "{t}"],
        "lp_norm of the output underflows to 0.0 at p = 3000, q = 3000",
    ),
    "probe-beckner-underflow": (
        ["probe", "beckner", "{J}", "--p", "1.0005", "--lambdas", "1,2,4", "--out", "{t}"],
        "lp_norm of the output underflows to 0.0 at p = 1.0005, q = 2001",
    ),
    # matrix files holding inf or nan (1e999 parses to inf): these used to
    # fail with numpy's "invalid value encountered in matmul", and check on
    # nan used to print a residual of nan
    "check-inf": (["check", "{Inf}"], _NON_FINITE),
    "check-nan": (["check", "{NaN}"], _NON_FINITE),
    "check-1e999": (["check", "{E999}"], _NON_FINITE),
    "factorize-inf": (["factorize", "{Inf}", "--out", "{t}"], _NON_FINITE),
    "factorize-1e999": (["factorize", "{E999}", "--out", "{t}"], _NON_FINITE),
    "classify-nan": (["classify", "{NaN}", "--p", "2"], _NON_FINITE),
    "apply-inf": (["apply", "{Inf}", "{b}", "--out", "{t}"], _NON_FINITE),
    "probe-nan": (["probe", "isometry", "{NaN}", "--p", "2", "--out", "{t}"], _NON_FINITE),
    "quantize-matrix-1e999": (["quantize", "{Sy}", "--matrix", "{E999}"], _NON_FINITE),
}


@pytest.mark.parametrize("case", sorted(FAILING_RUNS))
def test_a_failing_run_prints_one_error_line_and_nothing_on_stdout(tmp_path, capsys, case):
    # these used to exit 0 and print inf or nan, a numpy warning, or a report
    # for a flag the probe ignores
    files = {
        "I": _matrix_file(tmp_path, np.eye(2), "I.mat"),
        "J": _matrix_file(tmp_path, standard_involution(1).mat, "J.mat"),
        "T": _matrix_file(tmp_path, np.diag([2.0, 0.5]), "T.mat"),
        "R": _matrix_file(tmp_path, random_symplectic(4, 2).mat, "R.mat"),
        "H": _matrix_file(tmp_path, np.diag([1e10, 1e-10]), "H.mat"),
        "W": _matrix_file(tmp_path, wigner_projection(1).mat, "W.mat"),
        "Rh": _matrix_file(tmp_path, rihacek_projection(1).mat, "Rh.mat"),
        "o": str(tmp_path / "o.gf"),
        "t": str(tmp_path / "t.gf"),
    }
    grid = Grid((Axis(8, 0.5),))
    for name, value in (("big", 1.5e308 + 1.5e308j), ("b", 1e200)):
        files[name] = str(tmp_path / f"{name}.gf")
        _write_text(files[name], write_grid_function(GridFunction(grid, np.full(8, value))))
    files["Sy"] = str(tmp_path / "Sy.gf")
    symbol_grid = Grid((grid.axes[0], Axis(8, grid.axes[0].dual().step / 2.0)))
    _write_text(files["Sy"], write_grid_function(GridFunction(symbol_grid, np.ones((8, 8)))))
    files["Inf"] = _matrix_file(tmp_path, np.diag([np.inf, 1.0]), "Inf.mat")
    files["NaN"] = _matrix_file(tmp_path, [[1.0, np.nan], [0.0, 1.0]], "NaN.mat")
    files["E999"] = str(tmp_path / "E999.mat")
    _write_text(files["E999"], ["symplectic-matrix v1\nd 1\nrow 1e999 0.0\nrow 0.0 1.0\n"])
    argv, message = FAILING_RUNS[case]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([a.format(**files) for a in argv]) == 2
    assert caught == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not (tmp_path / "t.gf").exists()


def test_an_environment_tol_of_one_or_more_is_exit_2(tmp_path, capsys, monkeypatch):
    # this used to print "case lower-triangular" for the Fourier matrix
    path = _matrix_file(tmp_path, standard_involution(1).mat)
    monkeypatch.setenv("METAPLECTIC_TOL", "2")
    assert main(["classify", path, "--p", "1.5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: METAPLECTIC_TOL must be below 1, got '2'\n"


# -- probe ------------------------------------------------------------------------


def test_probe_beckner_report(tmp_path, capsys):
    path = _matrix_file(tmp_path, standard_involution(1).mat)
    out_path = tmp_path / "report.txt"
    assert main(["probe", "beckner", path, "--p", "1", "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "probe-report v1"
    assert "verdict bounded" in out
    assert out_path.read_text() == out


def test_probe_unbounded_diverges(tmp_path, capsys):
    path = _matrix_file(tmp_path, SINGULAR_B)
    lams = ",".join(str(v) for v in np.geomspace(1.0, 100.0, 5))
    code = main(["probe", "unbounded", path, "--p", "1", "--q", "inf", "--n", "128", "--lambdas", lams])
    assert code == 0
    assert "verdict diverges" in capsys.readouterr().out


def test_probe_unbounded_requires_q(tmp_path, capsys):
    path = _matrix_file(tmp_path, SINGULAR_B)
    assert main(["probe", "unbounded", path, "--p", "1"]) == 2
    assert "needs both" in capsys.readouterr().err


def test_probe_normequiv_requires_q(tmp_path, capsys):
    path = _matrix_file(tmp_path, wigner_projection(1).mat)
    assert main(["probe", "normequiv", path, "--p", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: probe normequiv needs both --p and --q\n"


def test_probe_isometry(tmp_path, capsys):
    mat = np.diag([2.0, 0.5])  # vanishing upper-right block, det A = 2
    path = _matrix_file(tmp_path, mat)
    assert main(["probe", "isometry", path, "--p", "2"]) == 0
    assert "verdict converges" in capsys.readouterr().out


def test_probe_normequiv(tmp_path, capsys):
    path = _matrix_file(tmp_path, wigner_projection(1).mat)
    code = main(["probe", "normequiv", path, "--p", "1", "--q", "1", "--n", "256"])
    assert code == 0
    assert "verdict bounded" in capsys.readouterr().out


# -- demo -------------------------------------------------------------------------


def test_demo_table(capsys):
    assert main(["demo", "--steps", "4"]) == 0
    out = capsys.readouterr().out
    assert "shift-invertible no" in out
    table = [line for line in out.splitlines() if line and line[0].isdigit()]
    assert len(table) == 4
    # every perturbed matrix in the table must come out shift-invertible
    assert all(line.endswith("yes") for line in table)


def test_demo_is_byte_stable(capsys):
    assert main(["demo", "--steps", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["demo", "--steps", "3"]) == 0
    assert capsys.readouterr().out == first
