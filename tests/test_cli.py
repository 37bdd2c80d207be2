"""End-to-end tests of the command-line front end, run in process.

Every invocation goes through main(argv); exit codes and the printed text
are part of the contract (0 success, 2 invalid input, 3 tolerance
ambiguity; output byte-stable across repeated runs).
"""

import re
import warnings

import numpy as np
import pytest

from metaplectic.cli import _write_text, main
from metaplectic.io import (
    parse_dj,
    parse_grid_function,
    write_grid_function,
    write_matrix,
)
from metaplectic.metaplectic_numeric import Axis, Grid, GridFunction, wigner_projection
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
    # 2.5 MiB in 1 MiB slices, a two-byte character on each slice boundary
    text = "".join(["a" * ((1 << 20) - 1), "é", "b" * ((1 << 20) - 1), "é", "c" * (1 << 19)])
    path = tmp_path / "big.txt"
    _write_text(str(path), text)
    assert path.read_bytes() == text.encode("utf-8")
    _write_text(str(path), "")
    assert path.read_bytes() == b""


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

FAILING_RUNS = {
    # argv around the files {I, T, R, big, b} and the file the run must not write
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
}


@pytest.mark.parametrize("case", sorted(FAILING_RUNS))
def test_a_failing_run_prints_one_error_line_and_nothing_on_stdout(tmp_path, capsys, case):
    # these used to exit 0 and print inf or nan, a numpy warning, or a report
    # for a flag the probe ignores
    files = {
        "I": _matrix_file(tmp_path, np.eye(2), "I.mat"),
        "T": _matrix_file(tmp_path, np.diag([2.0, 0.5]), "T.mat"),
        "R": _matrix_file(tmp_path, random_symplectic(4, 2).mat, "R.mat"),
        "H": _matrix_file(tmp_path, np.diag([1e10, 1e-10]), "H.mat"),
        "W": _matrix_file(tmp_path, wigner_projection(1).mat, "W.mat"),
        "o": str(tmp_path / "o.gf"),
        "t": str(tmp_path / "t.gf"),
    }
    grid = Grid((Axis(8, 0.5),))
    for name, value in (("big", 1.5e308 + 1.5e308j), ("b", 1e200)):
        files[name] = str(tmp_path / f"{name}.gf")
        _write_text(files[name], write_grid_function(GridFunction(grid, np.full(8, value))))
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
