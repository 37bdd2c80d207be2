"""Tests for the plain-text file formats.

Floats are written with repr, so a write -> parse cycle must reproduce every
array bitwise; parse failures must carry the 1-based line number of the raw
input line (comments and blank lines count).
"""

import numpy as np
import pytest

from metaplectic.io import (
    export_csv,
    parse_dj,
    parse_grid_function,
    parse_matrix,
    write_dj,
    write_grid_function,
    write_matrix,
    write_probe_report,
)
from metaplectic.metaplectic_numeric import Axis, Grid, GridFunction
from metaplectic.probes import ProbeReport
from metaplectic.symplectic_core import SymplecticMatrix, dj_factorize, random_symplectic


# -- matrices -------------------------------------------------------------------


def test_matrix_round_trip_bitwise():
    mat = random_symplectic(5, 2).mat
    text = write_matrix(mat)
    back = parse_matrix(text)
    assert np.array_equal(back, mat)
    assert text.splitlines()[0] == "symplectic-matrix v1"


def test_matrix_label_is_optional_and_skipped():
    mat = np.eye(2)
    text = write_matrix(mat, label="identity example")
    assert "label identity example" in text
    assert np.array_equal(parse_matrix(text), mat)


def test_matrix_parser_does_not_enforce_symplecticity():
    # validation is the caller's job (the CLI check verb); the parser only
    # cares about shape
    mat = np.arange(16, dtype=float).reshape(4, 4)
    assert np.array_equal(parse_matrix(write_matrix(mat)), mat)


def test_write_matrix_rejects_odd_side():
    with pytest.raises(ValueError, match="even side"):
        write_matrix(np.eye(3))


def test_matrix_parse_reports_line_numbers_through_comments():
    text = "\n".join(
        [
            "symplectic-matrix v1",
            "# a comment line",
            "d 1",
            "",
            "row 1.0 0.0",
            "row 0.0",  # line 6: too short
        ]
    )
    with pytest.raises(ValueError, match="line 6"):
        parse_matrix(text)


def test_matrix_parse_rejects_bad_header():
    with pytest.raises(ValueError, match="line 1"):
        parse_matrix("grid-function v1\nd 1\n")


def test_matrix_parse_rejects_trailing_content():
    text = write_matrix(np.eye(2)) + "row 1.0 0.0\n"
    with pytest.raises(ValueError, match="trailing content"):
        parse_matrix(text)


def test_matrix_parse_rejects_truncated_input():
    text = "symplectic-matrix v1\nd 2\nrow 1 0 0 0\n"
    with pytest.raises(ValueError, match="unexpected end of input"):
        parse_matrix(text)


# -- sampled functions ------------------------------------------------------------


def test_grid_function_round_trip_bitwise():
    rng = np.random.default_rng(6)
    grid = Grid((Axis(8, 0.25), Axis(4, 0.5)))
    f = GridFunction(grid, rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4)))
    back = parse_grid_function(write_grid_function(f))
    assert back.grid.close_to(f.grid)
    assert np.array_equal(back.values, f.values)


def test_grid_function_round_trip_1d():
    grid = Grid((Axis(16, 0.125),))
    f = GridFunction(grid, np.exp(1j * np.arange(16.0)))
    back = parse_grid_function(write_grid_function(f))
    assert np.array_equal(back.values, f.values)


def test_grid_function_parse_needs_values_marker():
    text = "grid-function v1\nd 1\naxis 4 0.5\n1.0 0.0\n"
    with pytest.raises(ValueError, match="values marker"):
        parse_grid_function(text)


def test_grid_function_parse_rejects_short_value_line():
    text = "grid-function v1\nd 1\naxis 2 0.5\nvalues\n1.0 0.0\n2.0\n"
    with pytest.raises(ValueError, match="line 6"):
        parse_grid_function(text)


def test_grid_function_parse_rejects_missing_values():
    text = "grid-function v1\nd 1\naxis 4 0.5\nvalues\n1.0 0.0\n"
    with pytest.raises(ValueError, match="unexpected end of input"):
        parse_grid_function(text)


GRID_1D = "grid-function v1\nd 1\n"
DJ_1D = "dj-factorization v1\nd 1\n"


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_grid_function, GRID_1D + "axis abc 0.5\n"),
        (parse_grid_function, GRID_1D + "axis 3 0.5\n"),
        (parse_grid_function, GRID_1D + "axis 4\n"),
        (parse_grid_function, GRID_1D + "axis 4 -1\n"),
        (parse_grid_function, "grid-function v1\nd x\n"),
        (parse_matrix, "symplectic-matrix v1\nd x\n"),
        (parse_dj, "dj-factorization v1\nd x\n"),
        (parse_dj, DJ_1D + "subset -\nresidual abc\n"),
        (parse_dj, DJ_1D + "subset 3\nresidual 0.0\n"),
    ],
    ids=[
        "axis-n-not-int",
        "axis-n-odd",
        "axis-without-step",
        "axis-step-negative",
        "grid-function-d-not-int",
        "matrix-d-not-int",
        "dj-d-not-int",
        "residual-not-float",
        "subset-out-of-range",
    ],
)
def test_parse_errors_name_their_line(parse, text):
    with pytest.raises(ValueError, match=r"line \d+"):
        parse(text)


# -- factorization reports ---------------------------------------------------------


def test_dj_round_trip_bitwise():
    fact = dj_factorize(random_symplectic(7, 3))
    back = parse_dj(write_dj(fact))
    assert np.array_equal(back.Q, fact.Q)
    assert np.array_equal(back.L, fact.L)
    assert np.array_equal(back.P, fact.P)
    assert back.J.members == fact.J.members
    assert back.residual == fact.residual


def test_dj_round_trip_empty_subset():
    fact = dj_factorize(SymplecticMatrix(np.eye(4)))
    assert fact.J.members == ()
    text = write_dj(fact)
    assert "subset -" in text
    back = parse_dj(text)
    assert back.J.members == ()


def test_dj_parse_rejects_non_integer_subset():
    text = write_dj(dj_factorize(SymplecticMatrix(np.eye(2)))).replace("subset -", "subset a b")
    with pytest.raises(ValueError, match="subset entries must be integers"):
        parse_dj(text)


# -- probe reports and CSV -----------------------------------------------------------


def test_probe_report_write_mentions_everything():
    r = ProbeReport(
        probe="beckner",
        parameters={"p": 1.0, "d": 1},
        ratios=(0.5, 0.5),
        reference=0.5,
        verdict="bounded",
    )
    text = write_probe_report(r)
    lines = text.splitlines()
    assert lines[0] == "probe-report v1"
    assert "probe beckner" in lines
    assert "param p 1" in text
    assert "param d 1" in text
    assert "reference 0.5" in text
    assert "ratios 0.5 0.5" in text
    assert lines[-1] == "verdict bounded"


def test_export_csv_layout():
    grid = Grid((Axis(4, 0.5),))
    f = GridFunction(grid, np.array([1.0, 2.0, 3.0 + 4.0j, 0.0]))
    text = export_csv(f)
    lines = text.splitlines()
    assert lines[0] == "x1,re,im,abs"
    assert len(lines) == 5
    # the centered axis puts the third sample at x = 0, value 3 + 4i
    assert lines[3] == "0,3,4,5"
    assert lines[4] == "0.5,0,0,0"
