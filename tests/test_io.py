"""Tests for the plain-text file formats.

Floats are written with repr, so a write -> parse cycle must reproduce every
array bitwise; parse failures must carry the 1-based line number of the raw
input line (comments and blank lines count).  A values block in the
writer's own shape is converted by numpy in whole chunks; every other block
goes through the line-by-line parser, and the two must agree on every input.
"""

import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metaplectic.io
from metaplectic.io import (
    _parse_grid_lines,
    _parse_written_block,
    csv_blocks,
    export_csv,
    grid_function_blocks,
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
from metaplectic.symplectic_core import (
    DJFactorization,
    IndexSet,
    SymplecticMatrix,
    dj_factorize,
    random_symplectic,
)
from oracles import (
    looped_write_dj,
    looped_write_grid_function,
    looped_write_matrix,
    rowwise_export_csv,
)
from test_interchange_search import CORPUS, _matrix


# -- matrices -------------------------------------------------------------------


def test_matrix_round_trip_bitwise():
    mat = random_symplectic(5, 2).mat
    text = write_matrix(mat)
    back = parse_matrix(text)
    assert np.array_equal(back, mat)
    assert text.splitlines()[0] == "symplectic-matrix v1"


def test_write_matrix_rejects_an_empty_matrix():
    # "d 0" with no rows is a file parse_matrix refuses
    with pytest.raises(ValueError, match=r"even side >= 2, got shape \(0, 0\)"):
        write_matrix(np.zeros((0, 0)))


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


@pytest.mark.parametrize(
    "written, parse",
    [
        (lambda: write_matrix(np.eye(2)), parse_matrix),
        (lambda: write_grid_function(GridFunction(Grid((Axis(4, 0.5),)), np.ones(4))), parse_grid_function),
        (lambda: write_dj(dj_factorize(random_symplectic(3, 1))), parse_dj),
    ],
    ids=["matrix", "grid-function", "dj"],
)
def test_matrix_parse_rejects_trailing_content(written, parse):
    text = written() + "row 1.0 0.0\n"
    with pytest.raises(ValueError, match="trailing content"):
        parse(text)


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
    assert back.values.tobytes() == f.values.tobytes()


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


# -- the whole-block values parse against the line-by-line parser -----------------

MAX_FLOAT = 1.7976931348623157e308
SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072e-310, MAX_FLOAT, -MAX_FLOAT]

#: one component: any finite float, or a special one (NaN only as the one
#: float("nan") reads back, so that the round trip can be exact)
COMPONENTS = st.floats(allow_nan=False) | st.sampled_from(SPECIAL)


@st.composite
def grid_functions(draw, components=COMPONENTS):
    shape = draw(st.sampled_from([(2,), (4,), (6,), (2, 2), (4, 2), (2, 6)]))
    steps = draw(st.lists(st.floats(1e-3, 1e3), min_size=len(shape), max_size=len(shape)))
    grid = Grid(tuple(Axis(n, step) for n, step in zip(shape, steps)))
    count = 2 * math.prod(shape)
    parts = draw(st.lists(components, min_size=count, max_size=count))
    return GridFunction(grid, np.array(parts, dtype=float).view(complex).reshape(shape))


def _outcome(parse, text):
    """The parsed values as bytes, or the error text."""
    try:
        return parse(text).values.tobytes()
    except ValueError as exc:
        return str(exc)


def _fast(text):
    """The whole-block parse alone: values as bytes, or None when it declines."""
    try:
        f = _parse_written_block(text)
    except ValueError:
        return None
    return None if f is None else f.values.tobytes()


@settings(max_examples=200, deadline=None)
@given(f=grid_functions())
def test_grid_function_round_trip_is_bytewise_exact(f):
    text = write_grid_function(f)
    assert text == looped_write_grid_function(f)
    assert parse_grid_function(text).values.tobytes() == f.values.tobytes()
    if np.all(np.isfinite(f.values.view(float))):
        assert _fast(text) == f.values.tobytes()
    else:
        # inf and nan are spelled with letters: the line parser reads them
        assert _fast(text) is None


@settings(max_examples=100, deadline=None)
@given(f=grid_functions(st.floats()))
def test_writer_matches_the_looped_writer_for_any_nan(f):
    assert write_grid_function(f) == looped_write_grid_function(f)


@pytest.mark.parametrize("block_lines", [1, 3, 4, 7, 64])
def test_whole_block_parse_is_chunk_independent(monkeypatch, block_lines):
    rng = np.random.default_rng(14)
    parts = rng.normal(size=48) * 10.0 ** rng.integers(-300, 300, size=48)
    parts[1::4] = -0.0
    f = GridFunction(Grid((Axis(6, 0.25), Axis(4, 0.5))), parts.view(complex).reshape(6, 4))
    text = write_grid_function(f)
    monkeypatch.setattr(metaplectic.io, "_BLOCK_LINES", block_lines)
    assert _fast(text) == f.values.tobytes() == _outcome(_parse_grid_lines, text)


GRID_4 = "grid-function v1\nd 1\naxis 4 0.5\nvalues\n"
VALUES_4 = "1 0\n2 0\n3 0\n4 0\n"

BLOCK_CASES = {
    # id: (text, takes the whole-block parse)
    "written-shape": (GRID_4 + "1.5 -0.0\n-2e-05 3.0\n0.0 1e+300\n-0.0 4.0\n", True),
    "signs-and-exponents": (GRID_4 + "+1. .5\n1E5 -0\n1e-400 9e999\n-.0 +0.0\n", True),
    "comment-in-values": (GRID_4 + "1 0\n# note\n2 0\n3 0\n4 0\n", False),
    "blank-line-in-values": (GRID_4 + "1 0\n\n2 0\n3 0\n4 0\n", False),
    "crlf": ((GRID_4 + VALUES_4).replace("\n", "\r\n"), False),
    "tab": (GRID_4 + "1\t0\n2 0\n3 0\n4 0\n", False),
    "form-feed-break": (GRID_4 + "1 0\x0c2 0\n3 0\n4 0\n", False),
    "nel-break": (GRID_4 + "1 0\x852 0\n3 0\n4 0\n", False),
    "underscores": (GRID_4 + "1_0 0\n2 0\n3 0\n4 0\n", False),
    "three-tokens-then-one": (GRID_4 + "1 0 5\n2\n3 0\n4 0\n", False),
    "double-space": (GRID_4 + "1  0\n2 0\n3 0\n4 0\n", False),
    "leading-space": (GRID_4 + " 1 0\n2 0\n3 0\n4 0\n", False),
    "trailing-space": (GRID_4 + "1 0 \n2 0\n3 0\n4 0\n", False),
    "no-final-newline": (GRID_4 + VALUES_4[:-1], False),
    "bad-token": (GRID_4 + "1e 0\n2 0\n3 0\n4 0\n", False),
    "inf-and-nan": (GRID_4 + "inf -nan\nnan 0\n-inf 0\n4 0\n", False),
    "trailing-content": (GRID_4 + VALUES_4 + "5 0\n", False),
    "trailing-content-without-newline": (GRID_4 + VALUES_4 + "5", False),
    "truncated": (GRID_4 + "1 0\n2 0\n3 0\n", False),
    "header-exceeds-file": ("grid-function v1\nd 1\naxis 99999999998 0.5\nvalues\n1 0\n", False),
    "indented-marker": (GRID_4.replace("values", "  values") + VALUES_4, False),
    "second-marker": (GRID_4 + "values\n" + VALUES_4, False),
    "indented-marker-then-plain-marker": (GRID_4.replace("values", "  values") + "values\n" + VALUES_4, False),
    "extra-axis": ("grid-function v1\nd 1\naxis 4 0.5\naxis 4 0.5\nvalues\n" + VALUES_4, False),
    "non-ascii-comment": ("grid-function v1\n# é\nd 1\naxis 4 0.5\nvalues\n" + VALUES_4, False),
    # with one-line blocks the first two blocks end at the last value line,
    # so the third holds the fragment alone, with no newline
    "fragment-after-two-blocks": (
        "grid-function v1\nd 1\naxis 34 0.5\nvalues\n" + "1 0\n" * 34 + "5",
        False,
    ),
}


@pytest.mark.parametrize("text, fast", BLOCK_CASES.values(), ids=BLOCK_CASES.keys())
def test_grid_function_parse_agrees_with_the_line_parser(text, fast):
    assert _outcome(parse_grid_function, text) == _outcome(_parse_grid_lines, text)
    assert (_fast(text) is not None) == fast


@pytest.mark.parametrize("text, fast", BLOCK_CASES.values(), ids=BLOCK_CASES.keys())
def test_grid_function_parse_agrees_with_the_line_parser_in_small_blocks(monkeypatch, text, fast):
    # blocks of about three value lines: a case's lines span several blocks
    monkeypatch.setattr(metaplectic.io, "_BLOCK_LINES", 1)
    test_grid_function_parse_agrees_with_the_line_parser(text, fast)


def test_writer_peak_is_bounded_by_the_text():
    # a 512 x 512 distribution, as the CLI's wigner verb writes at n=512:
    # the writer holds its formatted blocks and the joined text, and one
    # block's numbers as Python floats
    rng = np.random.default_rng(18)
    values = rng.normal(size=(512, 512)) + 1j * rng.normal(size=(512, 512))
    f = GridFunction(Grid((Axis(512, 0.05), Axis(512, 0.04))), values)
    tracemalloc.start()
    try:
        text = write_grid_function(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(text)


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


_SPECIAL = np.array([0.0, -0.0, 5e-324, -1e-300, 1e300, np.inf, -np.inf, np.nan])


def _random_complex(seed, shape, scale_re=1.0, scale_im=1.0):
    re, im = np.random.default_rng(seed).normal(size=(2, *shape))
    return scale_re * re + 1j * scale_im * im


def _special_pairs():
    """Every (re, im) pair of the special values, both signed zeros among them."""
    v = np.empty((_SPECIAL.size, _SPECIAL.size), dtype=complex)
    v.real, v.imag = _SPECIAL[:, None], _SPECIAL[None, :]
    return v.ravel()


@pytest.mark.parametrize(
    "f",
    [
        GridFunction(Grid((Axis(64, 0.3),)), _random_complex(1, (64,))),
        GridFunction(Grid((Axis(8, 0.5), Axis(6, 1.0 / 3.0))), _random_complex(2, (8, 6), 1e-200, 1e200)),
        GridFunction(Grid((Axis(_SPECIAL.size**2, 1.0),)), _special_pairs()),
    ],
    ids=["d1", "d2", "special-values"],
)
def test_export_csv_bytes_equal_the_row_writer(f):
    # on some builds the array np.abs rounds random complex values apart
    # from the scalar abs in the last bit, which %.12g can show
    assert export_csv(f) == rowwise_export_csv(f)


def _special_dj(d: int) -> DJFactorization:
    blocks = np.resize(_SPECIAL, (3, d, d))
    return DJFactorization(*blocks, J=IndexSet(d, (1,)), residual=np.nan)


@pytest.fixture(scope="module")
def corpus_factorizations():
    return {name: dj_factorize(_matrix(name)) for name in sorted(CORPUS)}


@pytest.mark.parametrize("block_lines", [1, 3, 7, 64, 1 << 14])
def test_matrix_and_dj_writers_equal_the_looped_writers(monkeypatch, block_lines, corpus_factorizations):
    monkeypatch.setattr(metaplectic.io, "_BLOCK_LINES", block_lines)
    for name, fact in corpus_factorizations.items():
        S = _matrix(name).mat
        assert write_matrix(S, label=name) == looped_write_matrix(S, label=name), name
        assert write_dj(fact) == looped_write_dj(fact), name
    special = np.resize(_SPECIAL, (10, 10))
    assert write_matrix(special) == looped_write_matrix(special)
    for d in (1, 3, 9):
        assert write_dj(_special_dj(d)) == looped_write_dj(_special_dj(d))


@pytest.mark.parametrize("block_lines", [1, 3, 7, 64])
def test_grid_function_writer_is_block_independent(monkeypatch, block_lines):
    monkeypatch.setattr(metaplectic.io, "_BLOCK_LINES", block_lines)
    for f in (
        GridFunction(Grid((Axis(8, 0.5), Axis(6, 1.0 / 3.0))), _random_complex(3, (8, 6), 1e-200, 1e200)),
        GridFunction(Grid((Axis(_SPECIAL.size**2, 1.0),)), _special_pairs()),
    ):
        assert write_grid_function(f) == looped_write_grid_function(f)


@pytest.mark.parametrize("block_lines", [1, 3, 7, 48, 64])
def test_export_csv_is_block_independent(monkeypatch, block_lines):
    # one row per block, blocks that leave a remainder, and one block that
    # holds every row of one table and only part of the other
    monkeypatch.setattr(metaplectic.io, "_BLOCK_LINES", block_lines)
    for f in (
        GridFunction(Grid((Axis(8, 0.5), Axis(6, 1.0 / 3.0))), _random_complex(3, (8, 6), 1e-200, 1e200)),
        GridFunction(Grid((Axis(_SPECIAL.size**2, 1.0),)), _special_pairs()),
    ):
        assert export_csv(f) == rowwise_export_csv(f)


@pytest.mark.parametrize("rows_per_slab", [1, 3, 8])
def test_block_writers_of_any_row_cut_equal_the_whole_writers(rows_per_slab):
    # the CLI feeds the writers a distribution's x-row slabs one at a time
    for f in (
        GridFunction(Grid((Axis(8, 0.5), Axis(6, 1.0 / 3.0))), _random_complex(3, (8, 6), 1e-200, 1e200)),
        GridFunction(Grid((Axis(_SPECIAL.size**2, 1.0),)), _special_pairs()),
    ):
        n = f.grid.shape[0]
        slabs = [f.values[i : i + rows_per_slab] for i in range(0, n, rows_per_slab)]
        assert "".join(grid_function_blocks(f.grid, slabs)) == looped_write_grid_function(f)
        assert "".join(csv_blocks(f.grid, slabs)) == rowwise_export_csv(f)


@pytest.mark.parametrize("seed", range(4))
def test_block_writers_of_any_c_order_cut_equal_the_whole_writers(seed):
    # the distribution's slabs may cut an x-row (a tuple of slices of the
    # leading axes), so the writers take consecutive C-order blocks of any
    # shape: flat runs that cross rows, and sub-row blocks that keep their
    # axes, between cuts drawn at random
    grid = Grid((Axis(4, 0.5), Axis(6, 1.0 / 3.0), Axis(2, 0.7)))
    f = GridFunction(grid, _random_complex(seed, grid.shape, 1e-200, 1e200))
    rng = np.random.default_rng(seed)
    bounds = [0, *sorted(rng.choice(np.arange(1, f.values.size), 5, replace=False)), f.values.size]
    flat = [f.values.ravel()[a:b] for a, b in zip(bounds, bounds[1:])]
    sub_rows = [f.values[i : i + 1, j : j + 4] for i in range(4) for j in (0, 4)]
    for slabs in (flat, sub_rows):
        assert "".join(grid_function_blocks(grid, slabs)) == write_grid_function(f)
        assert "".join(csv_blocks(grid, slabs)) == export_csv(f)


# -- parsing from an open file ------------------------------------------------------

#: components the streamed parse must carry bit for bit: signed zeros,
#: subnormals, 17-digit values and the extremes
STREAM_PARTS = [
    -0.0, 0.0, 5e-324, -2.2250738585072e-310, 0.30000000000000004, -1.2345678901234567e-300,
    MAX_FLOAT, -1.7976931348623155e308, 2.220446049250313e-16, 123456789.01234567,
]


def _parse_file(path):
    with open(path, encoding="utf-8") as fh:
        return parse_grid_function(fh)


def _file_outcome(path):
    """The file parsed from disk: values as bytes, or the error text."""
    try:
        return _parse_file(path).values.tobytes()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("second", range(len(STREAM_PARTS) // 2))
def test_streamed_parse_bitwise_equals_the_whole_text_parse(tmp_path, monkeypatch, second):
    # blocks of 64 characters, each ending at the first newline after that.
    # The first value line, "-0.<pad zeros> 0.0", takes 8 + pad characters,
    # so pads 0-63 put the read boundary at every position of the second
    # value line (its characters, its space and its newline); each pair of
    # STREAM_PARTS takes that line once
    monkeypatch.setattr(metaplectic.io, "_BLOCK_LINES", 1)
    parts = np.resize(np.roll(STREAM_PARTS, -2 * second), 2 * 24)
    parts[:2] = -0.0, 0.0
    f = GridFunction(Grid((Axis(6, 0.25), Axis(4, 0.5))), parts.view(complex).reshape(6, 4))
    lines = write_grid_function(f).splitlines(keepends=True)
    first = lines.index("values\n") + 1
    assert lines[first] == "-0.0 0.0\n" and len(lines[first + 1]) < 57
    path = tmp_path / "f.gf"
    for pad in range(64):
        lines[first] = "-0." + "0" * pad + " 0.0\n"
        text = "".join(lines)
        path.write_text(text)
        with open(path, encoding="utf-8") as fh:
            streamed = _parse_written_block(fh)
        assert streamed is not None, pad
        assert streamed.values.tobytes() == _parse_grid_lines(text).values.tobytes() == f.values.tobytes(), pad
        assert _parse_file(path).values.tobytes() == f.values.tobytes(), pad


def _lines_file(count, last):
    """A 1-D grid-function text of ``count`` value lines, the last one ``last``."""
    values = "".join(f"{k / 7!r} {-k / 3!r}\n" for k in range(count - 1))
    return f"grid-function v1\nd 1\naxis {count} 0.5\nvalues\n{values}{last}"


# id: (text, the line parser's error, or None when the text parses)
STREAM_ERRORS = {
    "malformed-last-line": (_lines_file(3000, "1.0 x\n"), "line 3004: value entries must be numbers"),
    "short-last-line": (_lines_file(3000, "1.0\n"), "line 3004: expected '<re> <im>', got '1.0'"),
    "crlf": (_lines_file(3000, "1.0 2.0\n").replace("\n", "\r\n"), None),
    "crlf-malformed": (_lines_file(3000, "1.0 2.0 3.0\n").replace("\n", "\r\n"), "line 3004: expected"),
    "non-ascii-comment-in-last-block": (_lines_file(3000, "# é\n1.0 2.0\n"), None),
    "non-ascii-digit": (_lines_file(3000, "1.0 ２\n"), None),
    "non-ascii-malformed": (_lines_file(3000, "1.0 é\n"), "line 3004: value entries must be numbers"),
    "header-exceeds-file": (
        "grid-function v1\nd 2\naxis 4000000 1\naxis 4000000 1\nvalues\n0 0\n",
        "line 7: unexpected end of input (expected 'a value line')",
    ),
}


@pytest.mark.parametrize("text, error", STREAM_ERRORS.values(), ids=STREAM_ERRORS.keys())
def test_a_file_parses_as_its_whole_text(tmp_path, monkeypatch, text, error):
    # a file that leaves the writer's shape in its last block is read again,
    # whole, by the line parser: the same values, or the same error and line.
    # Blocks of about 1 KiB: the 3000 value lines take about 100
    monkeypatch.setattr(metaplectic.io, "_BLOCK_LINES", 16)
    path = tmp_path / "f.gf"
    path.write_bytes(text.encode("utf-8"))
    whole = path.read_text(encoding="utf-8")
    outcome = _file_outcome(path)
    assert outcome == _outcome(_parse_grid_lines, whole)
    if error is None:
        assert isinstance(outcome, bytes)
    else:
        assert outcome.startswith(error)


def test_a_pipe_parses_as_its_whole_text():
    # a pipe cannot be read twice, so it is read whole before parsing
    for text in (_lines_file(20, "1.0 2.0\n"), _lines_file(20, "1.0\n")):
        read_end, write_end = os.pipe()
        os.write(write_end, text.encode())
        os.close(write_end)
        with open(read_end, encoding="utf-8") as fh:
            assert not fh.seekable()
            try:
                outcome = parse_grid_function(fh).values.tobytes()
            except ValueError as exc:
                outcome = str(exc)
        assert outcome == _outcome(_parse_grid_lines, text)


def test_a_header_larger_than_the_file_allocates_nothing(tmp_path):
    # 2^28 declared samples would be a 4 GiB array; the file holds one line
    path = tmp_path / "huge.gf"
    path.write_text("grid-function v1\nd 2\naxis 16384 1\naxis 16384 1\nvalues\n0 0\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="line 7: unexpected end of input"):
            _parse_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
