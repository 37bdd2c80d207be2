"""Plain-text file formats for matrices, sampled functions and reports.

Every format is line based, starts with a ``<kind> v1`` header, ignores
blank lines and ``#`` comments, and round-trips through ``repr``-exact
floats.  Parse errors carry the 1-based line number of the offending line.
The writers format their float tables one block of lines at a time.  The
sampled-function writers are generators of those blocks
(``grid_function_blocks``, ``csv_blocks``) fed with consecutive C-order
blocks of the values, of any shape, so a caller that writes each block as
it comes never holds the whole text; ``write_grid_function`` and
``export_csv`` join them.

* ``symplectic-matrix v1`` — ``d <int>``, optional ``label <text>``, then
  2d ``row`` lines of 2d entries each.
* ``grid-function v1``     — ``d <int>``, d ``axis <n> <step>`` lines, a
  ``values`` marker, then one ``<re> <im>`` line per sample in C order.
  A values block in the writer's own shape (ASCII digits, ``.+-eE``, one
  space and a final newline on each of exactly the declared number of
  lines) is checked and converted by numpy one block of about 64 KiB of
  text at a time, read from the file as it goes when the parser is given
  an open file; every other layout (comments, blank lines, other whitespace,
  ``inf``/``nan``, any error) is read whole into the line-by-line parser,
  the only parser that reports errors.
* ``dj-factorization v1``  — ``d``, ``subset`` (1-based members or ``-``),
  ``residual``, then ``Q``/``L``/``P`` sections of ``row`` lines.
* ``probe-report v1``      — write-only summary of a probe run.
* CSV export               — flattened ``coordinates..., re, im, abs``
  table of a sampled function, for plotting.
"""

from __future__ import annotations

import math
import os
from typing import Callable, Iterable, Iterator, TextIO, TypeVar

import numpy as np

from .metaplectic_numeric import Axis, Grid, GridFunction
from .symplectic_core import DJFactorization, IndexSet

T = TypeVar("T")


class _Lines:
    """Cursor over meaningful lines that remembers file positions."""

    def __init__(self, text: str):
        raw_lines = text.splitlines()
        self.items = []
        for lineno, raw in enumerate(raw_lines, start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            self.items.append((lineno, stripped))
        self.pos = 0
        #: the line a truncated input is missing
        self.end = len(raw_lines) + 1

    def ended(self, expect: str | None = None) -> ValueError:
        """The end-of-input error; it names the line the input stops before."""
        return ValueError(
            f"line {self.end}: unexpected end of input" + (f" (expected {expect!r})" if expect else "")
        )

    def next(self, expect: str | None = None) -> tuple[int, str]:
        if self.pos >= len(self.items):
            raise self.ended(expect)
        item = self.items[self.pos]
        self.pos += 1
        return item

    def take(self, keyword: str, convert: Callable[[list[str]], T]) -> T:
        """``convert`` of the fields after ``keyword`` on the next line; every
        error names that line."""
        lineno, line = self.next(expect=keyword)
        parts = line.split()
        if parts[0] != keyword:
            raise ValueError(f"line {lineno}: expected {keyword!r}, got {parts[0]!r}")
        try:
            return convert(parts[1:])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None

    def done(self) -> bool:
        return self.pos >= len(self.items)

    def finish(self) -> None:
        """Reject any meaningful line left after the last expected one."""
        if not self.done():
            lineno, line = self.next()
            raise ValueError(f"line {lineno}: trailing content {line!r}")


def _dimension(parts: list[str]) -> int:
    if len(parts) != 1:
        raise ValueError("d line must carry exactly one integer")
    try:
        d = int(parts[0])
    except ValueError:
        raise ValueError(f"d line must carry an integer, got {parts[0]!r}") from None
    if d <= 0:
        raise ValueError(f"d must be positive, got {d}")
    return d


def _axis(parts: list[str]) -> Axis:
    if len(parts) != 2:
        raise ValueError("axis line must carry n and step")
    return Axis(int(parts[0]), float(parts[1]))


def _members(parts: list[str]) -> tuple[int, ...]:
    if parts == ["-"]:
        return ()
    try:
        return tuple(int(v) for v in parts)
    except ValueError:
        raise ValueError("subset entries must be integers (or a single '-')") from None


def _residual(parts: list[str]) -> float:
    if len(parts) != 1:
        raise ValueError("residual line must carry one number")
    return float(parts[0])


def _take_row(lines: _Lines, width: int) -> list[float]:
    def convert(parts: list[str]) -> list[float]:
        if len(parts) != width:
            raise ValueError(f"expected {width} entries, got {len(parts)}")
        try:
            return [float(v) for v in parts]
        except ValueError:
            raise ValueError("row entries must be numbers") from None

    return lines.take("row", convert)


def _check_header(lines: _Lines, kind: str) -> None:
    lineno, line = lines.next(expect=f"{kind} v1")
    if line.split() != [kind, "v1"]:
        raise ValueError(f"line {lineno}: expected header {kind!r} v1, got {line!r}")


# -- symplectic matrices -------------------------------------------------------


def write_matrix(mat, label: str | None = None) -> str:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2 != 0 or not mat.size:
        raise ValueError(f"matrix must be square with even side >= 2, got shape {mat.shape}")
    out = ["symplectic-matrix v1\n", f"d {mat.shape[0] // 2}\n"]
    if label is not None:
        out.append(f"label {label}\n")
    out += _rows(mat, "row" + " %r" * len(mat) + "\n")
    return "".join(out)


def parse_matrix(text: str) -> np.ndarray:
    """Parse a ``symplectic-matrix v1`` file into a plain (2d, 2d) array.

    Symplecticity itself is not enforced here — the caller decides how
    strictly to validate (the CLI ``check`` verb exists for exactly that).
    """
    lines = _Lines(text)
    _check_header(lines, "symplectic-matrix")
    d = lines.take("d", _dimension)
    if not lines.done() and lines.items[lines.pos][1].split()[0] == "label":
        lines.next()
    rows = [_take_row(lines, 2 * d) for _ in range(2 * d)]
    lines.finish()
    return np.array(rows, dtype=float)


# -- sampled functions ---------------------------------------------------------


def write_grid_function(f: GridFunction) -> str:
    return "".join(grid_function_blocks(f.grid, (f.values,)))


def grid_function_blocks(grid: Grid, slabs: Iterable[np.ndarray]) -> Iterator[str]:
    """The text of a ``grid-function v1`` file on ``grid``, one block at a
    time: the header, then the value lines of each of ``slabs``, the
    values' consecutive C-order blocks (of any shape) in order."""
    axes = [f"axis {ax.n} {float(ax.step)!r}\n" for ax in grid.axes]
    yield "".join(["grid-function v1\n", f"d {grid.d}\n", *axes, "values\n"])
    for slab in slabs:
        yield from _rows(slab.reshape(-1, 1).view(float), "%r %r\n")


def parse_grid_function(source: str | TextIO) -> GridFunction:
    """The sampled function in a ``grid-function v1`` text, given whole or as
    a text file open at its start.  A file whose values are not in the
    writer's shape is read again, whole, by the line parser."""
    if not isinstance(source, str) and not source.seekable():
        source = source.read()  # a pipe cannot be read a second time
    start = None if isinstance(source, str) else source.tell()
    try:
        f = _parse_written_block(source)
    except ValueError:
        f = None
    if f is not None:
        return f
    if start is not None:
        source.seek(start)
        source = source.read()
    return _parse_grid_lines(source)


def _grid_header(lines: _Lines) -> Grid:
    """The grid of a grid-function header, read through its ``values`` marker."""
    _check_header(lines, "grid-function")
    d = lines.take("d", _dimension)
    axes = tuple(lines.take("axis", _axis) for _ in range(d))
    marker_line, marker = lines.next(expect="values")
    if marker != "values":
        raise ValueError(f"line {marker_line}: expected the values marker, got {marker!r}")
    return Grid(axes)


def _parse_grid_lines(text: str) -> GridFunction:
    """The line-by-line parser: any layout, and every error names its line."""
    lines = _Lines(text)
    grid = _grid_header(lines)
    count = math.prod(grid.shape)
    # the header alone may declare more samples than memory holds
    if count > len(lines.items) - lines.pos:
        raise lines.ended("a value line")
    flat = np.empty(count, dtype=complex)
    for i in range(count):
        lineno, line = lines.next(expect="a value line")
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected '<re> <im>', got {line!r}")
        try:
            flat[i] = complex(float(parts[0]), float(parts[1]))
        except ValueError:
            raise ValueError(f"line {lineno}: value entries must be numbers") from None
    lines.finish()
    return GridFunction._own(grid, flat.reshape(grid.shape))


_VALUES_MARKER = "\nvalues\n"

#: the only bytes of a values block in the writer's shape
_BLOCK_CHARS = b"0123456789.+-eE \n"

#: table rows per ``%`` call of the writers; a parse block ends at the first
#: newline after 64 times as many characters (a written value line has <= 50).
#: A parse block of about 64 KiB keeps its temporaries (the token strings and
#: their list, the byte masks) to a few hundred KiB: blocks of 1 MiB freed
#: about 7 MB per block into the C heap, and the holes they left there (up to
#: 2.5 MB) raised a process's peak or not depending on where its later
#: allocations happened to fall
_BLOCK_LINES = 1 << 10


def _rows(cells: np.ndarray, row: str):
    """``row`` formatted with each row of a float table (``%r`` is ``repr``),
    one string per ``_BLOCK_LINES`` rows."""
    for first in range(0, len(cells), _BLOCK_LINES):
        block = cells[first : first + _BLOCK_LINES]
        yield (row * len(block)) % tuple(block.ravel().tolist())


def _values_source(source: str | TextIO) -> tuple[str, int, Iterator[str]] | None:
    """The header of a grid-function text through its first ``values`` line
    after the first line, a bound on the number of characters after it, and
    those characters in blocks that end at the first newline ``64 *
    _BLOCK_LINES`` characters or more into the block (the last block may end
    without one); None when there is no such line."""
    if isinstance(source, str):
        cut = source.find(_VALUES_MARKER) + len(_VALUES_MARKER)
        if cut < len(_VALUES_MARKER):
            return None

        def blocks():
            start = cut
            while start < len(source):
                stop = source.find("\n", start + 64 * _BLOCK_LINES) + 1 or len(source)
                yield source[start:stop]
                start = stop

        return source[:cut], len(source) - cut, blocks()
    lines = []
    for line in iter(source.readline, ""):
        lines.append(line)
        if line == "values\n" and len(lines) > 1:
            break
    else:
        return None
    header = "".join(lines)
    # a character takes at least one byte of the file
    rest = os.fstat(source.fileno()).st_size - len(header)
    reads = iter(lambda: source.read(64 * _BLOCK_LINES), "")
    return header, rest, (block + source.readline() for block in reads)


def _parse_written_block(source: str | TextIO) -> GridFunction | None:
    """The values block in the writer's shape, checked and converted one block
    at a time; None for any other layout (the caller then parses by line)."""
    found = _values_source(source)
    if found is None:
        return None
    header, rest, blocks = found
    if not header.isascii():
        return None
    lines = _Lines(header)
    grid = _grid_header(lines)
    if not lines.done():
        return None
    count = math.prod(grid.shape)
    # the header alone may declare more samples than memory holds: a value line takes >= 4 characters
    if 4 * count > rest:
        return None
    flat = np.empty(count, dtype=complex)
    pairs = flat.view(float)  # writing re/im through the float view keeps -0.0
    done = 0
    for block in blocks:
        # a non-ASCII block raises UnicodeEncodeError, a ValueError; in ASCII
        # byte offsets are character offsets
        raw = block.encode("ascii")
        codes = np.frombuffer(raw, dtype=np.uint8)
        ends, gaps = np.flatnonzero(codes == ord("\n")), np.flatnonzero(codes == ord(" "))
        # allowed bytes, and "<tok> <tok>\n" on every line: each space lies strictly inside its line
        if raw.translate(None, _BLOCK_CHARS) or not (
            0 < len(ends) == len(gaps) <= count - done
            and ends[-1] == codes.size - 1
            and gaps[0] > 0
            and np.all(gaps[1:] > ends[:-1] + 1)
            and np.all(ends > gaps + 1)
        ):
            return None
        pairs[2 * done : 2 * (done + len(ends))] = np.array(block.split(), dtype=float)
        done += len(ends)
    return GridFunction._own(grid, flat.reshape(grid.shape)) if done == count else None


# -- factorization reports -----------------------------------------------------


def write_dj(fact: DJFactorization) -> str:
    d = fact.d
    members = " ".join(str(j) for j in fact.J) or "-"
    residual = f"residual {float(fact.residual)!r}\n"
    out = ["dj-factorization v1\n", f"d {d}\n", f"subset {members}\n", residual]
    for name, mat in (("Q", fact.Q), ("L", fact.L), ("P", fact.P)):
        out.append(f"{name}\n")
        out += _rows(np.asarray(mat, dtype=float), "row" + " %r" * d + "\n")
    return "".join(out)


def parse_dj(text: str) -> DJFactorization:
    lines = _Lines(text)
    _check_header(lines, "dj-factorization")
    d = lines.take("d", _dimension)
    J = lines.take("subset", lambda parts: IndexSet.of(d, _members(parts)))
    residual = lines.take("residual", _residual)
    mats = {}
    for name in ("Q", "L", "P"):
        lineno, line = lines.next(expect=name)
        if line != name:
            raise ValueError(f"line {lineno}: expected section {name!r}, got {line!r}")
        mats[name] = np.array([_take_row(lines, d) for _ in range(d)])
    lines.finish()
    return DJFactorization(Q=mats["Q"], L=mats["L"], P=mats["P"], J=J, residual=residual)


# -- probe reports and CSV export ----------------------------------------------


def write_probe_report(report) -> str:
    out = ["probe-report v1", f"probe {report.probe}"]
    for key, value in report.parameters.items():
        if isinstance(value, float):
            out.append(f"param {key} {value:.12g}")
        else:
            out.append(f"param {key} {value}")
    if report.reference is not None:
        out.append(f"reference {report.reference:.12g}")
    out.append("ratios " + " ".join(f"{r:.12g}" for r in report.ratios))
    out.append(f"verdict {report.verdict}")
    return "\n".join(out) + "\n"


def export_csv(f: GridFunction) -> str:
    """Flatten a sampled function to ``x1, ..., xd, re, im, abs`` CSV rows."""
    return "".join(csv_blocks(f.grid, (f.values,)))


def csv_blocks(grid: Grid, slabs: Iterable[np.ndarray]) -> Iterator[str]:
    """The text of :func:`export_csv` for a function on ``grid``, one block at
    a time, from the values' consecutive C-order blocks (of any shape) in
    order; each block's coordinates come from its C-order offset."""
    yield ",".join([f"x{i + 1}" for i in range(grid.d)] + ["re", "im", "abs"]) + "\n"
    row = ",".join(["%.12g"] * (grid.d + 3)) + "\n"
    points = [ax.points() for ax in grid.axes]
    first = 0
    for slab in slabs:
        v = slab.ravel()
        at = np.unravel_index(np.arange(first, first + v.size), grid.shape)
        first += v.size
        # np.hypot rounds as the scalar abs of a complex value does; the array
        # np.abs may differ in the last bit
        columns = [pts[i] for pts, i in zip(points, at)] + [v.real, v.imag, np.hypot(v.real, v.imag)]
        yield from _rows(np.column_stack(columns), row)
