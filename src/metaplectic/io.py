"""Plain-text file formats for matrices, sampled functions and reports.

Every format is line based, starts with a ``<kind> v1`` header, ignores
blank lines and ``#`` comments, and round-trips through ``repr``-exact
floats.  Parse errors carry the 1-based line number of the offending line.

* ``symplectic-matrix v1`` — ``d <int>``, optional ``label <text>``, then
  2d ``row`` lines of 2d entries each.
* ``grid-function v1``     — ``d <int>``, d ``axis <n> <step>`` lines, a
  ``values`` marker, then one ``<re> <im>`` line per sample in C order.
* ``dj-factorization v1``  — ``d``, ``subset`` (1-based members or ``-``),
  ``residual``, then ``Q``/``L``/``P`` sections of ``row`` lines.
* ``probe-report v1``      — write-only summary of a probe run.
* CSV export               — flattened ``coordinates..., re, im, abs``
  table of a sampled function, for plotting.
"""

from __future__ import annotations

import csv
import io as _stdio
import math
from typing import Callable, TypeVar

import numpy as np

from .metaplectic_numeric import Axis, Grid, GridFunction
from .symplectic_core import DJFactorization, IndexSet

T = TypeVar("T")


def _fmt(x: float) -> str:
    return repr(float(x))


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
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2 != 0:
        raise ValueError(f"matrix must be square with even side, got shape {mat.shape}")
    out = ["symplectic-matrix v1", f"d {mat.shape[0] // 2}"]
    if label is not None:
        out.append(f"label {label}")
    for row in mat:
        out.append("row " + " ".join(_fmt(v) for v in row))
    return "\n".join(out) + "\n"


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
    if not lines.done():
        lineno, line = lines.next()
        raise ValueError(f"line {lineno}: trailing content {line!r}")
    return np.array(rows, dtype=float)


# -- sampled functions ---------------------------------------------------------


def write_grid_function(f: GridFunction) -> str:
    out = ["grid-function v1", f"d {f.grid.d}"]
    for ax in f.grid.axes:
        out.append(f"axis {ax.n} {_fmt(ax.step)}")
    out.append("values")
    flat = f.values.ravel()
    out.extend(f"{_fmt(v.real)} {_fmt(v.imag)}" for v in flat)
    return "\n".join(out) + "\n"


def parse_grid_function(text: str) -> GridFunction:
    lines = _Lines(text)
    _check_header(lines, "grid-function")
    d = lines.take("d", _dimension)
    axes = tuple(lines.take("axis", _axis) for _ in range(d))
    marker_line, marker = lines.next(expect="values")
    if marker != "values":
        raise ValueError(f"line {marker_line}: expected the values marker, got {marker!r}")
    grid = Grid(axes)
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
    if not lines.done():
        lineno, line = lines.next()
        raise ValueError(f"line {lineno}: trailing content {line!r}")
    return GridFunction(grid, flat.reshape(grid.shape))


# -- factorization reports -----------------------------------------------------


def write_dj(fact: DJFactorization) -> str:
    d = fact.d
    members = " ".join(str(j) for j in fact.J) or "-"
    out = [
        "dj-factorization v1",
        f"d {d}",
        f"subset {members}",
        f"residual {_fmt(fact.residual)}",
    ]
    for name, mat in (("Q", fact.Q), ("L", fact.L), ("P", fact.P)):
        out.append(name)
        for row in np.asarray(mat, dtype=float):
            out.append("row " + " ".join(_fmt(v) for v in row))
    return "\n".join(out) + "\n"


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
    if not lines.done():
        lineno, line = lines.next()
        raise ValueError(f"line {lineno}: trailing content {line!r}")
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
    buf = _stdio.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"x{i + 1}" for i in range(f.grid.d)] + ["re", "im", "abs"])
    coords = [m.ravel() for m in f.grid.meshgrid()]
    flat = f.values.ravel()
    for i in range(flat.size):
        writer.writerow(
            ["%.12g" % c[i] for c in coords]
            + ["%.12g" % flat[i].real, "%.12g" % flat[i].imag, "%.12g" % abs(flat[i])]
        )
    return buf.getvalue()
