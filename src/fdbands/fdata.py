"""Grid and curve-sample containers, validation, and CSV interchange.

A FunctionalSample is N curves evaluated on one common grid over a compact
interval.  All containers are immutable (arrays are set read-only), so they
can be shared freely across worker processes and threads.

CSV layout: line 1 holds the comma-separated grid coordinates, lines 2..N+1
one curve each.  Values are written with 17 significant digits so that a
write/read round trip is bit-exact.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    NonFiniteValue,
    NonIncreasingGrid,
    ParseError,
    ShapeMismatch,
    TooFewCurves,
)


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Grid:
    """Strictly increasing coordinates on a compact interval."""

    points: np.ndarray

    def __post_init__(self):
        pts = _frozen_array(self.points)
        if pts.ndim != 1 or pts.size < 2:
            raise NonIncreasingGrid("grid needs at least 2 coordinates in a 1-d array")
        if not np.all(np.isfinite(pts)):
            raise NonFiniteValue("grid coordinates must be finite")
        if not np.all(np.diff(pts) > 0):
            raise NonIncreasingGrid("grid coordinates must be strictly increasing")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.size

    def __eq__(self, other) -> bool:
        return isinstance(other, Grid) and np.array_equal(self.points, other.points)

    @property
    def lower(self) -> float:
        return float(self.points[0])

    @property
    def upper(self) -> float:
        return float(self.points[-1])

    @classmethod
    def equispaced(cls, t: int, lower: float = 0.0, upper: float = 1.0) -> "Grid":
        return cls(np.linspace(lower, upper, t))


@dataclass(frozen=True, eq=False)
class Curve:
    """A single function sampled on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = _frozen_array(self.values)
        if vals.ndim != 1 or vals.size != len(self.grid):
            raise ShapeMismatch(
                f"curve has {vals.size} values for a grid of length {len(self.grid)}"
            )
        if not np.all(np.isfinite(vals)):
            raise NonFiniteValue("curve values must be finite")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True, eq=False)
class FunctionalSample:
    """N curves on a common grid, stored as an N x T matrix (row = curve)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.atleast_2d(np.array(self.values, dtype=float))
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def t(self) -> int:
        return self.values.shape[1]

    def curve(self, index: int) -> Curve:
        return Curve(self.grid, self.values[index])


def validate(sample: FunctionalSample) -> None:
    """Raise unless every FunctionalSample invariant holds.

    Checks, in order: matrix layout, N >= 2, grid/value width agreement and
    finiteness.  Grid invariants are enforced at Grid construction.
    """
    vals = sample.values
    if vals.ndim != 2:
        raise ShapeMismatch(f"sample values must be 2-d, got ndim={vals.ndim}")
    if vals.shape[0] < 2:
        raise TooFewCurves(f"need at least 2 curves, got {vals.shape[0]}")
    if vals.shape[1] != len(sample.grid):
        raise ShapeMismatch(
            f"{vals.shape[1]} columns for a grid of length {len(sample.grid)}"
        )
    if not np.all(np.isfinite(vals)):
        raise NonFiniteValue("sample contains non-finite values")


def _parse_row(line: str, lineno: int) -> list[float]:
    cells = line.split(",")
    out = []
    for cell in cells:
        try:
            out.append(float(cell))
        except ValueError:
            raise ParseError(f"line {lineno}: cannot parse {cell.strip()!r}") from None
    return out


def write_sample_csv(sample: FunctionalSample, path) -> None:
    """Write grid + curves; values keep full float64 precision."""
    validate(sample)
    row_format = ",".join(["%.17g"] * sample.t) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(row_format % tuple(sample.grid.points.tolist()))
        for row in sample.values.tolist():
            fh.write(row_format % tuple(row))


def _parse_lines(path) -> tuple[Grid, list[list[float]]]:
    """Line-by-line parse that names the first offending line and cell."""
    with open(path, "r") as fh:
        try:
            lines = [ln for ln in (raw.strip() for raw in fh) if ln]
        except UnicodeDecodeError as exc:
            raise ParseError(f"sample CSV is not {exc.encoding} text: {exc.reason}") from None
    if len(lines) < 2:
        raise ShapeMismatch("sample CSV needs a grid line and at least one curve line")
    grid = Grid(_parse_row(lines[0], 1))
    width = len(grid)
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        row = _parse_row(line, i)
        if len(row) != width:
            raise ShapeMismatch(f"line {i}: {len(row)} cells, expected {width}")
        rows.append(row)
    return grid, rows


def read_sample_csv(path) -> FunctionalSample:
    """Parse a sample CSV written by write_sample_csv (or by hand).

    numpy's C reader parses well-formed files; a file it rejects is parsed
    again line by line, which accepts the same inputs and raises
    ParseError / ShapeMismatch with the offending line number.
    """
    try:
        with open(path, "r") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        table = None
    if table is None or table.shape[0] < 2:
        grid, rows = _parse_lines(path)
    else:
        grid, rows = Grid(table[0]), table[1:]
    sample = FunctionalSample(grid, rows)
    validate(sample)
    return sample
