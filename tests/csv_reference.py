"""Reference CSV reader and writer for the tests.

These are the package's earlier per-cell implementations, kept verbatim:
the reader splits the decoded text with ``str.splitlines`` and parses each
cell with its own ``float()`` call, and the writer formats each cell with
``"%.17g"``.  ``curvedepth.core`` streams the same format through numpy;
the differential tests check that it returns the same bits and writes the
same bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from curvedepth.core import Grid, InputError

_FMT = "%.17g"  # round-trips every float64 exactly


def write_curves_csv(path: str | Path, grid: Grid, values: np.ndarray) -> None:
    """Write curves to CSV: first row grid points, then one row per curve."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[1] != grid.m:
        raise InputError(f"values shape {values.shape} != (n, {grid.m})")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(_FMT % p for p in grid.points) + "\n")
            for row in values:
                fh.write(",".join(_FMT % v for v in row) + "\n")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def read_curves_csv(
    path: str | Path, allow_nan: bool = False
) -> tuple[Grid, np.ndarray]:
    """Read the CSV curve format back into (grid, values) with rows as curves.

    With ``allow_nan=False`` (the default) any NaN cell is rejected;
    sparse-observation files are read with ``allow_nan=True``.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc})") from exc
    rows: list[list[float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        cells = line.split(",")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: unparseable cell ({exc})") from exc
    if len(rows) < 2:
        raise InputError(f"{path}: need a grid row plus at least one curve row")
    m = len(rows[0])
    for lineno, row in enumerate(rows, start=1):
        if len(row) != m:
            raise InputError(
                f"{path}: row {lineno} has {len(row)} cells, expected {m}"
            )
    grid_pts = np.array(rows[0], dtype=float)
    if np.isnan(grid_pts).any():
        raise InputError(f"{path}: grid row may not contain NaN")
    values = np.array(rows[1:], dtype=float)
    if not allow_nan and np.isnan(values).any():
        raise InputError(
            f"{path}: NaN cells are only allowed in sparse-observation files"
        )
    return Grid(grid_pts), values
