"""Grids, curves and curve samples on a shared one-dimensional domain.

Numerical substrate for everything else in the package: trapezoid
quadrature weights, row-wise L2/sup norms of discretized curves, and both
file formats: the CSV curve format shared with the command-line tools,
and the JSON form of every report and payload.  Every in-memory
structure is one the CSV format holds: a grid is its points (its weights
are derived from them), and a partially observed curve is a row with NaN
in its unobserved cells.
The CSV reader streams the file's non-blank lines into ``np.loadtxt``,
which parses every cell in C with the same correctly rounded conversion
as ``float()``; a large file is parsed in spans of whole lines, one per
usable CPU, by forked workers (POSIX), with the same bits.  The writer
formats one row at a time with ``%.17g``, so a write-then-read round
trip is bit-exact.  Every JSON value goes through one encoder, so a
dataclass's JSON keys are its field names.

All container types are immutable after construction (arrays are marked
read-only) and all operations are pure, so values can be shared freely
across threads.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
import signal
import stat
import threading
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "InputError",
    "ParameterError",
    "Grid",
    "Curve",
    "FunctionalSample",
    "l2_norm_rows",
    "sup_norm_rows",
    "read_curves_csv",
    "write_curves_csv",
]

#: Relative tolerance for "weights sum to the right total" style checks.
WEIGHT_RTOL = 1e-12


class InputError(ValueError):
    """Malformed data: bad files, mismatched grids, wrong shapes, non-finite values."""


class ParameterError(ValueError):
    """Structurally valid data combined with out-of-range or unsupported parameters."""


def trapezoid_weights(points: np.ndarray) -> np.ndarray:
    """Trapezoid-rule quadrature weights for an increasing abscissa vector.

    Exact for piecewise-linear integrands, which is also the
    interpolation model used for sparse-curve reconstruction.
    """
    w = np.empty_like(points)
    w[0] = (points[1] - points[0]) / 2.0
    w[-1] = (points[-1] - points[-2]) / 2.0
    if len(points) > 2:
        w[1:-1] = (points[2:] - points[:-2]) / 2.0
    return w


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Grid:
    """Ordered abscissae v_1 < ... < v_m, m >= 2.

    A grid is its points: its ``weights`` attribute, the quadrature
    weights for Lebesgue measure on [v_1, v_m], is always
    ``trapezoid_weights(points)``.
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise InputError(f"grid needs >= 2 points in one dimension, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise InputError("grid points must be finite")
        if not np.all(np.diff(pts) > 0):
            raise InputError("grid points must be strictly increasing")
        w = trapezoid_weights(pts)
        if not np.all(w > 0):  # underflow from denormal point spacing
            raise InputError("grid spacing too small for positive weights")
        object.__setattr__(self, "points", _readonly(pts))
        object.__setattr__(self, "weights", _readonly(w))

    @property
    def m(self) -> int:
        return self.points.size

    @property
    def length(self) -> float:
        """Lebesgue measure of the domain, v_m - v_1."""
        return float(self.points[-1] - self.points[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return np.array_equal(self.points, other.points)

    def __hash__(self) -> int:
        return hash(self.points.tobytes())

    def __repr__(self) -> str:
        return f"Grid(m={self.m}, domain=[{self.points[0]:g}, {self.points[-1]:g}])"


def uniform_grid(a: float = 0.0, b: float = 1.0, m: int = 101) -> Grid:
    """Uniform grid of m points on [a, b] with trapezoid weights.

    Raises ``ParameterError`` when [a, b] cannot hold such a grid: an
    infinite end or length, or points too close to stay distinct.
    """
    if not b > a:
        raise ParameterError(f"need b > a, got [{a}, {b}]")
    if m < 2:
        raise ParameterError(f"grid needs at least two points, got m = {m}")
    if not math.isfinite(b - a):
        raise ParameterError(f"domain [{a}, {b}] needs a finite length")
    try:
        return Grid(np.linspace(a, b, m))
    except InputError as exc:
        raise ParameterError(f"domain [{a}, {b}] cannot hold {m} points: {exc}") from exc


@dataclass(frozen=True, eq=False)
class Curve:
    """One discretized curve: values[i] = x(v_i) on a fixed grid."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size != self.grid.m:
            raise InputError(
                f"curve has {vals.size} values for a grid of size {self.grid.m}"
            )
        if not np.all(np.isfinite(vals)):
            raise InputError("curve values must be finite")
        object.__setattr__(self, "values", _readonly(vals))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Curve):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        return hash((self.values.tobytes(), self.grid))

    def __repr__(self) -> str:
        return f"Curve(m={self.values.size})"


@dataclass(frozen=True, eq=False)
class FunctionalSample:
    """n curves on a common grid, with optional per-curve probability weights.

    The rows of ``values`` are the curves.  Weights default to the
    uniform 1/n distribution; they must be nonnegative and sum to 1
    within 1e-12.  Nonuniform weights represent general finitely
    supported distributions on curve space (used by the hand-built
    counterexample distributions).
    """

    values: np.ndarray
    grid: Grid
    weights: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[None, :]
        if vals.ndim != 2 or vals.shape[0] < 1 or vals.shape[1] != self.grid.m:
            raise InputError(
                f"sample values shape {vals.shape} incompatible with grid of size {self.grid.m}"
            )
        if not np.all(np.isfinite(vals)):
            raise InputError("sample values must be finite")
        n = vals.shape[0]
        if self.weights is None:
            w = np.full(n, 1.0 / n)
        else:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (n,):
                raise InputError(f"sample weights shape {w.shape} != ({n},)")
            if not np.all(np.isfinite(w)) or np.any(w < 0):
                raise InputError("sample weights must be finite and nonnegative")
            if abs(w.sum() - 1.0) > WEIGHT_RTOL:
                raise InputError(f"sample weights sum to {w.sum()!r}, expected 1")
        object.__setattr__(self, "values", _readonly(vals))
        object.__setattr__(self, "weights", _readonly(w))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def is_uniform(self) -> bool:
        return bool(np.abs(self.weights - 1.0 / self.n).max() <= 1e-12)

    def __repr__(self) -> str:
        return f"FunctionalSample(n={self.n}, m={self.grid.m})"


# Array-level workhorses used by the depth implementations; rows are curves.


def l2_norm_rows(rows: np.ndarray, grid: Grid) -> np.ndarray:
    """L2 norms of each row, with the grid's quadrature weights."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    return np.sqrt(np.maximum((rows * rows) @ grid.weights, 0.0))


def sup_norm_rows(rows: np.ndarray) -> np.ndarray:
    """Sup norms of each row."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    return np.max(np.abs(rows), axis=1)


# ---------------------------------------------------------------------------
# CPUs: one rule (``_workers``) for the CSV reader's worker processes,
# the h and mhr kernels' threads and the audit's process pool.
# ---------------------------------------------------------------------------

# Most threads or worker processes ``_workers`` grants; None means every
# usable CPU.  The CLI's ``--threads`` sets it, and the audit's worker
# processes set it to 1 (``_cap_kernel_threads``).
_kernel_threads: int | None = None


def _cap_kernel_threads(n: int | None) -> None:
    """Let ``_workers`` grant at most n threads or processes (None: all)."""
    global _kernel_threads
    _kernel_threads = n


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask, where known)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


def _blas_threads() -> int:
    """BLAS threads of this process: the first positive count among
    ``OPENBLAS_NUM_THREADS``, ``MKL_NUM_THREADS`` and ``OMP_NUM_THREADS``,
    which numpy's BLAS reads when it loads, else one per usable CPU
    (OpenBLAS's default).  The CLI sets all three to 1 when it starts
    before numpy loads, and leaves them alone after."""
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return _usable_cpus()


def _workers(parts: int, cpus_each: int = 1) -> int:
    """Threads or processes for ``parts`` pieces of work when each keeps
    ``cpus_each`` CPUs busy (its BLAS threads): at least one, and at most
    one per piece, one per ``cpus_each`` usable CPUs and ``_kernel_threads``."""
    return max(1, min(parts, _usable_cpus() // cpus_each, _kernel_threads or parts))


# ---------------------------------------------------------------------------
# CSV curve format (shared with the CLI): row 1 = grid points, each following
# row = one curve's values.  UTF-8, comma separator, '.' decimal point, blank
# lines skipped, streamed both ways.  NaN cells are legal only in the sparse-
# observation files read by reconstruction ("unobserved here"); such a file
# reads back as the NaN-masked (n, m) array that ``reconstruct_linear`` takes.
# ---------------------------------------------------------------------------

_FMT = "%.17g"  # round-trips every float64 exactly


def write_curves_csv(path: str | Path, grid: Grid, values: np.ndarray) -> None:
    """Write curves to CSV: first row grid points, then one row per curve."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[1] != grid.m:
        raise InputError(f"values shape {values.shape} != (n, {grid.m})")
    row_format = ",".join([_FMT] * grid.m) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(row_format % tuple(grid.points.tolist()))
            fh.writelines(row_format % tuple(row.tolist()) for row in values)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def read_curves_csv(path: str | Path, allow_nan: bool = False) -> tuple[Grid, np.ndarray]:
    """Read the CSV curve format back into (grid, values) with rows as curves.

    With ``allow_nan=False`` (the default) any NaN cell is rejected;
    sparse-observation files are read with ``allow_nan=True``.  A large
    file is parsed in spans of whole lines by forked workers
    (``_read_rows_in_spans``), with the same bits and the same errors.
    """
    path = Path(path)
    rows = _read_rows_in_spans(path)
    if rows is None:
        try:
            with open(path, encoding="utf-8") as fh:
                rows = _parse_rows(path, fh)
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from exc
    if rows.shape[0] < 2:
        raise InputError(f"{path}: need a grid row plus at least one curve row")
    if np.isnan(rows[0]).any():
        raise InputError(f"{path}: grid row may not contain NaN")
    if not allow_nan and np.isnan(rows[1:]).any():
        raise InputError(f"{path}: NaN cells are only allowed in sparse-observation files")
    return Grid(rows[0]), rows[1:]


def _parse_rows(path: Path, chunks: Iterable[str]) -> np.ndarray:
    """The rows of the text whose pieces ``chunks`` yields, as float64.

    Lines break where ``str.splitlines`` breaks them, within each chunk
    (a chunk ends at a line end); blank lines are skipped, and every other
    line must hold as many cells as the first.  Errors name the 1-based
    line of the text, blank lines counted.
    """

    lineno = 0  # line last handed to numpy, which pulls one at a time

    def data_lines() -> Iterator[str]:
        nonlocal lineno
        width = None  # comma count of the first non-blank line
        lines = (line for chunk in chunks for line in chunk.splitlines())
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            if width is None:
                width = line.count(",")
            if line.count(",") != width:
                cells = line.count(",") + 1
                raise InputError(f"{path}:{lineno}: {cells} cells, expected {width + 1}")
            yield line
        if width is None:  # raised here, as numpy would only warn of no data
            raise InputError(f"{path}: need a grid row plus at least one curve row")

    try:
        return np.loadtxt(data_lines(), delimiter=",", comments=None, ndmin=2)
    except UnicodeDecodeError as exc:  # a ValueError, so caught first
        raise InputError(f"{path}: not UTF-8 text ({exc})") from exc
    except InputError:  # from data_lines, and a ValueError too
        raise
    except ValueError as exc:
        # numpy's "at row N" counts non-blank lines from 0: name the file line
        reason = re.sub(r" at row \d+, (column \d+)\.$", r" in \1", str(exc))
        raise InputError(f"{path}:{lineno}: unparseable cell ({reason})") from exc


# Fewest bytes a span may hold: a file gets at most one span per this
# many bytes.  Measured in-process on a 2-core box (numpy 2.4, 101-point
# curves, medians of 21 reads in each of two rounds), one span against
# two: 0.5 MB 7.8 / 8.1 and 12.7 / 9.7 ms, 1 MB 14.8 / 11.5 and
# 24.2 / 17.8 ms, 2 MB 43.4 / 29.4 and 49.6 / 32.7 ms.  Spans of 0.25 MB
# lost one round and won the other; spans of 0.5 MB and more won both.
# More spans than two were not measured, so none is made smaller.
_CSV_SPAN_MIN_BYTES = 1 << 19


def _read_rows_in_spans(path: Path) -> np.ndarray | None:
    """The file's rows, parsed in one span of whole lines per usable CPU,
    or None where the file is read in one span.

    Each span ends just past a line feed byte, where ``str.splitlines``
    breaks a line too.  One worker is forked per span but the first; it reads and
    decodes only its own bytes, parses them like the whole file
    (``_parse_rows``) and sends the float64 rows back through a pipe,
    while this process parses the first span.  No cell is parsed
    differently, so the rows are the one-span rows bit for bit.  When any
    span fails (bad bytes, a bad cell, unequal widths, a worker's failure)
    this returns None, and the one-span read raises its error with the
    file's line number.  The loadtxt parser holds the interpreter lock,
    so threads would not gain.

    A file is split only when the platform can fork, no other thread
    runs (a fork copies only the calling thread), and it is a regular
    file that makes two or more spans: one per CPU that ``_workers``
    grants, each of at least ``_CSV_SPAN_MIN_BYTES``.
    """
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return None
    cuts = [0]
    try:
        info = os.stat(path)
        if not stat.S_ISREG(info.st_mode):
            return None
        # parsing makes no BLAS call, so every usable CPU may take a span
        spans = _workers(info.st_size // _CSV_SPAN_MIN_BYTES)
        if spans < 2:
            return None
        with open(path, "rb") as fh:
            for k in range(1, spans):
                fh.seek(max(info.st_size * k // spans, cuts[-1]))
                fh.readline()  # to just past the next line end
                if cuts[-1] < fh.tell() < info.st_size:
                    cuts.append(fh.tell())
    except OSError:
        return None  # the one-span read raises its error
    cuts.append(info.st_size)
    if len(cuts) < 3:
        return None
    pids: list[int] = []  # the workers not yet reaped
    fds: list[int] = []  # read ends of the workers' pipes, in span order
    try:
        for lo, hi in zip(cuts[1:], cuts[2:]):
            r, w = os.pipe()
            fds.append(r)
            try:
                pid = os.fork()
            except OSError:
                os.close(w)
                raise
            if pid == 0:
                _span_worker(path, lo, hi, w)
            os.close(w)
            pids.append(pid)
        first = _span_rows(path, 0, cuts[1])
        lo, width = first.shape
        shape = np.empty(2, dtype=np.int64)
        counts = []
        for r in fds:
            if not _read_exact(r, memoryview(shape).cast("B")) or shape[1] != width:
                return None
            counts.append(int(shape[0]))
        rows = np.empty((lo + sum(counts), width))
        rows[:lo] = first
        del first  # freed before the workers' rows arrive: a lower peak
        for r, count in zip(fds, counts):
            if not _read_exact(r, memoryview(rows[lo : lo + count]).cast("B")):
                return None
            lo += count
        codes = []
        while pids:  # a pid leaves the list before waitpid may reap it
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pids.pop(), 0)[1]))
        return None if any(codes) else rows
    except (OSError, ValueError):  # the one-span read raises what matters
        return None
    finally:
        for r in fds:
            os.close(r)
        for pid in pids:
            with contextlib.suppress(ChildProcessError, ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _span_rows(path: Path, lo: int, hi: int) -> np.ndarray:
    """The rows of bytes lo..hi of the file, which start and end at line ends."""
    with open(path, "rb") as fh:
        fh.seek(lo)

        def chunks() -> Iterator[str]:
            left = hi - lo
            while left > 0:
                line = fh.readline(left)
                if not line:
                    return
                left -= len(line)
                yield line.decode("utf-8")

        return _parse_rows(path, chunks())


def _span_worker(path: Path, lo: int, hi: int, fd: int) -> None:
    """In a forked worker: send the shape and the float64 bytes of the
    span's rows through ``fd``, then exit (1 on any failure)."""
    code = 1
    try:
        rows = _span_rows(path, lo, hi)
        with open(fd, "wb") as out:
            out.write(np.array(rows.shape, dtype=np.int64).tobytes())
            out.write(memoryview(rows).cast("B"))
        code = 0
    finally:
        os._exit(code)


def _read_exact(fd: int, view: memoryview) -> bool:
    """Fill ``view`` from ``fd``; False at an early end of the stream."""
    while view.nbytes:
        n = os.readv(fd, [view])
        if n == 0:
            return False
        view = view[n:]
    return True


# ---------------------------------------------------------------------------
# JSON format (audit.json and the CLI's stdout payloads): every value goes
# through ``_jsonable`` and every text through ``_json_text``.
# ---------------------------------------------------------------------------

_JSON_PLAIN = (str, int, float, bool, type(None))


def _jsonable(obj):
    """``obj`` as plain JSON values: dict keys as strings, tuples and arrays
    as lists, numpy scalars as Python scalars, and a dataclass as the dict
    of its fields.  The dataclass test is the slowest, so it comes last."""
    if type(obj) in _JSON_PLAIN:
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if is_dataclass(obj):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}
    return obj


def _json_text(obj) -> str:
    """The JSON text of every file and payload: two-space indent, sorted keys."""
    return json.dumps(_jsonable(obj), indent=2, sort_keys=True)
