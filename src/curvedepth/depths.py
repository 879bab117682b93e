"""Six sample depth notions for grid-discretized curves.

Gaussian-kernel h-depth, random Tukey (projection halfspace) depth, band
depth, modified band depth, half-region depth and modified half-region
depth, plus the one-dimensional halfspace depth they build on.  Each
depth has one kernel over a (q, m) array of query curves, and
``depth_values(depth, queries, sample, params)`` is the only entry point
to them: it validates the batch once and dispatches.  ``evaluate_depth``
is that batch with one row, returned as a float.

The rt kernel sorts each direction's sample projections once per batch
and reads every query's tail counts off them with ``np.searchsorted``:
O(n*m*k + (n+q)*k*log n) for q queries against n curves on m grid points
with k directions.  mbd, bd with J = 2, hr and mhr share one per-batch
table of the sorted grid columns (``_column_counts``): every query's
closed counts le and lt per grid point in O((n+q)*m*log n), and for
large batches of bd, hr and mhr each sample value's rank in its column,
so their closed comparisons run on small integers.  A batch of fewer
than four queries gets le and lt by direct comparison with the sample
instead, in O(q*n*m), since the sort would cost more than those
queries (``_SORT_MIN_QUERIES``).  Small batches of bd, hr
and mhr, and hr and mhr against small samples, likewise compare with
the sample directly.  All these values equal, bit for bit, per-query
masked weight sums and comparison counts.  bd with J = 2 counts each
query's whole-row copies e once per batch.  Where no other curve ties
the query at any grid point (le - lt == e everywhere), the other
curves' below patterns are the complements of their above patterns,
and one sort of hashed, verified keys per query counts the pairs of
complementary curves; the copies are then counted in closed form
(``_bd_pair_counts``).  Only a query with such a partial tie counts its
distinct (above, below) patterns.  With J >= 3 bd counts each query's
triples over its distinct (above, below) patterns, after dropping every
grid column whose row set lies inside another's (``_band_patterns``).
The search runs over the middle index b of a < b < c: a pair relation
built in blocks of b rows under a fixed byte budget gives the pair
count and the good pairs' completions by integer products, and only
bad pairs are tested against the patterns after b
(``_count_pattern_tuples``), about p^3 / 6 word operations for p
patterns.  A batch is refused when q * C(n, 3) passes
``MAX_BAND_TRIPLES``.  h squares its query-minus-sample differences in
place, in a buffer of a few queries (one query for a sample past 256
KiB), but keeps the summation order of its fixed chunks of queries
exactly (see ``_h_depth_values``), so its values, and the audit bytes
built on them, do not move.

h and mhr split a large batch into contiguous spans of queries
(``_split_batch``), one per CPU that BLAS leaves free: the usable CPUs
divided by the BLAS threads (``_blas_threads``), so with BLAS on every
CPU, numpy's default, the batch stays on one thread.  The first span
runs on the calling thread, the others on their own threads, which are
joined before the kernel returns.  h's spans are whole chunks, with a
buffer per thread, and mhr's spans share the batch's read-only rank
table; every span runs the serial loop's operations on its queries, so
no value depends on the split.  The gain comes from numpy releasing the
interpreter lock in its ufunc loops and BLAS calls.  h splits a batch
of two or more chunks; mhr keeps small batches, and its short per-query
calls against small samples, on the calling thread
(``_MHR_THREAD_MIN_WORK``, ``_MHR_THREAD_MIN_QUERY_WORK``).  The CLI's
``--threads`` caps the span count, and so do the audit's worker
processes, at one (``core._cap_kernel_threads``).  The other four kernels
stay serial; bd's per-query loop holds the interpreter lock.

``depth_values`` takes the distribution P either as a
``FunctionalSample`` (the empirical measure P_n) or as an
``AtomicDistribution`` (a finitely supported P).  Band-type depths then
take two forms that must not be conflated:

- on a sample: without-replacement index combinations, exactly the
  classical empirical formulas (uniform curve weights required);
- on an atomic distribution: with-replacement tuples of atoms weighted
  by probability products, which reproduces closed-form population
  values exactly.

The other four depths evaluate an atomic distribution as the weighted
sample of its atoms (``AtomicDistribution.as_sample``).

All tuple counting is done in exact integer arithmetic, and the brute
force reference implementations share only the final count-to-value
normalization, so optimized and exhaustive routes agree bit for bit.
All comparisons are closed (<=, >=) with no epsilon slack; summations
use numpy's pairwise reductions, so results are reproducible for a
fixed input regardless of evaluation order elsewhere.
"""

from __future__ import annotations

import math
import os
import threading
from collections import Counter
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import core
from .core import (
    Curve,
    FunctionalSample,
    Grid,
    InputError,
    ParameterError,
    l2_norm_rows,
)
from .distributions import AtomicDistribution, GPSpec, Kernel, Seed, sample_gp

__all__ = [
    "DEPTH_IDS",
    "DepthParams",
    "halfspace_depth_1d",
    "draw_directions",
    "evaluate_depth",
    "depth_values",
    "upper_bound",
]

#: Identifiers for the six depth notions, in report order.
DEPTH_IDS = ("h", "rt", "bd", "mbd", "hr", "mhr")

DEPTH_LABELS = {
    "h": "h-depth",
    "rt": "random Tukey depth",
    "bd": "band depth",
    "mbd": "modified band depth",
    "hr": "half-region depth",
    "mhr": "modified half-region depth",
}

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Resource bounds for the exhaustive atomic (population-exact) variants.
MAX_ATOMS = 8
MAX_ATOMIC_J = 4
# Bound on the j-subsets (j = 4..J) that sample band depth of order J >= 4
# may enumerate per query; its tuple search costs microseconds per subset.
MAX_BAND_TUPLES = 10**6
# Bound on q * C(n, 3), the triples that sample band depth of order J >= 3
# counts for a batch of q queries against n curves.  Its triple search cost
# 1.8 to 2.3 ns per triple on fresh queries against 2000 SE draws (length
# scale 0.2, 101 points, one BLAS thread), and up to 8 ns when every curve
# has its own pattern, so a refused batch would take over a minute.
MAX_BAND_TRIPLES = 3 * 10**10
# Bound on the k * rows values a random Tukey array may hold: the k
# direction curves (rows = m) and the projections of queries and sample
# (rows = n + q), so a huge k fails fast instead of exhausting memory.
MAX_RT_ELEMENTS = 5 * 10**7
# Bound on the modified band depth's covering counts past the int64 range
# (grid points x band orders) per query: each is an exact Python integer.
MAX_MBD_BIG_COUNTS = 10**4
_INT64_MAX = int(np.iinfo(np.int64).max)
# hr and mhr read a batch's comparisons off a rank table of the sorted
# grid columns (``_column_counts``) only for at least this many queries
# against at least this many curves, and otherwise compare each query with
# the sample directly.  Measured on 101 grid points (2-core box, one BLAS
# thread): the table costs about as much as 25 to 60 direct queries at
# n = 300..5000, and the ranked loop saves nothing per query below about
# 200 curves for hr and 500 for mhr, at batch sizes up to 1000.
_RANKED_MIN_QUERIES = 32
_RANKED_MIN_CURVES = 512
# bd with J = 2 reads its patterns off the rank table from this many
# queries on, and otherwise compares each query with the sample.  Measured
# the same way: the table pays for itself from 40 to 60
# queries at every n from 300 to 5000, so the rule reads q only.
_BD_RANKED_MIN_QUERIES = 48
# mhr splits a batch of q queries against n curves on m grid points over
# threads (``_split_batch``) only when q * n * m reaches
# _MHR_THREAD_MIN_WORK and one query's n * m values reach
# _MHR_THREAD_MIN_QUERY_WORK.  Measured on 101 grid points (2-core box,
# one BLAS thread): two threads took mhr on 27 queries x 100 curves from
# 0.5 to 1.3 ms, and lost at every batch size against 100 or 200 curves,
# where each query's numpy calls are too short to run while the other
# thread holds the interpreter lock; from 300 curves on (30 000 values
# per query) they gained from about 10 queries on, and the batch minimum
# keeps a margin above that.  h needs no such minimum: it splits only a
# batch of two or more chunks, and each chunk holds at least 2 * 10^6
# values.
_MHR_THREAD_MIN_WORK = 1_000_000
_MHR_THREAD_MIN_QUERY_WORK = 25_000
# ``_column_counts`` sorts the grid columns only for at least this many
# queries, and otherwise compares each query with the sample directly.
# Measured the same way: three direct queries cost less than the sort at
# every n from 100 to 25 600, and the break-even fell from about 20
# queries at n = 100 to 4 or 5 at n = 2000 to 25 600.
_SORT_MIN_QUERIES = 4
# Bytes of the h-depth difference buffer: a block of queries' differences
# to the whole sample, sized to stay in cache while it is squared and
# reduced.  A sample past this size still takes one query at a time.
_H_BLOCK_BYTES = 256 * 1024
# Bytes of one block of the band depth's pair relation over distinct
# patterns, of one group of its bad pairs' triple tests
# (``_count_pattern_tuples``) and of one block of its column prune
# (``_band_patterns``): the counter holds a few such blocks, so its memory
# grows at most linearly in the number of patterns.  Such blocks stay in
# cache: on fresh row-major arrays, without blocks, the same word loop
# took about 3x as long for 2000 x 250 tests of four words.
_PAIR_BLOCK_BYTES = 256 * 1024


def _splitmix64(k: int) -> int:
    """Output k of the splitmix64 generator started at 0."""
    z = (k + 1) * 0x9E3779B97F4A7C15 % 2**64
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ z >> 27) * 0x94D049BB133111EB % 2**64
    return z ^ z >> 31


# Fixed odd multipliers, one per packed 64-bit word (tiled past 64 words),
# for the row hashes of the band depth's pair count.  A hash only proposes
# a match; every match is verified word for word.  (Built without
# numpy.random, whose import would slow every command's start-up.)
_HASH_MULTIPLIERS = np.array([_splitmix64(k) | 1 for k in range(64)], dtype=np.uint64)


@dataclass(frozen=True)
class DepthParams:
    """Tuning parameters shared by the depth functions.

    h : bandwidth of the Gaussian kernel h-depth (> 0, and large enough
        that 2 h^2 does not underflow to 0, about 1.6e-162).
    J : band-depth order (>= 2; at evaluation time also <= n).
    k : number of random projection directions (>= 1).
    seed : seed for drawing the directions.
    """

    h: float = 1.0
    J: int = 2
    k: int = 20
    seed: Seed = 0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.h) and self.h > 0):
            raise ParameterError(f"bandwidth h must be > 0, got {self.h}")
        if 2.0 * self.h * self.h == 0.0:
            # the kernel's exponent divides by 2 h^2, which would be 0 / 0
            raise ParameterError(
                f"bandwidth h = {self.h} is too small: 2 h^2 underflows to 0"
            )
        if int(self.J) != self.J or self.J < 2:
            raise ParameterError(f"band order J must be an integer >= 2, got {self.J}")
        if int(self.k) != self.k or self.k < 1:
            raise ParameterError(f"direction count k must be >= 1, got {self.k}")


def upper_bound(depth: str, *, h: float = 1.0, J: int = 2) -> float:
    """Largest value the given depth can attain."""
    if depth == "h":
        return 1.0 / (h * _SQRT_2PI)
    if depth in ("rt", "hr", "mhr"):
        return 1.0
    if depth in ("bd", "mbd"):
        return float(J - 1)
    raise ParameterError(f"unknown depth id {depth!r}")


# ---------------------------------------------------------------------------
# Batch threads
# ---------------------------------------------------------------------------


def _blas_threads() -> int:
    """BLAS threads of this process: the first positive count among
    ``OPENBLAS_NUM_THREADS``, ``MKL_NUM_THREADS`` and ``OMP_NUM_THREADS``,
    which numpy's BLAS reads when it loads, else one per usable CPU
    (OpenBLAS's default)."""
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return core._usable_cpus()


def _split_batch(q: int, step: int, run) -> None:
    """Call ``run(lo, hi)`` on contiguous spans of ``range(q)`` that cover
    it, each made of whole steps of ``step`` queries, one span per thread.

    There are as many spans as usable CPUs per BLAS thread, at most
    ``core._kernel_threads`` and at most the number of steps: a kernel
    thread whose BLAS calls start threads of their own would oversubscribe
    the CPUs (with two BLAS threads on two CPUs, two kernel threads took h on
    200 fresh queries x 5000 curves from 0.28 to 0.38 s).  The first span
    runs on the calling thread, the others on their own threads; every
    thread is joined before this returns, and the first exception a span
    raised is raised here.  A span computes exactly what a serial loop
    computes for its queries, so the values cannot depend on the split.
    The threads gain only where numpy releases the interpreter lock, in
    its ufunc loops and BLAS calls.
    """
    steps = -(-q // step)
    free = max(1, core._usable_cpus() // _blas_threads())
    spans = min(steps, free, core._kernel_threads or steps)
    bounds = [min(q, steps * k // spans * step) for k in range(spans + 1)]
    errors: list[BaseException | None] = [None] * spans

    def span(k: int) -> None:
        try:
            run(bounds[k], bounds[k + 1])
        except BaseException as exc:  # raised again on the calling thread
            errors[k] = exc

    started = []
    try:
        for k in range(1, spans):
            t = threading.Thread(target=span, args=(k,))
            t.start()
            started.append(t)
        run(bounds[0], bounds[1])
    finally:
        for t in started:
            t.join()
    for exc in errors:
        if exc is not None:
            raise exc


# ---------------------------------------------------------------------------
# One-dimensional halfspace depth
# ---------------------------------------------------------------------------


def halfspace_depth_1d(
    t: float, values: np.ndarray, weights: np.ndarray | None = None
) -> float:
    """min of the two closed tail masses of a weighted point set at t."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise InputError("halfspace depth of an empty value set")
    if weights is None:
        weights = np.full(values.size, 1.0 / values.size)
    else:
        weights = np.asarray(weights, dtype=float)
    lo = float(weights[values <= t].sum())
    hi = float(weights[values >= t].sum())
    return min(lo, hi)


# ---------------------------------------------------------------------------
# h-depth
# ---------------------------------------------------------------------------


def _h_depth_values(
    queries: np.ndarray, sample: FunctionalSample, h: float
) -> np.ndarray:
    """Average Gaussian kernel of the L2 distances from each query to the sample.

    (1/n) sum_i K_h(||x - X_i||_2) with K_h(t) = exp(-t^2/(2h^2)) / (h sqrt(2 pi));
    sample weights replace 1/n when non-uniform.

    Squared L2 distances come from explicit differences, query minus
    sample: a common shift of queries and sample cancels term by term (so
    ranks of tied curves survive translation bit for bit), and close
    curves far from the origin lose no precision to cancellation, unlike
    the expanded product q.q + x.x - 2 q.x.

    The differences are squared in place in one buffer of b queries that
    fits in ``_H_BLOCK_BYTES``, so no (chunk, n, m) temporary streams
    through memory.  Blocks split only the queries: each query's row of
    ``d2`` stays one product over all n sample rows, because splitting
    the rows of ``X @ w`` can change the rounding.  The outer chunk of
    ``4_000_000 // X.size`` queries stays as it was for the same reason:
    the final product with ``sample.weights`` rounds differently for
    different row counts, and the audit's stored values rest on it.

    A batch of two or more chunks runs on several threads when BLAS
    leaves CPUs free (``_split_batch``), each over a span of whole chunks
    with its own buffer and ``d2``.  Chunks and
    blocks start where a serial loop starts them, so every product sees
    the rows it sees on one thread, and the bytes do not move.
    """
    w = sample.grid.weights
    X = sample.values
    q = queries.shape[0]
    out = np.empty(q)
    norm = 1.0 / (h * _SQRT_2PI)
    chunk = max(1, 4_000_000 // max(1, X.size))
    block = max(1, _H_BLOCK_BYTES // X.nbytes)

    def run(lo: int, hi: int) -> None:
        buf = np.empty((min(block, hi - lo), *X.shape))
        d2 = np.empty((min(chunk, hi - lo), X.shape[0]))
        for c0 in range(lo, hi, chunk):
            c1 = min(c0 + chunk, hi)
            for s in range(c0, c1, block):
                e = min(s + block, c1)
                blk = buf[: e - s]
                np.subtract(queries[s:e, None, :], X[None], out=blk)
                np.multiply(blk, blk, out=blk)
                np.matmul(blk, w, out=d2[s - c0 : e - c0])
            out[c0:c1] = (np.exp(-d2[: c1 - c0] / (2.0 * h * h)) * norm) @ sample.weights

    _split_batch(q, chunk, run)
    return out


# ---------------------------------------------------------------------------
# Random Tukey depth
# ---------------------------------------------------------------------------


def draw_directions(grid: Grid, k: int, seed: Seed) -> np.ndarray:
    """k direction curves, normalized to unit L2 norm, drawn from a
    zero-mean squared-exponential process (unit variance, length scale 0.2)
    on the grid.

    Normalization does not change projected halfspace depths (positive
    scaling of a projection preserves both tail masses) but keeps the
    projections on a readable scale.  L2 norms scale with the square root
    of the domain length, so only a zero or non-finite norm is degenerate
    (``ParameterError``).
    """
    _check_rt_budget(k, grid.m)
    dirs = sample_gp(GPSpec(Kernel("se", 1.0, 0.2), grid), k, seed).values
    norms = l2_norm_rows(dirs, grid)
    if not np.all(np.isfinite(norms) & (norms > 0)):
        raise ParameterError(
            f"degenerate direction draw on a domain of length {grid.length:g} "
            "(zero or non-finite L2 norm)"
        )
    return dirs / norms[:, None]


def _check_rt_budget(k: int, rows: int) -> None:
    if k * rows > MAX_RT_ELEMENTS:
        raise ParameterError(
            f"random Tukey depth with k = {k} directions would hold {k} x {rows} "
            f"values, more than {MAX_RT_ELEMENTS}; lower k"
        )


def _uniform_masses(w0: float, n: int, counts: np.ndarray) -> np.ndarray:
    """Mass of each count when all n sample weights are bitwise equal to w0.

    A masked sum ``weights[mask].sum()`` of k equal weights is numpy's
    pairwise sum of k copies of w0: its rounding depends on k alone, so
    summing a k-prefix of equal weights reproduces it bit for bit.  One
    sum per distinct count.
    """
    full = np.full(n, w0)
    table = np.zeros(n + 1)
    for c in np.unique(counts):
        table[c] = full[:c].sum()
    return table[counts]


def _rt_unequal_weights(
    proj_q: np.ndarray, proj_X: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """rt from (q, k) query and (n, k) sample projections when the sample
    weights differ, as for an atomic distribution's few weighted atoms:
    each tail mass is the masked weight sum in index order, one query and
    direction at a time."""
    return np.array(
        [
            min(halfspace_depth_1d(t, col, weights) for t, col in zip(row, proj_X.T))
            for row in proj_q
        ]
    )


def _rt_depth_values(
    queries: np.ndarray, sample: FunctionalSample, directions: np.ndarray
) -> np.ndarray:
    """min over the direction curves u of the 1-d halfspace depth of <u, x>.

    The directions are shared by every query of the batch.  Queries and
    sample are projected through one stacked product, so a query equal to
    a sample row projects bitwise like that row (exact ties at the closed
    tails are meaningful).  Each direction's sample projections are sorted
    once; the closed tail counts #{<u, X_i> <= t} and #{<u, X_i> >= t} of
    the whole batch are two ``searchsorted`` calls per direction.  With
    equal sample weights a count maps to the same float the masked weight
    sum gives (``_uniform_masses``); unequal weights keep that masked sum
    in index order.  Cost O(n*m*k + (n+q)*k*log n) for q queries, n
    curves, m grid points and k directions.
    """
    wU = directions * sample.grid.weights  # (k, m): rows integrate against curves
    q, n = queries.shape[0], sample.n
    proj = np.vstack([queries, sample.values]) @ wU.T
    proj_q, proj_X = proj[:q], proj[q:]
    w = sample.weights
    if not np.all(w == w[0]):
        return _rt_unequal_weights(proj_q, proj_X, w)
    S = np.sort(proj_X.T, axis=1)  # (k, n): sorted projections per direction
    lo = np.empty(proj_q.shape, dtype=np.intp)
    hi = np.empty(proj_q.shape, dtype=np.intp)
    for j, s in enumerate(S):
        lo[:, j] = np.searchsorted(s, proj_q[:, j], side="right")
        hi[:, j] = n - np.searchsorted(s, proj_q[:, j], side="left")
    mass = _uniform_masses(float(w[0]), n, np.stack([lo, hi]))
    return np.minimum(mass[0], mass[1]).min(axis=1)


# ---------------------------------------------------------------------------
# Sorted grid columns: closed per-point counts for the rank-type depths
# ---------------------------------------------------------------------------


def _ranked_batch(queries: np.ndarray, sample: FunctionalSample) -> bool:
    """Whether hr and mhr should build the rank table for this batch."""
    return queries.shape[0] >= _RANKED_MIN_QUERIES and sample.n >= _RANKED_MIN_CURVES


def _column_counts(
    queries: np.ndarray, X: np.ndarray, ranks: bool = False
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Closed per-point counts of a (q, m) batch against the (n, m) sample.

    Each grid column of the sample is sorted once, and two
    ``searchsorted`` calls per column give le[i, v] = #{j : X_jv <= x_iv}
    and lt[i, v] = #{j : X_jv < x_iv} for the whole batch (the rank trick
    of Sun, Genton & Nychka 2012): O((n+q)*m*log n).  With ``ranks`` the
    columns are argsorted instead, and R[v, j], the position of X_jv in
    its sorted column, is returned as an (m, n) table, else None.  Tied
    values sit side by side in a sorted column, so X_jv <= x_iv iff
    R[v, j] < le[i, v] and X_jv >= x_iv iff R[v, j] >= lt[i, v]: the
    closed comparisons become exact ones between small integers.  R, le
    and lt are int16 when n < 2**15 and int32 otherwise.  A batch of fewer
    than ``_SORT_MIN_QUERIES`` queries without ranks counts by direct
    comparison instead, O(q*n*m), since the sort costs more than those
    queries' comparisons; the counts are the same integers.
    """
    n, m = X.shape
    dtype = np.int16 if n < 2**15 else np.int32
    if not ranks and queries.shape[0] < _SORT_MIN_QUERIES:
        le = np.empty(queries.shape, dtype=dtype)
        lt = np.empty(queries.shape, dtype=dtype)
        for i, x in enumerate(queries):
            le[i] = np.count_nonzero(X <= x, axis=0)
            lt[i] = np.count_nonzero(X < x, axis=0)
        return None, le, lt
    R = None
    if ranks:
        order = np.argsort(X.T, axis=1)
        S = np.take_along_axis(X.T, order, axis=1)
        R = np.empty((m, n), dtype=dtype)
        np.put_along_axis(R, order, np.arange(n, dtype=dtype)[None], axis=1)
    else:
        S = np.sort(X.T, axis=1)
    le = np.empty(queries.shape, dtype=dtype)
    lt = np.empty(queries.shape, dtype=dtype)
    for v, s in enumerate(S):
        le[:, v] = np.searchsorted(s, queries[:, v], side="right")
        lt[:, v] = np.searchsorted(s, queries[:, v], side="left")
    return R, le, lt


# ---------------------------------------------------------------------------
# Band depth (sample form): exact integer tuple counting
# ---------------------------------------------------------------------------


def _pack_rows(mask: np.ndarray) -> np.ndarray:
    """Pack boolean rows into uint64 words (zero-padded past m bits)."""
    b = np.packbits(mask, axis=1)
    out = np.zeros((b.shape[0], -(-b.shape[1] // 8) * 8), dtype=np.uint8)
    out[:, : b.shape[1]] = b
    return out.view(np.uint64)


def _row_hashes(W: np.ndarray) -> np.ndarray:
    """One uint64 per row of packed words, in wrapping arithmetic: fold
    each word's high half into its low half, multiply by the word's odd
    multiplier and sum over the words.  Both steps are bijections of one
    word, so rows of a single word never collide."""
    M = _HASH_MULTIPLIERS
    h = np.zeros(W.shape[0], dtype=np.uint64)
    for k in range(W.shape[1]):
        w = W[:, k]
        h += (w ^ (w >> np.uint64(32))) * M[k % M.size]
    return h


def _count_complement_pairs(U: np.ndarray, up: np.ndarray, pad: np.ndarray) -> int | None:
    """Number of pairs i < j of packed rows with U_j == U_i ^ pad (U_j is
    U_i's complement on the m valid bits), where ``up`` is each row's
    first valid bit; None if a hash collision leaves the count unverified.

    A row and its complement differ in the first bit, so each row gets
    one key: its pattern when that bit is set, else its complement.  A
    complement pair is then one row of each kind under one key.  Each
    key's hash keeps its high bits and carries its row index in the low
    ones, so one sort of these values gives both the runs of equal hashes
    and the rows in them.  Neighbouring rows of a run must have equal
    keys, word for word, so the runs are the distinct keys, and summing
    c_up * c_down over the runs counts each pair once.  O(n log n) for n
    rows.
    """
    n = U.shape[0]
    bits = np.uint64(max(1, (n - 1).bit_length()))
    low = (np.uint64(1) << bits) - np.uint64(1)
    flip = up.astype(np.uint64) - np.uint64(1)  # all ones where the bit is 0
    K = np.empty_like(U)
    for w in range(U.shape[1]):
        np.bitwise_and(flip, pad[w], out=K[:, w])
    K ^= U
    h = (_row_hashes(K) & ~low) | np.arange(n, dtype=np.uint64)
    h.sort()
    order = (h & low).astype(np.intp)
    h >>= bits
    same = h[1:] == h[:-1]
    if not same.any():
        return 0
    K = np.take(K, order, axis=0)
    if (same & ~_rows_equal(K[1:], K[:-1])).any():
        return None
    bounds = np.flatnonzero(np.concatenate(([True], ~same, [True])))
    c_up = np.add.reduceat(np.take(up, order).astype(np.int64), bounds[:-1])
    return int(c_up @ (np.diff(bounds) - c_up))


def _rows_equal(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Whether each row of packed words A equals the same row of B, or
    B itself when B is one row, word by word."""
    eq = A[:, 0] == B[..., 0]
    for w in range(1, A.shape[1]):
        eq &= A[:, w] == B[..., w]
    return eq


def _disjoint(A: np.ndarray, B: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """(i, j) -> whether columns A[:, i] and B[:, j] of word-major packed
    patterns share no set bit.  ``buf`` is uint64 scratch of two rows of
    at least A.shape[1] * B.shape[1] words, so the word loop allocates
    nothing and stays in cache."""
    acc = buf[0, : A.shape[1] * B.shape[1]].reshape(A.shape[1], B.shape[1])
    tmp = buf[1, : acc.size].reshape(acc.shape)
    np.bitwise_and(A[0][:, None], B[0], out=acc)
    for w in range(1, A.shape[0]):
        np.bitwise_and(A[w][:, None], B[w], out=tmp)
        acc |= tmp
    return acc == 0


def _count_pattern_tuples(R: np.ndarray, J: int) -> list[int]:
    """Exact pair and (for J >= 3) triple counts over distinct patterns.

    R holds each curve's packed pattern: the grid points where it lies
    strictly above the query, then those where it lies strictly below.
    Rows with the same pattern are interchangeable, so the count runs over
    the p distinct patterns weighted by their multiplicities c.  A tuple's
    band contains the query iff the AND of its members' patterns is zero.
    Repeating a pattern does not change that AND, so a tuple that repeats
    pattern a is good iff its set of distinct patterns is: C(c_a, 2)
    same-pattern pairs and C(c_a, 3) same-pattern triples are good only
    for the all-zero pattern (rows equal to the query), and an (a, a, b)
    triple iff the pair {a, b} is.  A triple can be good while one of its
    pairs is not, so a bad pair is never pruned; a good pair makes every
    completion good.

    The search runs over the middle index b of a < b < k.  The pair
    relation G[b, a] = (P_a & P_b == 0), a < b, is built for a block of
    b rows at a time in ``_PAIR_BLOCK_BYTES`` of scratch, so no (p, p)
    array is ever held.  Integer products of each block with c and
    C(c, 2) give the pair count, the (a, a, b) and (a, b, b) terms and the
    good pairs' completions, c_a * c_b * sum_{k > b} c_k.  Only a bad pair
    (a, b) is tested against the patterns after b
    (``_count_bad_pair_triples``), so each triple is tested at most once:
    about p^3 / 6 word operations for J = 3.
    """
    P, c = np.unique(R, axis=0, return_counts=True)
    c = c.astype(np.int64)
    p = c.size
    c2 = c * (c - 1) // 2
    zero = ~P.any(axis=1)
    pairs = int(c2[zero].sum())
    triples = sum(math.comb(int(k), 3) for k in c[zero])
    after = np.cumsum(c[::-1])[::-1] - c
    weights = np.stack([c, c2], axis=1)
    Pt = np.ascontiguousarray(P.T)
    buf = np.empty((2, max(_PAIR_BLOCK_BYTES // 8, p)), dtype=np.uint64)
    rows = buf.shape[1] // p
    for b0 in range(1, p, rows):
        b1 = min(b0 + rows, p)
        earlier = np.tri(b1 - b0, b1 - 1, b0 - 1, dtype=bool)  # a < b
        good = _disjoint(Pt[:, b0:b1], Pt[:, : b1 - 1], buf)
        good &= earlier
        s = good @ weights[: b1 - 1]
        cb = c[b0:b1]
        pairs += int(cb @ s[:, 0])
        if J < 3:
            continue
        # (a, a, b) and (a, b, b): good iff the pair {a, b} is; a good
        # pair {a, b} is completed by every k > b
        triples += int(cb @ s[:, 1]) + int((c2[b0:b1] + cb * after[b0:b1]) @ s[:, 0])
        rb, a = np.nonzero(earlier & ~good)
        triples += _count_bad_pair_triples(Pt, c, a, rb + b0, buf)
    return [pairs, triples][: J - 1]


def _count_bad_pair_triples(
    Pt: np.ndarray, c: np.ndarray, a: np.ndarray, b: np.ndarray, buf: np.ndarray
) -> int:
    """Weighted number of good triples a < b < k over bad pairs (a, b),
    given in ascending order of b: the sum of c_a * c_b * c_k over the
    k > b with P_a & P_b & P_k == 0 (Pt holds the patterns word-major).

    A group of bad pairs is tested against the tail after its first b in
    one call, and the columns k <= b of its later pairs are masked out.  A
    group spans b values only as far as an eighth of that tail, so the
    masked columns waste little, and its tests fit ``buf``."""
    p = c.size
    total = 0
    i = 0
    while i < b.size:
        g0 = int(b[i])
        tail = p - 1 - g0
        if tail == 0:
            break
        j = min(
            int(np.searchsorted(b, g0 + max(1, tail // 8), "left")),
            i + max(1, buf.shape[1] // tail),
        )
        ga, gb = a[i:j], b[i:j]
        ok = _disjoint(Pt[:, ga] & Pt[:, gb], Pt[:, g0 + 1 :], buf)
        if gb[-1] > g0:
            ok &= np.arange(g0 + 1, p) > gb[:, None]
        total += int((c[ga] * c[gb]) @ (ok @ c[g0 + 1 :]))
        i = j
    return total


def _count_tuples_generic(R: np.ndarray, j: int) -> int:
    """Depth-first tuple count with subset pruning for arbitrary order j,
    over the packed patterns R of ``_count_pattern_tuples``."""
    n = R.shape[0]
    count = 0

    def rec(start: int, depth: int, acc: np.ndarray) -> None:
        nonlocal count
        remaining = j - depth
        if not acc.any():
            # running intersections only shrink, so every completion
            # of this prefix qualifies
            count += math.comb(n - start, remaining)
            return
        if remaining == 0:
            return  # nonzero intersection survived to the leaf
        for t in range(start, n - remaining + 1):
            rec(t + 1, depth + 1, acc & R[t])

    for t in range(0, n - j + 1):
        rec(t + 1, 1, R[t])
    return count


def _band_patterns(xv: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Packed patterns of the rows of X against the curve xv, for
    ``_count_pattern_tuples``, without the columns that cannot decide a
    count.

    A column is a grid point's strictly-above or strictly-below test, and
    its set is the rows that pass it.  A tuple is bad iff all its members
    lie in one column's set, so a column whose set lies inside a larger
    column's, or inside an equal column's further left, never decides a
    tuple alone and is dropped.  Dropping columns merges patterns, so p
    falls and the words shrink, with every count unchanged.  The columns
    are ordered largest set first, so each is tested only against the
    columns before it: word tests on the sets packed over rows, a block
    of columns at a time in ``_PAIR_BLOCK_BYTES`` of scratch."""
    C = np.hstack([X > xv, X < xv])
    order = np.argsort(-np.count_nonzero(C, axis=0), kind="stable")
    S = np.ascontiguousarray(_pack_rows(C.T)[order].T)  # (words over rows, columns)
    outside = ~S
    k = order.size
    buf = np.empty((2, max(_PAIR_BLOCK_BYTES // 8, k)), dtype=np.uint64)
    rows = buf.shape[1] // k
    dropped = np.empty(k, dtype=bool)
    for v0 in range(0, k, rows):
        v1 = min(v0 + rows, k)
        inside = _disjoint(S[:, v0:v1], outside[:, :v1], buf)
        inside &= np.tri(v1 - v0, v1, v0 - 1, dtype=bool)  # columns before v
        dropped[v0:v1] = inside.any(axis=1)
    return _pack_rows(C[:, order[~dropped]])


def _band_counts(xv: np.ndarray, X: np.ndarray, J: int) -> list[int]:
    """Exact number of j-index-subsets of the rows of X whose band contains
    the curve xv, j = 2..J, for J >= 3."""
    R = _band_patterns(xv, X)
    counts = _count_pattern_tuples(R, J)
    for j in range(4, J + 1):
        counts.append(_count_tuples_generic(R, j))
    return counts


def _row_copies(queries: np.ndarray, X: np.ndarray, tied: np.ndarray) -> np.ndarray:
    """Number of rows of X equal to each query, counted only where ``tied``
    (a copy ties its query at every grid point) and 0 elsewhere.  Adding
    0.0 turns -0.0 into 0.0, so equal rows have equal bytes."""
    e = np.zeros(queries.shape[0], dtype=np.int64)
    rows = np.flatnonzero(tied)
    if rows.size:
        counts = Counter(map(bytes, X + 0.0))
        e[rows] = [counts[bytes(queries[i] + 0.0)] for i in rows]
    return e


def _bd_pair_counts(queries: np.ndarray, X: np.ndarray) -> list[int]:
    """Exact number of index pairs of the rows of X whose band contains
    each query.

    A batch of ``_BD_RANKED_MIN_QUERIES`` or more reads each query's above
    and below patterns off the rank table of ``_column_counts``: X_jv >
    x_v iff R[v, j] >= le_v, and X_jv < x_v iff R[v, j] < lt_v.  A smaller
    batch compares each query with the sample directly.  Each query's e
    whole-row copies are counted once per batch (``_row_copies``); some
    other row then ties the query at a grid point iff le - lt > e there.
    A query with such a partial tie counts over its (above, below)
    patterns (``_count_pattern_tuples``).  Any other row lies strictly
    above or strictly below at every grid point, so a pair of such rows
    works iff one's above pattern is the other's complement
    (``_count_complement_pairs``, over all n rows).  A copy works with
    every row, e * (n - e) + C(e, 2) pairs, but its empty pattern also
    matches each of the c_pad rows above the query everywhere, so e * c_pad
    is taken off.  A hash collision falls back to the pattern count.
    Patterns are compared into a zero-padded buffer of whole words, so
    ``np.packbits`` gives ``_pack_rows``' words without a copy.
    """
    n, m = X.shape
    ranked = queries.shape[0] >= _BD_RANKED_MIN_QUERIES
    R, le, lt = _column_counts(queries, X, ranks=ranked)
    e = _row_copies(queries, X, (le > lt).all(axis=1))
    partial = (le - lt > e[:, None]).any(axis=1)
    if ranked:
        X, above, below = np.ascontiguousarray(R.T), (np.greater_equal, le), (np.less, lt)
    else:
        above, below = (np.greater, queries), (np.less, queries)
    buf = np.zeros((n, -(-m // 64) * 64), dtype=bool)
    pad = _pack_rows(np.ones((1, m), dtype=bool))[0]

    def pack(test, i):
        op, ref = test
        op(X, ref[i], out=buf[:, :m])
        return np.packbits(buf, axis=1).view(np.uint64)

    counts = []
    for i in range(queries.shape[0]):
        U = pack(above, i)
        pairs = None if partial[i] else _count_complement_pairs(U, buf[:, 0], pad)
        if pairs is None:
            pairs = _count_pattern_tuples(np.hstack([U, pack(below, i)]), 2)[0]
        elif e[i]:
            k = int(e[i])
            pairs += k * (n - k) + math.comb(k, 2) - k * np.count_nonzero(_rows_equal(U, pad))
        counts.append(pairs)
    return counts


def _require_uniform_for_band(sample: FunctionalSample, what: str) -> None:
    if not sample.is_uniform:
        raise ParameterError(
            f"{what} uses without-replacement index combinations and is only "
            "defined for uniformly weighted samples; pass a weighted "
            "distribution as an AtomicDistribution (population-exact)"
        )


def _check_band_order(J: int, n: int) -> None:
    if int(J) != J or not 2 <= J <= n:
        raise ParameterError(f"band order J must satisfy 2 <= J <= n = {n}, got {J}")


def _check_band_budget(n: int, J: int, q: int) -> None:
    if J >= 3 and q * math.comb(n, 3) > MAX_BAND_TRIPLES:
        raise ParameterError(
            f"band depth of order J = {J} for {q} queries on n = {n} curves "
            f"would count q * C(n, 3) = {q * math.comb(n, 3):.3g} triples, more "
            f"than {MAX_BAND_TRIPLES:.0e} per batch; lower J, subsample the "
            "curves or pass fewer queries"
        )
    tuples = 0
    for j in range(4, J + 1):
        tuples += math.comb(n, j)
        if tuples > MAX_BAND_TUPLES:
            raise ParameterError(
                f"band depth of order J = {J} on n = {n} curves would enumerate "
                f"more than {MAX_BAND_TUPLES} subsets of 4..J curves per query; "
                "lower J or subsample the curves"
            )


def _bd_depth_values(
    queries: np.ndarray, sample: FunctionalSample, J: int
) -> np.ndarray:
    """Fraction of j-curve bands (j = 2..J) that contain x at every grid point.

    sum_{j=2..J} C(n, j)^{-1} #{i_1 < ... < i_j : min <= x <= max pointwise},
    with closed comparisons at the band boundaries.  J = 2 counts the
    whole batch's pairs in ``_bd_pair_counts``; higher orders count each
    query's tuples over its patterns (``_band_counts``).
    """
    X, n = sample.values, sample.n
    if J == 2:
        return np.array([cnt / math.comb(n, 2) for cnt in _bd_pair_counts(queries, X)])
    out = np.empty(queries.shape[0])
    for i, xv in enumerate(queries):
        value = 0.0
        for j, cnt in enumerate(_band_counts(xv, X, J), start=2):
            value += cnt / math.comb(n, j)
        out[i] = value
    return out


# ---------------------------------------------------------------------------
# Modified band depth: per-grid-point tuple counts
# ---------------------------------------------------------------------------


def _mbd_term(cnt: np.ndarray, total: int, grid: Grid) -> float:
    """One band order's share: grid-weighted covering counts over |T| C(n, j).

    The count-to-value normalization the brute-force references share,
    so optimized and exhaustive routes agree bit for bit."""
    return float(np.dot(grid.weights, cnt.astype(np.float64))) / (grid.length * total)


def _check_mbd_budget(n: int, J: int, grid: Grid) -> None:
    # |T| C(n, j) must stay a finite float for the normalization
    limit = float(np.finfo(np.float64).max) / max(grid.length, 1.0)
    big = 0
    for j in range(2, J + 1):
        total = math.comb(n, j)
        if total > limit:
            raise ParameterError(
                f"modified band depth of order J = {J} on n = {n} curves counts "
                f"C({n}, {j}) bands, past the float range; lower J"
            )
        big += total > _INT64_MAX
        if big * grid.m > MAX_MBD_BIG_COUNTS:
            raise ParameterError(
                f"modified band depth of order J = {J} on n = {n} curves and "
                f"m = {grid.m} grid points would keep more than "
                f"{MAX_MBD_BIG_COUNTS} band counts past the int64 range per "
                "query; lower J"
            )


def _mbd_depth_values(
    queries: np.ndarray, sample: FunctionalSample, J: int
) -> np.ndarray:
    """Average fraction of the domain where x lies inside j-curve bands.

    sum_{j=2..J} C(n, j)^{-1} sum_{i_1<...<i_j} |{v : min <= x(v) <= max}| / |T|.
    A subset's band misses x at grid point v iff all its members are
    strictly above x(v) or all strictly below, and those events are
    disjoint, so the number of j-subsets covering x at v is
    C(n, j) - C(a_v, j) - C(b_v, j) with a_v/b_v the strictly above/below
    curve counts, a_v = n - le_v and b_v = lt_v in the closed counts of
    ``_column_counts``: O((n+q)*m*log n) for q queries.  Counts past the
    int64 range stay exact as Python integers.
    Each query's value adds the terms of j = 2..J in turn, one band order
    at a time, so only one order's (q, m) counts are held.
    """
    n = sample.n
    _, le, b = _column_counts(queries, sample.values)
    a = n - le
    out = np.zeros(queries.shape[0])
    tab = np.arange(n + 1, dtype=np.int64)  # C(c, 1)
    for j in range(2, J + 1):
        total = math.comb(n, j)
        # C(c, j) = sum_{k < c} C(k, j - 1).  Every term and partial sum
        # is at most C(n, j), so int64 is exact whenever C(n, j) fits;
        # past it the sums run over Python integers.
        dtype = np.int64 if total <= _INT64_MAX else object
        prev, tab = tab[:-1].astype(dtype), np.zeros(n + 1, dtype=dtype)
        np.cumsum(prev, out=tab[1:])
        for i, cnt in enumerate(total - tab[a] - tab[b]):
            out[i] += _mbd_term(cnt, total, sample.grid)
    return out


# ---------------------------------------------------------------------------
# Population-exact band depths on finitely supported distributions
# ---------------------------------------------------------------------------


def _check_atomic_budget(dist: AtomicDistribution, J: int) -> None:
    if int(J) != J or J < 2:
        raise ParameterError(f"band order J must be an integer >= 2, got {J}")
    if dist.n_atoms > MAX_ATOMS or J > MAX_ATOMIC_J:
        raise ParameterError(
            f"exhaustive atomic band depth is limited to {MAX_ATOMS} atoms "
            f"and J <= {MAX_ATOMIC_J} (got {dist.n_atoms} atoms, J = {J})"
        )


def _atomic_band_values(
    depth: str, queries: np.ndarray, dist: AtomicDistribution, J: int
) -> np.ndarray:
    """Exact population bd or mbd of each query under a finitely supported
    distribution.

    Enumerates j-tuples of atoms WITH replacement, in ``product`` order,
    weighting each tuple by its probability product.  bd sums
    P(x in band of j iid draws) over j = 2..J; mbd sums the expected
    Lebesgue fraction of the domain the band covers.  Each query's sums
    run tuple by tuple, so a row's value does not depend on its batch.
    """
    V, probs = dist.values, dist.probs
    w_frac = dist.grid.weights / dist.grid.length
    out = np.zeros(queries.shape[0])
    for j in range(2, J + 1):
        acc = np.zeros(queries.shape[0])
        for tup in product(range(dist.n_atoms), repeat=j):
            sub = V[list(tup)]
            prob = float(np.prod(probs[list(tup)]))
            inside = (sub.min(axis=0) <= queries) & (queries <= sub.max(axis=0))
            if depth == "bd":
                acc[inside.all(axis=1)] += prob
            else:
                acc += prob * np.array([w_frac[row].sum() for row in inside])
        out += acc
    return out


# ---------------------------------------------------------------------------
# Half-region depths
# ---------------------------------------------------------------------------


def _hr_depth_values(queries: np.ndarray, sample: FunctionalSample) -> np.ndarray:
    """min of the sample fractions entirely below-or-equal / above-or-equal x.

    A large batch (``_ranked_batch``) against equally weighted curves
    reads the closed comparisons off the rank table of
    ``_column_counts``: a curve lies below x iff each of its m ranks is
    under the column's ``le`` count, and above x iff each is at least the
    ``lt`` count.  Per query that compares n*m small integers, not floats,
    and the two curve counts map to masses as in rt (``_uniform_masses``),
    bit for bit the masked weight sums.  Small batches and samples, and
    unequal weights (an atomic distribution's atoms), compare each query
    with the sample directly and sum the masked weights.  Either way the
    cost is O(q*n*m) for q queries against n curves on m grid points,
    plus O(n*m*log n) for the table.
    """
    X, w = sample.values, sample.weights
    if not _ranked_batch(queries, sample) or not np.all(w == w[0]):
        out = np.empty(queries.shape[0])
        for i, xv in enumerate(queries):
            in_hypo = (X <= xv).all(axis=1)
            in_epi = (X >= xv).all(axis=1)
            out[i] = min(float(w[in_hypo].sum()), float(w[in_epi].sum()))
        return out
    R, le, lt = _column_counts(queries, X, ranks=True)
    buf = np.empty(R.shape, dtype=bool)
    counts = np.empty((2, queries.shape[0]), dtype=np.intp)
    for i in range(queries.shape[0]):
        np.less(R, le[i, :, None], out=buf)
        counts[0, i] = np.count_nonzero(np.logical_and.reduce(buf, axis=0))
        np.greater_equal(R, lt[i, :, None], out=buf)
        counts[1, i] = np.count_nonzero(np.logical_and.reduce(buf, axis=0))
    mass = _uniform_masses(float(w[0]), sample.n, counts)
    return np.minimum(mass[0], mass[1])


def _mhr_depth_values(queries: np.ndarray, sample: FunctionalSample) -> np.ndarray:
    """min of the mean Lebesgue fractions where curves sit below / above x.

    Each query's (n, m) masks of X <= x and X >= x meet the grid weights
    in one product per mask, and the sample weights in one dot product.
    A large batch (``_ranked_batch``) builds those masks from the rank
    table of ``_column_counts``, comparing small integers instead of
    floats; the masks, and so every product and every value, are bit for
    bit those of the direct comparison that small batches make.  O(q*n*m)
    for q queries against n curves on m grid points, plus O(n*m*log n)
    for the table.  A large batch runs on several threads when BLAS
    leaves CPUs free (``_split_batch``), each over a span of queries, all
    reading the one table; a query's value comes from its own masks
    alone, so the bytes do not depend on the split.  Small batches, and
    batches against samples of under ``_MHR_THREAD_MIN_QUERY_WORK``
    values, stay on the calling thread.
    """
    X, w = sample.values, sample.grid.weights
    lam = sample.grid.length
    q = queries.shape[0]
    if not _ranked_batch(queries, sample):

        def masks(i: int) -> tuple[np.ndarray, np.ndarray]:
            return X <= queries[i], X >= queries[i]

    else:
        R, le, lt = _column_counts(queries, X, ranks=True)
        R = np.ascontiguousarray(R.T)  # (n, m), the layout of X <= x

        def masks(i: int) -> tuple[np.ndarray, np.ndarray]:
            return R < le[i], R >= lt[i]

    out = np.empty(q)

    def run(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            below, above = masks(i)
            frac_le = (below @ w) / lam
            frac_ge = (above @ w) / lam
            out[i] = min(float(sample.weights @ frac_le), float(sample.weights @ frac_ge))

    if q * X.size >= _MHR_THREAD_MIN_WORK and X.size >= _MHR_THREAD_MIN_QUERY_WORK:
        _split_batch(q, 1, run)
    else:
        run(0, q)
    return out


# ---------------------------------------------------------------------------
# Dispatch helpers
# ---------------------------------------------------------------------------


def _check_query(x: Curve, holder) -> None:
    if x.grid != holder.grid:
        raise InputError("query curve and sample live on different grids")


def depth_values(
    depth: str,
    queries: np.ndarray,
    sample: FunctionalSample | AtomicDistribution,
    params: DepthParams | None = None,
) -> np.ndarray:
    """Depth of each query row against a distribution, as a plain array.

    ``depth`` is one of 'h', 'rt', 'bd', 'mbd', 'hr', 'mhr'; ``queries``
    is a (q, m) array of curves on the distribution's grid (one curve may
    be passed as an (m,) array).  ``sample`` is a ``FunctionalSample`` (the
    empirical distribution) or an ``AtomicDistribution``: bd and mbd count
    its with-replacement atom tuples exactly, the other depths see its
    atoms as a weighted sample.  The batch is validated once, then handed
    to the depth's kernel.  The random-Tukey directions are drawn once
    per batch from ``params.k`` and ``params.seed``, so every query sees
    the same projection set.
    """
    params = params or DepthParams()
    if depth not in DEPTH_IDS:
        raise ParameterError(
            f"unknown depth id {depth!r}; expected one of {DEPTH_IDS}"
        )
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if queries.ndim != 2 or queries.shape[1] != sample.grid.m:
        raise InputError(
            f"queries of shape {queries.shape} do not fit a grid of size "
            f"{sample.grid.m}"
        )
    if not np.all(np.isfinite(queries)):
        raise InputError("query curve values must be finite")
    if isinstance(sample, AtomicDistribution):
        if depth in ("bd", "mbd"):
            _check_atomic_budget(sample, params.J)
            return _atomic_band_values(depth, queries, sample, params.J)
        sample = sample.as_sample()
    if depth == "h":
        return _h_depth_values(queries, sample, params.h)
    if depth == "rt":
        _check_rt_budget(params.k, sample.n + queries.shape[0])
        directions = draw_directions(sample.grid, params.k, params.seed)
        return _rt_depth_values(queries, sample, directions)
    if depth == "hr":
        return _hr_depth_values(queries, sample)
    if depth == "mhr":
        return _mhr_depth_values(queries, sample)
    _check_band_order(params.J, sample.n)
    _require_uniform_for_band(sample, DEPTH_LABELS[depth])
    if depth == "bd":
        _check_band_budget(sample.n, params.J, queries.shape[0])
        return _bd_depth_values(queries, sample, params.J)
    _check_mbd_budget(sample.n, params.J, sample.grid)
    return _mbd_depth_values(queries, sample, params.J)


# evaluate_depth reaches the batch through this private name, so a wrapper
# installed on the public name (to time or count batches) sees only the
# batches callers make, never a batch of one nested inside another.
_depth_values = depth_values


def evaluate_depth(
    depth: str,
    x: Curve,
    sample: FunctionalSample | AtomicDistribution,
    params: DepthParams | None = None,
) -> float:
    """Depth of one curve: ``depth_values`` on a batch of one."""
    _check_query(x, sample)
    return float(_depth_values(depth, x.values, sample, params)[0])
