"""Brute-force band depth oracles for the tests.

Each enumerates every j-subset of the sample, materializes it and compares
its min/max envelope against the query directly, independent of the
packed-pattern counting in ``curvedepth.depths``.  The modified band depth
shares only the final count-to-value normalization with the kernel, so
the kernels must agree with these oracles bit for bit.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from curvedepth.core import Curve, FunctionalSample
from curvedepth.depths import (
    _check_band_order,
    _check_query,
    _mbd_term,
    _require_uniform_for_band,
)


def mbd_value_from_counts(counts_by_j, n: int, grid) -> float:
    """mbd from the covering counts per grid point of j = 2..J, summed in
    order of j with the kernel's normalization."""
    value = 0.0
    for j, cnt in enumerate(counts_by_j, start=2):
        value += _mbd_term(cnt, math.comb(n, j), grid)
    return value


def band_depth_brute(x: Curve, sample: FunctionalSample, J: int = 2) -> float:
    """Reference band depth by exhaustive combination enumeration."""
    _check_query(x, sample)
    _check_band_order(J, sample.n)
    _require_uniform_for_band(sample, "band depth")
    X = sample.values
    xv = x.values
    value = 0.0
    for j in range(2, J + 1):
        cnt = 0
        for idx in combinations(range(sample.n), j):
            sub = X[list(idx)]
            if np.all(sub.min(axis=0) <= xv) and np.all(xv <= sub.max(axis=0)):
                cnt += 1
        value += cnt / math.comb(sample.n, j)
    return value


def modified_band_depth_brute(
    x: Curve, sample: FunctionalSample, J: int = 2
) -> float:
    """Reference modified band depth by exhaustive enumeration.

    Accumulates, per grid point, the integer number of covering subsets
    from explicit min/max band tests, then applies the kernel's
    normalization.
    """
    _check_query(x, sample)
    _check_band_order(J, sample.n)
    _require_uniform_for_band(sample, "modified band depth")
    X = sample.values
    xv = x.values
    counts = []
    for j in range(2, J + 1):
        cnt = np.zeros(sample.grid.m, dtype=np.int64)
        for idx in combinations(range(sample.n), j):
            sub = X[list(idx)]
            cnt += (sub.min(axis=0) <= xv) & (xv <= sub.max(axis=0))
        counts.append(cnt)
    return mbd_value_from_counts(counts, sample.n, sample.grid)
