"""Definitional per-query depth references for checking the CLI's output.

Each function evaluates one query curve ``x`` against the sample rows
``X`` straight from the depth's formula, one query at a time, without the
package's batch kernels.  ``w`` are the grid's trapezoid weights.

Band and half-region depths are ratios of integer counts, so besides the
value each function returns the exact integer count behind it; the
checker compares those counts exactly and the values within a relative
tolerance.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations

import numpy as np

SQRT_2PI = math.sqrt(2.0 * math.pi)


def h_depth(x, X, w, h=1.0):
    """(1/n) sum_i exp(-||x - X_i||^2 / (2 h^2)) / (h sqrt(2 pi))."""
    d2 = ((X - x) ** 2) @ w
    return float(np.mean(np.exp(-d2 / (2.0 * h * h)) / (h * SQRT_2PI))), None


def tukey_depth(px, P):
    """min over directions of the smaller closed tail count of the projections.

    ``px`` holds the query's k projections, ``P`` the (n, k) sample ones.
    Returns (count / n, count).
    """
    n = P.shape[0]
    count = min(
        min(int((P[:, j] <= px[j]).sum()), int((P[:, j] >= px[j]).sum()))
        for j in range(P.shape[1])
    )
    return count / n, count


def _pairs_containing(x, X):
    """#{i < j : min(X_i, X_j) <= x <= max(X_i, X_j) at every grid point}."""
    if not (X == x).any():
        # no ties: a pair contains x iff one curve is strictly above exactly
        # where the other is strictly below, i.e. their above-patterns are
        # complements; count complement matches instead of all pairs
        above = np.packbits(X > x, axis=1)
        below = np.packbits(X < x, axis=1)
        seen = Counter(row.tobytes() for row in above)
        total = sum(seen[row.tobytes()] for row in below)
        return total // 2
    count = 0
    for i in range(X.shape[0] - 1):
        lo = np.minimum(X[i], X[i + 1 :])
        hi = np.maximum(X[i], X[i + 1 :])
        count += int(((lo <= x).all(axis=1) & (x <= hi).all(axis=1)).sum())
    return count


def _triples_containing(x, X):
    """#{i < j < k : the three-curve band contains x at every grid point}."""
    count = 0
    for i, j in combinations(range(X.shape[0] - 1), 2):
        rest = X[j + 1 :]
        lo = np.minimum(np.minimum(X[i], X[j]), rest)
        hi = np.maximum(np.maximum(X[i], X[j]), rest)
        count += int(((lo <= x).all(axis=1) & (x <= hi).all(axis=1)).sum())
    return count


def band_depth(x, X, J=2):
    """sum_{j=2..J} #{j-subsets whose band contains x} / C(n, j)."""
    n = X.shape[0]
    counts = [_pairs_containing(x, X)]
    if J >= 3:
        counts.append(_triples_containing(x, X))
    if J > 3:
        raise ValueError("the reference band depth stops at J = 3")
    value = 0.0
    for j, cnt in enumerate(counts, start=2):
        value += cnt / math.comb(n, j)
    return value, counts


def modified_band_depth(x, X, w, J=2):
    """Mean Lebesgue fraction of the domain inside the j-curve bands, j <= J.

    At a grid point v a j-subset's band misses x exactly when all its
    members are strictly above x(v) or all strictly below, so the number
    of covering subsets is C(n, j) - C(a_v, j) - C(b_v, j).
    """
    n = X.shape[0]
    a = (X > x).sum(axis=0)
    b = (X < x).sum(axis=0)
    length = float(w.sum())
    value = 0.0
    for j in range(2, J + 1):
        cover = [math.comb(n, j) - math.comb(int(av), j) - math.comb(int(bv), j)
                 for av, bv in zip(a, b)]
        value += float(np.dot(w, np.array(cover, dtype=float))) / (
            length * math.comb(n, j)
        )
    return value, None


def half_region_depth(x, X):
    """min of the counts of curves entirely below-or-equal / above-or-equal x."""
    n = X.shape[0]
    count = min(int((X <= x).all(axis=1).sum()), int((X >= x).all(axis=1).sum()))
    return count / n, count


def modified_half_region_depth(x, X, w):
    """min of the mean domain fractions where the curves sit below / above x."""
    length = float(w.sum())
    le = float(np.mean(((X <= x) @ w) / length))
    ge = float(np.mean(((X >= x) @ w) / length))
    return min(le, ge), None
