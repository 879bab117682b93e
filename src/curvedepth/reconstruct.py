"""Sparse-observation reconstruction and depth-stability experiments.

A partially observed curve is a grid row with NaN in its unobserved
cells, the same shape the curve CSV format stores.  Such rows (possibly
with additive noise on the observed cells) are rebuilt by
piecewise-linear interpolation with constant extrapolation beyond the
first/last observation — deterministic, parameter-free, and exact on
the trapezoid quadrature model.  The stability experiment compares
depths against the reconstructed sample with depths against the fully
observed one over a fixed probe set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import FunctionalSample, Grid, InputError, ParameterError
from .depths import DepthParams, depth_values
from .distributions import Seed, _rng, subseed

__all__ = [
    "StabilityRecord",
    "reconstruct_linear",
    "depth_stability",
]


def reconstruct_linear(values: np.ndarray, grid: Grid) -> FunctionalSample:
    """Piecewise-linear interpolation of each NaN-masked row onto the grid.

    ``values`` is (n, m) with NaN marking an unobserved cell, the shape
    ``read_curves_csv(..., allow_nan=True)`` returns.  Each row needs at
    least two observed points, all finite.  Beyond the first/last
    observed point the value is held constant (numpy.interp's edge
    behavior).  Exact for curves that are linear between their observed
    points.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] == 0 or values.shape[1] != grid.m:
        raise InputError(
            f"sparse values shape {values.shape} != (n >= 1, {grid.m})"
        )
    out = np.empty(values.shape)
    for i, row in enumerate(values):
        seen = ~np.isnan(row)
        if seen.sum() < 2:
            raise InputError(f"curve {i} has {seen.sum()} observed points, need >= 2")
        if not np.all(np.isfinite(row[seen])):
            raise InputError(f"curve {i}: observed values must be finite")
        out[i] = np.interp(grid.points, grid.points[seen], row[seen])
    return FunctionalSample(out, grid)


@dataclass(frozen=True)
class StabilityRecord:
    """Deviation summary |D(x, reconstructed) - D(x, full)| over probes and seeds."""

    depth: str
    sparse_rate: float
    noise_sd: float
    n: int
    n_seeds: int
    n_probes: int
    median_dev: float
    max_dev: float


def _subsample_one(
    values: np.ndarray, rate: float, noise_sd: float, rng: np.random.Generator
) -> np.ndarray:
    """One curve's NaN-masked partial record."""
    keep = rng.uniform(size=values.size) < rate
    if keep.sum() < 2:
        keep[0] = keep[-1] = True  # repair: endpoints guarantee two points
    row = np.full(values.size, np.nan)
    row[keep] = values[keep]
    if noise_sd > 0:
        row[keep] += rng.normal(scale=noise_sd, size=int(keep.sum()))
    return row


def depth_stability(
    depth: str,
    full: FunctionalSample,
    sparse_rate: float,
    noise_sd: float,
    seeds: Sequence[Seed],
    params: DepthParams | None = None,
    n_probes: int = 10,
) -> StabilityRecord:
    """How much sparsifying + reconstructing the sample moves depth values.

    Per seed: every curve keeps each grid point independently with
    probability ``sparse_rate`` (with an endpoint repair so at least two
    survive), observed values get iid Gaussian noise, and the curves are
    rebuilt by linear interpolation.  Deviations |D(x, rebuilt) -
    D(x, full)| are pooled over a fixed probe set (the sample's pointwise
    mean plus its first curves) and all seeds; the record carries their
    median and max.
    """
    if not 0 < sparse_rate <= 1:
        raise ParameterError(f"sparse_rate must lie in (0, 1], got {sparse_rate}")
    if noise_sd < 0:
        raise ParameterError(f"noise_sd must be >= 0, got {noise_sd}")
    params = params or DepthParams()
    probes = np.vstack(
        [full.values.mean(axis=0), full.values[: max(0, n_probes - 1)]]
    )
    base = depth_values(depth, probes, full, params)
    devs = []
    for seed in seeds:
        rng = _rng(subseed(seed, 7))
        masked = np.stack(
            [_subsample_one(row, sparse_rate, noise_sd, rng) for row in full.values]
        )
        rebuilt = reconstruct_linear(masked, full.grid)
        vals = depth_values(depth, probes, rebuilt, params)
        devs.append(np.abs(vals - base))
    pool = np.concatenate(devs)
    return StabilityRecord(
        depth=depth,
        sparse_rate=float(sparse_rate),
        noise_sd=float(noise_sd),
        n=full.n,
        n_seeds=len(seeds),
        n_probes=probes.shape[0],
        median_dev=float(np.median(pool)),
        max_dev=float(pool.max()),
    )
