"""Sparse-observation reconstruction and depth-stability experiments.

Curves observed at a subset of grid points (possibly with additive
noise) are rebuilt by piecewise-linear interpolation with constant
extrapolation beyond the first/last observation — deterministic,
parameter-free, and exact on the trapezoid quadrature model.  The
stability experiment compares depths against the reconstructed sample
with depths against the fully observed one over a fixed probe set.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .core import FunctionalSample, Grid, InputError, ParameterError
from .depths import DepthParams, depth_values
from .distributions import Seed, _rng, subseed

__all__ = [
    "SparseObservation",
    "StabilityRecord",
    "reconstruct_linear",
    "sparse_from_values",
    "depth_stability",
]


@dataclass(frozen=True)
class SparseObservation:
    """One curve's partial record: sorted grid indices and observed values."""

    obs_idx: np.ndarray  # sorted, unique indices into the target grid
    obs_values: np.ndarray

    def __post_init__(self) -> None:
        idx = np.asarray(self.obs_idx, dtype=np.int64)
        vals = np.asarray(self.obs_values, dtype=float)
        if idx.ndim != 1 or idx.size < 2:
            raise InputError(
                f"need at least 2 observed points per curve, got {idx.size}"
            )
        if vals.shape != idx.shape:
            raise InputError("observation indices and values differ in length")
        if np.any(np.diff(idx) <= 0):
            raise InputError("observation indices must be sorted and unique")
        if idx[0] < 0:
            raise InputError("negative observation index")
        if not np.all(np.isfinite(vals)):
            raise InputError("observed values must be finite")
        i = np.array(idx, copy=True)
        i.flags.writeable = False
        v = np.array(vals, copy=True)
        v.flags.writeable = False
        object.__setattr__(self, "obs_idx", i)
        object.__setattr__(self, "obs_values", v)


def reconstruct_linear(
    obs: Sequence[SparseObservation], target: Grid
) -> FunctionalSample:
    """Piecewise-linear interpolation of each sparse record onto the grid.

    Beyond the first/last observed point the value is held constant
    (numpy.interp's edge behavior).  Exact for curves that are linear
    between their observed points.
    """
    if len(obs) == 0:
        raise InputError("need at least one observed curve")
    out = np.empty((len(obs), target.m))
    for i, ob in enumerate(obs):
        if ob.obs_idx[-1] >= target.m:
            raise InputError(
                f"curve {i}: observation index {ob.obs_idx[-1]} outside grid "
                f"of size {target.m}"
            )
        out[i] = np.interp(
            target.points, target.points[ob.obs_idx], ob.obs_values
        )
    return FunctionalSample(out, target)


def sparse_from_values(values: np.ndarray) -> list[SparseObservation]:
    """Split a (curves x grid) array with NaN = unobserved into sparse records."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    out = []
    for i, row in enumerate(values):
        idx = np.flatnonzero(~np.isnan(row))
        if idx.size < 2:
            raise InputError(f"curve {i} has {idx.size} observed points, need >= 2")
        out.append(SparseObservation(idx, row[idx]))
    return out


@dataclass(frozen=True)
class StabilityRecord:
    """Deviation summary |D(x, reconstructed) - D(x, full)| over probes and seeds."""

    depth: str
    sparse_rate: float
    noise_sd: float
    n: int
    n_seeds: int
    n_probes: int
    max_dev: float
    median_dev: float

    def to_json(self) -> dict:
        return asdict(self)


def _subsample_one(
    values: np.ndarray, rate: float, noise_sd: float, rng: np.random.Generator
) -> SparseObservation:
    m = values.size
    keep = rng.uniform(size=m) < rate
    if keep.sum() < 2:
        keep[0] = keep[-1] = True  # repair: endpoints guarantee two points
    idx = np.flatnonzero(keep)
    vals = values[idx]
    if noise_sd > 0:
        vals = vals + rng.normal(scale=noise_sd, size=idx.size)
    return SparseObservation(idx, vals)


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
    max and median.
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
        obs = [
            _subsample_one(full.values[i], sparse_rate, noise_sd, rng)
            for i in range(full.n)
        ]
        rebuilt = reconstruct_linear(obs, full.grid)
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
        max_dev=float(pool.max()),
        median_dev=float(np.median(pool)),
    )
