"""Curve-valued random sources.

Finitely supported distributions (including the hand-built witness
distributions used by the property audits), stationary Gaussian-process
samplers, and contamination mixtures.

Seeds are integers or tuples of integers (entropy keys for numpy's
``default_rng``); every sampler is a pure function of its seed, so
distinct seeds can run in parallel with no shared RNG state.

``sample_gp`` keeps the Cholesky factors of its last four (kernel, grid)
pairs in a bounded cache, so an audit that draws hundreds of samples
from a handful of kernels factors each kernel matrix once.  The cached
factors are read-only arrays that depend on the kernel and grid alone,
so samplers stay pure functions of their seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .core import (
    Curve,
    FunctionalSample,
    Grid,
    InputError,
    ParameterError,
    _readonly,
    read_curves_csv,
    uniform_grid,
)

__all__ = [
    "Kernel",
    "GPSpec",
    "AtomicDistribution",
    "ContaminationSpec",
    "CurveDistribution",
    "sample_gp",
    "sample_atomic",
    "draw_from",
    "mix",
    "counterexample_P3",
    "counterexample_P3_RT",
    "counterexample_P5",
    "constant_distribution",
    "subseed",
    "gpspec_to_json",
    "gpspec_from_json",
]

Seed = Union[int, Sequence[int]]

KERNEL_TYPES = ("se", "cosine")

#: Jitter ladder for Cholesky factorization: start and cap relative to the
#: kernel variance, doubling in between.  The step count is fixed, so a
#: variance whose start jitter underflows to 0 still ends the ladder.
JITTER_START = 1e-12
JITTER_CAP = 1e-6
JITTER_STEPS = int(np.log2(JITTER_CAP / JITTER_START)) + 1

#: Bound on the values one GP draw may hold in a single array: the (n, m)
#: sample and the (m, m) kernel matrix, so a huge n or m fails fast
#: instead of exhausting memory.
MAX_GP_ELEMENTS = 5 * 10**7


def _seed_key(seed: Seed) -> tuple[int, ...]:
    if isinstance(seed, (int, np.integer)):
        key = (int(seed),)
    else:
        key = tuple(int(s) for s in seed)
    if any(s < 0 for s in key):
        raise ParameterError(f"seeds must be non-negative integers, got {seed!r}")
    return key


def subseed(seed: Seed, *tags: int) -> tuple[int, ...]:
    """Derive an independent child seed by appending integer tags."""
    return _seed_key(seed) + tags


def _rng(seed: Seed) -> np.random.Generator:
    return np.random.default_rng(_seed_key(seed))


@dataclass(frozen=True)
class Kernel:
    """Stationary covariance function R(t) on the real line.

    Supported types:

    - ``"se"``: squared exponential, R(t) = variance * exp(-t^2 / (2 ls^2))
      with ls = ``length_scale``.  Smooth, a.s. continuous paths, and
      -R''(0) = variance / ls^2 in closed form (used by the expected
      level-crossing diagnostics).
    - ``"cosine"``: R(t) = variance * cos(2 pi t / ls), the band-limited
      process A cos(2 pi v / ls) + B sin(2 pi v / ls) with independent
      N(0, variance) amplitudes; here ``length_scale`` is the period.
      -R''(0) = variance * (2 pi / ls)^2.
    """

    type: str
    variance: float
    length_scale: float

    def __post_init__(self) -> None:
        if self.type not in KERNEL_TYPES:
            raise ParameterError(
                f"unknown kernel type {self.type!r}; expected one of {KERNEL_TYPES}"
            )
        if not (np.isfinite(self.variance) and self.variance > 0):
            raise ParameterError(f"kernel variance must be > 0, got {self.variance}")
        if not (np.isfinite(self.length_scale) and self.length_scale > 0):
            raise ParameterError(
                f"kernel length_scale must be > 0, got {self.length_scale}"
            )
        if self.type == "se":
            with np.errstate(over="ignore", divide="ignore"):
                two_ls2 = 2.0 * np.float64(self.length_scale) ** 2
                inverse = 1.0 / two_ls2
            # a subnormal 2 ls^2 is positive, but lags divided by it overflow
            if not (0 < two_ls2 < np.inf and inverse < np.inf):
                raise ParameterError(
                    f"se length_scale {self.length_scale} puts 2 ls^2 = {two_ls2} "
                    "outside float64 range"
                )

    def __call__(self, t: np.ndarray) -> np.ndarray:
        """Covariance at lag t (stationary: depends on |t| only)."""
        t = np.abs(np.asarray(t, dtype=float))
        if self.type == "se":
            return self.variance * np.exp(-(t * t) / (2.0 * self.length_scale**2))
        return self.variance * np.cos(2.0 * np.pi * t / self.length_scale)

    def matrix(self, points: np.ndarray) -> np.ndarray:
        """Covariance matrix on a point set; exactly symmetric."""
        lags = np.abs(points[:, None] - points[None, :])
        return self(lags)

    def curvature_at_zero(self) -> float:
        """-R''(0), the spectral second moment."""
        if self.type == "se":
            return self.variance / self.length_scale**2
        return self.variance * (2.0 * np.pi / self.length_scale) ** 2


_JSON_KINDS = {int: "an integer", float: "a number", str: "a string"}
_FLOAT_MAX = float(np.finfo(float).max)


def _from_json_like(value, like, key: str):
    """Check ``value``'s JSON type against ``like`` and return it typed.

    The JSON reader of kernels and audit-config fields: ``like`` is the
    field's default.  Ints take an int but not a bool, floats an int within
    float64 range or a float (returned as a float, so ``1`` and ``1.0``
    build the same value), tuples a list (each item checked against
    ``like``'s first item), kernels an object whose absent keys keep
    ``like``'s values.  ``key`` names the value in error messages.
    """
    if isinstance(like, Kernel):
        if not isinstance(value, dict):
            raise InputError(f"JSON key {key!r} must be an object, got {value!r}")
        parts = asdict(like)
        for name, v in value.items():
            if name not in parts:
                raise InputError(f"unknown JSON key '{key}.{name}'")
            parts[name] = _from_json_like(v, parts[name], f"{key}.{name}")
        return Kernel(**parts)
    if isinstance(like, tuple):
        if not isinstance(value, list):
            raise InputError(f"JSON key {key!r} must be a list, got {value!r}")
        return tuple(
            _from_json_like(v, like[0], f"{key}[{i}]") for i, v in enumerate(value)
        )
    kinds = (int, float) if isinstance(like, float) else type(like)
    if (
        isinstance(value, bool)
        or not isinstance(value, kinds)
        or isinstance(like, float) and isinstance(value, int) and abs(value) > _FLOAT_MAX
    ):
        raise InputError(
            f"JSON key {key!r} must be {_JSON_KINDS[type(like)]}, got {value!r}"
        )
    return float(value) if isinstance(like, float) else value


@dataclass(frozen=True)
class GPSpec:
    """A stationary Gaussian process on a grid: mean curve plus kernel."""

    kernel: Kernel
    grid: Grid
    mean: Curve | None = None

    def __post_init__(self) -> None:
        if self.mean is not None and self.mean.grid != self.grid:
            raise InputError("GP mean curve lives on a different grid")
        if self.kernel.type == "se":
            # the covariance divides squared lags by 2 ls^2; the largest
            # lag, the domain length, must keep that quotient finite
            ls = self.kernel.length_scale
            with np.errstate(over="ignore"):
                lag = np.float64(self.grid.length)
                ratio = lag * lag / (2.0 * ls**2)
            if not np.isfinite(ratio):
                raise ParameterError(
                    f"se length_scale {ls} is too small for a domain of length "
                    f"{self.grid.length}: lag^2 / (2 ls^2) overflows float64"
                )

    def mean_values(self) -> np.ndarray:
        if self.mean is None:
            return np.zeros(self.grid.m)
        return self.mean.values


def _cholesky_with_jitter(K: np.ndarray, variance: float) -> np.ndarray:
    try:
        return np.linalg.cholesky(K)
    except np.linalg.LinAlgError:
        pass
    jitter = JITTER_START * variance
    eye = np.eye(K.shape[0])
    for _ in range(JITTER_STEPS):
        try:
            return np.linalg.cholesky(K + jitter * eye)
        except np.linalg.LinAlgError:
            jitter *= 2.0
    raise ParameterError(
        f"kernel matrix not positive definite even with jitter "
        f"{JITTER_CAP:g} x variance; change the kernel parameters"
    )


def _check_gp_budget(n: int, m: int) -> None:
    """Reject n draws on m grid points past ``MAX_GP_ELEMENTS``; cheap
    enough to run before the grid itself is built."""
    size = max(n * m, m * m)
    if size > MAX_GP_ELEMENTS:
        raise ParameterError(
            f"{n} Gaussian-process draws on {m} grid points would hold {size} "
            f"values in one array, more than {MAX_GP_ELEMENTS}; lower n or m"
        )


# The default audit draws from four (kernel, grid) pairs.  The cache is per
# process: the audit's forked workers inherit the parent's entries, and what
# a worker adds stays in that worker.
@lru_cache(maxsize=4)
def _gp_factor(kernel: Kernel, grid: Grid) -> np.ndarray:
    """Read-only Cholesky factor of the kernel matrix on the grid points,
    cached per (kernel, grid); a failed factorization is not cached."""
    K = kernel.matrix(grid.points)
    return _readonly(_cholesky_with_jitter(K, kernel.variance))


def sample_gp(spec: GPSpec, n: int, seed: Seed) -> FunctionalSample:
    """Draw n independent GP paths: mean + L z with L the Cholesky factor.

    Deterministic given the seed; L comes from a cache keyed on the kernel
    and grid.  Raises ``ParameterError`` if the kernel matrix stays
    non-positive-definite through the whole jitter ladder.
    """
    if n < 1:
        raise ParameterError(f"need n >= 1 draws, got {n}")
    _check_gp_budget(n, spec.grid.m)
    L = _gp_factor(spec.kernel, spec.grid)
    z = _rng(seed).standard_normal(size=(n, spec.grid.m))
    return FunctionalSample(spec.mean_values()[None, :] + z @ L.T, spec.grid)


@dataclass(frozen=True)
class AtomicDistribution:
    """Finitely supported distribution on curves: distinct atoms with probabilities."""

    values: np.ndarray  # (n_atoms, m), one atom per row
    probs: np.ndarray  # (n_atoms,), > 0, sums to 1
    grid: Grid

    def __post_init__(self) -> None:
        vals = np.atleast_2d(np.asarray(self.values, dtype=float))
        p = np.asarray(self.probs, dtype=float)
        if vals.shape[1] != self.grid.m:
            raise InputError(f"atom shape {vals.shape} != (k, {self.grid.m})")
        if not np.all(np.isfinite(vals)):
            raise InputError("atoms must be finite")
        if p.shape != (vals.shape[0],):
            raise InputError("one probability per atom required")
        if not np.all(p > 0) or abs(p.sum() - 1.0) > 1e-12:
            raise InputError("atom probabilities must be > 0 and sum to 1")
        for i in range(vals.shape[0]):
            for j in range(i + 1, vals.shape[0]):
                if np.array_equal(vals[i], vals[j]):
                    raise InputError(f"atoms {i} and {j} coincide as grid vectors")
        object.__setattr__(self, "values", _readonly(vals))
        object.__setattr__(self, "probs", _readonly(p))

    @property
    def n_atoms(self) -> int:
        return self.values.shape[0]

    def atom(self, i: int) -> Curve:
        return Curve(self.values[i], self.grid)

    def as_sample(self) -> FunctionalSample:
        """The same distribution viewed as a weighted functional sample."""
        return FunctionalSample(self.values, self.grid, weights=self.probs)


def sample_atomic(dist: AtomicDistribution, n: int, seed: Seed) -> FunctionalSample:
    """n iid draws from a finitely supported distribution."""
    if n < 1:
        raise ParameterError(f"need n >= 1 draws, got {n}")
    idx = _rng(seed).choice(dist.n_atoms, size=n, p=dist.probs)
    return FunctionalSample(dist.values[idx], dist.grid)


CurveDistribution = Union[GPSpec, AtomicDistribution]


def draw_from(dist: CurveDistribution, n: int, seed: Seed) -> FunctionalSample:
    """n iid draws from a Gaussian process or an atomic distribution."""
    if isinstance(dist, GPSpec):
        return sample_gp(dist, n, seed)
    if isinstance(dist, AtomicDistribution):
        return sample_atomic(dist, n, seed)
    raise InputError(f"not a curve distribution: {type(dist).__name__}")


@dataclass(frozen=True)
class ContaminationSpec:
    """(1 - epsilon) * base + epsilon * outlier mixture of two laws on one grid."""

    base: CurveDistribution
    outlier: CurveDistribution
    epsilon: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.epsilon < 1.0):
            raise ParameterError(f"epsilon must lie in [0, 1), got {self.epsilon}")
        if self.base.grid != self.outlier.grid:
            raise InputError("contamination base and outlier live on different grids")


def mix(
    spec: ContaminationSpec,
    n: int,
    seed: Seed,
    *,
    base: FunctionalSample | None = None,
) -> FunctionalSample:
    """n draws from the contamination mixture, deterministically in the seed.

    The base draws use the caller's seed unchanged and the contamination
    flags come from a child seed with thresholded uniforms, so runs with
    the same seed but different epsilon share base paths and flip curves
    monotonically (epsilon' > epsilon only adds contaminated indices).
    In particular epsilon = 0 reproduces ``draw_from(base, n, seed)``
    exactly.  A caller that already holds that base draw passes it as
    ``base`` and it is used instead of drawing it again; it must have n
    rows on the law's grid (``InputError``).
    """
    if base is None:
        base = draw_from(spec.base, n, seed)
    elif base.n != n or base.grid != spec.base.grid:
        raise InputError(
            f"base sample of {base.n} curves on {base.grid!r} does not match "
            f"n = {n} on {spec.base.grid!r}"
        )
    if spec.epsilon == 0.0:
        return base
    outlier = draw_from(spec.outlier, n, subseed(seed, 1))
    u = _rng(subseed(seed, 2)).uniform(size=n)
    take = u < spec.epsilon
    out = np.where(take[:, None], outlier.values, base.values)
    return FunctionalSample(out, base.grid)


# ---------------------------------------------------------------------------
# Witness distributions used by the property audits
# ---------------------------------------------------------------------------


def counterexample_P3(grid: Grid | None = None) -> AtomicDistribution:
    """Two constant atoms at -1 and +1, probability 1/2 each.

    Every curve strictly between the atoms sits in the single band they
    span, which flattens the band-type depths on that whole region.
    """
    g = grid if grid is not None else uniform_grid()
    atoms = np.stack([-np.ones(g.m), np.ones(g.m)])
    return AtomicDistribution(atoms, np.array([0.5, 0.5]), g)


def counterexample_P3_RT(grid: Grid | None = None) -> AtomicDistribution:
    """Two constant atoms at +2 and -1, probability 1/2 each.

    Every projection of this distribution is a two-point law with equal
    masses, so one-dimensional halfspace depth is 1/2 on the whole
    segment between the projected atoms.
    """
    g = grid if grid is not None else uniform_grid()
    atoms = np.stack([2.0 * np.ones(g.m), -np.ones(g.m)])
    return AtomicDistribution(atoms, np.array([0.5, 0.5]), g)


def counterexample_P5(grid: Grid | None = None) -> AtomicDistribution:
    """Three atoms 1 + v/2, 0, -(1 + v/2) with probability 1/3 each.

    The outer atoms are non-constant with strict signs, so the hull of
    the support has positive-width cross sections everywhere; used to
    probe how depths behave far outside the hull.
    """
    g = grid if grid is not None else uniform_grid()
    upper = 1.0 + g.points / 2.0
    atoms = np.stack([upper, np.zeros(g.m), -upper])
    return AtomicDistribution(atoms, np.full(3, 1.0 / 3.0), g)


def constant_distribution(level: float, grid: Grid) -> AtomicDistribution:
    """Point mass at the constant curve == level."""
    return AtomicDistribution(
        np.full((1, grid.m), float(level)), np.array([1.0]), grid
    )


# ---------------------------------------------------------------------------
# Serialization: GPSpec as JSON {mean_csv?, kernel: {type, variance,
# length_scale}}; the mean curve, if any, lives in a curves CSV
# ---------------------------------------------------------------------------


def gpspec_to_json(spec: GPSpec) -> dict:
    """JSON-serializable form of the kernel; the mean curve is not written."""
    return {"kernel": asdict(spec.kernel)}


def gpspec_from_json(obj: dict, grid: Grid | None = None) -> GPSpec:
    """Rebuild a GPSpec from its JSON form.

    The kernel object needs all three keys, each of its JSON type, and no
    key outside ``kernel`` and ``mean_csv`` is allowed (``InputError``).
    The grid comes from the referenced mean CSV when present, otherwise
    from the ``grid`` argument.
    """
    if not isinstance(obj, dict):
        raise InputError("malformed GP spec JSON: expected an object")
    for key in obj:
        if key not in ("kernel", "mean_csv"):
            raise InputError(f"malformed GP spec JSON: unknown key {key!r}")
    k = obj.get("kernel")
    like = Kernel("se", 1.0, 1.0)  # each key is required, so only its type counts
    if not isinstance(k, dict) or any(key not in k for key in asdict(like)):
        raise InputError(
            "malformed GP spec JSON: 'kernel' needs type, variance and length_scale"
        )
    kernel = _from_json_like(k, like, "kernel")
    mean = None
    if "mean_csv" in obj:
        if not isinstance(obj["mean_csv"], str):
            raise InputError(
                f"malformed GP spec JSON: mean_csv must be a path string, "
                f"got {obj['mean_csv']!r}"
            )
        mgrid, mvalues = read_curves_csv(obj["mean_csv"])
        if mvalues.shape[0] != 1:
            raise InputError("mean CSV must contain exactly one curve row")
        if grid is not None and mgrid != grid:
            raise InputError("mean CSV grid differs from the requested grid")
        grid = mgrid
        mean = Curve(mvalues[0], grid)
    if grid is None:
        raise InputError("GP spec JSON has no mean_csv and no grid was supplied")
    return GPSpec(kernel=kernel, grid=grid, mean=mean)
