"""Executable audits of six structural properties of functional depths.

Each ``audit_*`` function probes one property for one depth id and returns
a :class:`Verdict` -- satisfied / violated / inapplicable -- carrying the
probe inputs, depth values and margins.  A ``replay`` recipe in the
evidence records the cell's seeds, parameters, grid and sample origin.
Every cell but P-1 takes the :class:`AuditConfig` and reads its sizes,
ladders, grid and thresholds from it; its other arguments are what varies
between the calls of one audit: the sample (P-4), the kernel (P-2G), the
probe count (P-4), the seed and the depth parameters.  ``AuditConfig`` is
the one source of every audit default.

``run_full_audit`` assembles the complete 6 x 6 verdict matrix (six depths
by properties P-1, P-2G, P-3, P-4, P-5, P-6) together with an upcrossing-
rate diagnostic into an :class:`AuditReport`.  Each cell, P-2G and P-4
member, the shared P-6 measurements and the diagnostic depend only on
their own seed and the config, so it runs them in forked worker
processes, at most one per CPU (POSIX only: it needs the ``fork`` start
method).  The report's serialized form is fully deterministic under
fixed seeds and equal to a serial run's: the ``timestamp`` field is a
content fingerprint, not a wall clock, so reruns are byte-identical.
``distributions``' GP factor cache is per process; the workers inherit
the parent's entries.

Verdict policy, in brief:

* exact comparisons (atomic distributions, transformation identities) use
  the tolerance ``EXACT_TOL``;
* Monte-Carlo comparisons use a conservative standard-error bound of
  ``0.5 * upper_bound(depth) / sqrt(n)`` -- satisfied within 3 SE, violated
  beyond 4 SE, and inapplicable in between, so borderline cells are
  reported as under-powered rather than guessed;
* a "satisfied" for the finite semicontinuity probe (P-4) means no
  counterexample was found at the probe resolution, nothing stronger.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .core import (
    Curve,
    FunctionalSample,
    Grid,
    InputError,
    ParameterError,
    _cap_kernel_threads,
    _jsonable,
    _usable_cpus,
    l2_norm_rows,
    sup_norm_rows,
    uniform_grid,
)
from .depths import (
    DEPTH_IDS,
    DEPTH_LABELS,
    DepthParams,
    _check_band_budget,
    _check_band_order,
    depth_values,
    evaluate_depth,
    upper_bound,
)
from .distributions import (
    AtomicDistribution,
    ContaminationSpec,
    GPSpec,
    Kernel,
    Seed,
    _check_gp_budget,
    _from_json_like,
    _rng,
    constant_distribution,
    counterexample_P3,
    counterexample_P3_RT,
    counterexample_P5,
    gpspec_to_json,
    mix,
    sample_gp,
    subseed,
)

__all__ = [
    "AuditConfig",
    "AuditReport",
    "GOLDEN",
    "INAPPLICABLE",
    "MARKS",
    "PROPERTY_IDS",
    "RiceSpec",
    "SATISFIED",
    "VIOLATED",
    "Verdict",
    "audit_P1",
    "audit_P2G",
    "audit_P3",
    "audit_P4",
    "audit_P5",
    "audit_P6",
    "count_upcrossings",
    "p1_transform",
    "rice_expected_upcrossings",
    "rice_mc_diagnostic",
    "run_full_audit",
]

SATISFIED = "satisfied"
VIOLATED = "violated"
INAPPLICABLE = "inapplicable"
_STATUSES = (SATISFIED, VIOLATED, INAPPLICABLE)

#: Report order of the audited properties.
PROPERTY_IDS = ("P-1", "P-2G", "P-3", "P-4", "P-5", "P-6")

MARKS = {SATISFIED: "✓", VIOLATED: "✗", INAPPLICABLE: "–"}

#: Tolerance for comparisons that are exact up to float rounding.
EXACT_TOL = 1e-9
#: Threshold below which two exactly-computed depths count as tied.
TIE_TOL = 1e-12

#: Verdict pattern the default audit configuration is expected to
#: reproduce (depth id -> statuses in PROPERTY_IDS order).  The embedded
#: pattern is what the audit CLI checks its matrix against.
GOLDEN = {
    "h": (VIOLATED, SATISFIED, SATISFIED, SATISFIED, SATISFIED, SATISFIED),
    "rt": (SATISFIED, SATISFIED, VIOLATED, SATISFIED, VIOLATED, SATISFIED),
    "bd": (SATISFIED, SATISFIED, VIOLATED, SATISFIED, VIOLATED, SATISFIED),
    "mbd": (SATISFIED, SATISFIED, VIOLATED, SATISFIED, VIOLATED, SATISFIED),
    "hr": (SATISFIED, VIOLATED, VIOLATED, SATISFIED, VIOLATED, SATISFIED),
    "mhr": (SATISFIED, SATISFIED, VIOLATED, SATISFIED, VIOLATED, SATISFIED),
}

#: Depths whose natural metric is L2 (their P-1 map is x -> sqrt(a) * x).
L2_CLASS = ("h", "rt")
#: Depths whose natural metric is sup (their P-1 map is x -> a*x + b).
SUP_CLASS = ("bd", "mbd", "hr", "mhr")


def _check_depth_id(depth_id: str) -> None:
    if depth_id not in DEPTH_IDS:
        raise ParameterError(
            f"unknown depth id {depth_id!r}; expected one of {DEPTH_IDS}"
        )


def _replay(
    kind: str,
    grid: Grid,
    params: DepthParams,
    sample: FunctionalSample | None = None,
    origin: dict | None = None,
    **fields,
) -> dict:
    """A cell's replay recipe: its kind, grid points and depth parameters,
    the cell's own ``fields``, and for a sample cell the sample's origin
    (else its values)."""
    recipe = {"kind": kind, "grid_points": grid.points, "params": params, **fields}
    if sample is not None:
        recipe["sample"] = origin or {"kind": "values", "values": sample.values}
    return recipe


@dataclass(frozen=True)
class Verdict:
    """Outcome of one audit cell.

    status : satisfied, violated, or inapplicable.
    evidence : structured record of the probe inputs, depth values and
        margins; violated verdicts carry a concrete witness, and a
        ``replay`` recipe records the inputs of each decided cell.
    tolerance : the numeric tolerance the decision used (None when the
        cell was decided by exact comparisons alone).
    """

    status: str
    evidence: dict
    tolerance: float | None = None

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ParameterError(
                f"verdict status must be one of {_STATUSES}, got {self.status!r}"
            )

    @property
    def mark(self) -> str:
        return MARKS[self.status]

    def to_json(self) -> dict:
        return _jsonable(self)


# ---------------------------------------------------------------------------
# Expected number of level upcrossings of a stationary Gaussian process
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RiceSpec:
    """Inputs of the stationary-Gaussian upcrossing rate formula.

    level : threshold whose upcrossings are counted.
    R0 : variance of the process (covariance at lag zero), > 0.
    negR2 : negated second derivative of the covariance at lag zero, > 0.
    domain_length : total length of the parameter interval.
    """

    level: float
    R0: float
    negR2: float
    domain_length: float = 1.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.R0) and self.R0 > 0):
            raise ParameterError(f"R0 must be > 0, got {self.R0}")
        if not (np.isfinite(self.negR2) and self.negR2 > 0):
            raise ParameterError(f"negR2 must be > 0, got {self.negR2}")
        if not (np.isfinite(self.domain_length) and self.domain_length > 0):
            raise ParameterError(
                f"domain_length must be > 0, got {self.domain_length}"
            )
        if not np.isfinite(self.level):
            raise ParameterError(f"level must be finite, got {self.level}")


def rice_expected_upcrossings(spec: RiceSpec) -> float:
    """Expected number of upcrossings of ``spec.level`` on the domain.

    Computed as ``sqrt(negR2 / R0) * exp(-level^2 / (2 R0)) / (2 pi)``
    per unit length, times the domain length; the rate is factored out so
    the value is exactly linear in ``domain_length``.
    """
    rate = (
        math.sqrt(spec.negR2 / spec.R0)
        * math.exp(-spec.level**2 / (2.0 * spec.R0))
        / (2.0 * math.pi)
    )
    return spec.domain_length * rate


def count_upcrossings(values: np.ndarray, level: float) -> np.ndarray:
    """Grid upcrossings per row: indices t with x_t <= level < x_{t+1}."""
    V = np.atleast_2d(np.asarray(values, dtype=float))
    if V.shape[1] < 2:
        raise ParameterError("counting upcrossings needs at least two points")
    return ((V[:, :-1] <= level) & (V[:, 1:] > level)).sum(axis=1)


#: The Rice diagnostic's process and level: upcrossings of 0 by a
#: unit-variance SE process with length scale 0.1.
_RICE_KERNEL = Kernel("se", 1.0, 0.1)
_RICE_LEVEL = 0.0


def rice_mc_diagnostic(config: AuditConfig, seed: Seed) -> dict:
    """Empirical vs. predicted upcrossing counts for a stationary GP.

    Draws ``config.rice_paths`` paths on a uniform ``config.rice_m``-point
    grid over [0, 1] and compares the mean number of grid upcrossings of
    the level with the closed-form rate.  The discrete count slightly
    undercounts (crossings inside one grid cell are invisible), so the grid
    must be fine relative to the length scale for the relative error to be
    small.
    """
    grid = uniform_grid(0.0, 1.0, config.rice_m)
    sample = sample_gp(GPSpec(_RICE_KERNEL, grid), config.rice_paths, seed)
    observed = float(count_upcrossings(sample.values, _RICE_LEVEL).mean())
    spec = RiceSpec(
        level=_RICE_LEVEL,
        R0=_RICE_KERNEL.variance,
        negR2=_RICE_KERNEL.curvature_at_zero(),
        domain_length=grid.length,
    )
    expected = rice_expected_upcrossings(spec)
    return {
        "kernel": _RICE_KERNEL,
        "level": float(_RICE_LEVEL),
        "n_paths": int(config.rice_paths),
        "m": int(config.rice_m),
        "seed": seed,
        "expected": expected,
        "observed": observed,
        "relative_error": abs(observed - expected) / expected,
    }


# ---------------------------------------------------------------------------
# P-1: invariance under distance-compatible transformations
# ---------------------------------------------------------------------------


def p1_transform(depth_id: str, values: np.ndarray, a: float, b=None) -> np.ndarray:
    """Apply the transformation class the P-1 audit uses for this depth.

    L2-metric depths ('h', 'rt'): x -> sqrt(a) * x with a > 0 (rescales
    every L2 distance by sqrt(a); b must be None).  Sup-metric depths
    ('bd', 'mbd', 'hr', 'mhr'): x -> a * x + b with a constant scalar
    a != 0 and an arbitrary offset curve b (None means zero).
    """
    _check_depth_id(depth_id)
    values = np.asarray(values, dtype=float)
    if depth_id in L2_CLASS:
        if b is not None:
            raise ParameterError(
                "the L2-class transformation takes no offset curve"
            )
        if not (np.isfinite(a) and a > 0):
            raise ParameterError(f"L2-class scale a must be > 0, got {a}")
        return math.sqrt(a) * values
    if not (np.isfinite(a) and a != 0):
        raise ParameterError(f"sup-class scale a must be nonzero, got {a}")
    out = a * values
    if b is not None:
        out = out + np.asarray(b, dtype=float)
    return out


def _centre_outward_order(vals: np.ndarray) -> list[int]:
    """Probe indices by decreasing depth, ties broken by index."""
    v = np.asarray(vals, dtype=float)
    return [int(i) for i in np.lexsort((np.arange(v.size), -v))]


def _p1_probes(sample: FunctionalSample) -> np.ndarray:
    """Ten query curves spanning the sample's centre-outward range.

    A derived probe entry within ``EXACT_TOL`` of a sample value becomes
    that value, so the P-1 map sends the tie to a tie instead of rounding
    it into either strict order.
    """
    X = sample.values
    n = sample.n
    cols = np.arange(sample.grid.m)

    def snapped(row):
        gaps = np.abs(X - row)
        nearest = gaps.argmin(axis=0)
        return np.where(gaps[nearest, cols] <= EXACT_TOL, X[nearest, cols], row)

    mean = np.average(X, axis=0, weights=sample.weights)
    rows = [
        snapped(mean),
        X[0 % n],
        X[1 % n],
        X[2 % n],
        X[3 % n],
        X[4 % n],
        snapped(mean + 0.5 * (X[5 % n] - mean)),
        snapped(mean + 2.0 * (X[6 % n] - mean)),
        X.min(axis=0),
        X.max(axis=0),
    ]
    return np.stack(rows)


def _p1_ray_probes(sample: FunctionalSample, count: int = 10, step: float = 0.25):
    """Constant-offset rays leaving the sample's upper envelope.

    Every curve's distance to each sample member increases strictly along
    the ray, so the kernel depth decreases strictly at every bandwidth and
    the probe order is stable under rescaling -- the order-form of the
    invariant that survives for the h-depth even though its values do not.
    """
    upper = sample.values.max(axis=0)
    return np.stack([upper + step * j for j in range(count)])


def audit_P1(
    depth_id: str,
    base_sample: FunctionalSample,
    a: float = 2.0,
    *,
    b=None,
    params: DepthParams,
    sample_origin: dict | None = None,
) -> Verdict:
    """Compare depths before/after the distance-compatible map.

    Satisfied iff the ten probe depths match within ``EXACT_TOL``;
    violated otherwise, with the worst probe as witness.  ``a = 1`` (and
    no offset) makes the map the identity and the audit trivially passes.
    """
    _check_depth_id(depth_id)
    use_b = b if depth_id in SUP_CLASS else None
    probes = _p1_probes(base_sample)
    f_probes = p1_transform(depth_id, probes, a, use_b)
    f_sample = FunctionalSample(
        p1_transform(depth_id, base_sample.values, a, use_b),
        base_sample.grid,
        base_sample.weights,
    )
    before = depth_values(depth_id, probes, base_sample, params)
    after = depth_values(depth_id, f_probes, f_sample, params)
    diffs = np.abs(after - before)
    worst = int(np.argmax(diffs))
    order_before = _centre_outward_order(before)
    order_after = _centre_outward_order(after)
    b_echo = None if use_b is None else np.asarray(use_b, float)
    evidence = {
        "depth": depth_id,
        "map": "l2-scale" if depth_id in L2_CLASS else "sup-affine",
        "a": float(a),
        "b": b_echo,
        "values_before": [float(v) for v in before],
        "values_after": [float(v) for v in after],
        "max_abs_diff": float(diffs[worst]),
        "witness_index": worst,
        "order_before": order_before,
        "order_after": order_after,
        "order_preserved": order_before == order_after,
        "replay": _replay(
            "p1",
            base_sample.grid,
            params,
            base_sample,
            sample_origin,
            depth=depth_id,
            a=float(a),
            b=b_echo,
            queries=probes,
        ),
    }
    if depth_id == "h":
        rays = _p1_ray_probes(base_sample)
        ray_before = depth_values("h", rays, base_sample, params)
        ray_after = depth_values(
            "h", p1_transform("h", rays, a), f_sample, params
        )
        evidence["ray_values_before"] = [float(v) for v in ray_before]
        evidence["ray_values_after"] = [float(v) for v in ray_after]
        evidence["ray_argmax_before"] = int(np.argmax(ray_before))
        evidence["ray_argmax_after"] = int(np.argmax(ray_after))
    status = SATISFIED if diffs[worst] <= EXACT_TOL else VIOLATED
    return Verdict(status, evidence, tolerance=EXACT_TOL)


# ---------------------------------------------------------------------------
# P-2G: the zero mean is deepest under a zero-mean Gaussian process
# ---------------------------------------------------------------------------


def _p2g_probe_set(gp: GPSpec, n_draws: int, seed: Seed):
    """Zero curve, +-{0.5, 1, 1.5} sd constants, and fresh process draws."""
    m = gp.grid.m
    sd = math.sqrt(gp.kernel.variance)
    levels = [-1.5, -1.0, -0.5, 0.5, 1.0, 1.5]
    rows = [np.zeros(m)] + [lv * sd * np.ones(m) for lv in levels]
    labels = ["zero"] + [f"const({lv:+.1f} sd)" for lv in levels]
    draws = sample_gp(gp, n_draws, seed)
    labels += [f"draw[{i}]" for i in range(n_draws)]
    return np.vstack([np.stack(rows), draws.values]), labels


def audit_P2G(
    depth_id: str,
    config: AuditConfig,
    kernel: Kernel,
    seed: Seed,
    *,
    params: DepthParams,
) -> Verdict:
    """Check that the zero curve attains the maximal depth for one model.

    Draws ``config.n`` paths of the zero-mean process with this kernel on
    the config's grid and compares the depth of the zero curve with
    constant probes at +-{0.5, 1, 1.5} standard deviations and
    ``config.p2g_draw_probes`` fresh draws.  Satisfied iff the zero curve
    attains the probe maximum within 3 SE plus one grid cell; violated
    beyond 4 SE, or when the depth is degenerate across the whole probe
    set (it then cannot single out any centre); inapplicable in the noise
    band between the two, or when n is below ``config.min_n``.

    The band depth evaluates on the first ``config.band_n`` paths (its
    exact order-3 count is the one expensive evaluation in the matrix).
    """
    _check_depth_id(depth_id)
    gp = GPSpec(kernel, config.grid())
    n = config.n
    if n < config.min_n:
        return Verdict(
            INAPPLICABLE,
            {
                "depth": depth_id,
                "reason": f"under-powered: n = {n} < {config.min_n}",
                "n": int(n),
            },
        )
    sample = sample_gp(gp, n, seed)
    if depth_id == "bd" and config.band_n < n:
        eval_sample = FunctionalSample(sample.values[: config.band_n], gp.grid)
    else:
        eval_sample = sample
    probe_seed = subseed(seed, 11)
    probes, labels = _p2g_probe_set(gp, config.p2g_draw_probes, probe_seed)
    vals = depth_values(depth_id, probes, eval_sample, params)
    v0 = float(vals[0])
    vmax = float(vals.max())
    vmin = float(vals.min())
    n_used = eval_sample.n
    se = 0.5 * upper_bound(depth_id, h=params.h, J=params.J) / math.sqrt(n_used)
    grid_tol = 1.0 / (gp.grid.m - 1)
    margin = vmax - v0
    evidence = {
        "depth": depth_id,
        "kernel": kernel,
        "n": int(n),
        "n_used": int(n_used),
        "labels": labels,
        "values": [float(v) for v in vals],
        "zero_value": v0,
        "max_value": vmax,
        "min_value": vmin,
        "margin": float(margin),
        "se_bound": float(se),
        "grid_tol": float(grid_tol),
        "replay": _replay(
            "p2g",
            gp.grid,
            params,
            depth=depth_id,
            gp=gpspec_to_json(gp),
            n=int(n),
            seed=seed,
            band_n=int(config.band_n),
            n_draw_probes=int(config.p2g_draw_probes),
        ),
    }
    if vmax - vmin <= EXACT_TOL:
        evidence["degenerate"] = True
        evidence["witness"] = (
            "every probe (including constants 1.5 sd away) receives the "
            "same depth, so the depth cannot single out the mean"
        )
        return Verdict(VIOLATED, evidence, tolerance=EXACT_TOL)
    evidence["degenerate"] = False
    tol_sat = 3.0 * se + grid_tol
    tol_vio = 4.0 * se + grid_tol
    if margin <= tol_sat:
        return Verdict(SATISFIED, evidence, tolerance=tol_sat)
    if margin > tol_vio:
        evidence["witness"] = {
            "label": labels[int(np.argmax(vals))],
            "value": vmax,
            "zero_value": v0,
        }
        return Verdict(VIOLATED, evidence, tolerance=tol_vio)
    evidence["reason"] = "margin inside the 3-4 SE noise band"
    return Verdict(INAPPLICABLE, evidence, tolerance=tol_vio)


def _combine_members(members: list[tuple[str, Verdict]]) -> Verdict:
    """Conjunction over audit family members (e.g. several GP models)."""
    summary = [
        {"member": label, "status": v.status, "tolerance": v.tolerance}
        for label, v in members
    ]
    evidence = {
        "members": summary,
        "details": {label: v.evidence for label, v in members},
    }
    tol = max((v.tolerance for _, v in members if v.tolerance is not None), default=None)
    for label, v in members:
        if v.status == VIOLATED:
            evidence["witness_member"] = label
            return Verdict(VIOLATED, evidence, tolerance=tol)
    if any(v.status == INAPPLICABLE for _, v in members):
        return Verdict(INAPPLICABLE, evidence, tolerance=tol)
    return Verdict(SATISFIED, evidence, tolerance=tol)


# ---------------------------------------------------------------------------
# P-3: strict decrease along rays from the deepest curve
# ---------------------------------------------------------------------------


def audit_P3(
    depth_id: str,
    config: AuditConfig,
    seed: Seed,
    *,
    params: DepthParams,
) -> Verdict:
    """Probe strict centre-outward decrease.

    The band/region depths run on their designated two-atom distribution
    and the random Tukey depth on its own two-atom variant: both flatten
    on the whole segment between the atoms, so distinct constants at
    different distances from the deepest curve tie -- a violation witness.
    The kernel depth instead gets a positive check: on a process sample,
    triples (mean, mean + 0.5 g, mean + g) along random ray directions g
    must be strictly ordered (``config.p3_n`` paths).
    """
    _check_depth_id(depth_id)
    grid = config.grid()
    m = grid.m

    if depth_id == "h":
        n = config.p3_n
        gp = GPSpec(Kernel("se", 1.0, 0.2), grid)
        sample = sample_gp(gp, n, seed)
        base = sample.values.mean(axis=0)
        rays = sample_gp(gp, 10, subseed(seed, 5)).values
        triples = []
        for g in rays:
            triples.extend([base, base + 0.5 * g, base + g])
        vals = depth_values("h", np.stack(triples), sample, params)
        vals = vals.reshape(10, 3)
        margins = np.minimum(vals[:, 0] - vals[:, 1], vals[:, 1] - vals[:, 2])
        worst = int(np.argmin(margins))
        se = 0.5 * upper_bound("h", h=params.h) / math.sqrt(n)
        evidence = {
            "depth": "h",
            "n": int(n),
            "triple_values": vals,
            "min_margin": float(margins[worst]),
            "worst_ray": worst,
            "se_bound": float(se),
            "replay": _replay("p3_h", grid, params, n=int(n), seed=seed),
        }
        if margins[worst] > 0.0:
            return Verdict(SATISFIED, evidence, tolerance=0.0)
        if margins[worst] < -4.0 * se:
            evidence["witness"] = {
                "ray": worst,
                "values": vals[worst],
            }
            return Verdict(VIOLATED, evidence, tolerance=4.0 * se)
        evidence["reason"] = "ray ordering inside the noise band"
        return Verdict(INAPPLICABLE, evidence, tolerance=4.0 * se)

    if depth_id == "rt":
        dist = counterexample_P3_RT(grid)
        sample = dist.as_sample()
        levels = [0.0, 0.3, 0.6, 1.0]
        probes = np.stack([lv * np.ones(m) for lv in levels])
        vals = depth_values("rt", probes, sample, params)
        zi = int(np.argmax(vals))
        z = levels[zi]
        rest = sorted(
            (i for i in range(len(levels)) if i != zi), key=lambda i: abs(levels[i] - z)
        )
        # the first tied pair of a nearer and a farther level, nearest first
        witness = next(
            (
                (i, j)
                for ai, i in enumerate(rest)
                for j in rest[ai + 1 :]
                if abs(levels[i] - z) < abs(levels[j] - z)
                and abs(vals[i] - vals[j]) <= TIE_TOL
            ),
            None,
        )
        evidence = {
            "depth": "rt",
            "levels": levels,
            "values": [float(v) for v in vals],
            "deepest_level": z,
            "replay": _replay("p3_rt", grid, params),
        }
        if witness is None:
            evidence["reason"] = "designed tie not reproduced"
            return Verdict(INAPPLICABLE, evidence, tolerance=TIE_TOL)
        i, j = witness
        evidence["witness"] = {
            "deepest": z,
            "nearer": levels[i],
            "farther": levels[j],
            "nearer_value": float(vals[i]),
            "farther_value": float(vals[j]),
            "note": "equal depth at different distances from the deepest "
            "curve contradicts strict decrease",
        }
        return Verdict(VIOLATED, evidence, tolerance=TIE_TOL)

    # the deepest curve z and the queries x, y at sup-distances 0.8 and 0.9
    probes = np.stack([lv * np.ones(m) for lv in (1.0, 0.2, 0.1)])
    vals = depth_values(depth_id, probes, counterexample_P3(grid), params)
    dz, dx, dy = (float(v) for v in vals)
    evidence = {
        "depth": depth_id,
        "deepest_level": 1.0,
        "query_levels": [0.2, 0.1],
        "values": {"deepest": dz, "nearer": dx, "farther": dy},
        "sup_distances": {"nearer": 0.8, "farther": 0.9},
        "replay": _replay("p3", grid, params, depth=depth_id),
    }
    if dz >= max(dx, dy) and abs(dx - dy) <= TIE_TOL:
        evidence["witness"] = {
            "note": "equal depth at sup-distances 0.8 and 0.9 from the "
            "deepest curve contradicts strict decrease",
            "nearer_value": dx,
            "farther_value": dy,
        }
        return Verdict(VIOLATED, evidence, tolerance=TIE_TOL)
    evidence["reason"] = "designed tie not reproduced"
    return Verdict(INAPPLICABLE, evidence, tolerance=TIE_TOL)


# ---------------------------------------------------------------------------
# P-4: numeric upper-semicontinuity probe
# ---------------------------------------------------------------------------

def _perturb_ball(
    x: np.ndarray,
    delta: float,
    count: int,
    metric: str,
    seed: Seed,
    grid: Grid,
) -> np.ndarray:
    """Random curves within the closed delta-ball around x.

    Half the directions are smooth process draws, half are independent
    uniform noise, each rescaled to a uniform radius in [0, delta).
    """
    n_smooth = count // 2
    n_rough = count - n_smooth
    smooth = sample_gp(
        GPSpec(Kernel("se", 1.0, 0.2), grid), n_smooth, subseed(seed, 0)
    ).values
    rough = _rng(subseed(seed, 1)).uniform(-1.0, 1.0, size=(n_rough, grid.m))
    G = np.vstack([smooth, rough])
    norms = l2_norm_rows(G, grid) if metric == "l2" else sup_norm_rows(G)
    flat = norms <= 1e-12
    if np.any(flat):
        G[flat] = 1.0
        norms = l2_norm_rows(G, grid) if metric == "l2" else sup_norm_rows(G)
    radii = _rng(subseed(seed, 2)).uniform(0.0, 1.0, size=count)
    return x + G * (radii * delta / norms)[:, None]


def audit_P4(
    depth_id: str,
    config: AuditConfig,
    sample: FunctionalSample,
    probes: int,
    seed: Seed,
    *,
    params: DepthParams,
    sample_origin: dict | None = None,
) -> Verdict:
    """Search for a neighbourhood certifying the semicontinuity bound.

    The probes are the sample mean and the first ``probes - 1`` curves.
    For each probe curve x and each epsilon of ``config.p4_eps``, walks
    ``config.p4_deltas`` (largest first) until ``config.p4_perturbations``
    random curves in the delta-ball of the depth's native metric all stay
    below D(x) + epsilon.  Satisfied iff such a delta exists for every
    (probe, epsilon) pair -- a finite necessary-condition check:
    "satisfied" means no violation was found at this probe resolution.
    """
    _check_depth_id(depth_id)
    grid = sample.grid
    metric = "l2" if depth_id in L2_CLASS else "sup"
    mean = np.average(sample.values, axis=0, weights=sample.weights)
    probe_rows = np.vstack([mean[None, :], sample.values[: max(probes - 1, 0)]])
    base_vals = depth_values(depth_id, probe_rows, sample, params)
    records = []
    witness = None
    for pi in range(probe_rows.shape[0]):
        for ei, eps_v in enumerate(config.p4_eps):
            found = None
            for di, delta in enumerate(config.p4_deltas):
                Y = _perturb_ball(
                    probe_rows[pi],
                    delta,
                    config.p4_perturbations,
                    metric,
                    subseed(seed, pi, ei, di),
                    grid,
                )
                vals = depth_values(depth_id, Y, sample, params)
                wi = int(np.argmax(vals))
                last_worst = {
                    "delta": float(delta),
                    "max_value": float(vals[wi]),
                    "query": Y[wi],
                }
                if vals[wi] <= base_vals[pi] + eps_v:
                    found = float(delta)
                    break
            records.append(
                {
                    "probe": pi,
                    "eps": float(eps_v),
                    "base_value": float(base_vals[pi]),
                    "delta_found": found,
                    "max_in_ball": float(last_worst["max_value"]),
                }
            )
            if found is None and witness is None:
                witness = {
                    "probe": pi,
                    "eps": float(eps_v),
                    "base_value": float(base_vals[pi]),
                    "delta": last_worst["delta"],
                    "exceed_value": float(last_worst["max_value"]),
                    "query": last_worst["query"],
                }
    evidence = {
        "depth": depth_id,
        "metric": metric,
        "n": int(sample.n),
        "n_perturb": int(config.p4_perturbations),
        "delta_ladder": [float(d) for d in config.p4_deltas],
        "records": records,
        "note": "finite probe: satisfied = no counterexample at this resolution",
        "replay": _replay(
            "p4",
            grid,
            params,
            sample,
            sample_origin,
            depth=depth_id,
            probes=int(probes),
            eps=[float(e) for e in config.p4_eps],
            delta_ladder=[float(d) for d in config.p4_deltas],
            n_perturb=int(config.p4_perturbations),
            seed=seed,
        ),
    }
    if witness is not None:
        evidence["witness"] = witness
        return Verdict(VIOLATED, evidence)
    return Verdict(SATISFIED, evidence)


# ---------------------------------------------------------------------------
# P-5: depth must react to shrinking the hull where it is narrow
#
# The envelope of the atoms is their pointwise min/max (L, U); the low-
# variability region L_delta is where the width U - L is at most delta; a
# shrink multiplies a curve by alpha, equal to the factor in (0, 1) on that
# region and exactly 1 elsewhere.
# ---------------------------------------------------------------------------

# bench/tracing.py patches these four module attributes; audit_P5 calls them as globals.


def envelope_of(dist: AtomicDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise (lower, upper) envelope of the atoms."""
    return dist.values.min(axis=0), dist.values.max(axis=0)


def find_L_delta(lower: np.ndarray, upper: np.ndarray, delta: float) -> np.ndarray:
    """Grid mask of the low-variability region {v : U(v) - L(v) <= delta}.

    delta must lie in [min width, max width): below the minimum the
    region is empty, at or above the maximum it is everything, and both
    extremes defeat the purpose of a proper sub-region.  A constant-width
    envelope admits no valid delta at all.
    """
    w = upper - lower
    w_min, w_max = float(w.min()), float(w.max())
    if not (np.isfinite(delta) and w_min <= delta < w_max):
        raise ParameterError(
            f"delta must lie in [{w_min:g}, {w_max:g}) for this envelope, got {delta}"
        )
    return w <= delta


def make_shrink(region: np.ndarray, factor: float) -> np.ndarray:
    """Constant-factor multiplier alpha: factor on the region, 1 elsewhere."""
    if not 0 < factor < 1:
        raise ParameterError(f"shrink factor must lie in (0, 1), got {factor}")
    return np.where(np.asarray(region, dtype=bool), float(factor), 1.0)


def apply_shrink(x: Curve, alpha: np.ndarray) -> Curve:
    """Pointwise product alpha(v) * x(v)."""
    return Curve(alpha * x.values, x.grid)


def audit_P5(
    depth_id: str,
    config: AuditConfig,
    *,
    params: DepthParams,
    delta: float = 2.5,
    factor: float = 0.5,
) -> Verdict:
    """Shrink the narrow part of a three-atom hull and compare depths.

    Builds the three-atom witness distribution on the config's grid, keeps
    the region where the envelope width is at most ``delta``, halves
    everything on it, and compares the depth of the top atom before and
    after.  The band/region
    depths see identical order statistics (positive pointwise scalings
    preserve every min/max band and every pointwise inequality), so their
    values are exactly equal -- a violation; the kernel depth strictly
    increases because the shrink contracts L2 distances.
    """
    _check_depth_id(depth_id)
    dist = counterexample_P5(config.grid())
    g = dist.grid
    lower, upper = envelope_of(dist)
    try:
        region = find_L_delta(lower, upper, delta)
    except ParameterError as exc:
        return Verdict(
            INAPPLICABLE,
            {"depth": depth_id, "reason": f"no valid shrink region: {exc}"},
        )
    alpha = make_shrink(region, factor)
    dist_after = AtomicDistribution(dist.values * alpha, dist.probs, g)
    x = dist.atom(0)
    x_after = apply_shrink(x, alpha)

    vb = float(depth_values(depth_id, x.values, dist, params)[0])
    va = float(depth_values(depth_id, x_after.values, dist_after, params)[0])

    margin = va - vb
    evidence = {
        "depth": depth_id,
        "delta": float(delta),
        "factor": float(factor),
        "region_fraction": float(region.mean()),
        "query": "top atom",
        "value_before": float(vb),
        "value_after": float(va),
        "margin": float(margin),
        "replay": _replay(
            "p5", g, params, depth=depth_id, delta=float(delta), factor=float(factor)
        ),
    }
    if margin > EXACT_TOL:
        return Verdict(SATISFIED, evidence, tolerance=EXACT_TOL)
    evidence["witness"] = {
        "note": "depth unchanged (or decreased) although the hull shrank "
        "strictly on a positive-measure region",
        "value_before": float(vb),
        "value_after": float(va),
    }
    return Verdict(VIOLATED, evidence, tolerance=EXACT_TOL)


# ---------------------------------------------------------------------------
# P-6: stability -- empirical convergence and contamination response
# ---------------------------------------------------------------------------

_SE_MEDIAN = math.sqrt(math.pi / 2.0)  # normal-approximation factor

#: Convergence certificate: the endpoint deviation median must fall to at
#: most this fraction of the starting one.  Converging depths land near
#: 1/4 or below under a 16-fold sample-size increase; a non-converging
#: depth hovers near 1, so the threshold separates the two regimes with
#: wide margins on both sides.
_CONV_RATIO_MAX = 0.75


def _median_se(devs: np.ndarray) -> float:
    """Normal-approximation standard error of a sample median."""
    devs = np.asarray(devs, dtype=float)
    if devs.size < 2:
        return 0.0
    return _SE_MEDIAN * float(devs.std(ddof=1)) / math.sqrt(devs.size)


def _p6_measurements(
    config: AuditConfig, seed: Seed, params_by_depth: dict
) -> dict | None:
    """Raw P-6 measurements, shared across the depths of ``params_by_depth``.

    Per replicate draws one nested sample for the convergence check (the
    size-n_i samples are prefixes of one draw) and one base sample,
    contaminated once per epsilon (same seed across epsilons, so the
    contaminated index set grows monotonically; ``mix`` reuses the base
    draw).  Returns, per depth id:
    the reference depth, |deviation| arrays per sample size, and signed
    contamination deltas per epsilon.  Returns None, measuring nothing,
    when a sample size is below ``config.min_n``: the audit is then
    under-powered.
    """
    if config.n < config.min_n or min(config.conv_ns) < config.min_n:
        return None
    grid = config.grid()
    base = GPSpec(config.kernel, grid)
    outlier = constant_distribution(config.outlier_level, grid)
    zero = Curve(np.zeros(grid.m), grid)

    def val(d, sample):
        return evaluate_depth(d, zero, sample, params_by_depth[d])

    ref = sample_gp(base, config.conv_ref_n, subseed(seed, 0))
    out = {
        d: {
            "ref_value": val(d, ref),
            "conv": {int(nn): [] for nn in config.conv_ns},
            "contam": {float(e): [] for e in config.eps_ladder},
        }
        for d in params_by_depth
    }
    del ref

    n_max = max(config.conv_ns)
    for r in range(config.replicates):
        s = sample_gp(base, n_max, subseed(seed, 1, r))
        for nn in config.conv_ns:
            sub = FunctionalSample(s.values[:nn], grid)
            for d in params_by_depth:
                out[d]["conv"][int(nn)].append(
                    abs(val(d, sub) - out[d]["ref_value"])
                )

    for r in range(config.replicates):
        rep_seed = subseed(seed, 2, r)
        base_sample = sample_gp(base, config.n, rep_seed)
        base_vals = {d: val(d, base_sample) for d in params_by_depth}
        for e in config.eps_ladder:
            spec = ContaminationSpec(base, outlier, e)
            mixed = mix(spec, config.n, rep_seed, base=base_sample)
            for d in params_by_depth:
                out[d]["contam"][float(e)].append(
                    val(d, mixed) - base_vals[d]
                )
    return out


def audit_P6(
    depth_id: str,
    config: AuditConfig,
    measurements: dict | None,
    seed: Seed,
    *,
    params: DepthParams,
) -> Verdict:
    """Two-part stability audit; both parts must pass.

    ``measurements`` is what ``_p6_measurements(config, seed, ...)``
    returned for a set of depths including this one: None when the config
    is under-powered, and the verdict is then inapplicable.

    (a) Empirical convergence: over ``config.replicates`` nested draws,
    the deviation of the zero curve's depth from a size-``conv_ref_n``
    reference must shrink with the sample size -- the endpoint deviation
    median falls to at most 3/4 of the starting one, a strict majority of
    replicates improves from the smallest to the largest size, and the
    medians are non-increasing up to a 3 SE noise band.  (The raw
    improvement count is recorded in the evidence; it is too close to a
    fair coin per replicate to serve as a quantile-style criterion on
    its own.)  (b) Contamination:
    replacing an epsilon fraction by a distant constant outlier must move
    the depth by at most C * epsilon + 3 SE with a fitted C <=
    ``config.c_max`` (moving epsilon mass moves the underlying
    distribution by at most epsilon, so a stable depth's response must be
    linearly bounded).
    """
    _check_depth_id(depth_id)
    conv_ns = config.conv_ns
    eps_ladder = config.eps_ladder
    if measurements is None:
        return Verdict(
            INAPPLICABLE,
            {
                "depth": depth_id,
                "reason": f"under-powered: min sample size below {config.min_n}",
                "n": int(config.n),
                "conv_ns": [int(v) for v in conv_ns],
            },
        )
    meas = measurements[depth_id]

    devs = np.array([meas["conv"][int(nn)] for nn in conv_ns])
    improved = int(np.sum(devs[-1] < devs[0]))
    need = config.replicates // 2 + 1
    med = [float(np.median(devs[i])) for i in range(len(conv_ns))]
    se_med = [_median_se(devs[i]) for i in range(len(conv_ns))]
    mono_ok = all(
        med[i + 1] <= med[i] + 3.0 * (se_med[i] + se_med[i + 1])
        for i in range(len(conv_ns) - 1)
    )
    already_converged = med[0] <= EXACT_TOL and med[-1] <= EXACT_TOL
    ratio = math.inf if med[0] == 0.0 else med[-1] / med[0]
    ratio_ok = already_converged or ratio <= _CONV_RATIO_MAX
    maj_ok = already_converged or improved >= need
    conv_ok = ratio_ok and maj_ok and mono_ok

    contam = {e: np.abs(np.asarray(meas["contam"][float(e)])) for e in eps_ladder}
    per_eps = []
    c_fit = 0.0
    for e in eps_ladder:
        med_e = float(np.median(contam[e]))
        se_e = _median_se(contam[e])
        excess = max(0.0, med_e - 3.0 * se_e)
        per_eps.append(
            {
                "eps": float(e),
                "median_abs_delta": med_e,
                "se": se_e,
                "excess": excess,
                "c": excess / e,
            }
        )
        c_fit = max(c_fit, excess / e)
    contam_ok = c_fit <= config.c_max

    grid = config.grid()
    outlier = constant_distribution(config.outlier_level, grid)
    evidence = {
        "depth": depth_id,
        "ref_n": int(config.conv_ref_n),
        "ref_value": float(meas["ref_value"]),
        "conv_ns": [int(v) for v in conv_ns],
        "replicates": int(config.replicates),
        "improved": improved,
        "improved_needed": need,
        "medians": med,
        "median_ses": se_med,
        "endpoint_ratio": None if not np.isfinite(ratio) else float(ratio),
        "ratio_max": _CONV_RATIO_MAX,
        "monotone_ok": bool(mono_ok),
        "contamination": per_eps,
        "c_fit": float(c_fit),
        "c_max": float(config.c_max),
        "replay": _replay(
            "p6",
            grid,
            params,
            depth=depth_id,
            gp=gpspec_to_json(GPSpec(config.kernel, grid)),
            outlier_values=outlier.values,
            outlier_probs=outlier.probs,
            eps_ladder=[float(e) for e in eps_ladder],
            n=int(config.n),
            seed=seed,
            conv_ns=[int(v) for v in conv_ns],
            ref_n=int(config.conv_ref_n),
            replicates=int(config.replicates),
        ),
    }
    if conv_ok and contam_ok:
        return Verdict(SATISFIED, evidence, tolerance=config.c_max)
    witness = {}
    if not conv_ok:
        witness["convergence"] = {
            "improved": improved,
            "needed": need,
            "medians": med,
            "endpoint_ratio": None if not np.isfinite(ratio) else float(ratio),
            "monotone_ok": bool(mono_ok),
        }
    if not contam_ok:
        worst = max(per_eps, key=lambda rec: rec["c"])
        witness["contamination"] = worst
    evidence["witness"] = witness
    return Verdict(VIOLATED, evidence, tolerance=config.c_max)


# ---------------------------------------------------------------------------
# Full audit: configuration, report, and the 6 x 6 matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditConfig:
    """Everything the full audit needs, with reproducible defaults.

    The default draws n = 2000 paths of a unit-variance squared-
    exponential process (length scale 0.2) on a uniform 101-point grid
    over [0, 1], uses k = 20 projection directions, and 20 replicates for
    every Monte-Carlo tolerance.  ``band_n`` caps the sample the band
    depth evaluates on (its order-3 count dominates the runtime).
    """

    m: int = 101
    a: float = 0.0
    b: float = 1.0
    kernel: Kernel = Kernel("se", 1.0, 0.2)
    p2g_kernels: tuple = (
        Kernel("se", 1.0, 0.2),
        Kernel("se", 1.0, 0.1),
        Kernel("cosine", 1.0, 1.0),
    )
    n: int = 2000
    band_n: int = 300
    J: int = 2
    p2g_J: int = 3
    h: float = 1.0
    k: int = 20
    seed: int = 0
    replicates: int = 20
    p2g_draw_probes: int = 20
    p3_n: int = 500
    p4_probes: int = 3
    p4_eps: tuple = (0.05, 0.01)
    p4_deltas: tuple = (0.5, 0.2, 0.1, 0.05, 0.02, 0.01)
    p4_perturbations: int = 200
    conv_ns: tuple = (100, 400, 1600)
    conv_ref_n: int = 25600
    eps_ladder: tuple = (0.2, 0.1, 0.05, 0.01)
    outlier_level: float = 50.0
    c_max: float = 2.0
    min_n: int = 100  # Monte-Carlo cells below this sample size are inapplicable
    rice_paths: int = 5000
    rice_m: int = 1001

    def __post_init__(self) -> None:
        # JSON admits NaN and Infinity, which would pass the range checks
        for f in fields(self):
            value = getattr(self, f.name)
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, float) and not math.isfinite(v):
                    raise ParameterError(f"{f.name} must be finite, got {value}")
        if self.n < 1 or self.band_n < 2 or self.p3_n < 2:
            raise ParameterError("sample sizes must be positive")
        if self.J < 2 or self.p2g_J < 2:
            raise ParameterError("band orders must be >= 2")
        if not self.h > 0:
            raise ParameterError("bandwidth h must be > 0")
        if self.k < 1:
            raise ParameterError("direction count k must be >= 1")
        if self.replicates < 2:
            raise ParameterError("replicates must be >= 2")
        if len(self.p2g_kernels) == 0:
            raise ParameterError("the centrality audit needs >= 1 model")
        # an empty epsilon list would let P-4 or P-6 pass without testing
        # anything, and a repeated entry would count one epsilon twice
        if (
            not self.eps_ladder
            or any(not (0.0 < e < 1.0) for e in self.eps_ladder)
            or list(self.eps_ladder) != sorted(set(self.eps_ladder), reverse=True)
        ):
            raise ParameterError(
                "eps_ladder must be non-empty, strictly inside (0, 1) and decreasing"
            )
        if not self.p4_eps or min(self.p4_eps) <= 0:
            raise ParameterError("p4_eps must be non-empty and positive")
        deltas = list(self.p4_deltas)
        if not deltas or deltas != sorted(set(deltas), reverse=True) or deltas[-1] <= 0:
            raise ParameterError(
                "p4_deltas must be non-empty, positive and strictly decreasing"
            )
        if list(self.conv_ns) != sorted(set(self.conv_ns)) or len(self.conv_ns) < 2:
            raise ParameterError("conv_ns must be strictly increasing with >= 2 sizes")
        if self.conv_ref_n <= max(self.conv_ns):
            raise ParameterError("conv_ref_n must exceed every conv size")
        if not self.c_max > 0:
            raise ParameterError("c_max must be > 0")
        if self.p4_probes < 1 or self.p4_perturbations < 1:
            raise ParameterError("P-4 probe counts must be >= 1")
        if self.p2g_draw_probes < 1:
            raise ParameterError("p2g_draw_probes must be >= 1")
        if self.rice_paths < 1 or self.rice_m < 3:
            raise ParameterError("rice diagnostic sizes too small")
        # every draw the audit makes, checked before any grid is built
        for n_draws, m in (
            (self.n, self.m),
            (self.p3_n, self.m),
            (self.p2g_draw_probes, self.m),
            (self.p4_perturbations, self.m),
            (self.conv_ref_n, self.m),
            (self.rice_paths, self.rice_m),
        ):
            _check_gp_budget(n_draws, m)
        # every band depth a cell counts on a sample, as (n, J, queries):
        # P-1's 10 probes and P-4's batches on the first band_n paths and
        # on the two-atom counterexample (so J = 2 is the only order a
        # full audit can run), P-2G's probes, and P-6's single queries on
        # its smallest and largest samples
        band_n = min(self.band_n, self.n)
        p4_queries = max(10, self.p4_probes, self.p4_perturbations)
        bands = [(band_n, self.J, p4_queries), (2, self.J, p4_queries)]
        if self.n >= self.min_n:
            bands.append((band_n, self.p2g_J, 7 + self.p2g_draw_probes))
            if min(self.conv_ns) >= self.min_n:
                sizes = (min(self.conv_ns), self.conv_ref_n, self.n)
                bands += [(n, self.J, 1) for n in sizes]
        for n, J, q in bands:
            _check_band_order(J, n)
            _check_band_budget(n, J, q)
        object.__setattr__(self, "_grid", uniform_grid(self.a, self.b, self.m))

    def grid(self) -> Grid:
        return self._grid

    def to_json(self) -> dict:
        """Field-wise JSON with the grid fields nested under "grid"."""
        out = _jsonable(self)
        out["grid"] = {name: out.pop(name) for name in _GRID_FIELDS}
        return out

    @staticmethod
    def from_json(obj: dict) -> "AuditConfig":
        """Inverse of ``to_json``; absent fields keep their defaults.

        This is the parse boundary for user configs: an unknown key, or a
        value whose JSON type does not match the type of the field's
        default, raises ``InputError``.  Range checks stay in
        ``__post_init__`` (``ParameterError``).
        """
        if not isinstance(obj, dict):
            raise InputError("audit config must be a JSON object")
        grid = obj.get("grid", {})
        if not isinstance(grid, dict):
            raise InputError("audit config key 'grid' must be an object")
        names = {f.name for f in fields(AuditConfig)} - set(_GRID_FIELDS)
        for key in obj:
            if key != "grid" and key not in names:
                hint = " (grid fields go under 'grid')" if key in _GRID_FIELDS else ""
                raise InputError(f"unknown audit config key {key!r}{hint}")
        for key in grid:
            if key not in _GRID_FIELDS:
                raise InputError(f"unknown audit config key 'grid.{key}'")
        kwargs = {}
        for f in fields(AuditConfig):
            source = grid if f.name in _GRID_FIELDS else obj
            if f.name in source:
                kwargs[f.name] = _from_json_like(source[f.name], f.default, f.name)
        return AuditConfig(**kwargs)


#: AuditConfig fields serialized under "grid".
_GRID_FIELDS = ("a", "b", "m")


def _fingerprint(report_json: dict) -> str:
    """sha256 of a report's JSON without its ``schema`` and ``timestamp``."""
    content = {k: v for k, v in report_json.items() if k not in ("schema", "timestamp")}
    digest = hashlib.sha256(
        json.dumps(content, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return f"sha256:{digest}"


@dataclass(frozen=True)
class AuditReport:
    """The 6 x 6 verdict matrix plus provenance and diagnostics.

    ``timestamp`` is a deterministic content fingerprint rather than a
    wall-clock time, so identical seeds produce byte-identical reports.
    """

    matrix: dict
    seeds: dict
    params: dict
    timestamp: str
    diagnostics: dict = field(default_factory=dict)
    notes: tuple = ()

    def mismatches(self, expected: dict | None = None) -> list:
        """Cells whose status differs from the expected pattern."""
        expected = expected if expected is not None else GOLDEN
        return [
            {"depth": d, "property": p, "got": self.matrix[d][p].status, "want": want}
            for d in DEPTH_IDS
            for p, want in zip(PROPERTY_IDS, expected[d])
            if self.matrix[d][p].status != want
        ]

    def inapplicable_cells(self) -> list:
        return [
            {"depth": d, "property": p}
            for d in DEPTH_IDS
            for p in PROPERTY_IDS
            if self.matrix[d][p].status == INAPPLICABLE
        ]

    def to_json(self) -> dict:
        return {"schema": 1, **_jsonable(self)}

    def to_markdown(self) -> str:
        lines = [
            "# Depth property audit",
            "",
            f"Fingerprint: `{self.timestamp}`",
            "",
            "| depth | " + " | ".join(PROPERTY_IDS) + " |",
            "|---" * (len(PROPERTY_IDS) + 1) + "|",
        ]
        for d in DEPTH_IDS:
            marks = [self.matrix[d][p].mark for p in PROPERTY_IDS]
            lines.append(f"| {DEPTH_LABELS[d]} | " + " | ".join(marks) + " |")
        lines.append("")
        legend = ", ".join(f"{MARKS[s]} {s}" for s in _STATUSES)
        lines.append(f"Legend: {legend}.")
        rice = self.diagnostics.get("rice")
        if rice is not None:
            lines.extend(
                [
                    "",
                    "## Upcrossing diagnostic",
                    "",
                    f"Expected {rice['expected']:.6f} vs observed "
                    f"{rice['observed']:.6f} mean upcrossings "
                    f"(relative error {rice['relative_error']:.4f}).",
                ]
            )
        if self.notes:
            lines.extend(["", "## Notes", ""])
            lines.extend(f"- {note}" for note in self.notes)
        lines.append("")
        return "\n".join(lines)


_AUDIT_NOTES = (
    "P-4 is a finite probe: a satisfied cell means no semicontinuity "
    "violation was found at the probe resolution.",
    "Monte-Carlo cells use a conservative 0.5*range/sqrt(n) standard-error "
    "bound; margins between 3 and 4 SE are reported inapplicable rather "
    "than guessed.",
    "On a finite grid every sample is equicontinuous at grid resolution, "
    "so the band depth's restricted-class convergence caveat cannot be "
    "distinguished by this audit.",
)


def run_full_audit(config: AuditConfig | None = None) -> AuditReport:
    """Run every audit cell, each on its own seed derived below, and
    assemble the deterministic report; inapplicable cells are reported too.

    The shared P-6 measurements, the Rice diagnostic and every cell (P-2G
    and P-4 per member) are independent units, so they run in forked
    worker processes, at most one per usable CPU (``_usable_cpus``).  A
    worker inherits the parent's modules, BLAS thread count and cached GP
    factors, so each unit computes what a serial run computes, and the
    report bytes are the same.  Each worker runs its depth kernels and CSV
    reads on one thread, since the pool already keeps every CPU busy.  The results are read in the serial call order,
    so the first error raised is the one a serial run raises; on an error
    the queued units are dropped and every worker is reaped before it
    propagates.  Needs the ``fork`` start method (POSIX); a fork copies
    only the calling thread, so no other thread of the caller may hold a
    lock that the units take (the kernels' own threads never outlive
    their batch).
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    config = config or AuditConfig()
    grid = config.grid()
    seed = config.seed
    gp = GPSpec(config.kernel, grid)
    params_by_depth = {
        d: DepthParams(h=config.h, J=config.J, k=config.k, seed=subseed(seed, 90, di))
        for di, d in enumerate(DEPTH_IDS)
    }
    # P-4's band depths skip the last, single-curve member (it needs n >= J)
    p4_counts = {d: 2 if d in ("bd", "mbd") else 3 for d in DEPTH_IDS}
    units = 2 + sum(3 + len(config.p2g_kernels) + p4_counts[d] for d in DEPTH_IDS)
    pool = ProcessPoolExecutor(
        max_workers=min(_usable_cpus(), units),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_cap_kernel_threads,
        initargs=(1,),
    )
    try:
        # the two largest units first
        p6_job = pool.submit(
            _p6_measurements, config, subseed(seed, 60), params_by_depth
        )
        rice_job = pool.submit(rice_mc_diagnostic, config, subseed(seed, 70))

        master = sample_gp(gp, config.n, subseed(seed, 10))
        band_cap = min(config.band_n, config.n)
        band_master = FunctionalSample(master.values[:band_cap], grid)
        master_origin = {
            "kind": "gp",
            "spec": gpspec_to_json(gp),
            "n": config.n,
            "seed": subseed(seed, 10),
        }
        band_origin = dict(master_origin, rows=band_cap)
        # P-4 members as (label, sample, probes, sample origin)
        p4_rows = [
            ("process sample", band_master, config.p4_probes, band_origin),
            ("two-atom counterexample", counterexample_P3(grid).as_sample(), 3, None),
            (
                "single curve",
                FunctionalSample(master.values[:1], grid),
                1,
                dict(master_origin, rows=1),
            ),
        ]

        jobs = {}
        for di, d in enumerate(DEPTH_IDS):
            params = params_by_depth[d]
            band = d in ("bd", "mbd")
            jobs[d] = {
                "P-1": pool.submit(
                    audit_P1,
                    d,
                    band_master if band else master,
                    a=2.0,
                    b=0.5 + grid.points,
                    params=params,
                    sample_origin=band_origin if band else master_origin,
                ),
                "P-2G": [
                    (
                        f"{kern.type}(var={kern.variance:g}, ls={kern.length_scale:g})",
                        pool.submit(
                            audit_P2G,
                            d,
                            config,
                            kern,
                            subseed(seed, 21, ki),
                            params=replace(
                                params,
                                J=config.p2g_J if d == "bd" else config.J,
                                seed=subseed(seed, 20, di, ki),
                            ),
                        ),
                    )
                    for ki, kern in enumerate(config.p2g_kernels)
                ],
                "P-3": pool.submit(audit_P3, d, config, subseed(seed, 30, di), params=params),
                "P-4": [
                    (
                        label,
                        pool.submit(
                            audit_P4,
                            d,
                            config,
                            sample,
                            probes,
                            subseed(seed, 40, di, tag),
                            params=params,
                            sample_origin=origin,
                        ),
                    )
                    for tag, (label, sample, probes, origin) in enumerate(
                        p4_rows[: p4_counts[d]]
                    )
                ],
                "P-5": pool.submit(audit_P5, d, config, params=params),
            }

        p6_meas = p6_job.result()
        matrix = {}
        for d in DEPTH_IDS:
            job = jobs[d]
            matrix[d] = {
                "P-1": job["P-1"].result(),
                "P-2G": _combine_members([(k, f.result()) for k, f in job["P-2G"]]),
                "P-3": job["P-3"].result(),
                "P-4": _combine_members([(k, f.result()) for k, f in job["P-4"]]),
                "P-5": job["P-5"].result(),
                "P-6": audit_P6(
                    d, config, p6_meas, subseed(seed, 60), params=params_by_depth[d]
                ),
            }
            if d in ("bd", "mbd"):
                matrix[d]["P-4"].evidence["skipped"] = (
                    "single-curve setup needs n >= J and was not run"
                )
        diagnostics = {"rice": rice_job.result()}
    finally:
        pool.shutdown(cancel_futures=True)

    seeds = {
        "root": config.seed,
        "master_sample": subseed(seed, 10),
        "p6": subseed(seed, 60),
        "rice": subseed(seed, 70),
    }
    report = AuditReport(
        matrix=matrix,
        seeds=seeds,
        params=config.to_json(),
        timestamp="",
        diagnostics=diagnostics,
        notes=_AUDIT_NOTES,
    )
    return replace(report, timestamp=_fingerprint(report.to_json()))
