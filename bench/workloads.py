"""Workload inputs, the CLI operations run on them, and their output checks.

Every workload draws its inputs from the workload seed and writes them as
CSV files; the program under test only ever sees those files.  Each
operation is one ``curvedepth`` command line plus a check of its output
that runs outside the timed region and raises ``CheckError`` on a wrong
result.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from curvedepth import core, depths, distributions
from curvedepth.properties import GOLDEN, PROPERTY_IDS

import reference as ref

DEPTHS = ("h", "rt", "bd", "mbd", "hr", "mhr")

#: Relative tolerance for depths computed from floating-point sums.
RTOL = 1e-12


class CheckError(Exception):
    """A command's output disagrees with the benchmark's own reference."""


@dataclass
class Op:
    name: str  # metric key of the command's wall time, e.g. "cli_s.bd"
    argv: list[str]  # arguments after ``python -m curvedepth``
    check: Callable[[str], None]  # validates the command's stdout
    evals: int = 0  # query-curve depth evaluations the command performs
    timeout: float = 60.0
    expect_exit: int = 0


@dataclass
class Inputs:
    """Generated arrays (bit-identical to what the CSV files hold)."""

    files: dict[str, Path]
    arrays: dict[str, np.ndarray] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------

SIZES = {
    # name: parameters per scale; "tiny" is the harness self-test size
    "full": {
        "rank_n": 1000, "rank_bd_n": 300,
        "sparse_n": 5000, "sparse_q": 200, "missing": 0.7,
        "shape_n": 100, "shape_draws": 20,
        "audit": {
            "p2g_kernels": [{"type": "cosine", "variance": 1.0, "length_scale": 1.0}],
            "p2g_draw_probes": 1, "p4_perturbations": 100, "replicates": 10,
        },
        # exit 0: the verdicts match GOLDEN
        "audit_exit": 0,
        "audit_sha256": "db2eb1f77f6fe6d4e4a5d126b1fbd56f72174e724282cc8042e4a6a39a69aced",
    },
    "tiny": {
        "rank_n": 80, "rank_bd_n": 40,
        "sparse_n": 300, "sparse_q": 20, "missing": 0.7,
        "shape_n": 30, "shape_draws": 3,
        "audit": {
            "n": 150, "band_n": 60, "replicates": 4, "conv_ns": [100, 200],
            "conv_ref_n": 400, "min_n": 50, "p3_n": 80, "p4_probes": 2,
            "p4_eps": [0.05], "p4_deltas": [0.5, 0.1, 0.01],
            "p4_perturbations": 30, "p2g_draw_probes": 4,
            "eps_ladder": [0.2, 0.1], "rice_paths": 100, "rice_m": 201,
        },
        # exit 4: this small a P-6 cell cannot reproduce GOLDEN
        "audit_exit": 4,
        "audit_sha256": "500c6dfa1e26e84815f46a846243a8e51f1cd9b0a88ecc2c316dc7687892ef9f",
    },
}

GRID_M = 101
SE = distributions.Kernel("se", 1.0, 0.2)
#: Share of contaminated curves, and the contaminating mean shift.
EPSILON = 0.1
SHIFT = 3.0


def contaminated_law(grid: core.Grid) -> distributions.ContaminationSpec:
    """SE GP (variance 1, length scale 0.2) with 10 % of curves shifted by +3."""
    base = distributions.GPSpec(SE, grid)
    shifted = distributions.GPSpec(SE, grid, mean=core.Curve(np.full(grid.m, SHIFT), grid))
    return distributions.ContaminationSpec(base, shifted, EPSILON)


def _write(path: Path, grid: core.Grid, values: np.ndarray) -> Path:
    core.write_curves_csv(path, grid, values)
    return path


def make_self_rank(seed: int, size: dict, work: Path) -> Inputs:
    grid = core.uniform_grid(0.0, 1.0, GRID_M)
    X = distributions.mix(contaminated_law(grid), size["rank_n"], (seed, 1)).values
    Xb = X[: size["rank_bd_n"]]
    files = {
        "sample": _write(work / "sample.csv", grid, X),
        "sample_bd": _write(work / "sample_bd.csv", grid, Xb),
    }
    return Inputs(files, {"grid": grid.points, "w": grid.weights, "X": X, "X_bd": Xb})


def make_sparse_query(seed: int, size: dict, work: Path) -> Inputs:
    grid = core.uniform_grid(0.0, 1.0, GRID_M)
    law = contaminated_law(grid)
    X = distributions.mix(law, size["sparse_n"], (seed, 1)).values
    Q = distributions.mix(law, size["sparse_q"], (seed, 2)).values.copy()
    # hide ~70 % of the interior points; the end points stay observed
    hide = np.random.default_rng((seed, 3)).uniform(size=Q.shape) < size["missing"]
    hide[:, [0, -1]] = False
    Q[hide] = np.nan
    files = {
        "sample": _write(work / "sample.csv", grid, X),
        "sparse": _write(work / "sparse.csv", grid, Q),
        "dense": work / "dense.csv",
    }
    return Inputs(files, {"grid": grid.points, "w": grid.weights, "X": X, "sparse": Q})


def make_audit(seed: int, size: dict, work: Path) -> Inputs:
    """The audit config, plus the centrality cell's query shape for the CLI:
    the zero curve, constants at +-{0.5, 1, 1.5} sd and fresh draws, against
    a sample of the zero-mean SE process."""
    grid = core.uniform_grid(0.0, 1.0, GRID_M)
    gp = distributions.GPSpec(SE, grid)
    X = distributions.sample_gp(gp, size["shape_n"], (seed, 4)).values
    levels = [0.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5]
    draws = distributions.sample_gp(gp, size["shape_draws"], (seed, 5)).values
    Q = np.vstack([np.outer(levels, np.ones(grid.m)), draws])
    cfg = work / "audit_config.json"
    cfg.write_text(json.dumps(size["audit"], sort_keys=True))
    files = {
        "config": cfg,
        "sample": _write(work / "shape_sample.csv", grid, X),
        "queries": _write(work / "shape_queries.csv", grid, Q),
    }
    return Inputs(files, {"grid": grid.points, "w": grid.weights, "X": X, "Q": Q})


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= RTOL * max(abs(got), abs(want))


class DepthChecker:
    """Recompute sampled queries of one depth command with the references."""

    def __init__(self, depth, X, queries, grid, w, *, J=2, picks=(), self_query=False):
        # queries() gives the query rows the command evaluated
        self.depth, self.X, self.queries, self.grid, self.w = depth, X, queries, grid, w
        self.J, self.picks, self.self_query = J, list(picks), self_query

    def _reference(self, i: int):
        x, X, w = self.Q[i], self.X, self.w
        if self.depth == "h":
            return ref.h_depth(x, X, w)
        if self.depth == "rt":
            return ref.tukey_depth(self._proj_q[i], self._proj_X)
        if self.depth == "bd":
            return ref.band_depth(x, X, self.J)
        if self.depth == "mbd":
            return ref.modified_band_depth(x, X, w, self.J)
        if self.depth == "hr":
            return ref.half_region_depth(x, X)
        return ref.modified_half_region_depth(x, X, w)

    def _prepare_projections(self) -> None:
        # the CLI's directions: k = 20 draws with the default --seed 0
        U = depths.draw_directions(core.Grid(self.grid), 20, 0) * self.w
        self._proj_X = self.X @ U.T
        # a sample member must project exactly like its own sample row
        self._proj_q = self._proj_X if self.self_query else self.Q @ U.T

    def check_values(self, values: np.ndarray) -> None:
        self.Q = self.queries()
        if values.shape != (self.Q.shape[0],) or not np.all(np.isfinite(values)):
            raise CheckError(f"{self.depth}: expected {self.Q.shape[0]} finite values")
        if self.depth == "rt":
            self._prepare_projections()
        n = self.X.shape[0]
        for i in self.picks:
            want, count = self._reference(i)
            got = float(values[i])
            if self.depth == "bd":
                ok = got == want
            elif self.depth in ("rt", "hr"):
                # count/n in the definition; the program sums 1/n weights
                ok = round(got * n) == count and _close(got, want)
            else:
                ok = _close(got, want)
            if not ok:
                raise CheckError(
                    f"{self.depth}: query {i} has depth {got!r}, reference {want!r}"
                    + (f" (count {count})" if count is not None else "")
                )


def check_ranks(values: np.ndarray, ranks, deepest) -> None:
    """Ranks are 1 = deepest, ties broken by the lower curve index."""
    order = sorted(range(values.size), key=lambda i: (-values[i], i))
    want = np.empty(values.size, dtype=int)
    want[order] = np.arange(1, values.size + 1)
    if list(want) != list(ranks) or deepest != order[0]:
        raise CheckError("ranks are inconsistent with the depth values")


def _parse(stdout: str) -> dict:
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckError(f"unparsable output: {exc}") from exc


def depth_check(checker: DepthChecker, ranked: bool) -> Callable[[str], None]:
    def check(stdout: str) -> None:
        out = _parse(stdout)
        try:
            values = np.asarray(out["values"], dtype=float)
            if ranked:
                check_ranks(values, out["ranks"], out["deepest"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckError(f"malformed depth output: {exc!r}") from exc
        checker.check_values(values)

    return check


def reconstruct_check(inputs: Inputs) -> Callable[[str], None]:
    sparse, grid = inputs.arrays["sparse"], inputs.arrays["grid"]

    def check(stdout: str) -> None:
        inputs.arrays.pop("dense", None)
        out = _parse(stdout)
        if out.get("n") != sparse.shape[0]:
            raise CheckError("reconstruct reported the wrong curve count")
        rows = np.loadtxt(inputs.files["dense"], delimiter=",", ndmin=2)
        if rows.shape != (sparse.shape[0] + 1, grid.size) or not np.array_equal(rows[0], grid):
            raise CheckError("dense.csv has the wrong shape or grid row")
        for i, (got, obs) in enumerate(zip(rows[1:], sparse)):
            idx = np.flatnonzero(~np.isnan(obs))
            want = np.empty(grid.size)
            # linear interpolation between consecutive observed points
            for a, b in zip(idx[:-1], idx[1:]):
                t = (grid[a : b + 1] - grid[a]) / (grid[b] - grid[a])
                want[a : b + 1] = obs[a] + (obs[b] - obs[a]) * t
            scale = max(1.0, float(np.max(np.abs(want))))
            if not np.array_equal(got[idx], obs[idx]) or np.max(np.abs(got - want)) > RTOL * scale:
                raise CheckError(f"dense curve {i} is not the linear interpolant")
        inputs.arrays["dense"] = rows[1:]

    return check


def audit_check(out_dir: Path, sha256: str, golden: bool) -> Callable[[str], None]:
    def check(stdout: str) -> None:
        path = out_dir / "audit.json"
        try:
            data = path.read_bytes()
            matrix = json.loads(data)["matrix"]
            got = {d: tuple(matrix[d][p]["status"] for p in PROPERTY_IDS) for d in GOLDEN}
        except (OSError, KeyError, TypeError, json.JSONDecodeError) as exc:
            raise CheckError(f"unreadable audit.json: {exc!r}") from exc
        if golden and got != GOLDEN:
            raise CheckError("audit verdicts differ from the GOLDEN pattern")
        digest = hashlib.sha256(data).hexdigest()
        if digest != sha256:
            raise CheckError(f"audit.json sha256 {digest} != recorded {sha256}")
        if "| depth |" not in stdout:
            raise CheckError("audit printed no verdict table")

    return check


# ---------------------------------------------------------------------------
# Operations per workload
# ---------------------------------------------------------------------------


def _picks(seed: int, tag: int, count: int, k: int) -> list[int]:
    rng = np.random.default_rng((seed, 6, tag))
    return sorted(int(i) for i in rng.choice(count, size=min(k, count), replace=False))


#: Queries recomputed per depth command: (self-rank, sparse-query, audit).
PICKS = {"h": (40, 20, 27), "rt": (40, 20, 27), "bd": (6, 20, 3),
         "mbd": (40, 20, 27), "hr": (40, 20, 27), "mhr": (40, 20, 27)}


def self_rank_ops(seed: int, inputs: Inputs, work: Path, size: dict) -> list[Op]:
    a, f = inputs.arrays, inputs.files
    ops = []
    for di, d in enumerate(DEPTHS):
        X = a["X_bd"] if d == "bd" else a["X"]
        path = f["sample_bd"] if d == "bd" else f["sample"]
        checker = DepthChecker(d, X, lambda X=X: X, a["grid"], a["w"], self_query=True,
                               picks=_picks(seed, di, X.shape[0], PICKS[d][0]))
        ops.append(Op(f"cli_s.{d}", ["rank", str(path), d], depth_check(checker, True),
                      evals=X.shape[0]))
    return ops


def _dense(arrays: dict) -> np.ndarray:
    if "dense" not in arrays:
        raise CheckError("no checked reconstruction to compare against")
    return arrays["dense"]


def sparse_query_ops(seed: int, inputs: Inputs, work: Path, size: dict) -> list[Op]:
    a, f = inputs.arrays, inputs.files
    ops = [Op("reconstruct_s", ["reconstruct", str(f["sparse"]), str(f["dense"])],
              reconstruct_check(inputs))]
    for di, d in enumerate(DEPTHS):
        # the queries are the dense curves this pass's reconstruct step wrote
        checker = DepthChecker(d, a["X"], lambda: _dense(a), a["grid"], a["w"],
                               picks=_picks(seed, di, a["sparse"].shape[0], PICKS[d][1]))
        ops.append(Op(f"cli_s.{d}", ["depth", str(f["sample"]), d, "--query", str(f["dense"])],
                      depth_check(checker, False), evals=a["sparse"].shape[0]))
    return ops


def audit_ops(seed: int, inputs: Inputs, work: Path, size: dict) -> list[Op]:
    a, f = inputs.arrays, inputs.files
    out_dir = work / "audit_out"
    ops = [Op("audit_s", ["audit", "--config", str(f["config"]), "--out-dir", str(out_dir)],
              audit_check(out_dir, size["audit_sha256"], size["audit_exit"] == 0),
              timeout=150.0, expect_exit=size["audit_exit"])]
    for di, d in enumerate(DEPTHS):
        checker = DepthChecker(d, a["X"], lambda: a["Q"], a["grid"], a["w"], J=3,
                               picks=_picks(seed, di, a["Q"].shape[0], PICKS[d][2]))
        ops.append(Op(f"cli_s.{d}",
                      ["depth", str(f["sample"]), d, "--J", "3", "--query", str(f["queries"])],
                      depth_check(checker, False), evals=a["Q"].shape[0]))
    return ops


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and README.md."""

    name: str
    make: Callable[[int, dict, Path], Inputs]
    ops: Callable[[int, Inputs, Path, dict], list[Op]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("self-rank", make_self_rank, self_rank_ops),
        Workload("sparse-query", make_sparse_query, sparse_query_ops),
        Workload("audit", make_audit, audit_ops),
    )
}
