"""Release acceptance gate: eight criteria, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they are produced (without ``-s`` they appear in the captured-output
section of any failure).  Each criterion is a single test; the assertion
message repeats the verdict line, so plain ``pytest`` output is enough to
identify the failing criterion.

Criterion 6 note: its second sub-check requires the identity of the
deepest sample curve to survive contamination in >= 19/20 replicates for
both the kernel depth and the modified half-region depth.  The kernel
depth satisfies this (its depth surface has an isolated maximum); the
modified half-region depth does not and cannot: its maximum over a smooth
Gaussian-process sample is a statistical plateau whose top-two gapShrinks
toward zero as n grows, while an epsilon-contamination moves each value by
Theta(epsilon).  The check is implemented faithfully and fails for the
modified half-region depth; the measured identity rates are printed in the
verdict line.
"""

from __future__ import annotations

import importlib
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from curvedepth.core import Curve, FunctionalSample, uniform_grid
from curvedepth.depths import (
    DepthParams,
    depth_values,
    evaluate_depth,
)
from curvedepth.distributions import (
    ContaminationSpec,
    GPSpec,
    Kernel,
    constant_distribution,
    counterexample_P3,
    mix,
    sample_gp,
    subseed,
)
from curvedepth.properties import GOLDEN, AuditConfig, rice_mc_diagnostic, run_full_audit
from curvedepth.reconstruct import depth_stability

from band_oracles import band_depth_brute, modified_band_depth_brute

REPO_ROOT = Path(__file__).resolve().parent.parent


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. Default audit reproduces the embedded expected pattern
# ---------------------------------------------------------------------------


def test_criterion_1_default_audit_reproduces_expected_pattern():
    t0 = time.perf_counter()
    report = run_full_audit()
    elapsed = time.perf_counter() - t0
    mismatches = report.mismatches(GOLDEN)
    under_powered = report.inapplicable_cells()
    ok = not mismatches and not under_powered and elapsed < 300.0
    _verdict(
        1,
        ok,
        f"default audit: {36 - len(mismatches)}/36 cells match the expected "
        f"pattern, {len(under_powered)} under-powered, {elapsed:.1f}s "
        f"(limit 300s)"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
    )


# ---------------------------------------------------------------------------
# 2. Exact population values on the two-atom counterexample
# ---------------------------------------------------------------------------


def test_criterion_2_atomic_band_depths_exact():
    dist = counterexample_P3()
    g = dist.grid
    atom_hi = Curve(np.ones(g.m), g)
    atom_lo = Curve(-np.ones(g.m), g)
    interior = [Curve(np.full(g.m, c), g) for c in (-0.5, 0.0, 0.25, 0.9)]
    queries = np.stack([x.values for x in [atom_hi, atom_lo] + interior])
    want = [0.75, 0.75] + [0.5] * len(interior)
    checks = []
    for d in ("bd", "mbd"):
        got = depth_values(d, queries, dist, DepthParams(J=2))
        checks += [float(v) == w for v, w in zip(got, want)]
    ok = all(checks)
    _verdict(
        2,
        ok,
        "band and modified band depths on the two-atom distribution: "
        "3/4 at the atoms, 1/2 at interior constants, exact equality "
        f"({sum(checks)}/{len(checks)} checks)",
    )


# ---------------------------------------------------------------------------
# 3. Depth of the process centre is near the maximum attainable 1/2
# ---------------------------------------------------------------------------


def test_criterion_3_gp_centre_depths_near_half():
    grid = uniform_grid(0.0, 1.0, 101)
    gp = GPSpec(Kernel("se", 1.0, 0.2), grid)
    sample = sample_gp(gp, 2000, subseed(303, 0))
    zero = Curve(np.zeros(grid.m), grid)
    params = DepthParams(k=20, seed=subseed(303, 1))
    devs = {}
    for d in ("rt", "mhr"):
        value = evaluate_depth(d, zero, sample, params)
        devs[d] = abs(value - 0.5)
    ok = all(v <= 0.05 for v in devs.values())
    _verdict(
        3,
        ok,
        "centre-curve depth at n=2000 within 0.05 of 1/2: "
        + ", ".join(f"{d}: |dev|={v:.4f}" for d, v in devs.items()),
    )


# ---------------------------------------------------------------------------
# 4. Monte-Carlo upcrossing counts match the closed-form expectation
# ---------------------------------------------------------------------------


def test_criterion_4_rice_formula_monte_carlo():
    diag = rice_mc_diagnostic(AuditConfig(), 404)  # 5000 paths, sigma^2=1, l=0.1, m=1001
    ok = diag["relative_error"] <= 0.05
    _verdict(
        4,
        ok,
        f"expected upcrossings {diag['expected']:.4f} vs observed "
        f"{diag['observed']:.4f}: relative error "
        f"{diag['relative_error']:.5f} (limit 0.05)",
    )


# ---------------------------------------------------------------------------
# 5. Optimized band depths equal exhaustive enumeration exactly
# ---------------------------------------------------------------------------


def test_criterion_5_brute_force_oracle_equivalence():
    rng = np.random.default_rng(505)
    t0 = time.perf_counter()
    n_checks = 0
    exact = True
    for case in range(50):
        n = int(rng.integers(3, 13))
        m = int(rng.integers(4, 19))
        g = uniform_grid(0.0, 1.0, m)
        if case % 2 == 0:
            values = rng.normal(size=(n, m))
        else:  # lattice values make pointwise ties common
            values = rng.integers(-8, 9, size=(n, m)) / 4.0
        s = FunctionalSample(values, g)
        queries = [Curve(rng.normal(size=m), g), Curve(s.values[int(rng.integers(0, n))], g)]
        J = int(rng.integers(2, 4))
        for x in queries:
            exact &= (
                evaluate_depth("bd", x, s, DepthParams(J=J))
                == band_depth_brute(x, s, J)
            )
            exact &= (
                evaluate_depth("mbd", x, s, DepthParams(J=J))
                == modified_band_depth_brute(x, s, J)
            )
            n_checks += 2
    elapsed = time.perf_counter() - t0
    ok = exact and elapsed < 10.0
    _verdict(
        5,
        ok,
        f"optimized vs exhaustive band depths on 50 random datasets "
        f"(n<=12): {n_checks} exact comparisons, equal={exact}, "
        f"{elapsed:.2f}s (limit 10s)",
    )


# ---------------------------------------------------------------------------
# 6. Contamination robustness: bounded depth change and stable deepest curve
# ---------------------------------------------------------------------------


def test_criterion_6_contamination_robustness():
    grid = uniform_grid(0.0, 1.0, 101)
    gp = GPSpec(Kernel("se", 1.0, 0.2), grid)
    outlier = constant_distribution(50.0, grid)
    zero = Curve(np.zeros(grid.m), grid)
    eps_levels = (0.01, 0.05)
    reps = 20
    params = DepthParams()
    details = []
    ok = True
    for d in ("h", "mhr"):
        deltas = {e: [] for e in eps_levels}
        same = {e: 0 for e in eps_levels}
        for r in range(reps):
            seed = subseed(606, r)
            base = mix(ContaminationSpec(gp, outlier, 0.0), 2000, seed)
            vb = depth_values(d, base.values, base, params)
            db = evaluate_depth(d, zero, base, params)
            for e in eps_levels:
                cont = mix(ContaminationSpec(gp, outlier, e), 2000, seed)
                va = depth_values(d, base.values, cont, params)
                da = evaluate_depth(d, zero, cont, params)
                deltas[e].append(abs(da - db))
                same[e] += int(np.argmax(vb) == np.argmax(va))
        c_fit = 0.0
        for e in eps_levels:
            arr = np.asarray(deltas[e])
            med = float(np.median(arr))
            se = float(np.sqrt(np.pi / 2.0) * arr.std(ddof=1) / np.sqrt(arr.size))
            c_fit = max(c_fit, max(0.0, med - 3.0 * se) / e)
        identity_ok = all(same[e] >= reps - 1 for e in eps_levels)
        ok = ok and c_fit <= 2.0 and identity_ok
        details.append(
            f"{d}: C={c_fit:.3f} (limit 2), deepest identity "
            + "/".join(f"{same[e]}@eps={e:g}" for e in eps_levels)
            + f" of {reps} (need >= {reps - 1})"
        )
    _verdict(6, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 7. Partial observability: small and monotone depth deviations
# ---------------------------------------------------------------------------


def test_criterion_7_sparse_depth_stability():
    grid = uniform_grid(0.0, 1.0, 101)
    full = sample_gp(GPSpec(Kernel("se", 1.0, 0.2), grid), 200, subseed(707, 0))
    seeds = [subseed(707, 1, i) for i in range(5)]
    rates = (0.1, 0.3, 0.5, 1.0)
    details = []
    ok = True
    for d in ("mhr", "mbd"):
        meds = [
            depth_stability(d, full, rate, 0.0, seeds).median_dev for rate in rates
        ]
        at_half = meds[rates.index(0.5)]
        monotone = all(meds[i + 1] <= meds[i] for i in range(len(meds) - 1))
        ok = ok and at_half <= 0.02 and monotone
        details.append(
            f"{d}: median dev at rate 0.5 = {at_half:.5f} (limit 0.02), "
            f"medians along {rates} = "
            + "/".join(f"{v:.5f}" for v in meds)
            + f", monotone={monotone}"
        )
    _verdict(7, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 8. Every module invariant runs as a 1000-case property test
# ---------------------------------------------------------------------------

_FUZZ_MODULES = (
    "test_core",
    "test_distributions",
    "test_depths",
    "test_envelope",
    "test_reconstruct",
    "test_properties",
    "test_cli",
)


def test_criterion_8_invariant_property_suites():
    inventory = []
    for name in _FUZZ_MODULES:
        module = importlib.import_module(name)
        fns = [
            getattr(module, attr)
            for attr in dir(module)
            if attr.startswith("test_fuzz_")
        ]
        assert fns, f"{name} has no property tests"
        for fn in fns:
            examples = fn._hypothesis_internal_use_settings.max_examples
            assert examples >= 1000, f"{name}.{fn.__name__}: {examples} < 1000"
            inventory.append(f"{name}.{fn.__name__}")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "-p",
            "no:cacheprovider",
            "-k",
            "test_fuzz",
            "tests",
        ],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=1800,
    )
    ran_all = f"{len(inventory)} passed" in proc.stdout
    ok = proc.returncode == 0 and ran_all
    _verdict(
        8,
        ok,
        f"{len(inventory)} invariant property tests at >=1000 cases each; "
        f"dedicated run exit={proc.returncode}, all passed={ran_all}"
        + ("" if ok else f"; tail: {proc.stdout[-400:]}"),
    )
