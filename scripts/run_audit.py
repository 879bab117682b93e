#!/usr/bin/env python3
"""Run the full property audit and diff it against the expected pattern.

Unlike ``curvedepth audit`` (which prints the verdict table and writes
audit.json/audit.md), this script prints an explicit cell-by-cell diff
against the embedded expected pattern together with the headline number
from each cell's evidence — the quickest way to see where a code change
moved the needle.

Usage:
    python3 scripts/run_audit.py [--seed 0] [--config cfg.json] [--out-dir DIR]

Exit codes: 0 all cells match, 1 some cell differs, 2 unreadable or
malformed config, 3 config value out of range.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from curvedepth.cli import EXIT_INPUT, EXIT_PARAMS, load_audit_config
from curvedepth.core import InputError, ParameterError
from curvedepth.depths import DEPTH_IDS
from curvedepth.properties import GOLDEN, PROPERTY_IDS, run_full_audit

# One scalar per cell worth surfacing in the summary, when present.
_HEADLINE_KEYS = (
    "max_abs_diff",   # P-1: exact-invariance residual
    "min_margin",     # P-3: deepest-at-centre margin over runner-up
    "margin",         # P-5: strict-decrease margin under perturbation
    "c_fit",          # P-6: fitted contamination-sensitivity constant
    "endpoint_ratio", # P-6 convergence: last/first median deviation
)


def _headline(evidence: dict) -> str:
    parts = [
        f"{key}={evidence[key]:.3g}"
        for key in _HEADLINE_KEYS
        if isinstance(evidence.get(key), (int, float))
    ]
    return " ".join(parts)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--config", help="JSON file of AuditConfig overrides")
    ap.add_argument("--out-dir", default="audit_out")
    args = ap.parse_args()

    try:
        config = load_audit_config(args.config, args.seed)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMS

    print(f"config: n={config.n} band_n={config.band_n} seed={config.seed}")
    t0 = time.perf_counter()
    report = run_full_audit(config)
    total = time.perf_counter() - t0
    print(f"full audit: {total:.2f}s")
    print()
    print(report.to_markdown())

    print("cell evidence headlines:")
    for d in DEPTH_IDS:
        parts = []
        for p in PROPERTY_IDS:
            h = _headline(report.matrix[d][p].evidence)
            if h:
                parts.append(f"{p} {h}")
        print(f"  {d:>3}: " + "; ".join(parts))

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "audit.json").write_text(
        json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    (out / "audit.md").write_text(report.to_markdown(), encoding="utf-8")
    print(f"wrote {out / 'audit.json'} and {out / 'audit.md'}")

    inapplicable = report.inapplicable_cells()
    if inapplicable:
        print(f"under-powered cells: {inapplicable}")
    mismatches = report.mismatches(GOLDEN)
    if mismatches:
        print("diff vs expected pattern:")
        for rec in mismatches:
            print(
                f"  {rec['depth']}/{rec['property']}: got {rec['got']}, "
                f"expected {rec['want']}"
            )
        return 1
    print("all cells match the expected pattern")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
