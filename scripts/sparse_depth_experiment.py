#!/usr/bin/env python3
"""Depth stability under partial observability and observation noise.

Draws one Gaussian-process sample, then sweeps sparsity rates (the
fraction of grid points kept per curve before linear reinterpolation) and
noise levels, measuring how far depth values computed from the degraded
sample drift from the fully-observed ones.  Prints one markdown table per
depth (rows: sparsity rate, columns: noise sd, entries: median / max
absolute depth deviation over probe curves and seed replicates).

The integral-averaging depths (mbd, mhr) degrade gracefully — this sweep
is the quickest way to see that the sup-form depths (bd, hr) do not.

Usage:
    python3 scripts/sparse_depth_experiment.py [--n 200] [--m 101]
        [--depths mhr mbd hr bd] [--rates 0.1 0.3 0.5 1.0]
        [--noise 0.0 0.1] [--n-seeds 5] [--seed 0] [--out results.csv]
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import astuple, fields
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from curvedepth.core import uniform_grid
from curvedepth.depths import DEPTH_IDS
from curvedepth.distributions import GPSpec, Kernel, sample_gp, subseed
from curvedepth.reconstruct import StabilityRecord, depth_stability


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=200, help="number of curves")
    ap.add_argument("--m", type=int, default=101, help="grid size")
    ap.add_argument("--length-scale", type=float, default=0.2)
    ap.add_argument("--depths", nargs="+", default=["mhr", "mbd", "hr", "bd"],
                    choices=list(DEPTH_IDS))
    ap.add_argument("--rates", nargs="+", type=float,
                    default=[0.1, 0.3, 0.5, 1.0])
    ap.add_argument("--noise", nargs="+", type=float, default=[0.0, 0.1])
    ap.add_argument("--n-seeds", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", help="optional CSV of all records")
    args = ap.parse_args()

    grid = uniform_grid(0.0, 1.0, args.m)
    gp = GPSpec(Kernel("se", 1.0, args.length_scale), grid)
    full = sample_gp(gp, args.n, subseed(args.seed, 0))
    seeds = [subseed(args.seed, 1, i) for i in range(args.n_seeds)]
    print(
        f"sample: n={args.n}, m={args.m}, length scale {args.length_scale}, "
        f"{args.n_seeds} mask/noise replicates"
    )

    records = []
    for d in args.depths:
        print(f"\n### depth {d}\n")
        header = "| rate | " + " | ".join(f"noise {s:g}" for s in args.noise) + " |"
        print(header)
        print("|" + "---|" * (len(args.noise) + 1))
        for rate in args.rates:
            cells = []
            for noise_sd in args.noise:
                rec = depth_stability(d, full, rate, noise_sd, seeds)
                records.append(rec)
                cells.append(f"{rec.median_dev:.4f} / {rec.max_dev:.4f}")
            print(f"| {rate:g} | " + " | ".join(cells) + " |")
    print("\n(entries: median / max absolute depth deviation)")

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(f.name for f in fields(StabilityRecord))
            w.writerows(astuple(rec) for rec in records)
        print(f"wrote {len(records)} records to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
