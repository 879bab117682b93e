"""Command-line interface.

Subcommands: depth, rank, trim, outliers, audit, simulate-gp, reconstruct.
Global flags (before the subcommand): --seed, --threads, --format.

Exit codes are a stable contract: 0 success, 2 input error (unreadable or
malformed files, unwritable output paths), 3 parameter error (invalid
depth id, bandwidth, ...), 4 audit mismatch or under-powered audit cells.

``--threads`` must take effect before the numeric libraries initialize
their thread pools, so everything that imports numpy is imported lazily
inside the command handlers.  ``audit`` and ``simulate-gp`` run one BLAS
thread unless ``--threads`` is given.  The flag also caps the threads
that the h and mhr kernels split a batch over, and the forked workers
that parse a large CSV file in spans of whole lines.  The kernels use
only the CPUs that BLAS leaves free, so with no ``*_NUM_THREADS`` value
set (BLAS on every CPU) they stay on one thread.  The CSV split needs
``fork`` (POSIX); without it, under ``--threads 1`` or when a span fails,
the file is read in one process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Subcommands whose output bytes depend on the BLAS thread count (a
#: multi-threaded product rounds differently).  They run one thread unless
#: ``--threads`` is given, so inherited thread settings leave their files
#: unchanged.
_PINNED_COMMANDS = ("audit", "simulate-gp")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PARAMS = 3
EXIT_AUDIT = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvedepth",
        description="Depth statistics for grid-discretized curves.",
    )
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="cap BLAS/OpenMP thread pools (set before numpy loads; "
        "overrides inherited *_NUM_THREADS values; audit and simulate-gp "
        "default to 1), the depth kernels' own threads and the CSV "
        "reader's worker processes",
    )
    parser.add_argument(
        "--format",
        choices=("json", "csv", "md"),
        default="json",
        help="stdout format for tabular results",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_depth_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("input_csv", help="curves CSV: grid row, then one row per curve")
        p.add_argument("depth_id", help="one of h, rt, bd, mbd, hr, mhr")
        p.add_argument("--h", type=float, default=1.0, help="kernel bandwidth (h)")
        p.add_argument("--J", type=int, default=2, help="maximal band order (bd/mbd)")
        p.add_argument("--k", type=int, default=20, help="projection directions (rt)")

    p = sub.add_parser("depth", help="depth of query curves w.r.t. a sample")
    add_depth_args(p)
    p.add_argument(
        "--query",
        default="self",
        help="'self' evaluates each curve against the full sample, itself "
        "included (the sample formulas do not exclude the evaluated "
        "curve); otherwise a path to a CSV of query curves",
    )

    p = sub.add_parser("rank", help="centre-outward ranks (1 = deepest)")
    add_depth_args(p)

    p = sub.add_parser("trim", help="drop the floor(alpha*n) lowest-depth curves")
    add_depth_args(p)
    p.add_argument("--alpha", type=float, default=0.0, help="trim fraction in [0, 1)")
    p.add_argument("--out", default=None, help="write retained curves CSV here")

    p = sub.add_parser("outliers", help="flag curves of unusually low depth")
    add_depth_args(p)
    p.add_argument(
        "--q",
        type=float,
        default=0.1,
        help="flag curves with depth <= the q-quantile of sample depths "
        "(inclusive, so minimum-depth ties are all flagged)",
    )

    p = sub.add_parser("audit", help="run the 6x6 property audit")
    p.add_argument("--config", default=None, help="JSON file overriding audit defaults")
    p.add_argument("--out-dir", default=".", help="directory for audit.json / audit.md")

    p = sub.add_parser("simulate-gp", help="draw Gaussian-process sample paths")
    p.add_argument("out_csv", help="output CSV path")
    p.add_argument("--n", type=int, default=10, help="number of paths")
    p.add_argument("--spec", default=None, help="JSON file with a process spec")
    p.add_argument("--kernel-type", choices=("se", "cosine"), default="se")
    p.add_argument("--variance", type=float, default=1.0)
    p.add_argument("--length-scale", type=float, default=0.2)
    p.add_argument("--m", type=int, default=101, help="grid points")
    p.add_argument("--a", type=float, default=0.0, help="domain start")
    p.add_argument("--b", type=float, default=1.0, help="domain end")

    p = sub.add_parser(
        "reconstruct", help="fill sparse curves (NaN = unobserved) by interpolation"
    )
    p.add_argument("input_csv", help="sparse curves CSV (NaN cells allowed)")
    p.add_argument("out_csv", help="output CSV of reconstructed curves")

    return parser


# ---------------------------------------------------------------------------
# Shared helpers (import numpy lazily -- see module docstring)
# ---------------------------------------------------------------------------


def _load_sample(path: str):
    from curvedepth.core import FunctionalSample, read_curves_csv

    grid, values = read_curves_csv(path)
    return FunctionalSample(values, grid)


def _depth_params(args):
    from curvedepth.depths import DepthParams

    return DepthParams(h=args.h, J=args.J, k=args.k, seed=args.seed)


def _sample_depths(args, sample):
    """Depth of each sample curve w.r.t. the whole sample (self included)."""
    from curvedepth.depths import depth_values

    params = _depth_params(args)
    return depth_values(args.depth_id, sample.values, sample, params)


def _ranks_from_values(values):
    """Centre-outward ranks: 1 = deepest, ties broken by curve index."""
    import numpy as np

    order = np.lexsort((np.arange(values.size), -values))
    ranks = np.empty(values.size, dtype=int)
    ranks[order] = np.arange(1, values.size + 1)
    return ranks, int(order[0])


def _emit(args, payload: dict, csv_rows, md_lines) -> None:
    """Write one result to stdout in the requested format; the JSON form
    is the payload under the ``schema``/``command`` envelope."""
    from curvedepth.core import _json_text

    if args.format == "json":
        print(_json_text({"schema": 1, "command": args.command, **payload}))
    elif args.format == "csv":
        for row in csv_rows:
            print(",".join(row))
    else:
        print("\n".join(md_lines))


def _read_json(path: str):
    from curvedepth.core import InputError

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from exc


def _load_audit_config(path: str | None, seed: int):
    """The AuditConfig of ``audit --config``: defaults when ``path`` is None,
    else the JSON object at ``path`` over the defaults, with ``seed`` unless
    the file sets one.  Raises InputError for an unreadable file or a
    malformed config, ParameterError for out-of-range values."""
    from curvedepth.core import InputError
    from curvedepth.properties import AuditConfig

    if path is None:
        return AuditConfig(seed=seed)
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise InputError(f"{path}: audit config must be a JSON object")
    obj.setdefault("seed", seed)
    return AuditConfig.from_json(obj)


def _fmt(v: float) -> str:
    from curvedepth.core import _FMT  # the CSV writer's float64 round-trip format

    return _FMT % v


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def _cmd_depth(args) -> int:
    from curvedepth.core import read_curves_csv, InputError
    from curvedepth.depths import depth_values

    sample = _load_sample(args.input_csv)
    queries = sample.values
    if args.query != "self":
        qgrid, queries = read_curves_csv(args.query)
        if qgrid != sample.grid:
            raise InputError("query CSV grid differs from the sample grid")
    params = _depth_params(args)
    values = depth_values(args.depth_id, queries, sample, params)
    payload = {
        "depth": args.depth_id,
        "n": sample.n,
        "query": args.query,
        "params": params,
        "values": values,
    }
    csv_rows = [("index", "value")] + [(str(i), _fmt(v)) for i, v in enumerate(values)]
    md = ["| index | depth |", "|---|---|"] + [
        f"| {i} | {_fmt(v)} |" for i, v in enumerate(values)
    ]
    _emit(args, payload, csv_rows, md)
    return EXIT_OK


def _cmd_rank(args) -> int:
    sample = _load_sample(args.input_csv)
    values = _sample_depths(args, sample)
    ranks, deepest = _ranks_from_values(values)
    payload = {
        "depth": args.depth_id,
        "n": sample.n,
        "values": values,
        "ranks": ranks,
        "deepest": deepest,
    }
    csv_rows = [("index", "value", "rank")] + [
        (str(i), _fmt(v), str(int(r))) for i, (v, r) in enumerate(zip(values, ranks))
    ]
    md = ["| index | depth | rank |", "|---|---|---|"] + [
        f"| {i} | {_fmt(v)} | {int(r)} |"
        for i, (v, r) in enumerate(zip(values, ranks))
    ]
    _emit(args, payload, csv_rows, md)
    return EXIT_OK


def _cmd_trim(args) -> int:
    import numpy as np

    from curvedepth.core import ParameterError, write_curves_csv

    if not 0.0 <= args.alpha < 1.0:
        raise ParameterError(f"alpha must be in [0, 1), got {args.alpha}")
    sample = _load_sample(args.input_csv)
    values = _sample_depths(args, sample)
    n_drop = int(args.alpha * sample.n)
    order = np.lexsort((np.arange(sample.n), values))  # lowest depth first
    dropped = sorted(int(i) for i in order[:n_drop])
    retained = sorted(int(i) for i in order[n_drop:])
    kept = sample.values[retained]
    mean = kept.mean(axis=0)
    if args.out is not None:
        write_curves_csv(args.out, sample.grid, kept)
    payload = {
        "depth": args.depth_id,
        "alpha": args.alpha,
        "n": sample.n,
        "n_dropped": n_drop,
        "dropped": dropped,
        "retained": retained,
        "mean": mean,
        "out": args.out,
    }
    csv_rows = [("grid",) + tuple(_fmt(p) for p in sample.grid.points)] + [
        ("mean",) + tuple(_fmt(v) for v in mean)
    ]
    md = [
        f"Dropped {n_drop} of {sample.n} curves: {dropped}",
        "",
        "Retained indices: " + ", ".join(str(i) for i in retained),
    ]
    _emit(args, payload, csv_rows, md)
    return EXIT_OK


def _cmd_outliers(args) -> int:
    import numpy as np

    from curvedepth.core import ParameterError

    if not 0.0 < args.q < 1.0:
        raise ParameterError(f"q must be in (0, 1), got {args.q}")
    sample = _load_sample(args.input_csv)
    values = _sample_depths(args, sample)
    threshold = float(np.quantile(values, args.q))
    flagged = [int(i) for i in np.flatnonzero(values <= threshold)]
    flagged_set = set(flagged)
    payload = {
        "depth": args.depth_id,
        "q": args.q,
        "threshold": threshold,
        "values": values,
        "flagged": flagged,
    }
    csv_rows = [("index", "value", "flagged")] + [
        (str(i), _fmt(v), str(int(i in flagged_set))) for i, v in enumerate(values)
    ]
    md = [f"Depth threshold (q={args.q:g} quantile): {threshold:g}", ""] + [
        f"- curve {i}: depth {_fmt(values[i])}" for i in flagged
    ]
    _emit(args, payload, csv_rows, md)
    return EXIT_OK


def _audit_exit_code(report) -> tuple[int, list[str]]:
    """0 iff the matrix matches the embedded expected pattern and every
    cell had enough power to decide; 4 otherwise, with diagnostics."""
    from curvedepth.properties import GOLDEN

    under_powered = report.inapplicable_cells()
    if under_powered:
        cells = ", ".join(
            f"{c['depth']}/{c['property']}" for c in under_powered
        )
        return EXIT_AUDIT, [f"under-powered cells (inapplicable): {cells}"]
    mismatches = report.mismatches(GOLDEN)
    if mismatches:
        return EXIT_AUDIT, [
            f"mismatch {rec['depth']}/{rec['property']}: "
            f"got {rec['got']}, expected {rec['want']}"
            for rec in mismatches
        ]
    return EXIT_OK, []


def _cmd_audit(args) -> int:
    from curvedepth.core import InputError, _json_text
    from curvedepth.properties import run_full_audit

    config = _load_audit_config(args.config, args.seed)
    # create the output directory first, so a bad path fails before the run
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create {args.out_dir}: {exc}") from exc
    report = run_full_audit(config)
    json_path = os.path.join(args.out_dir, "audit.json")
    md_path = os.path.join(args.out_dir, "audit.md")
    try:
        with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_json_text(report.to_json()) + "\n")
        with open(md_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report.to_markdown())
    except OSError as exc:
        raise InputError(f"cannot write to {args.out_dir}: {exc}") from exc

    print(report.to_markdown())
    code, messages = _audit_exit_code(report)
    for msg in messages:
        print(msg, file=sys.stderr)
    return code


def _cmd_simulate_gp(args) -> int:
    from curvedepth.core import uniform_grid, write_curves_csv
    from curvedepth.distributions import (
        GPSpec,
        Kernel,
        _check_gp_budget,
        gpspec_from_json,
        sample_gp,
    )

    _check_gp_budget(args.n, args.m)  # before uniform_grid allocates m points
    if args.spec is not None:
        grid = uniform_grid(args.a, args.b, args.m)
        spec = gpspec_from_json(_read_json(args.spec), grid)
    else:
        kernel = Kernel(args.kernel_type, args.variance, args.length_scale)
        spec = GPSpec(kernel, uniform_grid(args.a, args.b, args.m))
    sample = sample_gp(spec, args.n, args.seed)
    write_curves_csv(args.out_csv, sample.grid, sample.values)
    payload = {
        "n": args.n,
        "m": spec.grid.m,
        "seed": args.seed,
        "out": args.out_csv,
    }
    _emit(args, payload, [("out", args.out_csv)], [f"Wrote {args.out_csv}"])
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    import numpy as np

    from curvedepth.core import read_curves_csv, write_curves_csv
    from curvedepth.reconstruct import reconstruct_linear

    grid, values = read_curves_csv(args.input_csv, allow_nan=True)
    full = reconstruct_linear(values, grid)
    write_curves_csv(args.out_csv, grid, full.values)
    payload = {
        "n": full.n,
        "m": grid.m,
        "observed_fraction": np.mean(~np.isnan(values), axis=1),
        "out": args.out_csv,
    }
    _emit(args, payload, [("out", args.out_csv)], [f"Wrote {args.out_csv}"])
    return EXIT_OK


_HANDLERS = {
    "depth": _cmd_depth,
    "rank": _cmd_rank,
    "trim": _cmd_trim,
    "outliers": _cmd_outliers,
    "audit": _cmd_audit,
    "simulate-gp": _cmd_simulate_gp,
    "reconstruct": _cmd_reconstruct,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # both flags apply to every subcommand, so they are checked once here
    problem = None
    if args.seed < 0:
        problem = f"seeds must be non-negative integers, got {args.seed}"
    elif args.threads is not None and args.threads < 1:
        problem = f"--threads must be >= 1, got {args.threads}"
    if problem is not None:
        print(f"parameter error: {problem}", file=sys.stderr)
        return EXIT_PARAMS
    threads = args.threads
    if threads is None and args.command in _PINNED_COMMANDS:
        threads = 1
    if threads is not None:
        # an explicit flag or a pin overrides values inherited from the environment
        for var in _THREAD_ENV_VARS:
            os.environ[var] = str(threads)
    # imported here so --threads is honored by the BLAS thread pools
    from curvedepth.core import InputError, ParameterError

    if args.threads is not None:
        from curvedepth.core import _cap_kernel_threads

        _cap_kernel_threads(args.threads)

    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (``| head``); point it at devnull so the
        # flush at interpreter exit does not raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMS


if __name__ == "__main__":
    sys.exit(main())
