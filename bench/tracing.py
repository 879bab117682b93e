"""In-process spans around the calls into each curvedepth module.

``Tracer.install`` replaces public functions on the module objects with
wrappers that record a span (name, start, end, parent span, op id, plus a
few attributes computed from the arguments outside the timed interval).
``properties`` and ``depths`` bind some functions at import time, so those
names are replaced in the importing module's namespace as well (the
envelope functions are only called from ``properties``).  Nothing
in the package's files changes; ``uninstall`` restores every attribute.

``layer_metrics`` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import os
from time import perf_counter

import numpy as np

from curvedepth import cli, core, depths, distributions, properties, reconstruct

from workloads import DEPTHS

#: Audit cell functions and the property each one decides.
CELLS = {
    "audit_P1": "P-1", "audit_P2G": "P-2G", "audit_P3": "P-3",
    "audit_P4": "P-4", "audit_P5": "P-5", "audit_P6": "P-6",
}


def tie_queries(Q: np.ndarray, X: np.ndarray) -> int:
    """Queries that equal some sample curve at one or more grid points."""
    return int(sum(bool((X == q).any()) for q in Q))


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _depth_attrs(batch: bool):
    def attrs(args, kwargs):
        depth = _arg(args, kwargs, 0, "depth")
        q = _arg(args, kwargs, 1, "queries" if batch else "x")
        sample = _arg(args, kwargs, 2, "sample")
        params = _arg(args, kwargs, 3, "params") or depths.DepthParams()
        Q = np.atleast_2d(np.asarray(q, dtype=float)) if batch else q.values[None, :]
        out = {"depth": depth, "queries": int(Q.shape[0]), "J": int(params.J)}
        if depth == "bd":
            out["ties"] = tie_queries(Q, sample.values)
        return out

    return attrs


def _file_mib(args, kwargs):
    return {"mib": os.path.getsize(_arg(args, kwargs, 0, "path")) / 2**20}


def _first_arg_depth(args, kwargs):
    return {"depth": _arg(args, kwargs, 0, "depth_id")}


def _curve_count(args, kwargs):
    return {"curves": len(_arg(args, kwargs, 0, "obs"))}


# (namespaces to patch, attribute, span name, attrs before, attrs after)
TARGETS = [
    ((cli,), "main", "cli.main", None, None),
    ((core,), "read_curves_csv", "core.read_csv", _file_mib, None),
    ((core,), "write_curves_csv", "core.write_csv", None, _file_mib),
    ((distributions, depths, properties), "sample_gp", "distributions.sample_gp", None, None),
    ((distributions, properties), "mix", "distributions.mix", None, None),
    ((depths, properties, reconstruct), "depth_values", "depths.depth_values",
     _depth_attrs(True), None),
    # only the audit's direct calls: depth_values' per-query calls stay inside its span
    ((properties,), "evaluate_depth", "depths.evaluate_depth", _depth_attrs(False), None),
    ((reconstruct,), "reconstruct_linear", "reconstruct.linear", _curve_count, None),
    ((properties,), "envelope_of", "envelope.envelope_of", None, None),
    ((properties,), "find_L_delta", "envelope.find_L_delta", None, None),
    ((properties,), "make_shrink", "envelope.make_shrink", None, None),
    ((properties,), "apply_shrink", "envelope.apply_shrink", None, None),
    ((properties,), "run_full_audit", "properties.run_full_audit", None, None),
    ((properties,), "rice_mc_diagnostic", "properties.rice", None, None),
] + [((properties,), fn, f"properties.{pid}", _first_arg_depth, None) for fn, pid in CELLS.items()]


class Tracer:
    """Collects spans in memory while installed; one op id at a time."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.curves = 0
        self.op: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, before, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "op": self.op,
                    "parent": self._stack[-1] if self._stack else None}
            if before is not None:
                span.update(before(args, kwargs))
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
                if after is not None:
                    span.update(after(args, kwargs))

        return wrapper

    def install(self) -> None:
        for modules, attr, name, before, after in TARGETS:
            for mod in modules:
                fn = getattr(mod, attr)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn, before, after))
        post_init = core.Curve.__post_init__

        def counted(curve):
            self.curves += 1
            post_init(curve)

        self._saved.append((core.Curve, "__post_init__", post_init))
        core.Curve.__post_init__ = counted

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, fn = self._saved.pop()
            setattr(obj, attr, fn)


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict], curves: int) -> dict[str, float]:
    """Per-layer totals; times are inclusive span durations in seconds."""
    m: dict[str, float] = {}
    by_name: dict[str, list[dict]] = {}
    children: dict[int, float] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + _dur(s)

    def total(name, key=None):
        return sum(_dur(s) if key is None else s[key] for s in by_name.get(name, []))

    depth_spans = by_name.get("depths.depth_values", []) + by_name.get("depths.evaluate_depth", [])
    for d in DEPTHS:
        mine = [s for s in depth_spans if s["depth"] == d]
        secs = sum(_dur(s) for s in mine)
        evals = sum(s["queries"] for s in mine)
        m[f"depths.{d}.s"] = secs
        m[f"depths.{d}.evals"] = evals
        m[f"depths.{d}.us_per_eval"] = 1e6 * secs / evals if evals else 0.0
    bd = [s for s in depth_spans if s["depth"] == "bd"]
    m["depths.bd.tie_queries"] = sum(s["ties"] for s in bd)
    m["depths.bd.j3_queries"] = sum(s["queries"] for s in bd if s["J"] >= 3)
    m["depths.evaluate_depth_calls"] = len(by_name.get("depths.evaluate_depth", []))

    m["core.curve_objects"] = curves
    m["core.read_csv_s"] = total("core.read_csv")
    m["core.read_csv_calls"] = len(by_name.get("core.read_csv", []))
    m["core.read_csv_mib"] = total("core.read_csv", "mib")
    m["core.write_csv_s"] = total("core.write_csv")
    m["core.write_csv_mib"] = total("core.write_csv", "mib")

    m["cli.other_s"] = sum(_dur(s) - children.get(s["id"], 0.0) for s in by_name.get("cli.main", []))

    m["distributions.sample_gp_s"] = total("distributions.sample_gp")
    m["distributions.sample_gp_calls"] = len(by_name.get("distributions.sample_gp", []))
    m["distributions.mix_s"] = total("distributions.mix")

    m["reconstruct.linear_s"] = total("reconstruct.linear")
    m["reconstruct.curves"] = total("reconstruct.linear", "curves")

    m["envelope.s"] = sum(total(n) for n in by_name if n.startswith("envelope."))

    cells = 0.0
    for pid in CELLS.values():
        for d in DEPTHS:
            secs = sum(_dur(s) for s in by_name.get(f"properties.{pid}", []) if s["depth"] == d)
            m[f"properties.{pid}.{d}.s"] = secs
            cells += secs
    m["properties.rice_s"] = total("properties.rice")
    # run_full_audit outside the cells and the Rice diagnostic: master
    # sample, the shared P-6 measurements and report assembly
    m["properties.self_s"] = total("properties.run_full_audit") - cells - m["properties.rice_s"]
    return m
