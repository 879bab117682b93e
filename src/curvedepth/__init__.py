"""curvedepth: sample depth functions for grid-discretized curves.

Six depth notions (Gaussian-kernel h-depth, random Tukey depth, band and
modified band depth, half-region and modified half-region depth), a
small library of Gaussian-process and atomic curve distributions, and an
audit harness that checks which desirable depth properties each notion
satisfies on simulated data.

The public names below resolve lazily (PEP 562): ``import curvedepth``
loads no submodule and no numpy, so ``curvedepth.cli`` can set the
``*_NUM_THREADS`` variables before the BLAS thread pools start.
"""

import importlib

#: Public name -> submodule that defines it.
_EXPORTS = {
    "Curve": "core",
    "FunctionalSample": "core",
    "Grid": "core",
    "InputError": "core",
    "ParameterError": "core",
    "uniform_grid": "core",
    "DEPTH_IDS": "depths",
    "DEPTH_LABELS": "depths",
    "DepthParams": "depths",
    "evaluate_depth": "depths",
    "depth_values": "depths",
    "upper_bound": "depths",
    "AtomicDistribution": "distributions",
    "ContaminationSpec": "distributions",
    "GPSpec": "distributions",
    "Kernel": "distributions",
    "mix": "distributions",
    "sample_gp": "distributions",
    "subseed": "distributions",
    "GOLDEN": "properties",
    "PROPERTY_IDS": "properties",
    "AuditConfig": "properties",
    "AuditReport": "properties",
    "RiceSpec": "properties",
    "Verdict": "properties",
    "rice_expected_upcrossings": "properties",
    "run_full_audit": "properties",
}

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
