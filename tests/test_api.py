import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: The package and every submodule that declares a public surface.
MODULES = [
    "curvedepth",
    "curvedepth.core",
    "curvedepth.depths",
    "curvedepth.distributions",
    "curvedepth.properties",
    "curvedepth.reconstruct",
]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(name)
    public = module.__all__
    assert len(public) == len(set(public)), f"{name}.__all__ lists a name twice"
    missing = [attr for attr in public if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _fresh_python(code: str) -> str:
    env = dict(os.environ)
    paths = [str(SRC), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_leaves_numpy_unloaded():
    # the CLI sets the *_NUM_THREADS variables for --threads; BLAS reads
    # them once, when numpy loads, so importing the CLI must not load it
    code = (
        "import sys, curvedepth.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('numpy', 'curvedepth'))))"
    )
    assert _fresh_python(code) == "['curvedepth', 'curvedepth.cli']"


def test_package_names_load_their_module_on_first_use():
    # a rank or depth run needs depths, never the audit module
    code = (
        "import sys, curvedepth; curvedepth.DepthParams; "
        "print('curvedepth.properties' in sys.modules)"
    )
    assert _fresh_python(code) == "False"


def test_benchmark_trace_targets_resolve(monkeypatch):
    # ``bench/run.py --trace 1`` wraps these module attributes by name, so
    # a rename or deletion in the package must not leave one dangling
    monkeypatch.syspath_prepend(str(SRC.parent / "bench"))
    tracing = importlib.import_module("tracing")
    missing = [
        f"{mod.__name__}.{attr}"
        for modules, attr, *_ in tracing.TARGETS
        for mod in modules
        if not callable(getattr(mod, attr, None))
    ]
    assert not missing, f"trace targets missing from the package: {missing}"
