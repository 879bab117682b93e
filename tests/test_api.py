import ast
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
    # the CLI sets the *_NUM_THREADS variables to 1; BLAS reads
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


def _loaded_names(tree: ast.AST) -> set:
    """Names read as a variable or an attribute anywhere in ``tree``, except
    inside the function or class that defines the name itself."""
    loaded = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        else:
            name = None
        if name is not None and name not in defining:
            loaded.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(tree, frozenset())
    return loaded


def test_public_names_have_package_callers():
    # every public name is read by the package or its scripts, not only by
    # the tests; a name nothing else uses belongs deleted, not exported
    root = SRC.parent
    paths = sorted((SRC / "curvedepth").glob("*.py")) + sorted((root / "scripts").glob("*.py"))
    loaded = set().union(*(_loaded_names(ast.parse(p.read_text("utf-8"))) for p in paths))
    package = importlib.import_module("curvedepth")
    public = set(package._EXPORTS)
    for name in MODULES[1:]:
        public |= set(importlib.import_module(name).__all__)
    unused = sorted(public - loaded)
    assert not unused, f"public names with no caller outside the tests: {unused}"
