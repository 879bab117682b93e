import importlib

import pytest

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
