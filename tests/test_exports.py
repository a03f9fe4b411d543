import importlib
import pkgutil

import pytest

import champagne

# every module of the package except the entry point, which runs the CLI
MODULES = ["champagne"] + [
    f"champagne.{m.name}" for m in pkgutil.iter_modules(champagne.__path__)
    if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
