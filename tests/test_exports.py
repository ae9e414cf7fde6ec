"""Every exported name resolves, in the package and in each of its modules."""

import importlib
import pkgutil

import pytest

import specnorm as sn

MODULES = [sn] + [
    importlib.import_module(f"specnorm.{info.name}") for info in pkgutil.iter_modules(sn.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_name_in_all_resolves(module):
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{module.__name__}.__all__ repeats a name"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
