"""Every exported name resolves, in the package and in each of its modules, and
the package exports exactly its library modules' names."""

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


def test_package_exports_exactly_the_library_module_lists():
    library = [m for m in MODULES[1:] if m.__name__ not in ("specnorm.cli", "specnorm._version")]
    union = set().union(*(m.__all__ for m in library))
    assert len(sn.__all__) == len(union) + 1
    assert set(sn.__all__) == {"__version__"} | union
    # helpers the modules share among themselves are not part of the package API
    assert not {"map_ordered", "cell_midpoints", "TIE_TOL", "psd_project_batch",
                "eig_reconstruct"} & union
    for module in library:
        for name in module.__all__:
            assert getattr(sn, name) is getattr(module, name), name
