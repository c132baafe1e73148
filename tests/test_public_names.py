"""Every public name the package and its modules export exists."""

import importlib
from pathlib import Path

import pytest

import hfcopula

MODULES = ["cli", "estimators", "experiments", "kernel", "simulate"]


@pytest.mark.parametrize("module", ["hfcopula"] + [f"hfcopula.{m}" for m in MODULES])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_every_module_is_checked():
    found = {p.stem for p in Path(hfcopula.__file__).parent.glob("*.py")}
    assert found - {"__init__", "__main__"} == set(MODULES)


def test_package_exports_union_of_library_modules():
    library = [importlib.import_module(f"hfcopula.{m}") for m in MODULES if m != "cli"]
    union = {name for mod in library for name in mod.__all__}
    assert set(hfcopula.__all__) == union | {"__version__"}
    for name in ("DIAG_REL_TOL", "clock_angle", "sup_difference"):
        assert getattr(hfcopula, name) is getattr(hfcopula.kernel, name)
