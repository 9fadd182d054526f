"""Every skylog module's __all__ names what the module exports, once each."""

import importlib
import pkgutil
from collections import Counter

import pytest

import skylog

MODULES = [skylog, *(importlib.import_module(f"skylog.{info.name}")
                     for info in pkgutil.iter_modules(skylog.__path__))]
EXPORTING = [module for module in MODULES if hasattr(module, "__all__")]


def test_the_modules_that_declare_their_exports():
    # Pinned, so a module that loses its __all__ does not drop out of the check below.
    assert sorted(module.__name__ for module in EXPORTING) == [
        "skylog.collector", "skylog.geo", "skylog.modem", "skylog.netprobe", "skylog.records",
        "skylog.simenv"]


@pytest.mark.parametrize("module", EXPORTING, ids=lambda module: module.__name__)
def test_every_exported_name_resolves_is_public_and_listed_once(module):
    names = module.__all__
    assert all(type(name) is str for name in names)
    assert [name for name in names if not hasattr(module, name)] == []
    assert [name for name in names if name.startswith("_")] == []
    assert [name for name, n in Counter(names).items() if n > 1] == []
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)
