import importlib
import pkgutil

import pytest

import demerlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(demerlab.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"demerlab.{module}")
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(mod, name)] == []
