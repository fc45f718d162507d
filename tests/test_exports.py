"""Every module's ``__all__`` names exactly its public API: attributes that
exist, and every public function and class the module defines."""

import importlib
import pkgutil

import pytest

import nsflab

MODULES = sorted(m.name for m in pkgutil.iter_modules(nsflab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace: dict = {}
    exec(f"from nsflab.{name} import *", namespace)
    module = getattr(nsflab, name)
    assert set(module.__all__) <= set(namespace)


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_every_public_definition_and_nothing_else(name):
    module = importlib.import_module(f"nsflab.{name}")
    # functions (cached ones too) and classes written in this module
    defined = {attr for attr, obj in vars(module).items()
               if not attr.startswith("_") and callable(obj)
               and getattr(obj, "__module__", None) == module.__name__}
    exported = set(module.__all__)
    assert defined <= exported, f"public but not exported: {sorted(defined - exported)}"
    for attr in exported:
        obj = getattr(module, attr)
        assert not attr.startswith("_"), attr
        # a function or class is exported only where it is written
        if callable(obj):
            assert getattr(obj, "__module__", None) == module.__name__, attr
