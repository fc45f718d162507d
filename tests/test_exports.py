"""Every module's ``__all__`` names only attributes that exist."""

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
