"""Every name a jetfact module exports resolves."""

import importlib
import pkgutil

import pytest

import jetfact

MODULES = ["jetfact"] + [
    f"jetfact.{info.name}" for info in pkgutil.iter_modules(jetfact.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
