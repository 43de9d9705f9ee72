"""Every exported name resolves: a deleted function cannot leave a stale
export behind, which would break `from rigidtori import *`."""

import importlib
import pkgutil

import pytest

import rigidtori

EXPORTING = [name for name in ["rigidtori"] + [
    f"rigidtori.{info.name}" for info in pkgutil.iter_modules(rigidtori.__path__)]
    if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("name", EXPORTING)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []

