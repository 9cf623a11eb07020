"""Every name a module exports in ``__all__`` exists.

A stale export (a name kept in ``__all__`` after its definition was removed)
only fails on ``from module import *``; this test fails on it directly.
"""

import importlib
import pkgutil

import pytest

import saddleflow

MODULES = sorted(info.name for info in pkgutil.iter_modules(saddleflow.__path__))


def test_every_module_is_listed():
    assert {"cli", "core", "flows", "transforms"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"saddleflow.{name}")
    exported = getattr(module, "__all__", None)
    assert exported, f"saddleflow.{name} has no __all__"
    assert [n for n in exported if not hasattr(module, n)] == []
