"""Every name a module exports in ``__all__`` exists, and the package has it.

A stale export (a name kept in ``__all__`` after its definition was removed)
only fails on ``from module import *``; this test fails on it directly. The
package re-exports the ``__all__`` of each library module, so a module's
``__all__`` is the one list of its public names.
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


LIBRARY = ("core", "projection", "transforms", "flows", "integrate", "certificates", "problems")


@pytest.mark.parametrize("name", LIBRARY)
def test_package_exposes_every_library_name(name):
    module = importlib.import_module(f"saddleflow.{name}")
    assert [n for n in module.__all__ if getattr(saddleflow, n, None) is not getattr(module, n)] == []
