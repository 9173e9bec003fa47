"""Every name a ``repro`` module exports resolves.

A deletion that leaves a re-export behind only fails when someone imports
the dangling name; this walks every module and package under ``repro`` and
resolves each entry of its ``__all__``.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

MODULES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"


def test_every_package_declares_its_exports():
    packages = [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if info.ispkg
    ]
    assert packages
    undeclared = [name for name in packages if not hasattr(importlib.import_module(name), "__all__")]
    assert not undeclared
