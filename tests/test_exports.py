"""Every name that a `pendulum_lab` module exports in its ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import pendulum_lab

MODULES = ["pendulum_lab"] + [f"pendulum_lab.{info.name}"
                              for info in pkgutil.iter_modules(pendulum_lab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
