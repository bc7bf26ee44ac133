import importlib
import pkgutil

import pytest

import psqrnn

MODULES = sorted(info.name for info in pkgutil.iter_modules(psqrnn.__path__))


def test_package_imports():
    assert psqrnn.__version__
    assert "model" in MODULES and "cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"psqrnn.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
