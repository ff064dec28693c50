"""Every exported name resolves, so a removal cannot leave a stale ``__all__`` entry."""

import importlib
import pkgutil

import pytest

import mfpart

MODULES = ["mfpart"] + [f"mfpart.{info.name}" for info in pkgutil.iter_modules(mfpart.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
