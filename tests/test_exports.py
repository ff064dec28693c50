"""The export contract: each module's ``__all__`` lists its public names; the root re-exports them."""

import importlib
import inspect
import pkgutil

import pytest

import mfpart

MODULES = ["mfpart"] + [f"mfpart.{info.name}" for info in pkgutil.iter_modules(mfpart.__path__)]
#: The modules the root re-exports; ``cli`` would load argparse on every import.
LIBRARY = [name for name in MODULES[1:] if name != "mfpart.cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("name", MODULES[1:])
def test_every_public_function_and_class_is_in_all(name):
    module = importlib.import_module(name)
    defined = [
        attr for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == name
    ]
    assert [attr for attr in defined if attr not in module.__all__] == []


def test_root_exports_every_library_list_and_only_those():
    modules = [importlib.import_module(name) for name in LIBRARY]
    listed = [attr for module in modules for attr in module.__all__]
    assert len(LIBRARY) == 7
    assert len(set(listed)) == len(listed)
    assert sorted(mfpart.__all__) == sorted(["__version__"] + listed)
    for module in modules:
        for attr in module.__all__:
            assert getattr(mfpart, attr) is getattr(module, attr), (module.__name__, attr)
