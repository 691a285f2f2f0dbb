"""Every name that the package and its modules export resolves."""
import importlib
import pkgutil

import pytest

import holonoise

# __main__ runs the CLI on import and exports nothing
MODULES = ["holonoise"] + [
    f"holonoise.{info.name}"
    for info in pkgutil.iter_modules(holonoise.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []
