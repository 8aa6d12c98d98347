import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import aggopt

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(aggopt.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"aggopt.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_are_listed_by_their_modules():
    # every name aggopt/__init__.py re-exports is public API of its module
    tree = ast.parse(Path(aggopt.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"aggopt.{node.module}")
            for alias in node.names:
                assert hasattr(aggopt, alias.name)
                assert alias.name in module.__all__, f"{node.module}.{alias.name}"
