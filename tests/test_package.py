"""The public surface: every exported name resolves to what its module defines."""

import ast
import importlib
import pkgutil
from pathlib import Path

import subsetprune


def test_every_all_entry_resolves():
    for info in pkgutil.iter_modules(subsetprune.__path__):
        module = importlib.import_module(f"subsetprune.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"subsetprune.{info.name}.__all__ lists {name}"


def test_package_reexports_are_in_their_modules_all():
    tree = ast.parse(Path(subsetprune.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"subsetprune.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{alias.name} not in {node.module}.__all__"
            assert getattr(subsetprune, alias.asname or alias.name) is getattr(module, alias.name)
