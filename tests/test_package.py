"""The public surface: every exported name resolves to what its module defines."""

import ast
import importlib
import pkgutil
import re
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


def _referenced_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_export_has_a_caller():
    # a re-export earns its place by a use in the package, the bench or the
    # acceptance gate, or by a mention in README; the other tests do not count
    package = Path(subsetprune.__file__).parent
    root = package.parents[1]
    sources = [path for path in package.glob("*.py") if path.name != "__init__.py"]
    sources += [*(root / "bench").glob("*.py"), root / "tests" / "test_acceptance.py"]
    used = set().union(*map(_referenced_names, sources))
    readme = re.sub(r"```.*?```", "", (root / "README.md").read_text(), flags=re.DOTALL)
    for span in re.findall(r"`([^`]+)`", readme):
        used.update(re.findall(r"\w+", span))
    tree = ast.parse(Path(subsetprune.__file__).read_text())
    exported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}
    assert sorted(exported - used) == []
