import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import heisgame

MODULES = sorted(m.name for m in pkgutil.iter_modules(heisgame.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"heisgame.{name}")
    missing = [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)]
    assert missing == []


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(heisgame.__file__).read_text())
    stray = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            mod = importlib.import_module(f"heisgame.{node.module}")
            stray += [f"{node.module}.{a.name}" for a in node.names
                      if a.name not in mod.__all__]
    assert stray == []
