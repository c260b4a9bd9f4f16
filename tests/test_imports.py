"""Every name a module of the package imports is used in that module, and every
name a module exports resolves."""

import ast
import importlib
from pathlib import Path

import pytest

import mmdufs

MODULES = sorted(p for p in Path(mmdufs.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that nothing else in the module reads.

    A name listed in the module's __all__ counts as read (a re-export).
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_scanner_flags_only_unused_names():
    source = "import os\nimport numpy as np\nfrom a import b, c\n__all__ = ['c']\nnp.zeros(os.sep)\n"
    assert unused_imports(source) == ["b (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_resolve(path):
    """Each __all__ entry exists: tools that wrap exports by name read them with getattr."""
    module = importlib.import_module(f"mmdufs.{path.stem}")
    exported = getattr(module, "__all__", ())  # cli exports nothing
    assert [name for name in exported if not hasattr(module, name)] == []


def test_package_all_names_resolve():
    assert [name for name in mmdufs.__all__ if not hasattr(mmdufs, name)] == []
