"""Every name a module of the package imports is used in that module, every
name a module exports resolves, every exported function has a caller, every
tape primitive is recorded by the package, and normal_cdf has one home."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import mmdufs

PACKAGE = sorted(Path(mmdufs.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
PERFBENCH = sorted((Path(__file__).resolve().parent.parent / "perfbench").glob("*.py"))
# Public functions whose only callers are tests: independent references for them.
ORACLES = {"differential_operator_array"}


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


def scipy_imports(source: str) -> list[int]:
    """Lines of the import statements that load scipy or one of its submodules."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_scipy_scanner_finds_nested_imports():
    source = "import os\ndef f():\n    import scipy.linalg.lapack\nfrom scipy import special\n"
    assert scipy_imports(source) == [3, 4]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_scipy_import(path):
    """The package runs on numpy alone; scipy is a test-only reference."""
    assert scipy_imports(path.read_text()) == []


def named_in(source: str) -> set[str]:
    """Names a file's code reads, imports or spells as a (dotted) identifier string.

    The strings count because the benchmark names its spans and generators
    as strings ("trainer.shared_loss", getattr(mm.datagen, "gen_tree")).
    """
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
                names.update(node.value.split("."))
    return names


def test_named_in_reads_code_and_identifier_strings():
    source = 'from a import b\nc.d()\ne = "trainer.f"\n"""g is mentioned here"""\n'
    assert named_in(source) == {"b", "c", "d", "e", "trainer", "f"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_public_functions_have_callers(path):
    """Each function in __all__ is named by another package module or the benchmark."""
    module = importlib.import_module(f"mmdufs.{path.stem}")
    elsewhere = set().union(*(named_in(p.read_text()) for p in MODULES + PERFBENCH if p != path))
    uncalled = [
        name for name in getattr(module, "__all__", ())
        if inspect.isfunction(getattr(module, name)) and name not in elsewhere | ORACLES
    ]
    assert uncalled == []


def method_calls(source: str) -> set[str]:
    """Names called as methods (obj.name(...)) in a file's code, calls on np left out."""
    return {
        node.func.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and not (isinstance(node.func.value, ast.Name) and node.func.value.id == "np")
    }


def test_method_call_scanner_skips_numpy():
    source = "import numpy as np\nnp.exp(x)\ntape.inner(a, tape.gram(b))\nf(x.trace)\n"
    assert method_calls(source) == {"inner", "gram"}


def test_every_primitive_is_recorded_outside_the_tape():
    """A primitive that no other package module records is one the tape need not carry."""
    from mmdufs.tape import PRIMITIVES

    recorded = set().union(*(method_calls(p.read_text()) for p in MODULES if p.name != "tape.py"))
    assert sorted(set(PRIMITIVES) - recorded) == []


def test_normal_cdf_is_defined_in_gates_alone():
    """One standard-normal CDF: the gate's, behind expected_l0."""
    defining = [
        p.name for p in PACKAGE
        if any(isinstance(node, ast.FunctionDef) and node.name == "normal_cdf"
               for node in ast.walk(ast.parse(p.read_text())))
    ]
    assert defining == ["gates.py"]
