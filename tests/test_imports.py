"""Every name a ``rasterquery`` module imports is used by that module.

A name counts as used when the module reads it anywhere (an ``ast.Name``,
which includes the base of an attribute chain), when the module's
``__all__`` lists it, or when perfbench's tracer wraps it on that module:
the tracer looks such names up on the importing module, so the import is
their only binding there."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rasterquery"
TRACER = ROOT / "perfbench" / "tracer.py"


def _traced_names() -> dict:
    """Module name -> attribute names the tracer's ``TARGETS`` wrap on it."""
    # Loaded by path: perfbench/ on sys.path would shadow the tests' gen.py.
    spec = importlib.util.spec_from_file_location("perfbench_tracer_imports", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    out: dict = {}
    for owner, attr, *_ in tracer.TARGETS:
        if not isinstance(owner, type):
            out.setdefault(owner.__name__, set()).add(attr)
    return out


def _imported(tree) -> dict:
    """Bound name -> line of every import, at any depth."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _read_names(tree) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _all_names(tree) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


MODULES = sorted(PACKAGE.glob("*.py"))


@pytest.fixture(scope="module")
def traced():
    return _traced_names()


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path, traced):
    tree = ast.parse(path.read_text(), filename=str(path))
    keep = _read_names(tree) | _all_names(tree) | traced.get(f"rasterquery.{path.stem}", set())
    unused = sorted(f"{name} (line {line})" for name, line in _imported(tree).items()
                    if name not in keep)
    assert unused == []


def test_guard_catches_an_unused_import():
    tree = ast.parse("import os\nfrom math import hypot, pi\nprint(pi)\n")
    used = _read_names(tree) | _all_names(tree)
    assert sorted(set(_imported(tree)) - used) == ["hypot", "os"]
