"""The names perfbench's tracer wraps still exist, and installing and
removing the tracer leaves every binding as it was.

``perfbench/harness.py`` imports the tracer at load, so a missing class
among its targets fails every benchmark run, and any other missing target
fails ``--trace 1``."""

import importlib.util
import types
from pathlib import Path

import pytest

from rasterquery import canvas_index

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    # Loaded by path: perfbench/ on sys.path would shadow the tests' gen.py.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracer) -> dict:
    out = {(owner, attr): owner.__dict__[attr] for owner, attr, *_ in tracer.TARGETS}
    for fn in vars(canvas_index).values():
        if isinstance(fn, types.FunctionType) and fn.__defaults__:
            out[(fn, "__defaults__")] = fn.__defaults__
    return out


def test_every_target_exists(tracer):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in tracer.TARGETS if attr not in owner.__dict__]
    assert missing == []


def test_install_then_remove_restores_every_binding(tracer):
    before = _bindings(tracer)
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = [(owner, attr) for owner, attr, *_ in tracer.TARGETS
                   if owner.__dict__[attr] is not before[(owner, attr)]]
        assert len(wrapped) == len(tracer.TARGETS)
    finally:
        t.remove()
    after = _bindings(tracer)
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
