"""The names perfbench's tracer wraps still exist, and installing and
removing the tracer leaves every binding as it was.

``perfbench/harness.py`` imports the tracer at load, so a missing class
among its targets fails every benchmark run, and any other missing target
fails ``--trace 1``."""

import importlib.util
import types
from pathlib import Path

import pytest

import gen
from rasterquery import canvas_index, engine, storage
from rasterquery.geometry import box_record, point_record

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


def test_traced_queries_count_through_every_hook(tracer, tmp_path):
    """A few tiny queries under the installed tracer fill the counters its
    hooks keep, so a change that unhooks one fails here and not only in a
    ``--trace 1`` run."""
    r = gen.rng(2)
    data = gen.mixed_dataset(r, 40)
    zones = gen.random_polygons(r, 6, radius_frac=0.2, start_id=100)
    cons = gen.concave_polygon(r, (0.5, 0.5), 0.3)
    storage.build_indexes(storage.ingest(data, "mixed", tmp_path), byte_budget=2048)
    store = storage.DatasetStore(tmp_path, "mixed")
    t = tracer.Tracer()
    t.install()
    try:
        engine.select(data, cons, resolution=64)
        engine.distance_select(data, point_record(0, 0.5, 0.5), 0.1, resolution=64)
        engine.join(zones, [rec for rec in data if rec.kind != "polyline"], resolution=64)
        storage.ooc_select(store, cons, resolution=64)
    finally:
        t.remove()
    spans, counts = t.take()
    for name in ("canvas.canvases", "canvas_index.boundary_entries", "canvas_index.layers",
                 "storage.cell_loads"):
        assert counts[name] > 0, name
    metrics = tracer.layer_metrics(tracer.SpanTable(spans), counts, 1)
    assert metrics["canvas.canvases"] == counts["canvas.canvases"]
    assert metrics["canvas_index.boundary_index_ms"] > 0
    # A two-layer poly-point join classifies every point once per layer
    # canvas, each through the named ``match_points``, though the points'
    # pixel keys are found once over the shared viewport.
    two = [box_record(300, 0.1, 0.1, 0.6, 0.6), box_record(301, 0.4, 0.4, 0.9, 0.9)]
    points = [rec for rec in data if rec.kind == "point"]
    t.install()
    try:
        engine.join(two, points, resolution=64, d1_layers=canvas_index.LayerIndex([[300], [301]]))
    finally:
        t.remove()
    _, counts = t.take()
    assert counts["canvas.canvases"] == 2
    assert counts["engine.points_classified"] == 2 * len(points)
