"""No query and no set-up path triangulates: with ``geometry.triangulate``
patched to raise, polygons still build, stores still ingest and index, and
every public query family, in memory and out of core, agrees with the
brute-force oracle."""

import numpy as np
import pytest

import gen
from rasterquery import engine, geometry, oracle, storage
from rasterquery.canvas_index import build_layer_index
from rasterquery.config import Config
from rasterquery.geometry import GeometryRecord, Point2, point_record

CFG = Config(resolution=64, byte_budget=1 << 20, cache_factor=1)
R = 0.06


@pytest.fixture
def no_triangles(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("triangulate called")
    monkeypatch.setattr(geometry, "triangulate", forbidden)


def _data():
    r = gen.rng(17)
    points = gen.uniform_points(r, 300, values=True)
    lines = gen.random_polylines(r, 20, start_id=400)
    polys = gen.random_polygons(r, 20, radius_frac=0.08, start_id=500)
    holed = [GeometryRecord(600 + i, "polygon", [gen.holed_polygon(c, 0.12)], 1.0)
             for i, c in enumerate([(0.25, 0.3), (0.7, 0.65)])]
    zones = gen.disjoint_polygons(r, 3, start_id=700) + holed
    for rec in lines + polys:
        rec.value = 1.0
    return points, lines, polys, zones


def test_in_memory_queries(no_triangles):
    points, lines, polys, zones = _data()
    mixed = points + lines + polys
    src = zones[-1]
    for cons in zones[-3:]:
        assert list(engine.select(mixed, cons).ids) == oracle.oracle_select(mixed, cons)
    layers = build_layer_index(zones)
    for d2 in (points, polys):
        got = engine.join(zones, d2, d1_layers=layers)
        assert list(got.pairs) == oracle.oracle_join(zones, d2)
    r = gen.clear_distance_fixture(gen.rng(1), src, points, R)
    assert list(engine.distance_select(mixed, src, r).ids) == \
        oracle.oracle_distance_select(mixed, src, r)
    got = engine.distance_join(zones, mixed, [r] * len(zones))
    assert list(got.pairs) == oracle.oracle_distance_join(zones, mixed, [r] * len(zones))
    p = Point2(0.41, 0.57)
    assert [i for i, _ in engine.knn_select(points, p, 9)] == \
        [i for i, _ in oracle.oracle_knn_select(points, p, 9)]
    left = [point_record(i, x, y) for i, (x, y) in enumerate([(0.2, 0.2), (0.8, 0.5)])]
    assert engine.knn_join(left, points, 4) == oracle.oracle_knn_join(left, points, 4)
    for mode in ("count", "sum"):
        got = engine.aggregate(zones, mixed, mode, layer_index=layers).rows
        want = oracle.oracle_aggregate(zones, mixed, mode)
        assert [row[:2] for row in got] == [row[:2] for row in want]
        if mode == "sum":
            assert [s for *_, s in got] == pytest.approx([s for *_, s in want])


def test_out_of_core_queries(no_triangles, tmp_path):
    points, lines, polys, zones = _data()
    b = gen.random_polygons(gen.rng(18), 20, radius_frac=0.08, start_id=900)
    for name, recs, budget in (("p", points, 768), ("a", polys + zones[-2:], 3072),
                               ("b", b, 3072)):
        storage.build_indexes(storage.ingest(recs, name, tmp_path), byte_budget=budget,
                              config=CFG)
    sp, sa, sb = (storage.DatasetStore(tmp_path, name, CFG) for name in ("p", "a", "b"))
    assert len(sp.grid_index().cells) >= 4
    assert len(sa.grid_index().cells) >= 2 and len(sb.grid_index().cells) >= 2
    cons = zones[-1]
    assert list(storage.ooc_select(sp, cons, config=CFG).ids) == \
        oracle.oracle_select(points, cons)
    a = polys + zones[-2:]
    assert sorted(set(storage.ooc_join(sa, sb, config=CFG).pairs)) == oracle.oracle_join(a, b)
    r = gen.clear_distance_fixture(gen.rng(2), cons, points, R)
    assert list(storage.ooc_distance_select(sp, cons, r, config=CFG).ids) == \
        oracle.oracle_distance_select(points, cons, r)
    got = storage.ooc_distance_join(zones, sp, [r] * len(zones), config=CFG)
    assert sorted(got.pairs) == oracle.oracle_distance_join(zones, points, [r] * len(zones))
    p = Point2(0.63, 0.28)
    got, want = storage.ooc_knn_select(sp, p, 7, config=CFG), oracle.oracle_knn_select(points, p, 7)
    assert [i for i, _ in got] == [i for i, _ in want]
    assert [d for _, d in got] == pytest.approx([d for _, d in want])
    left = [point_record(i, x, y) for i, (x, y) in enumerate([(0.1, 0.9), (0.5, 0.5)])]
    assert storage.ooc_knn_join(left, sp, 3, config=CFG) == \
        oracle.oracle_knn_join(left, points, 3)
    got = storage.ooc_aggregate(zones, sp, "sum", config=CFG).rows
    want = oracle.oracle_aggregate(zones, points, "sum")
    assert [row[:2] for row in got] == [row[:2] for row in want]
    assert np.allclose([s for *_, s in got], [s for *_, s in want])
