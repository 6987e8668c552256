"""Polygons that ear-clipping triangulation could not build: concave outer
rings with a square and a triangular hole, small polygons far from the
origin (EPSG:3857 metres), and tiny ones. They construct, and select,
join, aggregate and distance_select over them agree with the oracle.

Which ring sets are valid is decided here independently of
``polygon_from_rings``: scalar segment tests over every pair of edges and
an even-odd ray cast for the holes."""

import numpy as np
import pytest

import gen
from rasterquery import engine, oracle
from rasterquery.canvas_index import build_layer_index
from rasterquery.errors import TriangulationError
from rasterquery.geometry import (
    GeometryRecord,
    _segments_intersect,
    box_record,
    edge_table,
    point_record,
    polygon_from_rings,
)

SEEDS = range(200)


def _rings(seed: int, holes: int) -> list:
    """A concave 12-vertex outer ring around (0.5, 0.5) with a square hole
    in its middle and, with ``holes`` = 2, a triangular hole above it."""
    outer = gen.concave_polygon(gen.rng(seed), nverts=12, rmin_frac=0.6).rings[0]
    h, t = 0.05, 0.03
    rings = [outer, [(0.5 - h, 0.5 - h), (0.5 + h, 0.5 - h), (0.5 + h, 0.5 + h),
                     (0.5 - h, 0.5 + h)]]
    if holes == 2:
        y = 0.5 + h + 0.01
        rings.append([(0.5 - t, y), (0.5 + t, y), (0.5, y + t)])
    return rings


def _inside_ring(p, ring) -> bool:
    x, y = p
    inside = False
    for (x1, y1), (x2, y2) in zip(ring, np.roll(ring, -1, axis=0)):
        if (y1 > y) != (y2 > y) and x < x1 + (y - y1) * (x2 - x1) / (y2 - y1):
            inside = not inside
    return inside


def _valid(rings) -> bool:
    """No two edges meet apart from neighbours of one ring at their shared
    vertex, and every hole lies inside the outer ring."""
    rings = [np.asarray(r, dtype=float) for r in rings]
    edges = [(ri, k, (*ring[k], *ring[(k + 1) % len(ring)]))
             for ri, ring in enumerate(rings) for k in range(len(ring))]
    for a, (ri, k, s) in enumerate(edges):
        for rj, m, t in edges[a + 1:]:
            n = len(rings[ri])
            if ri == rj and (m - k) % n in (1, n - 1):
                continue
            if _segments_intersect(*s, *t):
                return False
    return all(_inside_ring(ring[0], rings[0]) for ring in rings[1:])


@pytest.mark.parametrize("holes", [1, 2])
def test_concave_rings_with_holes_build_exactly_when_valid(holes):
    valid = 0
    for seed in SEEDS:
        rings = _rings(seed, holes)
        ok = _valid(rings)
        try:
            polygon_from_rings(rings)
            got = True
        except TriangulationError:
            got = False
        assert got == ok, seed
        valid += ok
    # Nearly all are valid; the few that are not have rings that meet.
    assert valid >= 190


def _moved(rec: GeometryRecord, scale: float, offset: float) -> GeometryRecord:
    return GeometryRecord(rec.id, "polygon", [
        polygon_from_rings([offset + scale * ring for ring in part.rings])
        for part in rec.geometry])


def _cases() -> dict:
    holed = [GeometryRecord(i, "polygon", [polygon_from_rings(_rings(seed, 2))])
             for i, seed in enumerate(s for s in SEEDS if _valid(_rings(s, 2)))][:4]
    far = [_moved(rec, 2000.0, 1e7) for rec in gen.random_polygons(gen.rng(3), 6)]
    tiny = [box_record(0, 0.5, 0.5, 0.5 + 1.25e-4, 0.5 + 1.25e-4)]
    return {"two-holes": holed, "far": far, "tiny": tiny}


def _data(polys, seed):
    """Random points over the polygons' box and the first polygon's
    vertices (all with value 1), and small boxes around twelve of the
    points (value 2)."""
    box = np.array([p.bbox() for p in polys])
    x0, y0 = box[:, 0].min(), box[:, 1].min()
    x1, y1 = box[:, 2].max(), box[:, 3].max()
    w = max(x1 - x0, y1 - y0)
    r = gen.rng(seed)
    xy = np.column_stack([r.uniform(x0 - 0.1 * w, x1 + 0.1 * w, 400),
                          r.uniform(y0 - 0.1 * w, y1 + 0.1 * w, 400)])
    xy = np.concatenate([xy, edge_table(polys[0])[0][:, :2]])
    points = [point_record(1000 + i, x, y, 1.0) for i, (x, y) in enumerate(xy)]
    shapes = []
    for i, (cx, cy) in enumerate(xy[:12]):
        s = 0.03 * w
        shapes.append(box_record(5000 + i, cx - s, cy - s, cx + s, cy + s, 2.0))
    return points, shapes, w


@pytest.mark.parametrize("res", [16, 256])
@pytest.mark.parametrize("name", ["two-holes", "far", "tiny"])
def test_queries_agree_with_oracle(name, res):
    polys = _cases()[name]
    points, shapes, w = _data(polys, res)
    data = points + shapes
    layers = build_layer_index(polys)
    for cons in polys:
        assert list(engine.select(data, cons, resolution=res).ids) == \
            oracle.oracle_select(data, cons)
        r = gen.clear_distance_fixture(gen.rng(0), cons, points, 0.05 * w, extent=w)
        assert list(engine.distance_select(data, cons, r, resolution=res).ids) == \
            oracle.oracle_distance_select(data, cons, r)
    got = engine.join(polys, data, resolution=res, d1_layers=layers)
    assert list(got.pairs) == oracle.oracle_join(polys, data)
    got = engine.aggregate(polys, data, "sum", resolution=res, layer_index=layers)
    want = oracle.oracle_aggregate(polys, data, "sum")
    assert [row[:2] for row in got.rows] == [row[:2] for row in want]
    assert [row[2] for row in got.rows] == pytest.approx([row[2] for row in want])
