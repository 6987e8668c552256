"""The exact polygon kernels against independent references.

``points_in_polygons`` (through ``points_in_record`` and the engine's point
pass) is compared with the closed triangle cover of ``triangulate`` and
with the brute-force oracle, on concave and holed polygons and on points
exactly on edges and vertices, on horizontal edges, and level with
vertices (rays through them). ``segments_meet`` and ``segment_distances``
are compared with the scalar predicates ``exact_intersects`` uses.
``polygon_from_rings`` refuses invalid ring sets with typed errors."""

import numpy as np
import pytest

import gen
from rasterquery import engine, oracle
from rasterquery.errors import DegenerateGeometryError, TriangulationError
from rasterquery.geometry import (
    GeometryRecord,
    RecordTable,
    _seg_seg_dist,
    _segments_intersect,
    edge_table,
    line_record,
    point_record,
    points_in_record,
    points_in_triangles,
    polygon_from_rings,
    segment_distances,
    segments_meet,
    triangles_array,
)

RESOLUTIONS = (16, 64, 1024)


def _comb() -> GeometryRecord:
    """Integer coordinates: horizontal edges everywhere, several vertices at
    each height, and a hole with vertices level with the outer ring's."""
    outer = [(0, 0), (8, 0), (8, 6), (6, 6), (6, 2), (5, 2), (5, 6), (3, 6), (3, 2),
             (2, 2), (2, 6), (0, 6)]
    hole = [(6.5, 1), (7.5, 1), (7.5, 3), (7, 4), (6.5, 3)]
    return GeometryRecord(1, "polygon", [polygon_from_rings([outer, hole])])


def _fixtures() -> dict:
    r = gen.rng(31)
    return {
        "comb": _comb(),
        "concave": GeometryRecord(2, "polygon", [gen.concave_polygon(r, nverts=14)]),
        "holed": GeometryRecord(3, "polygon", [gen.holed_polygon()]),
    }


def _probe_points(rec: GeometryRecord, seed: int) -> np.ndarray:
    """Every vertex, points along every edge (midpoints of horizontal edges
    among them), points level with every vertex on both sides and far to
    its left, and random points around the polygon."""
    edges = edge_table(rec)[0]
    a, b = edges[:, :2], edges[:, 2:]
    x0, y0, x1, y1 = rec.bbox()
    w = x1 - x0
    parts = [a, (a + b) / 2, a + 0.25 * (b - a)]
    for dx in (-0.5, -0.03, 0.03, 0.5):
        parts.append(a + [dx * w, 0.0])
    parts.append(np.column_stack([np.full(len(a), x0 - w), a[:, 1]]))
    r = gen.rng(seed)
    parts.append(np.column_stack([r.uniform(x0 - 0.1 * w, x1 + 0.1 * w, 2000),
                                  r.uniform(y0 - 0.1 * w, y1 + 0.1 * w, 2000)]))
    return np.concatenate(parts)


@pytest.mark.parametrize("name", ["comb", "concave", "holed"])
def test_kernel_matches_triangle_cover(name):
    rec = _fixtures()[name]
    pts = _probe_points(rec, 1)
    got = points_in_record(pts, rec)
    np.testing.assert_array_equal(got, points_in_triangles(pts, triangles_array(rec)))
    # Closed: every vertex is inside.
    assert got[:len(edge_table(rec)[0])].all()


def test_kernel_on_the_comb_exactly():
    rec = _fixtures()["comb"]
    inside = [(1, 1), (1, 5), (4, 1), (4, 2), (4, 3), (7, 5), (6.25, 1), (7.75, 3),
              (7, 0.5), (1, 2), (6.25, 3)]
    on_edge = [(4, 0), (2.5, 2), (0, 3), (8, 6), (7, 1), (7.5, 2), (7.25, 3.5), (4, 6),
               (1, 6)]
    outside = [(2.5, 3), (5.5, 4), (7, 2), (7, 3), (-1, 2), (9, 2), (2.5, 6.5), (4, 6.5),
               (5.5, 2.5), (-1, 3)]
    pts = np.array(inside + on_edge + outside, dtype=float)
    want = [True] * (len(inside) + len(on_edge)) + [False] * len(outside)
    assert points_in_record(pts, rec).tolist() == want
    assert len(points_in_record(np.zeros((0, 2)), rec)) == 0


@pytest.mark.parametrize("res", RESOLUTIONS)
@pytest.mark.parametrize("name", ["comb", "concave", "holed"])
def test_point_pass_matches_triangle_cover_and_oracle(name, res):
    rec = _fixtures()[name]
    pts = _probe_points(rec, res)
    matcher = engine._layer_matcher([rec], res)
    got = engine.match_points(matcher, pts)
    want = np.where(points_in_triangles(pts, triangles_array(rec)), rec.id, -1)
    np.testing.assert_array_equal(got, want)
    data = [point_record(i, x, y) for i, (x, y) in enumerate(pts)]
    assert list(engine.select(data, rec, resolution=res).ids) == oracle.oracle_select(data, rec)


@pytest.mark.parametrize("res", RESOLUTIONS)
@pytest.mark.parametrize("kind", ["point", "polyline"])
def test_source_inside_a_polygon_probe(kind, res):
    """A distance source wholly inside an L-shaped polygon probe, farther
    than r from its edges: the pair is at distance 0, both through the
    queries and through the distance canvas's ``exact_pair``."""
    probe = GeometryRecord(9, "polygon", [polygon_from_rings([
        [(0.35, 0.1), (0.9, 0.1), (0.9, 0.9), (0.1, 0.9), (0.1, 0.35), (0.35, 0.35)]])])
    if kind == "point":
        src = point_record(1, 0.5, 0.5)
    else:
        src = line_record(1, [(0.15, 0.5), (0.5, 0.5), (0.5, 0.15)])
    r = 0.02
    assert oracle.oracle_distance_select([probe], src, r) == [9]
    assert list(engine.distance_select([probe], src, r, resolution=res).ids) == [9]
    assert list(engine.distance_join([src], [probe], [r], resolution=res).pairs) == [(1, 9)]
    assert engine._distance_matcher(RecordTable([src]), [r], res).exact_pair(probe, 0)


# ---------------------------------------------------------------------------
# Segment pairs
# ---------------------------------------------------------------------------

def _segment_pairs() -> tuple:
    """Random pairs on a small integer grid (so many touch, overlap or are
    collinear exactly) plus random real pairs."""
    r = gen.rng(41)
    grid = r.integers(0, 4, size=(3000, 8)).astype(float)
    real = r.uniform(0, 1, size=(1000, 8))
    pairs = np.concatenate([grid, real])
    keep = ~(np.all(pairs[:, 0:2] == pairs[:, 2:4], axis=1)
             | np.all(pairs[:, 4:6] == pairs[:, 6:8], axis=1))
    pairs = pairs[keep]
    return pairs[:, :4], pairs[:, 4:]


def test_segments_meet_matches_the_scalar_predicate():
    s, t = _segment_pairs()
    want = [_segments_intersect(*a, *b) for a, b in zip(s.tolist(), t.tolist())]
    got = segments_meet(s, t)
    assert got.tolist() == want
    assert 0 < got.sum() < len(got)


def test_segment_distances_match_the_scalar_distance():
    s, t = _segment_pairs()
    want = [_seg_seg_dist(a, b) for a, b in zip(s.tolist(), t.tolist())]
    np.testing.assert_array_equal(segment_distances(s, t), want)


# ---------------------------------------------------------------------------
# Ring checks
# ---------------------------------------------------------------------------

SQUARE = [(0, 0), (4, 0), (4, 4), (0, 4)]


@pytest.mark.parametrize("rings,ring_index", [
    ([[(0, 0), (2, 2), (2, 0), (0, 2)]], 0),                           # bowtie
    ([[(0, 0), (4, 0), (2, 2), (4, 4), (0, 4), (2, 2)]], 0),           # touches itself at a vertex
    ([SQUARE, [(1, 1), (5, 1), (5, 2), (1, 2)]], 1),                   # hole crosses the outer ring
    ([SQUARE, [(5, 5), (6, 5), (6, 6)]], 1),                           # hole outside
    ([SQUARE, [(1, 1), (3, 1), (3, 3), (1, 3)],
      [(1.5, 1.5), (2.5, 1.5), (2, 2.5)]], 2),                         # hole inside a hole
    ([SQUARE, [(0, 0), (1, 1), (0, 2)]], 1),                           # hole touches the outer ring
], ids=["bowtie", "self-touch", "hole-crosses", "hole-outside", "nested-hole", "hole-touches"])
def test_invalid_rings_are_refused(rings, ring_index):
    with pytest.raises(TriangulationError) as exc:
        polygon_from_rings(rings)
    assert exc.value.ring_index == ring_index


def test_degenerate_rings_are_refused():
    with pytest.raises(DegenerateGeometryError):
        polygon_from_rings([[(0, 0), (1, 1), (2, 2), (0, 0)]])
    with pytest.raises(DegenerateGeometryError):
        polygon_from_rings([[(0, 0), (1, 0), (np.nan, 1)]])
