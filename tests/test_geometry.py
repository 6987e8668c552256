"""Geometry primitives: parsing, triangulation, hulls, predicates, distances."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gen
from rasterquery.errors import (
    DegenerateGeometryError,
    ParseError,
    ProjectionError,
    TriangulationError,
    UnsupportedTypeError,
)
from rasterquery.geometry import (
    Point2,
    PolygonGeom,
    Segment,
    Triangle,
    convex_hull,
    exact_distance,
    exact_intersects,
    parse_wkt,
    point_in_polygon,
    points_in_triangles,
    polygon_from_rings,
    project_4326_to_3857,
    shoelace,
    triangulate,
)

UNIT_TRI = Triangle(Point2(0, 0), Point2(2, 0), Point2(0, 2))


# -- WKT ---------------------------------------------------------------------

def test_parse_point():
    kind, geom = parse_wkt("POINT (1 2)")
    assert kind == "point"
    assert geom == Point2(1.0, 2.0)


def test_parse_polygon_one_ring():
    kind, parts = parse_wkt("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")
    assert kind == "polygon"
    assert len(parts) == 1
    assert len(parts[0].rings) == 1
    assert len(parts[0].rings[0]) == 4
    assert parts[0].area == pytest.approx(16.0)


def test_parse_degenerate_ring_is_parse_error():
    with pytest.raises(ParseError):
        parse_wkt("POLYGON ((0 0, 1 0, 0 0))")


def test_parse_linestring_and_multipolygon():
    kind, segs = parse_wkt("LINESTRING (0 0, 1 0, 1 1)")
    assert kind == "polyline"
    assert len(segs) == 2
    kind, parts = parse_wkt(
        "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), ((5 5, 6 5, 6 6, 5 6, 5 5)))")
    assert kind == "polygon"
    assert len(parts) == 2


def test_parse_errors_carry_offsets_and_types():
    with pytest.raises(ParseError) as exc:
        parse_wkt("POINT (1 x)")
    assert exc.value.offset > 0
    with pytest.raises(UnsupportedTypeError):
        parse_wkt("GEOMETRYCOLLECTION (POINT (1 1))")
    with pytest.raises(ParseError):
        parse_wkt("POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0)")  # missing close paren


# -- Triangulation -----------------------------------------------------------

def test_triangulate_unit_square():
    poly = polygon_from_rings([[(0, 0), (1, 0), (1, 1), (0, 1)]])
    triangles, edge_to_triangle = triangulate(poly.rings)
    assert len(triangles) == 2
    # every boundary edge maps to exactly one incident triangle
    assert sorted(edge_to_triangle) == [(0, 0), (0, 1), (0, 2), (0, 3)]
    for (ri, ei), ti in edge_to_triangle.items():
        ring = poly.rings[ri]
        a, b = ring[ei], ring[(ei + 1) % len(ring)]
        tri = triangles[ti]
        verts = {tuple(v) for v in tri}
        assert tuple(a) in verts and tuple(b) in verts


def test_triangulate_convex_pentagon_fan():
    pts = [(math.cos(a), math.sin(a)) for a in np.linspace(0, 2 * math.pi, 6)[:-1]]
    poly = polygon_from_rings([pts])
    assert len(triangulate(poly.rings)[0]) == 3
    assert poly.area == pytest.approx(abs(shoelace(np.array(pts))))


def test_triangulate_square_with_hole():
    # oracle: shoelace(outer) - shoelace(hole) = 9 - 1 = 8
    poly = polygon_from_rings([[(0, 0), (3, 0), (3, 3), (0, 3)],
                               [(1, 1), (2, 1), (2, 2), (1, 2)]])
    triangles, edge_to_triangle = triangulate(poly.rings)
    assert len(triangles) == 8
    assert poly.area == pytest.approx(8.0, rel=1e-12)
    assert len(edge_to_triangle) == 8


def test_triangulate_self_intersecting_names_ring():
    bowtie = [(0, 0), (2, 2), (2, 0), (0, 2)]
    with pytest.raises(TriangulationError) as exc:
        triangulate([np.array(bowtie, dtype=float)])
    assert exc.value.ring_index == 0


@pytest.mark.parametrize("seed", range(12))
def test_triangulation_area_matches_shoelace(seed):
    r = gen.rng(seed)
    poly = gen.concave_polygon(r, nverts=int(r.integers(6, 16)))
    ring_area = abs(shoelace(poly.rings[0]))
    assert poly.area == pytest.approx(ring_area, rel=1e-9)


def test_orientation_normalized_on_ingest():
    cw = [(0, 0), (0, 1), (1, 1), (1, 0)]  # clockwise input
    poly = polygon_from_rings([cw])
    assert shoelace(poly.rings[0]) > 0  # outer forced CCW


# -- Convex hull --------------------------------------------------------------

def test_hull_of_square_plus_center():
    hull = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)])
    assert len(hull.rings[0]) == 4
    assert hull.area == pytest.approx(1.0)


def test_hull_three_points_is_that_triangle():
    hull = convex_hull([(0, 0), (2, 0), (0, 2)])
    assert hull.area == pytest.approx(2.0)
    assert len(hull.rings[0]) == 3


def test_hull_collinear_raises():
    with pytest.raises(DegenerateGeometryError):
        convex_hull([(0, 0), (1, 1), (2, 2)])


def test_hull_contains_every_input_point():
    r = gen.rng(7)
    ang = r.uniform(0, 2 * np.pi, 1000)
    rad = np.sqrt(r.uniform(0, 1, 1000))
    pts = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    hull = convex_hull(pts)
    hull_vtx = {tuple(v) for v in hull.rings[0]}
    assert hull_vtx <= {tuple(p) for p in pts}
    assert points_in_triangles(pts, triangulate(hull.rings)[0]).all()


# -- Projection ----------------------------------------------------------------

def test_project_origin_and_antimeridian():
    assert project_4326_to_3857((0, 0)) == Point2(0.0, 0.0)
    p = project_4326_to_3857((180, 0))
    # independent evaluation: pi * sphere radius
    assert p.x == pytest.approx(math.pi * 6378137.0, abs=1e-6)
    assert p.x == pytest.approx(20037508.342789244)
    assert p.y == 0.0


def test_project_out_of_range():
    with pytest.raises(ProjectionError):
        project_4326_to_3857((0, 85.06))
    with pytest.raises(ProjectionError):
        project_4326_to_3857((181, 0))


@given(st.floats(-179, 179), st.floats(-84, 84), st.floats(0.001, 1.0), st.floats(0.001, 1.0))
def test_project_strictly_monotone(lon, lat, dlon, dlat):
    p0 = project_4326_to_3857((lon, lat))
    p1 = project_4326_to_3857((min(lon + dlon, 180), min(lat + dlat, 85.0)))
    assert p1.x > p0.x and p1.y > p0.y


# -- exact_intersects -----------------------------------------------------------

def test_point_triangle_interior_and_edge():
    assert exact_intersects(Point2(1, 1), UNIT_TRI)
    assert exact_intersects(Point2(1, 0), UNIT_TRI)  # edge midpoint, closed sets
    assert not exact_intersects(Point2(2, 2), UNIT_TRI)


def test_triangles_sharing_one_vertex():
    t1 = Triangle(Point2(0, 0), Point2(1, 0), Point2(0, 1))
    t2 = Triangle(Point2(1, 0), Point2(2, 0), Point2(1, -1))
    # oracle: separating-axis enumeration over both triangles' edge normals
    def sat_disjoint(ta, tb):
        va = [(ta.v0.x, ta.v0.y), (ta.v1.x, ta.v1.y), (ta.v2.x, ta.v2.y)]
        vb = [(tb.v0.x, tb.v0.y), (tb.v1.x, tb.v1.y), (tb.v2.x, tb.v2.y)]
        for poly, other in ((va, vb), (vb, va)):
            for i in range(3):
                ex = poly[(i + 1) % 3][0] - poly[i][0]
                ey = poly[(i + 1) % 3][1] - poly[i][1]
                nx, ny = -ey, ex
                pa = [nx * x + ny * y for x, y in poly]
                pb = [nx * x + ny * y for x, y in other]
                if max(pa) < min(pb) or max(pb) < min(pa):
                    return True
        return False
    assert not sat_disjoint(t1, t2)
    assert exact_intersects(t1, t2)


@pytest.mark.parametrize("seed", range(20))
def test_exact_intersects_symmetric(seed):
    r = gen.rng(100 + seed)
    prims = []
    for _ in range(6):
        kind = r.integers(0, 3)
        c = r.uniform(0, 4, 6)
        if kind == 0:
            prims.append(Point2(c[0], c[1]))
        elif kind == 1:
            prims.append(Segment(Point2(c[0], c[1]), Point2(c[2], c[3])))
        else:
            try:
                prims.append(Triangle(Point2(c[0], c[1]), Point2(c[2], c[3]), Point2(c[4], c[5])))
            except DegenerateGeometryError:
                pass
    for a in prims:
        for b in prims:
            assert exact_intersects(a, b) == exact_intersects(b, a)


def test_segment_cases():
    s1 = Segment(Point2(0, 0), Point2(2, 2))
    s2 = Segment(Point2(0, 2), Point2(2, 0))
    s3 = Segment(Point2(3, 3), Point2(4, 4))  # collinear with s1, disjoint
    s4 = Segment(Point2(1, 1), Point2(5, 5))  # collinear overlap with s1
    assert exact_intersects(s1, s2)
    assert not exact_intersects(s1, s3)
    assert exact_intersects(s1, s4)
    assert exact_intersects(s1, Segment(Point2(2, 2), Point2(3, 0)))  # endpoint touch


# -- point-in-polygon vs ray casting -------------------------------------------

def _raycast(p, poly: PolygonGeom) -> bool:
    """Independent even-odd ray cast over rings (boundary handled separately)."""
    x, y = p
    inside = False
    for ring in poly.rings:
        n = len(ring)
        for i in range(n):
            x1, y1 = ring[i]
            x2, y2 = ring[(i + 1) % n]
            if (y1 > y) != (y2 > y):
                xc = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
                if x < xc:
                    inside = not inside
    return inside


@pytest.mark.parametrize("seed", range(8))
def test_triangle_cover_equals_raycast(seed):
    r = gen.rng(200 + seed)
    poly = gen.concave_polygon(r, nverts=12)
    pts = r.uniform(0, 1, size=(300, 2))
    from rasterquery.geometry import points_to_segments_distance
    d = points_to_segments_distance(pts, poly.boundary_edges())
    pts = pts[d > 1e-9]  # ray cast is boundary-ambiguous; compare off-boundary
    got = points_in_triangles(pts, triangulate(poly.rings)[0])
    want = np.array([_raycast(p, poly) for p in pts])
    np.testing.assert_array_equal(got, want)


# -- distances -------------------------------------------------------------------

def test_distance_examples():
    assert exact_distance((5, 0), [Segment(Point2(0, 0), Point2(4, 0))]) == 1.0
    assert exact_distance((3, 4), Point2(0, 0)) == 5.0
    sq = polygon_from_rings([[(0, 0), (2, 0), (2, 2), (0, 2)]])
    assert exact_distance((1, 1), sq) == 0.0
    assert exact_distance((-0.5, 1), sq) == 0.5


def test_point_in_polygon_closed_boundary():
    sq = polygon_from_rings([[(0, 0), (2, 0), (2, 2), (0, 2)]])
    assert point_in_polygon((0, 0), sq)
    assert point_in_polygon((1, 0), sq)
    assert not point_in_polygon((2.0000001, 0), sq)
