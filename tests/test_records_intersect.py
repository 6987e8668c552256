"""``geometry.records_intersect`` decides candidate record pairs exactly as
``pairwise_intersects`` does, pair by pair, on degenerate contacts as well
as on random shapes; ``geometry.polygon_distances`` gives exactly
``geometry_distance`` per polygon."""

import numpy as np
import pytest

import gen
from rasterquery.geometry import (
    GeometryRecord,
    Point2,
    RecordTable,
    Segment,
    box_record,
    geometry_distance,
    line_record,
    pairwise_intersects,
    point_record,
    polygon_distances,
    polygon_from_rings,
    polygon_record,
    records_intersect,
)


def _holed(rid):
    return polygon_record(rid, [[(0, 0), (4, 0), (4, 4), (0, 4)],
                                [(1, 1), (3, 1), (3, 3), (1, 3)]])


# Each entry: (name, record a, record b).
CONTACTS = [
    ("shared vertex", box_record(1, 0, 0, 1, 1), box_record(2, 1, 1, 2, 2)),
    ("shared edge", box_record(1, 0, 0, 1, 1), box_record(2, 1, 0, 2, 1)),
    ("collinear overlap", box_record(1, 0, 0, 1, 1),
     polygon_record(2, [[(1, 0.2), (1.5, 0.5), (1, 0.8)]])),
    ("collinear, apart", box_record(1, 0, 0, 1, 1), box_record(2, 1, 1.5, 2, 2)),
    ("inside", box_record(1, 0, 0, 1, 1), box_record(2, 0.25, 0.25, 0.75, 0.75)),
    ("inside the hole", _holed(1), box_record(2, 1.5, 1.5, 2.5, 2.5)),
    ("filling the hole", _holed(1), box_record(2, 1, 1, 3, 3)),
    ("around the hole", _holed(1), box_record(2, 0.5, 0.5, 3.5, 3.5)),
    ("multipart, second part inside", polygon_record(1, [
        polygon_from_rings([[(10, 10), (11, 10), (11, 11)]]),
        polygon_from_rings([[(0.4, 0.4), (0.6, 0.4), (0.6, 0.6)]])]),
     box_record(2, 0, 0, 1, 1)),
    ("multipart, parts in the hole", polygon_record(1, [
        polygon_from_rings([[(1.2, 1.2), (1.5, 1.2), (1.5, 1.5)]]),
        polygon_from_rings([[(2.2, 2.2), (2.5, 2.2), (2.5, 2.5)]])]),
     _holed(2)),
    ("apart", box_record(1, 0, 0, 1, 1), box_record(2, 5, 5, 6, 6)),
    ("polyline across", _holed(1), line_record(2, [(-1, 2), (0.5, 2)])),
    ("polyline in the hole", _holed(1), line_record(2, [(1.5, 2), (2.5, 2)])),
    ("disjoint segments, one inside", _holed(1), GeometryRecord(2, "polyline", [
        Segment(Point2(1.5, 1.5), Point2(2.5, 1.5)), Segment(Point2(0.2, 0.2), Point2(0.5, 0.3))])),
    ("point on a vertex", box_record(1, 0, 0, 1, 1), point_record(2, 1, 1)),
    ("point on an edge", box_record(1, 0, 0, 1, 1), point_record(2, 0.5, 0)),
    ("point in the hole", _holed(1), point_record(2, 2, 2)),
    ("point on a segment", line_record(1, [(0, 0), (2, 2)]), point_record(2, 1, 1)),
    ("equal points", point_record(1, 0.5, 0.5), point_record(2, 0.5, 0.5)),
]


def _all_pairs(a, b):
    i, j = np.divmod(np.arange(len(a) * len(b)), len(b))
    return i, j


@pytest.mark.parametrize("name,a,b", CONTACTS, ids=[c[0] for c in CONTACTS])
def test_contacts_match_pairwise_intersects(name, a, b):
    t = RecordTable([a, b])
    got = records_intersect(t, t, *_all_pairs([a, b], [a, b]))
    want = [pairwise_intersects(x, y) for x in (a, b) for y in (a, b)]
    assert got.tolist() == want
    apart = {"collinear, apart", "inside the hole", "multipart, parts in the hole", "apart",
             "polyline in the hole", "point in the hole"}
    assert want[1] == (name not in apart)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_records_match_pairwise_intersects(seed):
    r = gen.rng(seed)
    a = gen.random_polygons(r, 30, radius_frac=0.12) + [_holed(30)]
    a[0] = polygon_record(0, a[0].geometry + a[1].geometry)
    b = (gen.random_polygons(r, 20, radius_frac=0.1, start_id=100)
         + gen.random_polylines(r, 10, start_id=200) + gen.uniform_points(r, 10))
    i, j = _all_pairs(a, b)
    got = records_intersect(RecordTable(a), RecordTable(b), i, j)
    want = [pairwise_intersects(a[p], b[q]) for p, q in zip(i, j)]
    assert got.tolist() == want
    assert 0 < sum(want) < len(want)


def test_candidate_order_and_repeats_do_not_matter():
    a = gen.random_polygons(gen.rng(4), 12, radius_frac=0.2)
    i = np.array([3, 0, 3, 7, 11, 0])
    j = np.array([5, 2, 5, 1, 11, 0])
    t = RecordTable(a)
    got = records_intersect(t, t, i, j)
    assert got.tolist() == [pairwise_intersects(a[p], a[q]) for p, q in zip(i, j)]
    assert records_intersect(t, t, [], []).tolist() == []


def test_polygon_distances_equal_geometry_distance():
    r = gen.rng(7)
    polys = gen.random_polygons(r, 8, radius_frac=0.15) + [_holed(8)]
    sources = ([point_record(0, x, y) for x, y in r.uniform(-0.5, 4.5, (6, 2))]
               + [point_record(0, 2, 2), point_record(0, 0.5, 0.5), point_record(0, 0, 0)]
               + gen.random_polylines(r, 3) + gen.random_polygons(r, 3, radius_frac=0.2)
               + [box_record(0, 1.5, 1.5, 2.5, 2.5), box_record(0, -1, -1, 5, 5)])
    table = RecordTable(polys)
    for src in sources:
        got = polygon_distances(src, table)
        want = [geometry_distance(src, p) for p in polys]
        assert got.tolist() == want
