"""Property test of the column block codec: a random mix of points,
polylines of disjoint segments and multi-part polygons with holes, with
missing values and ids up to 2^63 - 1, decodes to the same table a record
list flattens into, rebuilds the same records, gathers any subset of them,
and has the centroids the per-record shoelace formula gives."""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import gen
from rasterquery import engine, geometry, storage
from rasterquery.geometry import (
    GeometryRecord,
    Point2,
    RecordTable,
    Segment,
    edge_table,
    polygon_from_rings,
)

coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
value = st.none() | st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def polyline(draw):
    """1-4 segments, each anywhere: consecutive segments need not meet."""
    segs = []
    for _ in range(draw(st.integers(1, 4))):
        ax, ay = draw(coord), draw(coord)
        dx, dy = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e-3, 50.0)), draw(coord)
        segs.append(Segment(Point2(ax, ay), Point2(ax + dx, ay + dy)))
    return segs


@st.composite
def polygon(draw):
    """1-3 star-shaped parts far apart, each with an optional square hole
    around its centre (inside its minimal edge distance of 0.25)."""
    x0, y0 = draw(coord), draw(coord)
    parts = []
    for p in range(draw(st.integers(1, 3))):
        cx, cy = x0 + 10.0 * p, y0 + draw(st.floats(-1.0, 1.0))
        radii = draw(st.lists(st.floats(0.5, 1.0), min_size=3, max_size=9))
        step = 2 * math.pi / len(radii)
        rings = [[(cx + r * math.cos(k * step), cy + r * math.sin(k * step))
                  for k, r in enumerate(radii)]]
        if draw(st.booleans()):
            h = 0.1
            rings.append([(cx - h, cy - h), (cx + h, cy - h), (cx + h, cy + h), (cx - h, cy + h)])
        parts.append(polygon_from_rings(rings))
    return parts


@st.composite
def dataset(draw):
    """Records of random kinds under distinct ids, up to 2^63 - 1, in id
    order."""
    ids = draw(st.lists(st.integers(0, (1 << 63) - 1), unique=True, max_size=12))
    recs = []
    for rid in sorted(ids):
        kind = draw(st.sampled_from(["point", "polyline", "polygon"]))
        geom = {"point": st.builds(Point2, coord, coord), "polyline": polyline(),
                "polygon": polygon()}[kind]
        recs.append(GeometryRecord(rid, kind, draw(geom), draw(value)))
    return recs


def record_centroid(rec) -> tuple:
    """The per-record centroid ``build_grid_index`` placed polylines and
    polygons by before store format 5: length-weighted segment midpoints,
    or shoelace moments over every ring edge about the first vertex."""
    if rec.kind == "polyline":
        segs = edge_table(rec)[0]
        mids = (segs[:, 0:2] + segs[:, 2:4]) / 2.0
        lens = np.hypot(segs[:, 2] - segs[:, 0], segs[:, 3] - segs[:, 1])
        w = lens / lens.sum()
        return (float(mids[:, 0] @ w), float(mids[:, 1] @ w))
    edges = edge_table(rec)[0]
    e = edges - np.tile(edges[0, :2], 2)
    c = e[:, 0] * e[:, 3] - e[:, 2] * e[:, 1]
    return tuple(float(edges[0, k] + ((e[:, k] + e[:, k + 2]) * c).sum() / (3.0 * c.sum()))
                 for k in (0, 1))


@given(dataset(), st.data())
def test_block_codec_round_trips_to_the_record_table(recs, data):
    others = [rec for rec in recs if rec.kind != "point"]
    block = storage.encode_block(engine.Dataset(recs))
    decoded = storage.decode_block(block)
    want = RecordTable(others)
    got = decoded.probes
    for name in ("ids", "kinds", "values", "start", "part", "edges", "boxes"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    # A dataset's records are its points, then its others, each in id order.
    order = [rec for rec in recs if rec.kind == "point"] + others
    assert len(decoded.records) == len(order)
    for a, b in zip(decoded.records, order):
        gen.assert_same_record(a, b)

    ranks = data.draw(st.lists(st.integers(0, max(len(others) - 1, 0)),
                               max_size=len(others) and 8))
    part = storage.decode_block(block).probes.take(ranks)
    assert not others or "records" not in part.__dict__
    assert len(part.records) == len(ranks)
    for a, k in zip(part.records, ranks):
        gen.assert_same_record(a, others[k])

    if others:
        cents = geometry.table_centroids(want)
        ref = np.array([record_centroid(rec) for rec in others])
        scale = np.maximum(np.abs(ref), np.abs(want.boxes).max(axis=1, keepdims=True))
        assert np.all(np.abs(cents - ref) <= 1e-12 * scale)
