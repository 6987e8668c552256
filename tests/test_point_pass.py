"""The point pass of ``engine.match_points`` equals a per-point brute-force
reference: closed point-in-polygon on polygon canvases, exact distance
within r on distance canvases."""

import numpy as np
import pytest

import gen
from rasterquery import engine
from rasterquery.geometry import (
    GeometryRecord,
    edge_table,
    point_record,
    points_in_triangles,
    points_to_record_distance,
    triangles_array,
)

RESOLUTIONS = (16, 64, 1024)


def _polygon_layers():
    r = gen.rng(11)
    return {
        "concave": [GeometryRecord(3, "polygon", [gen.concave_polygon(r, nverts=14)])],
        "holed": [GeometryRecord(4, "polygon", [gen.holed_polygon()])],
        "disjoint": gen.disjoint_polygons(r, 4, start_id=20),
    }


def _distance_sources():
    r = gen.rng(12)
    return {
        "point": gen.uniform_points(r, 1, lo=0.3, hi=0.7)[0],
        "polyline": gen.random_polylines(r, 1, nseg=5, step=0.15)[0],
        "polygon": GeometryRecord(0, "polygon", [gen.holed_polygon(radius=0.25)]),
    }


def _probe_points(records, vp, seed) -> np.ndarray:
    """Random points over a box wider than the viewport, every vertex,
    points along every edge, pixel corners, and points off the viewport."""
    r = gen.rng(seed)
    w, h = vp.max_x - vp.min_x, vp.max_y - vp.min_y
    uniform = np.column_stack([r.uniform(vp.min_x - 0.1 * w, vp.max_x + 0.1 * w, 1500),
                               r.uniform(vp.min_y - 0.1 * h, vp.max_y + 0.1 * h, 1500)])
    parts = [uniform]
    for rec in records:
        if rec.kind == "point":
            parts.append([[rec.geometry.x, rec.geometry.y]])
            continue
        edges = edge_table(rec)[0]
        for t in (0.0, 0.25, 0.5, 0.75):
            parts.append(edges[:, :2] + t * (edges[:, 2:] - edges[:, :2]))
        # On the axis lines through each vertex, where triangle bboxes end.
        for dx, dy in ((0.0, 0.3), (0.0, -0.3), (0.3, 0.0), (-0.3, 0.0)):
            parts.append(edges[:, :2] + (dx * vp.sx, dy * vp.sy))
    cols = r.integers(0, vp.width_px + 1, 1500)
    rows = r.integers(0, vp.height_px + 1, 1500)
    parts.append(np.column_stack([vp.min_x + cols * vp.sx, vp.min_y + rows * vp.sy]))
    parts.append([[vp.max_x, vp.max_y], [vp.min_x, vp.min_y],
                  [np.nextafter(vp.max_x, np.inf), vp.min_y + h / 2],
                  [vp.min_x - w, vp.min_y - h], [vp.max_x + 5 * w, vp.max_y]])
    return np.concatenate([np.asarray(p, dtype=float).reshape(-1, 2) for p in parts])


def _inside_reference(members, pts) -> np.ndarray:
    """Per point, the member whose closed triangles hold it, else -1."""
    out = np.full(len(pts), -1, dtype=np.int64)
    for rec in members:
        out[points_in_triangles(pts, triangles_array(rec))] = rec.id
    return out


@pytest.mark.parametrize("res", RESOLUTIONS)
@pytest.mark.parametrize("name", ["concave", "holed", "disjoint"])
def test_polygon_canvas_matches_point_in_polygon(name, res):
    members = _polygon_layers()[name]
    matcher = engine._layer_matcher(members, res)
    assert not matcher.distance
    pts = _probe_points(members, matcher.vp, res)
    got = engine.match_points(matcher, pts)
    np.testing.assert_array_equal(got, _inside_reference(members, pts))


@pytest.mark.parametrize("name", ["concave", "holed", "disjoint"])
def test_polygon_kernel_alone_matches_reference(name):
    """Every point on a boundary pixel, sent straight to the point-in-polygon
    kernel against the pixel's objects, gets the triangle reference's
    answer, points on edges and vertices included."""
    members = _polygon_layers()[name]
    matcher = engine._layer_matcher(members, 64)
    vp, bpf = matcher.vp, matcher.plane.bp_flat
    pts = _probe_points(members, vp, 3)
    pts = pts[vp.in_bounds(pts)]
    cols, rows = vp.pixel_of_points(pts)
    flat = rows * vp.width_px + cols
    pix = np.minimum(np.searchsorted(bpf, flat), len(bpf) - 1)
    on = bpf[pix] == flat
    got = engine._polygon_hits(matcher, pts[on], pix[on])
    np.testing.assert_array_equal(got, _inside_reference(members, pts[on]))


@pytest.mark.parametrize("res", RESOLUTIONS)
@pytest.mark.parametrize("kind", ["point", "polyline", "polygon"])
@pytest.mark.parametrize("radius", [0.1, 0.01])
def test_distance_canvas_matches_exact_distance(kind, res, radius):
    # At res 16, r = 0.01 is below a pixel: boundary pixels then lie inside
    # the polygon source too, and their points need the in-polygon test.
    src = _distance_sources()[kind]
    matcher = engine._distance_matcher([src], [radius], res)
    assert matcher.distance
    pts = _probe_points([src], matcher.vp, res)
    # Keep every probe clear of the radius itself (see gen.CLEARANCE).
    records = [point_record(i, x, y) for i, (x, y) in enumerate(pts)]
    r = gen.clear_distance_fixture(gen.rng(0), src, records, radius)
    matcher = engine._distance_matcher([src], [r], res)
    got = engine.match_points(matcher, pts)
    want = np.where(points_to_record_distance(pts, src) <= r, src.id, -1)
    np.testing.assert_array_equal(got, want)


def test_distance_layer_of_several_sources():
    srcs = [point_record(7 + i, x, y) for i, (x, y) in
            enumerate([(0.2, 0.2), (0.8, 0.2), (0.5, 0.8)])]
    matcher = engine._distance_matcher(srcs, [0.15] * 3, 64)
    pts = _probe_points(srcs, matcher.vp, 5)
    want = np.full(len(pts), -1, dtype=np.int64)
    for s in srcs:
        want[points_to_record_distance(pts, s) <= 0.15] = s.id
    np.testing.assert_array_equal(engine.match_points(matcher, pts), want)


@pytest.mark.parametrize("which", ["disjoint", "distance"])
def test_tiny_key_budget_gives_same_output(which, monkeypatch):
    """A tiny pixel-key budget splits the entry pairs into many chunks,
    some of them splitting one point's pairs."""
    if which == "disjoint":
        members = _polygon_layers()["disjoint"]
        matcher = engine._layer_matcher(members, 64)
    else:
        members = [_distance_sources()["polygon"]]
        matcher = engine._distance_matcher(members, [0.07], 64)
    pts = _probe_points(members, matcher.vp, 9)
    want = engine.match_points(matcher, pts)
    assert (want >= 0).any()
    monkeypatch.setattr(engine, "PIXEL_KEY_BUDGET", 3)
    np.testing.assert_array_equal(engine.match_points(matcher, pts), want)


def test_empty_and_off_canvas_inputs():
    members = _polygon_layers()["concave"]
    matcher = engine._layer_matcher(members, 16)
    assert len(engine.match_points(matcher, np.zeros((0, 2)))) == 0
    far = np.array([[10.0, 10.0], [-3.0, 0.5]])
    np.testing.assert_array_equal(engine.match_points(matcher, far), [-1, -1])

