"""The point pass of ``engine.match_points`` equals a per-point brute-force
reference: closed point-in-polygon on polygon canvases, exact distance
within r on distance canvases, in both directions of its key lookup."""

from functools import cache
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gen
from rasterquery import engine
from rasterquery.canvas import DiscreteCanvas, find_sorted
from rasterquery.errors import InternalInvariantError
from rasterquery.geometry import (
    GeometryRecord,
    RecordTable,
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
    pix, on = find_sorted(vp.pixel_keys(pts), bpf)
    got = engine._polygon_hits(matcher, pts[on], pix[on])
    np.testing.assert_array_equal(got, _inside_reference(members, pts[on]))


@pytest.mark.parametrize("res", RESOLUTIONS)
@pytest.mark.parametrize("kind", ["point", "polyline", "polygon"])
@pytest.mark.parametrize("radius", [0.1, 0.01])
def test_distance_canvas_matches_exact_distance(kind, res, radius):
    # At res 16, r = 0.01 is below a pixel: boundary pixels then lie inside
    # the polygon source too, and their points need the in-polygon test.
    src = _distance_sources()[kind]
    matcher = engine._distance_matcher(RecordTable([src]), [radius], res)
    assert matcher.distance
    pts = _probe_points([src], matcher.vp, res)
    # Keep every probe clear of the radius itself (see gen.CLEARANCE).
    records = [point_record(i, x, y) for i, (x, y) in enumerate(pts)]
    r = gen.clear_distance_fixture(gen.rng(0), src, records, radius)
    matcher = engine._distance_matcher(RecordTable([src]), [r], res)
    got = engine.match_points(matcher, pts)
    want = np.where(points_to_record_distance(pts, src) <= r, src.id, -1)
    np.testing.assert_array_equal(got, want)


def test_distance_layer_of_several_sources():
    srcs = [point_record(7 + i, x, y) for i, (x, y) in
            enumerate([(0.2, 0.2), (0.8, 0.2), (0.5, 0.8)])]
    matcher = engine._distance_matcher(RecordTable(srcs), [0.15] * 3, 64)
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
        matcher = engine._distance_matcher(RecordTable(members), [0.07], 64)
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


# ---------------------------------------------------------------------------
# Both lookup directions against brute force
# ---------------------------------------------------------------------------

LOOKUP_RESOLUTIONS = (16, 37, 64, 256, 1024, 2048)
# A polyline's buffer at this radius covers no whole pixel at any
# resolution above, so its canvas has boundary keys and no interior run.
THIN_R = 1e-5


def _runs_only(matcher):
    """The matcher's canvas with its interior runs alone, no boundary key."""
    plane = DiscreteCanvas(matcher.vp)
    plane.run_start, plane.run_end, plane.run_id = (
        matcher.plane.run_start, matcher.plane.run_end, matcher.plane.run_id)
    return SimpleNamespace(vp=matcher.vp, plane=plane)


def _run_reference(matcher, pts) -> np.ndarray:
    """Per point, the object of the interior run holding its pixel, else -1,
    run by run."""
    vp, plane = matcher.vp, matcher.plane
    out = np.full(len(pts), -1, dtype=np.int64)
    inside = np.flatnonzero(vp.in_bounds(pts))
    keys = vp.pixel_keys(pts[inside])
    for s, e, i in zip(plane.run_start, plane.run_end, plane.run_id):
        out[inside[(keys >= s) & (keys <= e)]] = i
    return out


@cache
def _lookup_canvas(name: str, res: int) -> tuple:
    """(matcher, reference, source, radius), built once per name and
    resolution: a canvas, the brute-force matched id of each point of an
    (N, 2) array, and on a distance canvas its one source and radius."""
    src = radius = None
    if name in ("point", "polyline", "polygon", "thin"):
        src = _distance_sources()["polyline" if name == "thin" else name]
        radius = THIN_R if name == "thin" else 0.07
        matcher = engine._distance_matcher(RecordTable([src]), [radius], res)

        def reference(pts):
            return np.where(points_to_record_distance(pts, src) <= radius, src.id, -1)
    elif name == "runs only":
        matcher = _runs_only(engine._layer_matcher(_polygon_layers()["concave"], res))

        def reference(pts):
            return _run_reference(matcher, pts)
    else:
        members = _polygon_layers()[name]
        matcher = engine._layer_matcher(members, res)

        def reference(pts):
            return _inside_reference(members, pts)
    return matcher, reference, src, radius


def _pixel_points(vp, keys, r, jitter: bool) -> np.ndarray:
    """A point in the pixel of each canvas key on the grid: its centre, or
    anywhere in its square with ``jitter``."""
    keys = keys[(keys >= 0) & (keys < vp.width_px * vp.height_px)]
    col, row = np.divmod(keys, vp.height_px)
    u = r.uniform(0.01, 0.99, (len(keys), 2)) if jitter else np.full((len(keys), 2), 0.5)
    return np.column_stack([vp.min_x + (col + u[:, 0]) * vp.sx,
                            vp.min_y + (row + u[:, 1]) * vp.sy])


def _lookup_points(matcher, seed: int) -> np.ndarray:
    """Points on the first and last key of runs and beside them, on
    boundary keys, many on one run pixel and one boundary pixel, uniform
    over and off the viewport."""
    r, vp, plane = gen.rng(seed), matcher.vp, matcher.plane
    w, h = vp.max_x - vp.min_x, vp.max_y - vp.min_y
    parts = [np.column_stack([r.uniform(vp.min_x - 0.2 * w, vp.max_x + 0.2 * w, 400),
                              r.uniform(vp.min_y - 0.2 * h, vp.max_y + 0.2 * h, 400)])]
    runs = r.permutation(len(plane.run_start))[:150]
    for keys in (plane.run_start[runs], plane.run_end[runs]):
        parts += [_pixel_points(vp, keys + d, r, False) for d in (-1, 0, 1)]
    bpf = plane.bp_flat
    parts.append(_pixel_points(vp, bpf[r.permutation(len(bpf))[:300]], r, True))
    for keys in (plane.run_start, bpf):
        if len(keys):
            parts.append(_pixel_points(vp, np.repeat(keys[r.integers(len(keys))], 64), r, True))
    parts.append([[vp.min_x - w, vp.min_y], [vp.max_x + w, vp.max_y + h],
                  [vp.min_x, vp.max_y], [vp.max_x, vp.min_y]])
    return np.concatenate([np.asarray(p, dtype=float).reshape(-1, 2) for p in parts])


@given(name=st.sampled_from(["concave", "holed", "disjoint", "runs only",
                             "point", "polyline", "polygon", "thin"]),
       res=st.sampled_from(LOOKUP_RESOLUTIONS), seed=st.integers(0, 10_000))
def test_both_lookup_directions_match_brute_force(name, res, seed):
    """A part with more in-viewport points than the canvas has runs plus
    boundary keys looks each run and boundary key up in the point keys;
    a smaller part looks each point key up in the runs and boundary keys.
    Either way every point gets the brute-force answer."""
    matcher, reference, src, radius = _lookup_canvas(name, res)
    plane, vp = matcher.plane, matcher.vp
    if name == "thin":
        assert len(plane.run_start) == 0 < len(plane.bp_flat)
    if name == "runs only":
        assert len(plane.bp_flat) == 0 < len(plane.run_start)
    pts = _lookup_points(matcher, seed)
    if src is not None:
        # Keep every probe clear of the radius itself (see gen.CLEARANCE).
        d = points_to_record_distance(pts, src)
        pts = pts[np.abs(d - radius) >= gen.CLEARANCE]
    want = reference(pts)
    idx, keys = engine._point_keys(vp, pts)
    inside = np.flatnonzero(vp.in_bounds(pts))
    np.testing.assert_array_equal(
        idx, inside[np.argsort(vp.pixel_keys(pts[inside]), kind="stable")])
    np.testing.assert_array_equal(keys, vp.pixel_keys(pts[idx]))
    size = len(plane.run_start) + len(plane.bp_flat)
    with mock.patch.object(engine, "interval_pairs", wraps=engine.interval_pairs) as merge:
        # Parts of at most ``size`` points: the point keys are searched.
        got = np.concatenate([engine.match_points(matcher, pts[lo:lo + size])
                              for lo in range(0, len(pts), size)])
        assert merge.call_count == 0
        np.testing.assert_array_equal(got, want)
        # One part holding every point often enough to outnumber them: the
        # runs and boundary keys are searched.
        reps = size // len(idx) + 1
        got = engine.match_points(matcher, np.tile(pts, (reps, 1)))
        assert merge.call_count == 2
        np.testing.assert_array_equal(got, np.tile(want, reps))


def test_index_bits_budget_at_the_largest_viewport():
    """Point keys pack a pixel key over 32768 x 32768 pixels (30 bits) with
    a point index of at most 32 bits; sizes alone are checked, nothing is
    allocated."""
    hw = 32768 * 32768
    assert engine._index_bits(0, hw) == 0
    assert engine._index_bits(200_000, 1024 * 1024) == 18
    assert engine._index_bits(2**32 - 1, hw) == 32
    with pytest.raises(InternalInvariantError):
        engine._index_bits(2**32, hw)
