"""Distance canvases against a brute-force per-pixel reference, plus oracle
cases for the two mechanisms that settle points and probes inside a polygon
source: the point pass's point-in-polygon kernel and the batched refine's
exact distance (``records_intersect`` within each source's reach).

The reference computes, per shape (a source point, polyline segment or
polygon ring edge), the exact min and max distance from every closed pixel
square of the shape's window to the shape, with the per-feature formulas
the renderer used before it worked per layer. A polygon's interior covers
the pixels whose centre lies in its triangles and that none of its edges
touches."""

import tracemalloc

import numpy as np
import pytest

import gen
from dense import (
    boundary_pairs,
    center_xs,
    center_ys,
    corner_min_max,
    corner_xs,
    corner_ys,
    dense_interior,
    row_major,
    seg_touch_mask,
    window_for_bbox,
)
from rasterquery import engine, oracle
from rasterquery.canvas import NULL_ID
from rasterquery.canvas_index import build_distance_layer_index
from rasterquery.geometry import (
    GeometryRecord,
    RecordTable,
    _point_seg_dist,
    box_record,
    edge_table,
    line_record,
    point_record,
    points_in_triangles,
    polygon_from_rings,
    polygon_record,
    triangles_array,
)

RESOLUTIONS = (16, 64, 1024)


# ---------------------------------------------------------------------------
# Per-pixel reference
# ---------------------------------------------------------------------------

def _point_to_square(px, py, xs0, xs1, ys0, ys1):
    dx = np.maximum(np.maximum(xs0 - px, px - xs1), 0.0)
    dy = np.maximum(np.maximum(ys0 - py, py - ys1), 0.0)
    return np.hypot(dx, dy)


def shape_dminmax(vp, window, seg):
    """Exact per-pixel (min, max) distance from the window's closed pixel
    squares to a closed segment, or to a point when both ends agree."""
    c0, c1, r0, r1 = window
    xs, ys = corner_xs(vp, c0, c1), corner_ys(vp, r0, r1)
    ax, ay, bx, by = seg
    xs0, xs1 = xs[None, :-1], xs[None, 1:]
    ys0, ys1 = ys[:-1, None], ys[1:, None]
    if (ax, ay) == (bx, by):
        corner = np.hypot(xs[None, :] - ax, ys[:, None] - ay)
        return _point_to_square(ax, ay, xs0, xs1, ys0, ys1), corner_min_max(corner)[1]
    corner = _point_seg_dist(xs[None, :], ys[:, None], ax, ay, bx, by)
    cmin, cmax = corner_min_max(corner)
    dmin = np.minimum(cmin, np.minimum(_point_to_square(ax, ay, xs0, xs1, ys0, ys1),
                                       _point_to_square(bx, by, xs0, xs1, ys0, ys1)))
    dmin[seg_touch_mask(vp, window, ax, ay, bx, by)] = 0.0
    return dmin, cmax


def _window_flat(vp, window, mask):
    c0, _, r0, _ = window
    rows, cols = np.nonzero(mask)
    return (rows + r0) * vp.width_px + cols + c0


class Reference:
    """Per source: the pixels its buffer touches (with the entry of each
    touching shape) and the pixels one of its shapes or its polygon
    interior provably covers."""

    def __init__(self, matcher, sources, radii):
        vp, bindex = matcher.vp, matcher.bindex
        self.touch_keys = []        # (flat, ref) of every shape touching a pixel
        self.covered = {}           # source id -> flat pixels it covers
        self.inner = {}             # polygon source id -> its interior's pixels
        self.marked_ok = set()      # pixels some buffer touches or a polygon holds
        for src, r in zip(sources, radii):
            rank = np.searchsorted(bindex.table.ids, src.id)
            start, count = bindex.table.start[rank], np.diff(bindex.table.start)[rank]
            covered = []
            if src.kind == "point":
                p = src.geometry
                segs = [(p.x, p.y, p.x, p.y)]
            else:
                segs = [tuple(e) for e in edge_table(src)[0]]
            assert len(segs) == count
            for ref, seg in zip(range(start, start + count), segs):
                x0, x1 = min(seg[0], seg[2]) - r, max(seg[0], seg[2]) + r
                y0, y1 = min(seg[1], seg[3]) - r, max(seg[1], seg[3]) + r
                window = window_for_bbox(vp, (x0, y0, x1, y1))
                if window is None:
                    continue
                dmin, dmax = shape_dminmax(vp, window, seg)
                flat = _window_flat(vp, window, dmin <= r)
                self.touch_keys.append(np.column_stack([flat, np.full(len(flat), ref)]))
                self.marked_ok.update(flat.tolist())
                covered.append(_window_flat(vp, window, dmax <= r))
            if src.kind == "polygon":
                inner = self.inner[src.id] = self._polygon_interior(vp, src)
                covered.append(inner)
                self.marked_ok.update(inner.tolist())
            self.covered[src.id] = set(np.concatenate(covered).tolist()) if covered else set()

    @staticmethod
    def _polygon_interior(vp, src):
        """Pixels whose centre lies in the polygon's closed triangles and
        that none of its edges touches."""
        window = window_for_bbox(vp, src.bbox())
        c0, c1, r0, r1 = window
        cx, cy = np.meshgrid(center_xs(vp, c0, c1), center_ys(vp, r0, r1))
        inside = points_in_triangles(np.column_stack([cx.ravel(), cy.ravel()]),
                                     triangles_array(src)).reshape(cx.shape)
        for ax, ay, bx, by in edge_table(src)[0]:
            inside &= ~seg_touch_mask(vp, window, ax, ay, bx, by)
        return _window_flat(vp, window, inside)


def check_canvas(matcher, sources, radii):
    ref = Reference(matcher, sources, radii)
    plane = matcher.plane
    iid = dense_interior(plane, matcher.vp)
    # Every interior pixel is fully covered by its owner's buffer, and a
    # polygon's interior pixels belong to it.
    for sid in np.unique(iid[iid != NULL_ID]).tolist():
        flat = np.flatnonzero(iid == sid)
        assert set(flat.tolist()) <= ref.covered[sid], f"source {sid} claims uncovered pixels"
    for sid, inner in ref.inner.items():
        assert np.all(iid[inner] == sid)
    # Every non-interior pixel lists exactly the shapes whose buffer touches it.
    keys = np.concatenate(ref.touch_keys) if ref.touch_keys else np.zeros((0, 2), np.int64)
    keys = keys[iid[keys[:, 0]] == NULL_ID]
    want = sorted(map(tuple, keys.tolist()))
    assert boundary_pairs(plane, matcher.vp) == want
    # No pixel outside every buffer is marked.
    marked = (set(np.flatnonzero(iid != NULL_ID).tolist())
              | set(row_major(matcher.vp, plane.bp_flat).tolist()))
    assert marked <= ref.marked_ok


# ---------------------------------------------------------------------------
# Sources
# ---------------------------------------------------------------------------

def _sources(kind):
    r = gen.rng(21)
    if kind == "point":
        return [gen.uniform_points(r, 1, lo=0.3, hi=0.7)[0]]
    if kind == "polyline":
        return gen.random_polylines(r, 1, nseg=6, step=0.2)
    if kind == "concave":
        return [GeometryRecord(0, "polygon", [gen.concave_polygon(r, nverts=14)])]
    return [GeometryRecord(0, "polygon", [gen.holed_polygon(radius=0.3)])]


def _radius(sources, res, size):
    """A radius below a fifth of a pixel, or a fifth of the sources' extent
    (over 100 pixels at res 1024)."""
    box = np.array([s.bbox() for s in sources])
    extent = max(box[:, 2].max() - box[:, 0].min(), box[:, 3].max() - box[:, 1].min(), 0.1)
    return 0.2 * extent / res if size == "subpixel" else 0.2 * extent


def _moved(rec, scale, offset):
    """The record scaled by ``scale`` about the origin and moved by
    ``offset`` (to EPSG:3857-sized coordinates)."""
    def f(xy):
        return offset + scale * np.asarray(xy, dtype=float)
    if rec.kind == "point":
        return point_record(rec.id, *f((rec.geometry.x, rec.geometry.y)))
    if rec.kind == "polyline":
        segs = rec.geometry
        return line_record(rec.id, f([(segs[0].a.x, segs[0].a.y)] + [(s.b.x, s.b.y) for s in segs]))
    return GeometryRecord(rec.id, "polygon", [polygon_from_rings([f(ring) for ring in part.rings])
                                              for part in rec.geometry])


@pytest.mark.parametrize("res", RESOLUTIONS)
@pytest.mark.parametrize("size", ["subpixel", "wide"])
@pytest.mark.parametrize("kind", ["point", "polyline", "concave", "holed"])
def test_single_source_canvas_matches_reference(kind, size, res):
    sources = _sources(kind)
    radii = [_radius(sources, res, size)]
    check_canvas(engine._distance_matcher(RecordTable(sources), radii, res), sources, radii)


def _layer(seed):
    """The first layer of ``build_distance_layer_index`` over a mixed
    dataset: several disjoint buffers of points, polylines and polygons."""
    sources = gen.mixed_dataset(gen.rng(seed), 24)
    radii = [0.01 + 0.005 * (s.id % 3) for s in sources]
    members = set(build_distance_layer_index(RecordTable(sources), radii).layers[0])
    chosen = [(s, r) for s, r in zip(sources, radii) if s.id in members]
    return [s for s, _ in chosen], [r for _, r in chosen]


@pytest.mark.parametrize("res", RESOLUTIONS)
@pytest.mark.parametrize("seed", [11, 12])
def test_multi_source_layer_matches_reference(seed, res):
    sources, radii = _layer(seed)
    assert len(sources) > 5
    check_canvas(engine._distance_matcher(RecordTable(sources), radii, res), sources, radii)


@pytest.mark.parametrize("res", RESOLUTIONS)
@pytest.mark.parametrize("kind", ["point", "polyline", "holed"])
def test_far_coordinates_match_reference(kind, res):
    # Metres around 1e7, as in EPSG:3857: the unit square becomes 2 km.
    sources = [_moved(s, 2000.0, 1e7) for s in _sources(kind)]
    radii = [_radius(sources, res, "wide")]
    check_canvas(engine._distance_matcher(RecordTable(sources), radii, res), sources, radii)


def test_far_coordinates_layer_matches_reference():
    sources, radii = _layer(13)
    assert {s.kind for s in sources} == {"point", "polyline", "polygon"}
    sources = [_moved(s, 2000.0, 1e7) for s in sources]
    radii = [2000.0 * r for r in radii]
    check_canvas(engine._distance_matcher(RecordTable(sources), radii, 256), sources, radii)


# ---------------------------------------------------------------------------
# Oracle cases
# ---------------------------------------------------------------------------

def _exact_ring_probes(cx, cy, r):
    """Points at exactly distance r from (cx, cy): on the axes and along a
    3-4-5 diagonal (all coordinates exact in binary)."""
    d = [(r, 0.0), (-r, 0.0), (0.0, r), (0.0, -r)]
    d += [(sx * 0.6 * r, sy * 0.8 * r) for sx in (1, -1) for sy in (1, -1)]
    return [(cx + dx, cy + dy) for dx, dy in d]


@pytest.mark.parametrize("res", RESOLUTIONS)
def test_points_at_exactly_distance_r(res):
    r = 0.3125  # 5/16: 0.6 r and 0.8 r are 3/16 and 4/16
    sources = [point_record(0, 0.5, 0.5), line_record(1, [(0.0, 0.5), (1.0, 0.5)]),
               box_record(2, 0.0, 0.0, 1.0, 1.0)]
    probes = {
        0: _exact_ring_probes(0.5, 0.5, r),
        # Beside the middle of the segment and around both ends.
        1: [(0.5, 0.5 + r), (0.5, 0.5 - r)] + _exact_ring_probes(1.0, 0.5, r)[::2]
        + _exact_ring_probes(0.0, 0.5, r)[1::2],
        # Beside each side and around a corner of the box.
        2: [(1.0 + r, 0.5), (-r, 0.5), (0.5, 1.0 + r), (0.5, -r)]
        + [(1.0 + 0.1875, 1.0 + 0.25), (-0.1875, -0.25)],
    }
    for src in sources:
        pts = [point_record(i, x, y) for i, (x, y) in enumerate(probes[src.id])]
        just_out = [point_record(100 + i, x + 1e-12 * np.sign(x - 0.5), y)
                    for i, (x, y) in enumerate(probes[src.id]) if y == 0.5 and x != 0.5]
        data = pts + just_out
        want = oracle.oracle_distance_select(data, src, r)
        assert want == [p.id for p in pts]
        assert list(engine.distance_select(data, src, r, resolution=res).ids) == want


def test_point_inside_polygon_source_on_a_boundary_pixel():
    """A point inside a polygon source, farther than r from its edges, on a
    pixel the bottom edge touches: only the point-in-polygon kernel finds
    it."""
    src = box_record(0, 0.0, 0.0, 1.0, 1.0)
    r = 0.001
    probe = point_record(7, 0.51, 0.004)
    matcher = engine._distance_matcher(RecordTable([src]), [r], 16)
    key = matcher.vp.pixel_keys(np.array([[0.51, 0.004]]))
    assert matcher.plane.interior_of(key)[0] == NULL_ID
    assert oracle.oracle_distance_select([probe], src, r) == [7]
    assert list(engine.distance_select([probe], src, r, resolution=16).ids) == [7]
    join = engine.distance_join([src], [probe], [r], resolution=16)
    assert list(join.pairs) == [(0, 7)]


@pytest.mark.parametrize("res", [16, 64])
def test_subpixel_probes_inside_polygon_source(res):
    """Polygon and polyline probes smaller than a pixel, inside a polygon
    source and farther than r from its edges, on its boundary pixels: their
    pairs reach the batched refine, which must find them inside."""
    src = GeometryRecord(0, "polygon", [gen.holed_polygon(radius=0.4)])
    r, half = 1e-4, 2.5e-4
    probes = []
    for i, (ax, ay, bx, by) in enumerate(edge_table(src)[0]):
        # Centred 1e-3 inside the middle of each edge (the interior lies
        # left of every ring edge), so more than r from every edge.
        mx, my = (ax + bx) / 2, (ay + by) / 2
        nx, ny = -(by - ay), bx - ax
        cx, cy = mx + 1e-3 * nx / np.hypot(nx, ny), my + 1e-3 * ny / np.hypot(nx, ny)
        probes.append(box_record(100 + i, cx - half, cy - half, cx + half, cy + half))
        probes.append(line_record(200 + i, [(cx - half, cy), (cx + half, cy)]))
    inside = oracle.oracle_distance_select(probes, src, r)
    assert inside == sorted(p.id for p in probes)
    want = oracle.oracle_distance_select(probes, src, r)
    assert list(engine.distance_select(probes, src, r, resolution=res).ids) == want


def test_distance_matcher_memory():
    """Rendering an 8-vertex star's r-buffer at res 1024 allocates less at
    peak than one 1024 x 1024 int64 plane (8 MiB): the interior is a run
    table, and ``capsule_pixels`` keeps its temporaries near 5 MB."""
    ang = np.arange(8) * np.pi / 4
    rad = np.where(np.arange(8) % 2 == 0, 0.04, 0.02)
    src = polygon_record(1, [np.column_stack([0.5 + rad * np.cos(ang), 0.5 + rad * np.sin(ang)])])
    engine._distance_matcher(RecordTable([src]), [0.03], 1024)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        engine._distance_matcher(RecordTable([src]), [0.03], 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
