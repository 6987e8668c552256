"""Layer-at-a-time raster kernels and canvas rendering against per-pixel
references."""

import tracemalloc

import numpy as np
import pytest

import gen
from dense import boundary_pairs, dense_interior
from rasterquery import canvas as canvas_module
from rasterquery.canvas import (
    NULL_ID,
    edge_keys,
    point_pixels,
    render_geometry_canvas,
    scanline_fill,
    seg_touch_mask,
    segment_pixels,
    viewport_from_bounds,
)
from rasterquery.canvas_index import build_boundary_index_direct
from rasterquery.errors import OverlapError
from rasterquery.geometry import (
    GeometryRecord,
    box_record,
    edge_table,
    points_in_triangles,
    polygon_from_rings,
    triangles_array,
)


def _random_segments(r, n, lo=-0.2, hi=1.2, quantum=None):
    """Random segments reaching past the unit viewport, a third of them
    horizontal or vertical; with ``quantum`` the coordinates snap to that
    grid so endpoints and lines fall on pixel corners and edges."""
    a = r.uniform(lo, hi, (n, 2))
    b = a + r.uniform(-0.4, 0.4, (n, 2))
    b[: n // 6, 1] = a[: n // 6, 1]
    b[n // 6: n // 3, 0] = a[n // 6: n // 3, 0]
    segs = np.hstack([a, b])
    if quantum is not None:
        segs = np.round(segs / quantum) * quantum
    return segs[np.any(segs[:, :2] != segs[:, 2:], axis=1)]


def _mask_flats(vp, seg) -> set:
    ax, ay, bx, by = seg
    window = vp.window_for_bbox((min(ax, bx), min(ay, by), max(ax, bx), max(ay, by)))
    if window is None:
        return set()
    c0, _, r0, _ = window
    rows, cols = np.nonzero(seg_touch_mask(vp, window, ax, ay, bx, by))
    return set(((rows + r0) * vp.width_px + cols + c0).tolist())


def _box_meets_segments(x0, y0, x1, y1, segs) -> np.ndarray:
    """(N, S) closed box / closed segment intersection by slab clipping,
    independent of the raster kernels."""
    ax, ay = segs[None, :, 0], segs[None, :, 1]
    dx, dy = segs[None, :, 2] - ax, segs[None, :, 3] - ay
    shape = (len(x0), len(segs))
    lo, hi, ok = np.zeros(shape), np.ones(shape), np.ones(shape, dtype=bool)
    for p, d, b0, b1 in ((ax, dx, x0[:, None], x1[:, None]), (ay, dy, y0[:, None], y1[:, None])):
        flat = d == 0.0
        ok &= ~flat | ((p >= b0) & (p <= b1))
        with np.errstate(divide="ignore", invalid="ignore"):
            t0, t1 = (b0 - p) / d, (b1 - p) / d
        tmin, tmax = np.minimum(t0, t1), np.maximum(t0, t1)
        lo = np.where(flat, lo, np.maximum(lo, tmin))
        hi = np.where(flat, hi, np.minimum(hi, tmax))
    return ok & (lo <= hi)


# -- edge supercover -----------------------------------------------------------

@pytest.mark.parametrize("res", [16, 64, 1024])
@pytest.mark.parametrize("quantum", [None, 1 / 32])
def test_segment_pixels_equal_seg_touch_mask(res, quantum):
    r = gen.rng(res)
    vp = viewport_from_bounds((0.0, 0.0, 1.0, 1.0), res)
    segs = _random_segments(r, 150, quantum=quantum)
    idx, flat = segment_pixels(vp, segs)
    for i, seg in enumerate(segs):
        got = flat[idx == i]
        assert len(set(got.tolist())) == len(got)
        assert set(got.tolist()) == _mask_flats(vp, seg), (res, seg)


def test_segment_pixels_off_grid_and_empty():
    vp = viewport_from_bounds((0.0, 0.0, 1.0, 1.0), 16)
    idx, flat = segment_pixels(vp, np.array([[5.0, 5.0, 6.0, 7.0], [-3.0, 0.5, -2.0, 0.5]]))
    assert len(idx) == 0 and len(flat) == 0
    idx, flat = segment_pixels(vp, np.zeros((0, 4)))
    assert len(idx) == 0


# -- scanline fill -------------------------------------------------------------

def _fill_sets(vp, recs) -> list:
    """Per record, (filled flats, edge-touched flats)."""
    edges = np.concatenate([edge_table(rec)[0] for rec in recs])
    owner = np.repeat(np.arange(len(recs)), [len(edge_table(rec)[0]) for rec in recs])
    filled = [set() for _ in recs]
    own, row, c0, c1 = scanline_fill(vp, edges, owner)
    for o, rr, a, b in zip(own.tolist(), row.tolist(), c0.tolist(), c1.tolist()):
        filled[o].update(range(rr * vp.width_px + a, rr * vp.width_px + b + 1))
    k, flat = segment_pixels(vp, edges)
    touched = [set(flat[owner[k] == i].tolist()) for i in range(len(recs))]
    return list(zip(filled, touched))


@pytest.mark.parametrize("res", [16, 64])
@pytest.mark.parametrize("seed", range(3))
def test_scanline_fill_interior_pixels_lie_inside(res, seed):
    r = gen.rng(seed)
    recs = gen.disjoint_polygons(r, 3, holes_every=2)
    recs += [GeometryRecord(100, "polygon", [gen.concave_polygon(r, (0.5, 0.5), 0.6, 14)])]
    vp = viewport_from_bounds((0.0, 0.0, 1.0, 1.0), res)
    # Vertices on pixel centres: scanlines pass exactly through vertices,
    # both where the ring turns back and where it passes on.
    k = res // 16
    ring = [(2, 2), (12, 2), (12, 6), (8, 9), (12, 12), (2, 12), (5, 8), (2, 5)]
    recs += [GeometryRecord(101, "polygon", [polygon_from_rings([[
        (vp.min_x + (k * c + 0.5) * vp.sx, vp.min_y + (k * rr + 0.5) * vp.sy)
        for c, rr in ring]])])]
    w = vp.width_px
    cols, rows = np.meshgrid(np.arange(w), np.arange(vp.height_px))
    cols, rows = cols.ravel(), rows.ravel()
    x0, y0 = vp.min_x + cols * vp.sx, vp.min_y + rows * vp.sy
    x1, y1 = vp.min_x + (cols + 1) * vp.sx, vp.min_y + (rows + 1) * vp.sy
    for rec, (filled, touched) in zip(recs, _fill_sets(vp, recs)):
        centre_in = points_in_triangles(np.column_stack([(x0 + x1) / 2, (y0 + y1) / 2]),
                                        triangles_array(rec))
        crossed = _box_meets_segments(x0, y0, x1, y1, edge_table(rec)[0]).any(axis=1)
        assert touched == set(np.flatnonzero(crossed).tolist())
        # A square no edge meets lies wholly inside iff its centre does.
        inside = set(np.flatnonzero(centre_in & ~crossed).tolist())
        assert filled - touched == inside, (rec.id, res)


def test_scanline_fill_spans_are_disjoint():
    r = gen.rng(7)
    rec = GeometryRecord(0, "polygon", [gen.concave_polygon(r, (0.5, 0.5), 0.5, 12)])
    vp = viewport_from_bounds((0.0, 0.0, 1.0, 1.0), 256)
    edges, _ = edge_table(rec)
    own, row, c0, c1 = scanline_fill(vp, edges, np.zeros(len(edges), dtype=np.int64))
    assert np.all(own == 0) and np.all(c0 <= c1)
    # A concave ring gives some rows several spans, and none of them overlap.
    assert len(np.unique(row)) < len(row)
    order = np.lexsort((c0, row))
    row, c0, c1 = row[order], c0[order], c1[order]
    same = row[1:] == row[:-1]
    assert np.all(c0[1:][same] > c1[:-1][same] + 1)


# -- canvas rendering ----------------------------------------------------------

def _reference_canvas(recs, vp, bindex) -> dict:
    """Per plane, (row-major interior ids, sorted (flat, ref) pairs) by
    evaluating the per-pixel predicates over the whole grid for every
    primitive, records written in id order: a polygon claims the pixels
    whose centre its closed triangles hold, then revokes its claim where
    its own edges touch."""
    w, h = vp.width_px, vp.height_px
    grid = (0, w - 1, 0, h - 1)
    cx, cy = np.meshgrid(vp.center_xs(0, w - 1), vp.center_ys(0, h - 1))
    centres = np.column_stack([cx.ravel(), cy.ravel()])
    interior = np.full(w * h, NULL_ID, dtype=np.int64)
    pairs = {"point": [], "line": [], "polygon": []}
    for rec in sorted(recs, key=lambda x: x.id):
        start = bindex.table.start[np.searchsorted(bindex.table.ids, rec.id)]
        if rec.kind == "point":
            for c, rr in point_pixels(vp, rec.geometry.x, rec.geometry.y):
                pairs["point"].append((rr * w + c, start))
            continue
        plane = "line" if rec.kind == "polyline" else "polygon"
        if rec.kind == "polygon":
            interior[points_in_triangles(centres, triangles_array(rec))] = rec.id
        for ei, seg in enumerate(edge_table(rec)[0]):
            mask = seg_touch_mask(vp, grid, *seg).ravel()
            interior[mask & (interior == rec.id)] = NULL_ID
            pairs[plane].extend((f, start + ei) for f in np.flatnonzero(mask).tolist())
    return {name: (interior if name == "polygon" else np.full(w * h, NULL_ID), sorted(p))
            for name, p in pairs.items()}


@pytest.mark.parametrize("res", [16, 24, 40, 64])
@pytest.mark.parametrize("seed", range(3))
def test_render_matches_per_pixel_reference_on_disjoint_layer(res, seed):
    r = gen.rng(seed)
    recs = gen.disjoint_polygons(r, 3, holes_every=2)
    recs += gen.random_polylines(r, 6, start_id=50)
    recs += [GeometryRecord(60 + i, "point", p.geometry)
             for i, p in enumerate(gen.uniform_points(r, 8))]
    bindex = build_boundary_index_direct(recs)
    vp = viewport_from_bounds((0.0, 0.0, 1.0, 1.0), res)
    canvas = render_geometry_canvas(vp, bindex)
    want = _reference_canvas(recs, vp, bindex)
    for name, (interior, pairs) in want.items():
        plane = canvas.plane(name)
        assert np.array_equal(dense_interior(plane, vp), interior), (name, res)
        assert boundary_pairs(plane, vp) == pairs, (name, res)
        assert np.all(np.diff(plane.bp_flat) > 0)


@pytest.mark.parametrize("res", [16, 32, 64])
@pytest.mark.parametrize("seed", range(3))
def test_render_matches_sequential_reference_on_overlapping_records(res, seed):
    """Overlapping polygons have no one canvas: where their interior runs
    share a pixel, rendering raises ``OverlapError`` instead of picking a
    winner per pixel. The box over most of the square shares interior
    pixels with the others at every resolution; records that overlap only
    near their edges leave no shared interior pixel, and each one's runs
    then still lie inside it."""
    r = gen.rng(seed)
    recs = gen.random_polygons(r, 25, radius_frac=0.15) + gen.random_boxes(r, 10, start_id=40)
    recs.append(box_record(99, 0.1, 0.1, 0.9, 0.9))
    bindex = build_boundary_index_direct(recs)
    vp = viewport_from_bounds((0.0, 0.0, 1.0, 1.0), res)
    with pytest.raises(OverlapError):
        render_geometry_canvas(vp, bindex)


def test_edge_keys_in_chunks_equal_one_kernel_call(monkeypatch):
    """``edge_keys`` splits its segments into chunks under the pixel key
    budget; the chunks' keys, in order, are those of one call over the
    transposed viewport."""
    segs = _random_segments(gen.rng(5), 300)
    vp = viewport_from_bounds((0.0, 0.0, 1.0, 1.0), 512)
    want = segment_pixels(vp.transposed(), segs[:, [1, 0, 3, 2]])
    monkeypatch.setattr(canvas_module, "PIXEL_KEY_BUDGET", 5000)
    got = edge_keys(vp, segs)
    assert len(want[0]) > 10 * 5000 // 30
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


# Peak traced allocation of rendering the strips below at res 2048 when
# ``edge_keys`` ran ``segment_pixels`` over a whole layer at once: 150 MiB
# (CPython 3.11, numpy 2.4). In chunks under ``PIXEL_KEY_BUDGET`` it is
# about 53 MiB, whatever the layer's length; the bound adds 11 MiB.
RENDER_PEAK_BOUND = 64 * 2**20


def test_render_memory_stays_under_the_key_budget():
    """A layer of 64 strips, each with two edges across the whole width, at
    res 2048: some 264k boundary pixels, whose candidates ``edge_keys``
    tests a budget's worth at a time."""
    layer = [box_record(i, 0.0, (i + 0.3) / 64, 1.0, (i + 0.7) / 64) for i in range(64)]
    bindex = build_boundary_index_direct(layer)
    vp = viewport_from_bounds((0.0, 0.0, 1.0, 1.0), 2048)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        canvas = render_geometry_canvas(vp, bindex)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(canvas.plane("polygon").bp_flat) > 250_000
    assert peak < RENDER_PEAK_BOUND, peak / 2**20
