"""Span canvases against a dense reference.

The reference renders each canvas the way a dense framebuffer does: every
kernel runs row-major over the viewport itself, and interiors are written
pixel by pixel into a width x height array of object ids. A polygon's
claim is every pixel whose centre ``scanline_fill`` puts inside it, less
those its own edges touch, the highest id winning and a later polygon's
edge revoking a claim whose centre it holds; a distance canvas writes each
source's polygon interior and covered capsule runs and keeps the band
pixels that no interior covers. The canvases under test key pixels
column-major and keep interiors as run tables; expanded to dense arrays
(``dense.dense_interior``), their interiors and boundary buckets must be
the same arrays.

A guard also checks that no query allocates a dense plane: a 2048-px
select, join or distance select on a small fixture must peak below one
2048 x 2048 int64 plane.
"""

import tracemalloc

import numpy as np
import pytest

import gen
from dense import boundary_pairs, dense_interior
from rasterquery import engine
from rasterquery.canvas import (
    NULL_ID,
    capsule_pixels,
    in_sorted,
    render_geometry_canvas,
    scanline_fill,
    segment_pixels,
    unique_keys,
    viewport_from_bounds,
)
from rasterquery.canvas_index import build_boundary_index_direct, build_distance_layer_index
from rasterquery.geometry import (
    GeometryRecord,
    RecordTable,
    expand_runs,
    point_record,
    points_in_parts,
)

RESOLUTIONS = (16, 64, 1024, 2048)


# ---------------------------------------------------------------------------
# Dense reference
# ---------------------------------------------------------------------------

def _fill_pixels(vp, edges, owner) -> tuple:
    """``scanline_fill``'s spans expanded to (owner, row-major flat)."""
    own, row, c0, c1 = scanline_fill(vp, edges, owner)
    i, off = expand_runs(c1 - c0 + 1)
    return own[i], row[i] * vp.width_px + c0[i] + off


def _stacked(recs) -> tuple:
    """(edges, rank, ordinal, part) of the records' edges stacked: rank is
    the record's position in ``recs``, ordinal the edge's position within
    its record, part a part ordinal unique across all records."""
    t = RecordTable(recs)
    return t.edges, t.rank, np.arange(len(t.rank)) - t.start[t.rank], t.part


def _entry_range(recs, bindex) -> tuple:
    """(first entry ref, entry count) of each record in the boundary index."""
    t = bindex.table
    rank = np.searchsorted(t.ids, [rec.id for rec in recs])
    return t.start[rank], t.start[rank + 1] - t.start[rank]


def _first_refs(recs, bindex) -> np.ndarray:
    return _entry_range(recs, bindex)[0]


def dense_geometry_canvas(polys, vp, bindex) -> tuple:
    """(row-major interior ids, sorted (flat, ref) pairs) of a layer of
    polygons."""
    w, h = vp.width_px, vp.height_px
    hw = w * h
    polys = sorted(polys, key=lambda rec: rec.id)
    winner = np.full(hw, -1, dtype=np.int64)
    pairs = []
    if polys:
        edges, rank, ordinal, part = _stacked(polys)
        k, flat = segment_pixels(vp, edges)
        refs = _first_refs(polys, bindex)[rank] + ordinal
        pairs = list(zip(flat.tolist(), refs[k].tolist()))
        erank = rank[k]
        own = unique_keys(erank * hw + flat)
        part_rank = np.zeros(int(part.max()) + 1, dtype=np.int64)
        part_rank[part] = rank
        owner, fflat = _fill_pixels(vp, edges, part)
        frank = part_rank[owner]
        keep = ~in_sorted(frank * hw + fflat, own)
        np.maximum.at(winner, fflat[keep], frank[keep])
        hit = winner[flat]
        late = (hit >= 0) & (erank > hit)
        if late.any():
            key = unique_keys((erank * hw + flat)[late])
            crank, cflat = np.divmod(key, hw)
            centres = np.column_stack([vp.min_x + (cflat % w + 0.5) * vp.sx,
                                       vp.min_y + (cflat // w + 0.5) * vp.sy])
            winner[cflat[points_in_parts(centres, crank, RecordTable(polys))]] = -1
        ids = np.array([rec.id for rec in polys], dtype=np.int64)
        winner[winner >= 0] = ids[winner[winner >= 0]]
    return winner, sorted(pairs)


def dense_distance_canvas(sources, radii, vp, bindex) -> tuple:
    """(row-major interior ids, sorted (flat, ref) pairs) of the r-buffers
    of pairwise-disjoint sources."""
    w, h = vp.width_px, vp.height_px
    iid = np.full(w * h, NULL_ID, dtype=np.int64)
    polys = [src for src in sources if src.kind == "polygon"]
    if polys:
        edges, rank, _, part = _stacked(polys)
        ids = np.array([rec.id for rec in polys], dtype=np.int64)
        part_id = np.zeros(int(part.max()) + 1, dtype=np.int64)
        part_id[part] = ids[rank]
        owner, flat = _fill_pixels(vp, edges, part)
        iid[flat] = part_id[owner]
        k, flat = segment_pixels(vp, edges)
        iid[flat[iid[flat] == ids[rank[k]]]] = NULL_ID
    first, count = _entry_range(sources, bindex)
    j, off = expand_runs(count)
    ref = first[j] + off
    segs = bindex.table.edges[ref]
    (bs, bkey), (rs, col, row0, row1) = capsule_pixels(vp, segs, np.asarray(radii, float)[j])
    i, off = expand_runs(row1 - row0 + 1)
    ids = np.array([src.id for src in sources], dtype=np.int64)
    iid[(row0[i] + off) * w + col[i]] = ids[j[rs[i]]]
    bcol, brow = np.divmod(bkey, h)
    bflat = brow * w + bcol
    keep = iid[bflat] == NULL_ID
    return iid, sorted(zip(bflat[keep].tolist(), ref[bs[keep]].tolist()))


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

def _geometry_layer(name):
    """The disjoint layers of the raster-kernel and point-pass tests."""
    r = gen.rng(11)
    if name == "concave":
        return [GeometryRecord(3, "polygon", [gen.concave_polygon(r, nverts=14)])]
    if name == "holed":
        return [GeometryRecord(4, "polygon", [gen.holed_polygon()])]
    if name == "disjoint":
        return gen.disjoint_polygons(r, 4, start_id=20)
    return gen.disjoint_polygons(gen.rng(int(name[-1])), 3, holes_every=2)


def _distance_layer(name):
    """(sources, radii): one source of each kind, or the first distance
    layer of a mixed dataset."""
    r = gen.rng(21)
    if name == "point":
        return [gen.uniform_points(r, 1, lo=0.3, hi=0.7)[0]], [0.07]
    if name == "polyline":
        return gen.random_polylines(r, 1, nseg=6, step=0.2), [0.05]
    if name == "polygon":
        return [GeometryRecord(0, "polygon", [gen.holed_polygon(radius=0.3)])], [0.04]
    sources = gen.mixed_dataset(gen.rng(12), 24)
    radii = [0.01 + 0.005 * (s.id % 3) for s in sources]
    members = set(build_distance_layer_index(RecordTable(sources), radii).layers[0])
    chosen = [(s, rr) for s, rr in zip(sources, radii) if s.id in members]
    return [s for s, _ in chosen], [rr for _, rr in chosen]


# ---------------------------------------------------------------------------
# Parity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("res", RESOLUTIONS)
@pytest.mark.parametrize("name", ["kernels-0", "kernels-1", "kernels-2",
                                  "concave", "holed", "disjoint"])
def test_geometry_canvas_equals_dense_reference(name, res):
    recs = _geometry_layer(name)
    bindex = build_boundary_index_direct(recs)
    vp = viewport_from_bounds(engine._bounds_union([rec.bbox() for rec in recs]), res)
    plane = render_geometry_canvas(vp, bindex).plane("polygon")
    interior, pairs = dense_geometry_canvas(recs, vp, bindex)
    assert np.array_equal(dense_interior(plane, vp), interior)
    assert boundary_pairs(plane, vp) == pairs
    assert np.all(plane.run_start[1:] > plane.run_end[:-1])
    assert np.all(plane.run_start // vp.height_px == plane.run_end // vp.height_px)


@pytest.mark.parametrize("res", RESOLUTIONS)
@pytest.mark.parametrize("name", ["point", "polyline", "polygon", "mixed"])
def test_distance_canvas_equals_dense_reference(name, res):
    sources, radii = _distance_layer(name)
    matcher = engine._distance_matcher(RecordTable(sources), radii, res)
    interior, pairs = dense_distance_canvas(sources, radii, matcher.vp, matcher.bindex)
    assert np.array_equal(dense_interior(matcher.plane, matcher.vp), interior)
    assert boundary_pairs(matcher.plane, matcher.vp) == pairs


def test_lone_disc_equals_dense_reference():
    """A lone point's distance canvas: one disc over its own bounding box,
    mostly interior, held in about one run per column."""
    src, r = point_record(0, 0.37, 0.61), 0.05
    matcher = engine._distance_matcher(RecordTable([src]), [r], 1024)
    interior, pairs = dense_distance_canvas([src], [r], matcher.vp, matcher.bindex)
    assert np.array_equal(dense_interior(matcher.plane, matcher.vp), interior)
    assert boundary_pairs(matcher.plane, matcher.vp) == pairs
    assert (interior != NULL_ID).mean() > 0.7
    assert len(matcher.plane.run_start) <= 2 * matcher.vp.width_px


# ---------------------------------------------------------------------------
# No dense plane
# ---------------------------------------------------------------------------

PLANE_BYTES = 2048 * 2048 * 8


def _peak_bytes(query) -> int:
    query()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        query()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("query", ["select", "join", "distance_select"])
def test_queries_at_2048_px_allocate_no_dense_plane(query):
    r = gen.rng(4)
    data = gen.uniform_points(r, 400) + gen.disjoint_polygons(r, 3, start_id=1000)
    cons = gen.concave_polygon(r, (0.5, 0.5), 0.4)
    zones = gen.disjoint_polygons(r, 4, start_id=2000)
    run = {
        "select": lambda: engine.select(data, cons, resolution=2048),
        "join": lambda: engine.join(zones, data, resolution=2048),
        "distance_select": lambda: engine.distance_select(
            data, point_record(0, 0.5, 0.5), 0.3, resolution=2048),
    }[query]
    assert _peak_bytes(run) < PLANE_BYTES
