"""Canvas-specific indexes: the boundary index (constant-time exact
intersection at boundary pixels) and the layer index (pairwise-disjoint
layers so one canvas can hold many constraint objects).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .canvas import (
    PIXEL_KEY_BUDGET,
    budget_runs,
    expand_runs,
    unique_keys,
    viewport_from_bounds,
)
from .errors import DataError
from .geometry import (
    GeometryRecord,
    Point2,
    Segment,
    Triangle,
    exact_intersects,
    features,
    pairwise_intersects,
    primitive_distance,
    segments_array,
    triangles_array,
)

KIND_POINT = 0
KIND_SEGMENT = 1
KIND_TRIANGLE = 2


class BoundaryIndex:
    """Append-only table of (object id, primitive, optional radius) entries.

    For polygons there is one entry per boundary edge holding the edge's
    incident triangle; for polylines one per segment; for points the point
    itself ("the data itself becomes the boundary index"). Distance-canvas
    entries carry the generating feature plus the radius r. Entries are laid
    out columnar and per-object contiguous so canvas pixels can reference
    them by table offset.
    """

    def __init__(self):
        self.obj_ids = np.zeros(0, dtype=np.int64)
        self.kinds = np.zeros(0, dtype=np.int8)
        self.coords = np.zeros((0, 6), dtype=np.float64)
        self.aux_r = np.zeros(0, dtype=np.float64)
        self.edge_ordinals = np.zeros(0, dtype=np.int32)
        self.tri_ordinals = np.zeros(0, dtype=np.int32)
        self.offsets: dict = {}
        self.records: dict = {}

    def __len__(self):
        return len(self.obj_ids)

    @staticmethod
    def _from_rows(rows, records) -> "BoundaryIndex":
        idx = BoundaryIndex()
        if rows:
            idx.obj_ids = np.array([r[0] for r in rows], dtype=np.int64)
            idx.kinds = np.array([r[1] for r in rows], dtype=np.int8)
            idx.coords = np.array([r[2] for r in rows], dtype=np.float64)
            idx.aux_r = np.array([r[3] for r in rows], dtype=np.float64)
            idx.edge_ordinals = np.array([r[4] for r in rows], dtype=np.int32)
            idx.tri_ordinals = np.array([r[5] for r in rows], dtype=np.int32)
        starts = {}
        for i, oid in enumerate(idx.obj_ids):
            starts.setdefault(int(oid), [i, 0])
            starts[int(oid)][1] += 1
        idx.offsets = {oid: (s, c) for oid, (s, c) in starts.items()}
        idx.records = {rec.id: rec for rec in records}
        return idx

    def primitive(self, ref: int):
        if not 0 <= ref < len(self):
            raise DataError(f"invalid boundary index reference {ref}")
        kind = self.kinds[ref]
        c = self.coords[ref]
        if kind == KIND_POINT:
            return Point2(c[0], c[1])
        if kind == KIND_SEGMENT:
            return Segment(Point2(c[0], c[1]), Point2(c[2], c[3]))
        return Triangle(Point2(c[0], c[1]), Point2(c[2], c[3]), Point2(c[4], c[5]))

    @staticmethod
    def for_distance_sources(sources, radii) -> "BoundaryIndex":
        rows = []
        for src, r in zip(sources, radii):
            for fi, feat in enumerate(features(src)):
                if isinstance(feat, Point2):
                    rows.append((src.id, KIND_POINT, (feat.x, feat.y, np.nan, np.nan,
                                                      np.nan, np.nan), r, fi, -1))
                elif isinstance(feat, Segment):
                    rows.append((src.id, KIND_SEGMENT, (feat.a.x, feat.a.y, feat.b.x,
                                                        feat.b.y, np.nan, np.nan), r, fi, -1))
                else:
                    rows.append((src.id, KIND_TRIANGLE, (feat.v0.x, feat.v0.y, feat.v1.x,
                                                         feat.v1.y, feat.v2.x, feat.v2.y),
                                 r, fi, -1))
        return BoundaryIndex._from_rows(rows, sources)


def _polygon_entry_rows(rec: GeometryRecord) -> list:
    rows = []
    tris = triangles_array(rec)
    tri_base = 0
    edge_base = 0
    for part in rec.geometry:
        if len(part.triangles) == 0:
            raise DataError(f"record {rec.id} is missing its triangulation")
        ring_lens = [len(ring) for ring in part.rings]
        ei = 0
        for ri, rlen in enumerate(ring_lens):
            for k in range(rlen):
                ti = tri_base + part.edge_to_triangle[(ri, k)]
                t = tris[ti]
                rows.append((rec.id, KIND_TRIANGLE,
                             (t[0, 0], t[0, 1], t[1, 0], t[1, 1], t[2, 0], t[2, 1]),
                             np.nan, edge_base + ei, ti))
                ei += 1
        edge_base += sum(ring_lens)
        tri_base += len(part.triangles)
    return rows


def build_boundary_index_direct(records) -> BoundaryIndex:
    """One entry per boundary edge (incident triangle), per polyline segment,
    and per point, in ascending record id / ordinal order."""
    rows = []
    for rec in sorted(records, key=lambda r: r.id):
        if rec.kind == "point":
            p = rec.geometry
            rows.append((rec.id, KIND_POINT, (p.x, p.y, np.nan, np.nan, np.nan, np.nan),
                         np.nan, 0, -1))
        elif rec.kind == "polyline":
            for si, (ax, ay, bx, by) in enumerate(segments_array(rec)):
                rows.append((rec.id, KIND_SEGMENT, (ax, ay, bx, by, np.nan, np.nan),
                             np.nan, si, -1))
        else:
            rows.extend(_polygon_entry_rows(rec))
    return BoundaryIndex._from_rows(rows, sorted(records, key=lambda r: r.id))


def boundary_test(index: BoundaryIndex, entry_ref: int, probe) -> bool:
    """Exact intersection of a probe primitive with one boundary entry; for
    distance entries the test is distance(probe, feature) <= r."""
    prim = index.primitive(entry_ref)
    r = index.aux_r[entry_ref]
    if np.isnan(r):
        return exact_intersects(probe, prim)
    return primitive_distance(probe, prim) <= r


# ---------------------------------------------------------------------------
# Pixel-level exact classification
# ---------------------------------------------------------------------------

def _tris_touching_square(tris: np.ndarray, square) -> np.ndarray:
    """Vectorized SAT: which closed CCW triangles touch a closed square."""
    x0, y0, x1, y1 = square
    tx, ty = tris[:, :, 0], tris[:, :, 1]
    ok = ((tx.max(axis=1) >= x0) & (tx.min(axis=1) <= x1)
          & (ty.max(axis=1) >= y0) & (ty.min(axis=1) <= y1))
    cx = np.array([x0, x1, x0, x1])
    cy = np.array([y0, y0, y1, y1])
    for i in range(3):
        ax, ay = tx[:, i], ty[:, i]
        bx, by = tx[:, (i + 1) % 3], ty[:, (i + 1) % 3]
        ox, oy = tx[:, (i + 2) % 3], ty[:, (i + 2) % 3]
        f = ((bx - ax)[:, None] * (cy[None, :] - ay[:, None])
             - (by - ay)[:, None] * (cx[None, :] - ax[:, None]))
        hv = (bx - ax) * (oy - ay) - (by - ay) * (ox - ax)
        tmin = np.minimum(0.0, hv)
        tmax = np.maximum(0.0, hv)
        ok &= (f.max(axis=1) >= tmin) & (f.min(axis=1) <= tmax)
    return ok


def object_prims_touching_square(record: GeometryRecord, square) -> list:
    """All convex primitives of the record whose closed set touches the
    closed square. No query calls it any more (``engine.match_points``
    tests points against whole objects' triangles); perfbench's tracer
    still wraps it by name."""
    x0, y0, x1, y1 = square
    if record.kind == "point":
        p = record.geometry
        return [p] if x0 <= p.x <= x1 and y0 <= p.y <= y1 else []
    if record.kind == "polyline":
        out = []
        for s in record.geometry:
            sq0 = (min(s.a.x, s.b.x), min(s.a.y, s.b.y), max(s.a.x, s.b.x), max(s.a.y, s.b.y))
            if sq0[0] > x1 or sq0[2] < x0 or sq0[1] > y1 or sq0[3] < y0:
                continue
            out.append(s)
        # exact refine
        corners = [Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1)]
        edges = [Segment(corners[i], corners[(i + 1) % 4]) for i in range(4)]
        keep = []
        for s in out:
            if any(x0 <= px <= x1 and y0 <= py <= y1 for px, py in
                   ((s.a.x, s.a.y), (s.b.x, s.b.y))):
                keep.append(s)
            elif any(exact_intersects(s, e) for e in edges):
                keep.append(s)
        return keep
    tris = triangles_array(record)
    mask = _tris_touching_square(tris, square)
    return [Triangle(Point2(*t[0]), Point2(*t[1]), Point2(*t[2])) for t in tris[mask]]


class PixelMatcher:
    """Exact membership tests against a constraint canvas.

    At an interior pixel the owner matches any probe touching the pixel.
    ``bucket_objects`` lists the distinct objects of each boundary pixel
    and ``object_triangles`` the triangles of every object, for the point
    pass of ``engine.match_points``; on polygon canvases, whose bucket
    entries are incomplete, that pass tests points that miss every entry
    against the triangles of the pixel's objects. ``exact_pair`` settles a
    whole (probe record, object) pair at once.
    """

    def __init__(self, canvas):
        self.canvas = canvas
        self.vp = canvas.viewport
        self.bindex = canvas.bindex
        self.plane = canvas.plane("polygon")
        self.complete = canvas.entries_complete
        self.object_ids = np.array(sorted(self.bindex.records), dtype=np.int64)
        self._buckets = None
        self._triangles = None

    def bucket_objects(self) -> tuple:
        """(slot, start, rank): ``slot`` maps each flat pixel to its index in
        ``plane.bp_flat`` (-1 off the boundary), and (start, rank) is a CSR
        over those indices listing each boundary pixel's objects once, as
        ranks into ``object_ids``."""
        if self._buckets is None:
            plane, n = self.plane, max(len(self.object_ids), 1)
            nb = len(plane.bp_flat)
            slot = np.full(self.vp.width_px * self.vp.height_px, -1, dtype=np.int32)
            slot[plane.bp_flat] = np.arange(nb)
            pix = np.repeat(np.arange(nb, dtype=np.int64), np.diff(plane.bp_start))
            rank = np.searchsorted(self.object_ids, self.bindex.obj_ids[plane.bp_entries])
            pix, rank = np.divmod(unique_keys(pix * n + rank), n)
            self._buckets = (slot, np.searchsorted(pix, np.arange(nb + 1)), rank)
        return self._buckets

    def object_triangles(self) -> tuple:
        """(start, tris, boxes): a CSR over ``object_ids`` ranks of every
        polygon object's closed CCW triangles, ``tris`` (T, 6) rows
        x0, y0, x1, y1, x2, y2 and ``boxes`` (T, 4) their bboxes."""
        if self._triangles is None:
            recs = [self.bindex.records[int(oid)] for oid in self.object_ids]
            per = [triangles_array(rec).reshape(-1, 6) if rec.kind == "polygon"
                   else np.zeros((0, 6)) for rec in recs]
            tris = np.concatenate(per) if per else np.zeros((0, 6))
            start = np.r_[0, np.cumsum([len(t) for t in per])].astype(np.int64)
            xs, ys = tris[:, 0::2], tris[:, 1::2]
            boxes = np.column_stack([xs.min(axis=1), ys.min(axis=1),
                                     xs.max(axis=1), ys.max(axis=1)])
            self._triangles = (start, tris, boxes)
        return self._triangles

    def exact_pair(self, probe: GeometryRecord, oid: int) -> bool:
        """Whether the probe record truly meets object ``oid``: full-geometry
        intersection on polygon canvases; on distance canvases some probe
        feature lies within r of one of the object's entries."""
        if not self.complete:
            return pairwise_intersects(probe, self.bindex.records[oid])
        start, count = self.bindex.offsets[oid]
        feats = features(probe)
        return any(boundary_test(self.bindex, ref, f)
                   for ref in range(start, start + count) for f in feats)


# ---------------------------------------------------------------------------
# Layer index
# ---------------------------------------------------------------------------

@dataclass
class LayerIndex:
    """Partition of a dataset into layers of pairwise-disjoint objects."""

    layers: list
    object_to_layer: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.object_to_layer:
            self.object_to_layer = {oid: li for li, layer in enumerate(self.layers)
                                    for oid in layer}

    @property
    def layer_count(self) -> int:
        return len(self.layers)


def _copresence_pairs(canvas, bindex) -> set:
    """Unordered object-id pairs that share a pixel in the rendered canvas
    (raster candidates; a superset of the truly overlapping pairs)."""
    pairs = set()
    for name in ("polygon", "line"):
        if not canvas.has_plane(name):
            continue
        plane = canvas.plane(name)
        if len(plane.bp_flat) == 0:
            continue
        objs = bindex.obj_ids[plane.bp_entries]
        interior_flat = plane.interior_id.ravel()[plane.bp_flat]
        omin = np.minimum.reduceat(objs, plane.bp_start[:-1])
        omax = np.maximum.reduceat(objs, plane.bp_start[:-1])
        multi = np.flatnonzero((omin != omax)
                               | ((interior_flat >= 0) & (interior_flat != omin)))
        for i in multi:
            group = np.unique(objs[plane.bp_start[i]:plane.bp_start[i + 1]]).tolist()
            if interior_flat[i] >= 0 and interior_flat[i] not in group:
                group.append(int(interior_flat[i]))
            group.sort()
            for a_i in range(len(group)):
                for b_i in range(a_i + 1, len(group)):
                    pairs.add((group[a_i], group[b_i]))
    return pairs


def _nested_pairs(recs) -> set:
    """Unordered id pairs of polygon records where a part's bbox holds a
    part bbox of the other record. These are the candidates for a part
    nested inside another without meeting its boundary: such a pair shares
    no boundary pixel, and the canvas keeps only the higher id's interior
    claim, so ``_copresence_pairs`` cannot see it."""
    owner, boxes = [], []
    for rec in recs:
        if rec.kind == "polygon":
            owner += [rec.id] * len(rec.geometry)
            boxes += [part.bbox() for part in rec.geometry]
    if len(owner) < 2:
        return set()
    order = np.argsort([b[0] for b in boxes], kind="stable")
    owner, b = np.array(owner)[order], np.array(boxes)[order]
    # Inner candidates of box i: the boxes whose x0 lies in [x0_i, x1_i].
    lo = np.searchsorted(b[:, 0], b[:, 0], side="left")
    count = np.searchsorted(b[:, 0], b[:, 2], side="right") - lo
    pairs = set()
    for s, e in budget_runs(count, PIXEL_KEY_BUDGET):
        i, off = expand_runs(count[s:e])
        i += s
        j = lo[i] + off
        ok = ((owner[i] != owner[j]) & (b[j, 1] >= b[i, 1])
              & (b[j, 2] <= b[i, 2]) & (b[j, 3] <= b[i, 3]))
        for a, c in zip(owner[i[ok]].tolist(), owner[j[ok]].tolist()):
            pairs.add((min(a, c), max(a, c)))
    return pairs


def overlap_graph(records, resolution: int = 1024,
                  overlap=pairwise_intersects) -> dict:
    """Exact overlap adjacency built filter-and-refine style: one render pass
    discovers co-present pairs, bbox nesting adds the pairs a render cannot
    show, and an exact pairwise test confirms them."""
    from .canvas import render_geometry_canvas
    recs = sorted(records, key=lambda r: r.id)
    by_id = {r.id: r for r in recs}
    graph: dict = {r.id: set() for r in recs}
    if len(recs) < 2:
        return graph
    boxes = np.array([r.bbox() for r in recs])
    bounds = (boxes[:, 0].min(), boxes[:, 1].min(), boxes[:, 2].max(), boxes[:, 3].max())
    if not (bounds[2] > bounds[0] and bounds[3] > bounds[1]):
        bounds = (bounds[0] - 0.5, bounds[1] - 0.5, bounds[2] + 0.5, bounds[3] + 0.5)
    vp = viewport_from_bounds(bounds, resolution)
    bindex = build_boundary_index_direct(recs)
    canvas = render_geometry_canvas(recs, vp, bindex)
    for a, b in _copresence_pairs(canvas, bindex) | _nested_pairs(recs):
        if overlap(by_id[a], by_id[b]):
            graph[a].add(b)
            graph[b].add(a)
    return graph


def _peel(graph: dict) -> LayerIndex:
    """Peel layers off an overlap graph: objects that overlap no higher id
    still unassigned form the current layer; the rest proceed to the next
    round."""
    remaining = set(graph)
    layers = []
    while remaining:
        intact = {o for o in remaining
                  if not any(h > o for h in graph[o] if h in remaining)}
        layers.append(sorted(intact))
        remaining -= intact
    return LayerIndex(layers=layers)


def build_layer_index(records, resolution: int = 1024,
                      overlap=pairwise_intersects) -> LayerIndex:
    """Layers ``_peel`` takes off the records' exact overlap graph.
    Deterministic given ids; the layer count is not claimed minimal."""
    return _peel(overlap_graph(records, resolution=resolution, overlap=overlap))


def build_distance_layer_index(sources, radii) -> LayerIndex:
    """Layer index over distance buffers, built on the fly at query time;
    two buffers overlap iff distance(geomA, geomB) <= rA + rB."""
    rmap = {src.id: r for src, r in zip(sources, radii)}

    def overlap(a, b):
        fa, fb = features(a), features(b)
        limit = rmap[a.id] + rmap[b.id]
        return any(primitive_distance(x, y) <= limit for x in fa for y in fb)

    recs = sorted(sources, key=lambda r: r.id)
    graph: dict = {r.id: set() for r in recs}
    boxes = {r.id: r.bbox() for r in recs}
    for i, a in enumerate(recs):
        for b in recs[i + 1:]:
            ab, bb = boxes[a.id], boxes[b.id]
            limit = rmap[a.id] + rmap[b.id]
            if (ab[0] - limit > bb[2] or bb[0] - limit > ab[2]
                    or ab[1] - limit > bb[3] or bb[1] - limit > ab[3]):
                continue
            if overlap(a, b):
                graph[a.id].add(b.id)
                graph[b.id].add(a.id)
    return _peel(graph)
