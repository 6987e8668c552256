"""Canvas-specific indexes: the boundary index (the points and edges whose
exact tests settle boundary pixels) and the layer index (pairwise-disjoint
layers so one canvas can hold many constraint objects). Both layer builders
find overlapping pairs with no canvas: a sweep over the record boxes of a
``geometry.RecordTable``, then one exact test over all candidate pairs.

A boundary index holds its canvas's records as one ``RecordTable`` in
ascending id order; its entries are that table's rows, so every renderer and
matcher of the canvas reads the same arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .canvas import unique_keys
from .errors import DataError
from .geometry import (
    GeometryRecord,
    Point2,
    RecordTable,
    Segment,
    Triangle,
    exact_intersects,
    grown_boxes,
    overlapping_boxes,
    # No query calls it; bound here because perfbench's tracer wraps it by
    # name on this module.
    pairwise_intersects,
    primitive_distance,
    records_intersect,
    triangles_array,
)


class BoundaryIndex:
    """The boundary entries of one canvas: one per row of ``table``, that
    is per point and per polyline segment or polygon ring edge
    (``edge_table`` order, a point as a zero-length edge): "the data itself
    becomes the boundary index". ``table`` lists the canvas's records in
    ascending id order, the one record order of every canvas: an entry ref
    is a table row and an object's rank its table rank. ``aux_r`` gives
    each entry its record's radius: NaN on a polygon canvas, the source's r
    on a distance canvas, where a polygon source's interior has no entry.
    """

    def __init__(self, table: RecordTable, radii):
        if np.any(table.ids[1:] <= table.ids[:-1]):
            raise DataError("a canvas takes records of distinct ids in ascending order")
        self.table = table
        self.aux_r = np.repeat(np.asarray(radii, dtype=np.float64), np.diff(table.start))

    def __len__(self):
        return len(self.table.edges)

    def primitive(self, ref: int):
        if not 0 <= ref < len(self):
            raise DataError(f"invalid boundary index reference {ref}")
        t = self.table
        c = t.edges[ref]
        if t.kinds[t.rank[ref]] == RecordTable.POINT:
            return Point2(c[0], c[1])
        return Segment(Point2(c[0], c[1]), Point2(c[2], c[3]))

    @staticmethod
    def for_distance_sources(table: RecordTable, radii) -> "BoundaryIndex":
        """One entry per point source and per polyline segment or polygon
        ring edge of the sources' table, each carrying its source's r."""
        return BoundaryIndex(table, radii)


def build_boundary_index_direct(records) -> BoundaryIndex:
    """One entry per point, polyline segment and polygon ring edge of the
    records, their table built in id order."""
    recs = sorted(records, key=lambda r: r.id)
    return BoundaryIndex(RecordTable(recs), np.full(len(recs), np.nan))


def boundary_test(index: BoundaryIndex, entry_ref: int, probe) -> bool:
    """Exact intersection of a probe primitive with one boundary entry; for
    distance entries the test is distance(probe, feature) <= r. No query
    calls it; perfbench's tracer still wraps it by name."""
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
    closed square, polygons as their triangles. No query calls it;
    perfbench's tracer still wraps it by name."""
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

    A probe touching a pixel of an object's interior run matches that
    object; ``run_rank`` gives each run's object as a rank into
    ``object_ids``, the ids of ``table``, the boundary index's records.
    ``bucket_objects`` lists the distinct objects of each boundary pixel,
    for the point pass of ``engine.match_points``: a point on a boundary
    pixel of a polygon canvas is in an object iff the point-in-polygon
    kernel puts it inside; on a distance canvas (``distance``, whose
    entries carry radii) iff it lies within r of one of the pixel's entries
    or inside a polygon source. ``reach`` gives each object the radius a
    probe must come within on a distance canvas, for the engine's batched
    refine of (probe record, object) pairs.
    """

    def __init__(self, canvas):
        self.canvas = canvas
        self.vp = canvas.viewport
        self.bindex = canvas.bindex
        self.table = canvas.bindex.table
        self.plane = canvas.plane("polygon")
        self.distance = bool(np.isfinite(self.bindex.aux_r).any())
        self.object_ids = self.table.ids
        self.has_polygons = bool((self.table.kinds == RecordTable.POLYGON).any())
        self._buckets = None

    @cached_property
    def run_rank(self) -> np.ndarray:
        return np.searchsorted(self.object_ids, self.plane.run_id)

    def bucket_objects(self) -> tuple:
        """(start, rank): a CSR over the boundary pixels (indices into
        ``plane.bp_flat``) listing each one's objects once, as ranks into
        ``object_ids``."""
        if self._buckets is None:
            plane, n = self.plane, max(len(self.object_ids), 1)
            nb = len(plane.bp_flat)
            pix = np.repeat(np.arange(nb, dtype=np.int64), np.diff(plane.bp_start))
            rank = self.table.rank[plane.bp_entries]
            pix, rank = np.divmod(unique_keys(pix * n + rank), n)
            self._buckets = (np.searchsorted(pix, np.arange(nb + 1)), rank)
        return self._buckets

    @cached_property
    def reach(self) -> np.ndarray:
        """Per object rank, its source's radius on a distance canvas, NaN on
        a polygon canvas."""
        return self.bindex.aux_r[self.table.start[:-1]]


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


def _sweep_graph(table: RecordTable, boxes, meets) -> dict:
    """Overlap adjacency of the table's records, by id: the rank pairs
    whose ``boxes`` overlap (``overlapping_boxes``), gathered from every
    chunk, then kept where ``meets(i, j)``, one exact test over all of
    them, holds."""
    ids = table.ids
    graph: dict = {i: set() for i in ids.tolist()}
    if len(ids) < 2:
        return graph
    i, j = (np.concatenate(c) for c in zip(*overlapping_boxes(boxes)))
    hit = meets(i, j)
    for a, b in zip(ids[i[hit]].tolist(), ids[j[hit]].tolist()):
        graph[a].add(b)
        graph[b].add(a)
    return graph


def overlap_graph(table: RecordTable) -> dict:
    """Exact overlap adjacency with no canvas: a sweep over the table's
    record boxes gathers the candidate pairs, and one ``records_intersect``
    call, which budgets itself under ``PAIR_BUDGET``, settles them all (a
    polygon nested in another without touching it is an edge too)."""
    return _sweep_graph(table, table.boxes, lambda i, j: records_intersect(table, table, i, j))


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


def build_layer_index(records) -> LayerIndex:
    """Layers ``_peel`` takes off the records' exact overlap graph
    (``overlap_graph``); no canvas is rendered. Deterministic given ids;
    the layer count is not claimed minimal."""
    return _peel(overlap_graph(RecordTable(records)))


def build_distance_layer_index(sources: RecordTable, radii) -> LayerIndex:
    """Layer index over the distance buffers of a table of sources, source
    k buffered by ``radii[k]``, built on the fly at query time; two buffers
    overlap iff distance(geomA, geomB) <= rA + rB. The sweep of
    ``overlap_graph`` runs over the record boxes each grown by its radius,
    and one ``records_intersect`` call with reach rA + rB settles every
    candidate pair."""
    rad = np.asarray(radii, dtype=float)
    return _peel(_sweep_graph(sources, grown_boxes(sources.boxes, rad),
                              lambda i, j: records_intersect(sources, sources, i, j,
                                                             rad[i] + rad[j])))
