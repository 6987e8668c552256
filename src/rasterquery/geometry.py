"""Exact geometric primitives, predicates, hulls, projection and parsing.

All predicates evaluate double-precision orientation determinants with no
epsilon; closed-set semantics throughout (a shared boundary point counts as
intersecting). Everything here is a pure function over immutable inputs.

Polygons are rings only. The array kernels ``points_in_polygons`` (closed
even-odd point-in-polygon) and ``segments_meet`` / ``segment_distances``
(segment pairs) decide every polygon question; no query or polygon
construction uses ``triangulate``. ``records_intersect`` and
``polygon_distances`` run them over many record pairs at once, reading the
records' edges from a ``RecordTable``, a record list flattened into edge
arrays once. The per-pair predicates ``pairwise_intersects`` and
``geometry_distance`` read each record's ``edge_table`` and stay the
reference those kernels are tested against.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DataError,
    DegenerateGeometryError,
    ParseError,
    ProjectionError,
    TriangulationError,
    UnsupportedTypeError,
)

MERCATOR_RADIUS = 6378137.0
MERCATOR_MAX_LAT = 85.051129

# Rows one array kernel materializes at a time: (pair, edge) rows of the
# point-in-polygon kernel, candidate pairs of a box sweep, edge pairs of a
# distance. Bounds a call's temporaries (about 8 bytes per row per array).
PAIR_BUDGET = 1 << 18


# ---------------------------------------------------------------------------
# Primitive types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise DegenerateGeometryError(f"non-finite point ({self.x}, {self.y})")


@dataclass(frozen=True)
class Segment:
    a: Point2
    b: Point2

    def __post_init__(self):
        if self.a == self.b:
            raise DegenerateGeometryError(f"zero-length segment at ({self.a.x}, {self.a.y})")


@dataclass(frozen=True)
class Triangle:
    """Counter-clockwise triangle; a clockwise input is reordered on construction."""

    v0: Point2
    v1: Point2
    v2: Point2

    def __post_init__(self):
        area2 = orient(self.v0.x, self.v0.y, self.v1.x, self.v1.y, self.v2.x, self.v2.y)
        if area2 == 0.0:
            raise DegenerateGeometryError("collinear triangle vertices")
        if area2 < 0.0:
            v1, v2 = self.v1, self.v2
            object.__setattr__(self, "v1", v2)
            object.__setattr__(self, "v2", v1)


@dataclass
class PolygonGeom:
    """A simple polygon: an outer ring plus holes, kept as rings only.

    rings: vertex arrays of shape (n, 2), outer first (CCW), holes CW, no
    closing duplicate (``polygon_from_rings`` arranges and checks this).
    """

    rings: list

    _edges: np.ndarray | None = field(default=None, repr=False)

    @property
    def area(self) -> float:
        """Shoelace sum over the rings (holes, being CW, subtract)."""
        return sum(shoelace(ring) for ring in self.rings)

    def boundary_edges(self) -> np.ndarray:
        """All boundary edges as an (E, 4) array of ax, ay, bx, by, with edge
        ordinal = position in this enumeration (ring-major)."""
        if self._edges is None:
            self._edges = np.concatenate([_ring_edges(ring) for ring in self.rings], axis=0)
        return self._edges

    def bbox(self):
        pts = np.concatenate(self.rings, axis=0)
        return (float(pts[:, 0].min()), float(pts[:, 1].min()),
                float(pts[:, 0].max()), float(pts[:, 1].max()))


# Every reassignment of a record field, once the record is built, sets
# ``_record_edit`` to a number never used before, after the new value is in
# place (``GeometryRecord.__setattr__``). Data derived from records and kept
# between queries is current while ``record_edit()`` still returns the
# number read before it was derived.
_edit_numbers = itertools.count(1)
_record_edit = 0
_RECORD_FIELDS = frozenset(("id", "kind", "geometry", "value"))
_set_field = object.__setattr__


def record_edit() -> int:
    """The number of the latest record field reassignment (0 before any)."""
    return _record_edit


@dataclass(init=False)
class GeometryRecord:
    """One spatial object with a dataset-unique id.

    kind 'point' -> Point2, 'polyline' -> list[Segment], 'polygon' ->
    list[PolygonGeom] (one per part). value is an optional payload that sum
    aggregation adds up.

    Fields may be reassigned between queries: reassigning ``kind`` or
    ``geometry`` drops the record's cached edge arrays, and any
    reassignment bumps ``record_edit``, so the engine rebuilds what it kept
    of queried record lists (``engine._dataset``). A geometry payload must
    not be changed in place.
    """

    id: int
    kind: str
    geometry: object
    value: float | None = None

    def __init__(self, id: int, kind: str, geometry: object, value: float | None = None):
        # Past __setattr__, which sees reassignments only. Touching
        # self.__dict__ instead would give every record a dict of its own,
        # larger and slower to read than the attribute values it replaces.
        _set_field(self, "id", id)
        _set_field(self, "kind", kind)
        _set_field(self, "geometry", geometry)
        _set_field(self, "value", value)
        if id < 0:
            raise DataError(f"record id must be unsigned, got {id}")
        ok = (kind == "point" and isinstance(geometry, Point2)) or \
             (kind == "polyline" and isinstance(geometry, list)
              and all(isinstance(s, Segment) for s in geometry)) or \
             (kind == "polygon" and isinstance(geometry, list)
              and all(isinstance(p, PolygonGeom) for p in geometry))
        if not ok:
            raise DataError(f"kind {kind!r} does not match geometry payload")

    def __setattr__(self, name, value):
        object.__setattr__(self, name, value)
        if name in _RECORD_FIELDS:
            global _record_edit
            if name in ("kind", "geometry"):
                for cache in ("_edge_cache", "_tris_cache"):
                    if hasattr(self, cache):
                        object.__delattr__(self, cache)
            _record_edit = next(_edit_numbers)

    def bbox(self):
        if self.kind == "point":
            p = self.geometry
            return (p.x, p.y, p.x, p.y)
        if self.kind == "polyline":
            xs = [c for s in self.geometry for c in (s.a.x, s.b.x)]
            ys = [c for s in self.geometry for c in (s.a.y, s.b.y)]
            return (min(xs), min(ys), max(xs), max(ys))
        boxes = [part.bbox() for part in self.geometry]
        return (min(b[0] for b in boxes), min(b[1] for b in boxes),
                max(b[2] for b in boxes), max(b[3] for b in boxes))

    def centroid(self):
        if self.kind == "point":
            return (self.geometry.x, self.geometry.y)
        if self.kind == "polyline":
            segs = segments_array(self)
            mids = (segs[:, 0:2] + segs[:, 2:4]) / 2.0
            lens = np.hypot(segs[:, 2] - segs[:, 0], segs[:, 3] - segs[:, 1])
            w = lens / lens.sum()
            return (float(mids[:, 0] @ w), float(mids[:, 1] @ w))
        # Shoelace moments over every ring edge, taken about the first vertex.
        edges = edge_table(self)[0]
        e = edges - np.tile(edges[0, :2], 2)
        c = e[:, 0] * e[:, 3] - e[:, 2] * e[:, 1]
        return tuple(float(edges[0, k] + ((e[:, k] + e[:, k + 2]) * c).sum() / (3.0 * c.sum()))
                     for k in (0, 1))


def point_record(rid: int, x: float, y: float, value: float | None = None) -> GeometryRecord:
    return GeometryRecord(rid, "point", Point2(float(x), float(y)), value)


def line_record(rid: int, coords, value: float | None = None) -> GeometryRecord:
    pts = [Point2(float(x), float(y)) for x, y in coords]
    if len(pts) < 2:
        raise DataError("polyline needs at least 2 vertices")
    segs = [Segment(a, b) for a, b in zip(pts, pts[1:])]
    return GeometryRecord(rid, "polyline", segs, value)


def polygon_record(rid: int, rings_or_parts, value: float | None = None) -> GeometryRecord:
    """Build a polygon record from one rings list or a list of PolygonGeom."""
    if rings_or_parts and isinstance(rings_or_parts[0], PolygonGeom):
        parts = list(rings_or_parts)
    else:
        parts = [polygon_from_rings(rings_or_parts)]
    return GeometryRecord(rid, "polygon", parts, value)


def box_record(rid: int, x0, y0, x1, y1, value: float | None = None) -> GeometryRecord:
    ring = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    return polygon_record(rid, [ring], value)


def segments_array(record: GeometryRecord) -> np.ndarray:
    """(S, 4) array of segment coordinates for a polyline record (cached on
    the record; derived data, never mutated)."""
    arr = getattr(record, "_segs_cache", None)
    if arr is None:
        arr = np.array([(s.a.x, s.a.y, s.b.x, s.b.y) for s in record.geometry], dtype=float)
        record._segs_cache = arr
    return arr


def triangles_array(record: GeometryRecord) -> np.ndarray:
    """(T, 3, 2) CCW triangles covering a polygon record's parts, made by
    ``triangulate`` on first use and cached on the record. No query uses
    them; ``canvas_index.object_prims_touching_square`` and tests do."""
    arr = getattr(record, "_tris_cache", None)
    if arr is None:
        arr = np.concatenate([triangulate(part.rings)[0] for part in record.geometry], axis=0)
        record._tris_cache = arr
    return arr


def edge_table(record: GeometryRecord) -> tuple:
    """(edges, parts) of a polyline or polygon record: the (E, 4) segments
    or ring edges in ordinal order (for polygons ``boundary_edges`` of each
    part, part after part) and the (E,) part ordinal of each edge (cached
    on the record; derived data, never mutated)."""
    table = getattr(record, "_edge_cache", None)
    if table is None:
        if record.kind == "point":
            raise DataError(f"record {record.id} is a point and has no edges")
        if record.kind == "polyline":
            edges = segments_array(record)
            parts = np.zeros(len(edges), dtype=np.int64)
        else:
            per_part = [part.boundary_edges() for part in record.geometry]
            edges = np.concatenate(per_part, axis=0)
            parts = np.repeat(np.arange(len(per_part), dtype=np.int64),
                              [len(e) for e in per_part])
        table = (edges, parts)
        record._edge_cache = table
    return table


class RecordTable:
    """A record list flattened into edge arrays, built once per list.

    Every record's ``edge_table`` rows are stacked in record order, a point
    as one zero-length edge (x, y, x, y); a record's rank is its position
    in ``records``. Columns:

    - ``ids`` and ``kinds`` (R,): ids and kind codes (``POINT``,
      ``POLYLINE``, ``POLYGON``);
    - ``start`` (R + 1,): each record's range of rows in ``edges`` (E, 4);
    - ``part`` (E,): each edge's part ordinal, unique across the table (a
      point or polyline is one part, a polygon one per ``PolygonGeom``),
      and ``part_start`` (R + 1,) each record's range of parts; only a
      polygon record's parts are polygon parts;
    - ``boxes`` (R, 4): the record bboxes, by ``reduceat`` over the edge
      ends;
    - ``rank`` (E,): each edge's record.

    Derived on first use and kept: ``part_edges`` (P + 1,), each part's
    range of rows, and what ``records_intersect`` reads of a table on every
    call, ``edge_boxes`` and ``containment_vertices``.

    ``RecordTable(records)`` is the one place a record list is stacked;
    ``take`` gathers a table of some of its records from the arrays.
    """

    POINT, POLYLINE, POLYGON = 0, 1, 2

    def __init__(self, records):
        recs = self.records = list(records)
        n = len(recs)
        self.ids = np.fromiter((rec.id for rec in recs), np.int64, n)
        self.kinds = np.fromiter((_KIND_CODE[rec.kind] for rec in recs), np.int8, n)
        point = self.kinds == self.POINT
        tables = [edge_table(rec) for rec in recs if rec.kind != "point"]
        count = np.ones(n, dtype=np.int64)
        count[~point] = [len(e) for e, _ in tables]
        self.start = _offsets(count)
        self.rank = np.repeat(np.arange(n), count)
        self.edges = np.concatenate([e for e, _ in tables] or [np.zeros((0, 4))])
        local = np.concatenate([p for _, p in tables] or [np.zeros(0, dtype=np.int64)])
        if point.any():
            # Spread the stacked edges over the non-point rows.
            on = ~point[self.rank]
            edges, parts = np.empty((len(on), 4)), np.zeros(len(on), dtype=np.int64)
            edges[on], parts[on] = self.edges, local
            xy = np.fromiter((c for rec in recs if rec.kind == "point"
                              for c in (rec.geometry.x, rec.geometry.y)),
                             np.float64, 2 * np.count_nonzero(point)).reshape(-1, 2)
            edges[~on] = np.concatenate([xy, xy], axis=1)
            self.edges, local = edges, parts
        self.part, self.part_start = _part_ordinals(self.start, self.rank, local)
        ax, ay, bx, by = self.edges.T
        lo, hi, first = np.minimum.reduceat, np.maximum.reduceat, self.start[:-1]
        self.boxes = (np.stack([lo(np.minimum(ax, bx), first), lo(np.minimum(ay, by), first),
                                hi(np.maximum(ax, bx), first), hi(np.maximum(ay, by), first)],
                               axis=1) if n else np.zeros((0, 4)))

    def __len__(self):
        return len(self.records)

    @cached_property
    def part_edges(self) -> np.ndarray:
        return np.searchsorted(self.part, np.arange(self.part_start[-1] + 1))

    @cached_property
    def edge_boxes(self) -> np.ndarray:
        """(E, 4) closed bboxes of ``edges``."""
        return _edge_boxes(self.edges)

    @cached_property
    def containment_vertices(self) -> tuple:
        """(vstart, vertices): per record, its range of the vertices that
        decide containment once no edge meets: the point itself, every
        segment's first end of a polyline, and the first vertex of each
        polygon part."""
        keep = self.kinds[self.rank] != RecordTable.POLYGON
        keep[self.part_edges[:-1]] = True
        rows = np.flatnonzero(keep)
        return np.searchsorted(rows, self.start), self.edges[rows, :2]

    def rows(self, ranks) -> tuple:
        """(j, row): the edge rows of the records of ``ranks``, record after
        record, and the position in ``ranks`` of each row's record."""
        ranks = np.asarray(ranks, dtype=np.int64)
        first = self.start[ranks]
        j, off = expand_runs(self.start[ranks + 1] - first)
        return j, first[j] + off

    def take(self, ranks) -> "RecordTable":
        """The table of the records of ``ranks``, in that order, gathered
        from this one's arrays."""
        ranks = np.asarray(ranks, dtype=np.int64)
        j, rows = self.rows(ranks)
        t = RecordTable.__new__(RecordTable)
        t.records = [self.records[r] for r in ranks.tolist()]
        t.ids, t.kinds, t.boxes = self.ids[ranks], self.kinds[ranks], self.boxes[ranks]
        t.start, t.rank, t.edges = _offsets(np.diff(self.start)[ranks]), j, self.edges[rows]
        t.part, t.part_start = _part_ordinals(t.start, j, self.part[rows])
        return t


_KIND_CODE = {"point": RecordTable.POINT, "polyline": RecordTable.POLYLINE,
              "polygon": RecordTable.POLYGON}


def _offsets(count: np.ndarray) -> np.ndarray:
    """(N + 1,) run offsets of consecutive runs of the given lengths."""
    return np.concatenate([[0], np.cumsum(count)]).astype(np.int64)


def _part_ordinals(start, rank, part) -> tuple:
    """(ordinal, part_start) of a table's edges, whose records are ``rank``
    and rows ``start``, given a ``part`` label that changes where a
    record's next part begins: each edge's part ordinal, counted across the
    table, and each record's range of ordinals."""
    new = np.ones(len(rank), dtype=bool)
    new[1:] = (rank[1:] != rank[:-1]) | (part[1:] != part[:-1])
    ordinal = np.cumsum(new) - 1
    return ordinal, np.append(ordinal[start[:-1]], ordinal[-1] + 1 if len(ordinal) else 0)


# ---------------------------------------------------------------------------
# Array chunking
# ---------------------------------------------------------------------------

def expand_runs(counts: np.ndarray) -> tuple:
    """For consecutive runs of the given lengths: the run index of every
    element and its offset inside the run."""
    counts = np.asarray(counts, dtype=np.int64)
    run = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    starts = np.cumsum(counts) - counts
    return run, np.arange(len(run), dtype=np.int64) - starts[run]


def budget_runs(cost: np.ndarray, budget: int):
    """(lo, hi) runs of consecutive items whose summed cost stays within
    ``budget``; an item costlier than that gets a run alone."""
    ends = np.cumsum(cost)
    lo = 0
    while lo < len(ends):
        base = ends[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(ends, base + budget, side="right")), lo + 1)
        yield lo, hi
        lo = hi


def overlapping_boxes(boxes: np.ndarray):
    """Chunks (i, j) of the index pairs of (N, 4) closed boxes that
    overlap, each pair once: a sort-and-sweep over x0, where box i's
    candidates are the boxes after it in x0 order up to its x1, kept when
    their y ranges meet too. Chunks stay under ``PAIR_BUDGET`` candidates."""
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
    order = np.argsort(boxes[:, 0], kind="stable")
    x0 = boxes[order, 0]
    after = np.arange(1, len(order) + 1)
    count = np.maximum(np.searchsorted(x0, boxes[order, 2], side="right") - after, 0)
    for s, e in budget_runs(count, PAIR_BUDGET):
        k, off = expand_runs(count[s:e])
        k += s
        i, j = order[k], order[after[k] + off]
        near = (boxes[i, 1] <= boxes[j, 3]) & (boxes[j, 1] <= boxes[i, 3])
        yield i[near], j[near]


# ---------------------------------------------------------------------------
# Orientation predicates and primitive intersection tests
# ---------------------------------------------------------------------------

def orient(ax, ay, bx, by, cx, cy):
    """Twice the signed area of (a, b, c); > 0 for counter-clockwise.

    Works elementwise on arrays.
    """
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _pt(p) -> tuple:
    if isinstance(p, Point2):
        return (p.x, p.y)
    return (float(p[0]), float(p[1]))


def _seg(s) -> tuple:
    return (*_pt(s.a), *_pt(s.b))


def _tri(t) -> tuple:
    return (*_pt(t.v0), *_pt(t.v1), *_pt(t.v2))


def _point_on_segment(px, py, ax, ay, bx, by) -> bool:
    if orient(ax, ay, bx, by, px, py) != 0.0:
        return False
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def _point_in_triangle(px, py, t) -> bool:
    x0, y0, x1, y1, x2, y2 = t
    return (orient(x0, y0, x1, y1, px, py) >= 0.0
            and orient(x1, y1, x2, y2, px, py) >= 0.0
            and orient(x2, y2, x0, y0, px, py) >= 0.0)


def _segments_intersect(ax, ay, bx, by, cx, cy, dx, dy) -> bool:
    o1 = orient(ax, ay, bx, by, cx, cy)
    o2 = orient(ax, ay, bx, by, dx, dy)
    o3 = orient(cx, cy, dx, dy, ax, ay)
    o4 = orient(cx, cy, dx, dy, bx, by)
    if ((o1 > 0) != (o2 > 0)) and ((o3 > 0) != (o4 > 0)) and o1 != 0 and o2 != 0 and o3 != 0 and o4 != 0:
        return True
    if o1 == 0 and _point_on_segment(cx, cy, ax, ay, bx, by):
        return True
    if o2 == 0 and _point_on_segment(dx, dy, ax, ay, bx, by):
        return True
    if o3 == 0 and _point_on_segment(ax, ay, cx, cy, dx, dy):
        return True
    if o4 == 0 and _point_on_segment(bx, by, cx, cy, dx, dy):
        return True
    return False


def _seg_tri_intersect(s, t) -> bool:
    ax, ay, bx, by = s
    if _point_in_triangle(ax, ay, t) or _point_in_triangle(bx, by, t):
        return True
    x0, y0, x1, y1, x2, y2 = t
    for ex, ey, fx, fy in ((x0, y0, x1, y1), (x1, y1, x2, y2), (x2, y2, x0, y0)):
        if _segments_intersect(ax, ay, bx, by, ex, ey, fx, fy):
            return True
    return False


def _tri_tri_intersect(t1, t2) -> bool:
    for px, py in ((t1[0], t1[1]), (t1[2], t1[3]), (t1[4], t1[5])):
        if _point_in_triangle(px, py, t2):
            return True
    for px, py in ((t2[0], t2[1]), (t2[2], t2[3]), (t2[4], t2[5])):
        if _point_in_triangle(px, py, t1):
            return True
    e1 = ((t1[0], t1[1], t1[2], t1[3]), (t1[2], t1[3], t1[4], t1[5]), (t1[4], t1[5], t1[0], t1[1]))
    e2 = ((t2[0], t2[1], t2[2], t2[3]), (t2[2], t2[3], t2[4], t2[5]), (t2[4], t2[5], t2[0], t2[1]))
    for a in e1:
        for b in e2:
            if _segments_intersect(*a, *b):
                return True
    return False


def exact_intersects(a, b) -> bool:
    """Closed-set intersection test for Point2 / Segment / Triangle pairs."""
    rank = {Point2: 0, Segment: 1, Triangle: 2}
    if rank[type(a)] > rank[type(b)]:
        a, b = b, a
    if isinstance(a, Point2):
        px, py = _pt(a)
        if isinstance(b, Point2):
            return px == b.x and py == b.y
        if isinstance(b, Segment):
            return _point_on_segment(px, py, *_seg(b))
        return _point_in_triangle(px, py, _tri(b))
    if isinstance(a, Segment):
        if isinstance(b, Segment):
            return _segments_intersect(*_seg(a), *_seg(b))
        return _seg_tri_intersect(_seg(a), _tri(b))
    return _tri_tri_intersect(_tri(a), _tri(b))


# ---------------------------------------------------------------------------
# Array kernels: segment pairs and point-in-polygon
# ---------------------------------------------------------------------------

def _in_box(px, py, ax, ay, bx, by):
    """Whether each point lies in the closed bbox of its segment."""
    return ((np.minimum(ax, bx) <= px) & (px <= np.maximum(ax, bx))
            & (np.minimum(ay, by) <= py) & (py <= np.maximum(ay, by)))


def _edge_boxes(edges: np.ndarray) -> np.ndarray:
    """(E, 4) closed bboxes of (E, 4) segments."""
    return np.hstack([np.minimum(edges[:, :2], edges[:, 2:]),
                      np.maximum(edges[:, :2], edges[:, 2:])])


def segments_meet(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Closed intersection of segment pairs: whether (N, 4) segment s[k]
    (ax, ay, bx, by) meets t[k]. They cross properly when each one's ends
    lie strictly on opposite sides of the other, and they touch when an end
    of one has orient 0 with the other and lies in its bbox."""
    ax, ay, bx, by = s[:, 0], s[:, 1], s[:, 2], s[:, 3]
    cx, cy, dx, dy = t[:, 0], t[:, 1], t[:, 2], t[:, 3]
    o1 = orient(ax, ay, bx, by, cx, cy)
    o2 = orient(ax, ay, bx, by, dx, dy)
    o3 = orient(cx, cy, dx, dy, ax, ay)
    o4 = orient(cx, cy, dx, dy, bx, by)
    proper = (((o1 > 0) != (o2 > 0)) & ((o3 > 0) != (o4 > 0))
              & (o1 != 0) & (o2 != 0) & (o3 != 0) & (o4 != 0))
    return (proper
            | ((o1 == 0) & _in_box(cx, cy, ax, ay, bx, by))
            | ((o2 == 0) & _in_box(dx, dy, ax, ay, bx, by))
            | ((o3 == 0) & _in_box(ax, ay, cx, cy, dx, dy))
            | ((o4 == 0) & _in_box(bx, by, cx, cy, dx, dy)))


def _point_seg_dist(px, py, ax, ay, bx, by):
    """Distance from point(s) to a closed segment, or to point a when the
    segment has zero length (a point record's edge); broadcasts over
    arrays."""
    dx, dy = bx - ax, by - ay
    den = dx * dx + dy * dy
    t = ((px - ax) * dx + (py - ay) * dy) / (den + (den == 0.0))
    t = np.clip(t, 0.0, 1.0)
    return np.hypot(px - (ax + t * dx), py - (ay + t * dy))


def segment_distances(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Distance between the closed segments of each pair, (N, 4) each: 0
    where they meet, else the least distance from an end of one to the
    other. A zero-length segment is a point."""
    ax, ay, bx, by = s[:, 0], s[:, 1], s[:, 2], s[:, 3]
    cx, cy, dx, dy = t[:, 0], t[:, 1], t[:, 2], t[:, 3]
    d = np.minimum(np.minimum(_point_seg_dist(cx, cy, ax, ay, bx, by),
                              _point_seg_dist(dx, dy, ax, ay, bx, by)),
                   np.minimum(_point_seg_dist(ax, ay, cx, cy, dx, dy),
                              _point_seg_dist(bx, by, cx, cy, dx, dy)))
    d[segments_meet(s, t)] = 0.0
    return d


def points_in_polygons(xy: np.ndarray, part: np.ndarray, start: np.ndarray,
                       edges: np.ndarray) -> np.ndarray:
    """Closed point-in-polygon test of (point, polygon) pairs: whether
    point ``xy[k]`` lies in polygon ``part[k]``, whose ring edges are rows
    ``start[part[k]]`` to ``start[part[k] + 1]`` of ``edges`` (E, 4).

    A point on an edge (orient 0, in the edge's bbox) is inside; otherwise
    the even-odd count of the edges a ray towards +x crosses decides. An
    edge spans the ray when exactly one end lies at or below the point
    (half-open, so a vertex on the ray counts once and a horizontal edge
    never), and lies right of the point when the sign of its orient says
    the point is left of the edge directed upward. Every decision is an
    ``orient`` sign, so a point within rounding of an edge falls on the
    side that edge's orient gives.
    """
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    part = np.asarray(part, dtype=np.int64)
    first = start[part]
    cost = start[part + 1] - first
    out = np.zeros(len(part), dtype=bool)
    for lo, hi in budget_runs(cost, PAIR_BUDGET):
        k, off = expand_runs(cost[lo:hi])
        e = edges[first[k + lo] + off]
        px, py = xy[k + lo, 0], xy[k + lo, 1]
        ax, ay, bx, by = e[:, 0], e[:, 1], e[:, 2], e[:, 3]
        o = orient(ax, ay, bx, by, px, py)
        on = (o == 0.0) & _in_box(px, py, ax, ay, bx, by)
        right = ((ay <= py) != (by <= py)) & (o != 0.0) & ((o > 0.0) == (by > ay))
        n = hi - lo
        out[lo:hi] = ((np.bincount(k[on], minlength=n) > 0)
                      | (np.bincount(k[right], minlength=n) % 2 == 1))
    return out


def points_in_parts(xy: np.ndarray, rank: np.ndarray, table: RecordTable) -> np.ndarray:
    """Per (point, record) pair, whether point ``xy[k]`` lies in the closed
    polygon record of rank ``rank[k]`` in ``table``, that is in one of its
    parts; never in a point or polyline record."""
    rank = np.asarray(rank, dtype=np.int64)
    first = table.part_start[rank]
    count = np.where(table.kinds[rank] == RecordTable.POLYGON,
                     table.part_start[rank + 1] - first, 0)
    j, off = expand_runs(count)
    inside = points_in_polygons(np.asarray(xy, dtype=float)[j], first[j] + off,
                                table.part_edges, table.edges)
    return np.bincount(j[inside], minlength=len(rank)) > 0


def points_in_record(pts: np.ndarray, record: GeometryRecord) -> np.ndarray:
    """(N,) whether each point lies in the closed polygon record: in one of
    its parts."""
    edges, parts = edge_table(record)
    start = np.searchsorted(parts, np.arange(parts[-1] + 2))
    n = len(start) - 1
    k, part = np.divmod(np.arange(len(pts) * n), n)
    return points_in_polygons(pts[k], part, start, edges).reshape(len(pts), n).any(axis=1)


# ---------------------------------------------------------------------------
# Distances and record predicates
# ---------------------------------------------------------------------------

def _seg_seg_dist(s1, s2):
    if _segments_intersect(*s1, *s2):
        return 0.0
    ax, ay, bx, by = s1
    cx, cy, dx, dy = s2
    return float(min(_point_seg_dist(ax, ay, *s2), _point_seg_dist(bx, by, *s2),
                     _point_seg_dist(cx, cy, *s1), _point_seg_dist(dx, dy, *s1)))


def primitive_distance(a, b) -> float:
    """Euclidean distance between two closed points or segments (0 when
    they touch)."""
    if isinstance(a, Segment) and isinstance(b, Point2):
        a, b = b, a
    if isinstance(a, Point2):
        px, py = _pt(a)
        if isinstance(b, Point2):
            return math.hypot(px - b.x, py - b.y)
        return float(_point_seg_dist(px, py, *_seg(b)))
    return _seg_seg_dist(_seg(a), _seg(b))


def exact_distance(p, g) -> float:
    """Distance from point p to the closed point set of a record, a Point2,
    a Segment, a PolygonGeom, or a list of Segments or of PolygonGeoms."""
    if isinstance(g, Point2):
        g = GeometryRecord(0, "point", g)
    elif not isinstance(g, GeometryRecord):
        parts = [g] if isinstance(g, (Segment, PolygonGeom)) else g
        g = GeometryRecord(0, "polyline" if isinstance(parts[0], Segment) else "polygon", parts)
    return float(points_to_record_distance(np.array([_pt(p)]), g)[0])


def _vertex_inside(a: GeometryRecord, b: GeometryRecord) -> bool:
    """Whether a vertex of one record lies in the other, polygon record.
    When no edge of one meets an edge of the other, every part of a record
    lies wholly inside or wholly outside the other, so this decides whether
    the two intersect."""
    return bool((b.kind == "polygon" and points_in_record(edge_table(a)[0][:, :2], b).any())
                or (a.kind == "polygon" and points_in_record(edge_table(b)[0][:, :2], a).any()))


def _edges_meet(a: GeometryRecord, b: GeometryRecord) -> bool:
    """Whether an edge of record a meets an edge of record b, tested on the
    edge pairs whose bboxes overlap."""
    ea, eb = edge_table(a)[0], edge_table(b)[0]
    for i, j in overlapping_boxes(np.concatenate([_edge_boxes(ea), _edge_boxes(eb)])):
        i, j = np.minimum(i, j), np.maximum(i, j)
        cross = (i < len(ea)) & (j >= len(ea))
        if segments_meet(ea[i[cross]], eb[j[cross] - len(ea)]).any():
            return True
    return False


def geometry_distance(a: GeometryRecord, b: GeometryRecord) -> float:
    """Exact distance between two records' closed point sets: 0 when they
    intersect, otherwise the least distance between an edge of one and an
    edge of the other."""
    if a.kind == "point":
        return exact_distance(a.geometry, b)
    if b.kind == "point":
        return exact_distance(b.geometry, a)
    ea, eb = edge_table(a)[0], edge_table(b)[0]
    best = math.inf
    for lo, hi in budget_runs(np.full(len(ea), len(eb)), PAIR_BUDGET):
        i, j = expand_runs(np.full(hi - lo, len(eb)))
        best = min(best, float(segment_distances(ea[lo + i], eb[j]).min()))
    if best > 0.0 and _vertex_inside(a, b):
        return 0.0
    return best


def points_in_triangles(pts: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Boolean (N,) mask: point covered by at least one closed CCW triangle.

    pts: (N, 2), tris: (T, 3, 2).
    """
    if len(tris) == 0 or len(pts) == 0:
        return np.zeros(len(pts), dtype=bool)
    px = pts[:, 0][:, None]
    py = pts[:, 1][:, None]
    x0, y0 = tris[:, 0, 0][None, :], tris[:, 0, 1][None, :]
    x1, y1 = tris[:, 1, 0][None, :], tris[:, 1, 1][None, :]
    x2, y2 = tris[:, 2, 0][None, :], tris[:, 2, 1][None, :]
    inside = ((orient(x0, y0, x1, y1, px, py) >= 0)
              & (orient(x1, y1, x2, y2, px, py) >= 0)
              & (orient(x2, y2, x0, y0, px, py) >= 0))
    return inside.any(axis=1)


def points_to_segments_distance(pts: np.ndarray, segs: np.ndarray) -> np.ndarray:
    """(N,) min distance from each point to any of the (S, 4) segments."""
    out = np.empty(len(pts))
    step = max(PAIR_BUDGET // max(len(segs), 1), 1)
    ax, ay, bx, by = segs[None, :, 0], segs[None, :, 1], segs[None, :, 2], segs[None, :, 3]
    for lo in range(0, len(pts), step):
        px, py = pts[lo:lo + step, 0, None], pts[lo:lo + step, 1, None]
        out[lo:lo + step] = _point_seg_dist(px, py, ax, ay, bx, by).min(axis=1, initial=np.inf)
    return out


def points_to_record_distance(pts: np.ndarray, record: GeometryRecord) -> np.ndarray:
    """(N,) exact distance from each point to the record's closed point set."""
    if record.kind == "point":
        g = record.geometry
        return np.hypot(pts[:, 0] - g.x, pts[:, 1] - g.y)
    d = points_to_segments_distance(pts, edge_table(record)[0])
    if record.kind == "polygon":
        d[points_in_record(pts, record)] = 0.0
    return d


def pairwise_intersects(a: GeometryRecord, b: GeometryRecord) -> bool:
    """Exact full-geometry intersection between two records (closed sets):
    some edge of one meets an edge of the other, or a vertex of one lies in
    the other, polygon record. A point meets a polygon when
    ``points_in_polygons`` puts it inside and a segment when it lies on it
    (orient 0, in the bbox), the predicates the engine's tests use."""
    abox, bbox_ = a.bbox(), b.bbox()
    if abox[2] < bbox_[0] or bbox_[2] < abox[0] or abox[3] < bbox_[1] or bbox_[3] < abox[1]:
        return False
    if b.kind == "point" and a.kind != "point":
        a, b = b, a
    if a.kind == "point":
        p = a.geometry
        if b.kind == "point":
            return p == b.geometry
        if b.kind == "polygon":
            return bool(points_in_record(np.array([[p.x, p.y]]), b)[0])
        ax, ay, bx, by = segments_array(b).T
        return bool(((orient(ax, ay, bx, by, p.x, p.y) == 0.0)
                     & _in_box(p.x, p.y, ax, ay, bx, by)).any())
    return _edges_meet(a, b) or _vertex_inside(a, b)


def _boxes_meet(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether closed (N, 4) boxes a[k] and b[k] overlap."""
    return ((a[:, 0] <= b[:, 2]) & (b[:, 0] <= a[:, 2])
            & (a[:, 1] <= b[:, 3]) & (b[:, 1] <= a[:, 3]))


def _any_vertex_in(vstart, verts, owner, other, table) -> np.ndarray:
    """Per pair k, whether a vertex of record ``owner[k]`` (``vstart`` /
    ``verts`` rows) lies in polygon record ``other[k]`` of ``table``."""
    k, off = expand_runs(vstart[owner + 1] - vstart[owner])
    inside = points_in_parts(verts[vstart[owner[k]] + off], other[k], table)
    return np.bincount(k[inside], minlength=len(owner)) > 0


def grown_boxes(boxes: np.ndarray, reach) -> np.ndarray:
    """(N, 4) closed boxes, each grown by its reach on every side, or as
    they are when ``reach`` is None."""
    return boxes if reach is None else boxes + reach[:, None] * [-1.0, -1.0, 1.0, 1.0]


def records_intersect(a: RecordTable, b: RecordTable, i, j, reach=None) -> np.ndarray:
    """Per candidate pair k, exactly ``pairwise_intersects`` of record
    ``i[k]`` of table a and record ``j[k]`` of table b, in a few array calls
    for all pairs; with ``reach`` (one radius per pair), exactly
    ``geometry_distance(...) <= reach[k]`` instead.

    Pairs whose record boxes miss (grown by the reach) drop out. Then one
    pass tests every edge pair of the rest whose edge bboxes overlap (a point
    is a zero-length edge), chunked under ``PAIR_BUDGET``: ``segments_meet``,
    or ``segment_distances`` within the reach, where a's edge box grows by
    it. Where no edge pair holds, no edge meets, so each part of one record
    lies wholly inside or outside the other, and one ``points_in_parts``
    call each way, with one vertex per polygon part
    (``RecordTable.containment_vertices``), decides whether they meet.
    """
    i, j = np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64)
    out = np.zeros(len(i), dtype=bool)
    if not len(i):
        return out
    if reach is not None:
        reach = np.asarray(reach, dtype=np.float64)
    sa, ea, sb, eb = a.start, a.edges, b.start, b.edges
    ba, bb = a.edge_boxes, b.edge_boxes
    near = np.flatnonzero(_boxes_meet(grown_boxes(a.boxes[i], reach), b.boxes[j]))
    na = (sa[1:] - sa[:-1])[i[near]]
    nb = (sb[1:] - sb[:-1])[j[near]]
    cost = na * nb
    for lo, hi in budget_runs(cost, PAIR_BUDGET):
        k, off = expand_runs(cost[lo:hi])
        k += lo
        q, r = np.divmod(off, nb[k])
        ka, kb = sa[i[near[k]]] + q, sb[j[near[k]]] + r
        rk = None if reach is None else reach[near[k]]
        hit = _boxes_meet(grown_boxes(ba[ka], rk), bb[kb])
        k, ka, kb = k[hit], ka[hit], kb[hit]
        if reach is None:
            held = segments_meet(ea[ka], eb[kb])
        else:
            held = segment_distances(ea[ka], eb[kb]) <= rk[hit]
        out[near[k[held]]] = True
    rest = near[~out[near]]
    ir, jr = i[rest], j[rest]
    out[rest] = (_any_vertex_in(*a.containment_vertices, ir, jr, b)
                 | _any_vertex_in(*b.containment_vertices, jr, ir, a))
    return out


def polygon_distances(source: GeometryRecord, table: RecordTable) -> np.ndarray:
    """Per record of ``table``, all polygons, exactly
    ``geometry_distance(source, record)``: the least point-to-segment or
    ``segment_distances`` value between the source and the record's ring
    edges, taken in one array pass over all of them, and 0 where the source
    lies in the record or, when no edge meets, a vertex of one lies in the
    other (``points_in_parts`` and ``points_in_record``)."""
    first, edges, n = table.start, table.edges, len(table)
    if source.kind == "point":
        p = source.geometry
        d = _point_seg_dist(p.x, p.y, edges[:, 0], edges[:, 1], edges[:, 2], edges[:, 3])
        d = np.minimum.reduceat(d, first[:-1])
        d[points_in_parts(np.tile([p.x, p.y], (n, 1)), np.arange(n), table)] = 0.0
        return d
    es = edge_table(source)[0]
    best = np.empty(len(edges))
    for lo, hi in budget_runs(np.full(len(edges), len(es)), PAIR_BUDGET):
        e, s = np.divmod(np.arange((hi - lo) * len(es)), len(es))
        best[lo:hi] = segment_distances(es[s], edges[lo + e]).reshape(hi - lo, len(es)).min(axis=1)
    d = np.minimum.reduceat(best, first[:-1])
    # Where no edges meet, the two still meet when a vertex of one lies in
    # the other: every vertex, as ``_vertex_inside`` tests.
    far = np.flatnonzero(d > 0.0)
    k, v = np.divmod(np.arange(len(far) * len(es)), len(es))
    inside = points_in_parts(es[v, :2], far[k], table)
    if source.kind == "polygon":
        rec, off = expand_runs(first[far + 1] - first[far])
        held = points_in_record(edges[first[far[rec]] + off, :2], source)
        inside = np.r_[inside, held]
        k = np.r_[k, rec]
    d[far[np.bincount(k[inside], minlength=len(far)) > 0]] = 0.0
    return d


# ---------------------------------------------------------------------------
# Rings, shoelace, triangulation
# ---------------------------------------------------------------------------

def shoelace(ring: np.ndarray) -> float:
    """Signed area of a ring (positive when counter-clockwise), summed about
    its first vertex so that far-off coordinates keep their precision."""
    x, y = ring[:, 0] - ring[0, 0], ring[:, 1] - ring[0, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _ring_edges(ring: np.ndarray) -> np.ndarray:
    """(n, 4) edges of a closed ring, edge k from vertex k to vertex k + 1."""
    return np.concatenate([ring, np.roll(ring, -1, axis=0)], axis=1)


def _normalize_ring(ring) -> np.ndarray:
    """Drop the closing duplicate, exact repeats, and collinear wedges."""
    arr = np.asarray(ring, dtype=float).reshape(-1, 2)
    if not np.isfinite(arr).all():
        raise DegenerateGeometryError("non-finite ring coordinate")
    if len(arr) >= 2 and np.array_equal(arr[0], arr[-1]):
        arr = arr[:-1]
    while len(arr) >= 3:
        p, n = np.roll(arr, 1, axis=0), np.roll(arr, -1, axis=0)
        bad = np.flatnonzero(np.all(arr == n, axis=1)
                             | (orient(p[:, 0], p[:, 1], arr[:, 0], arr[:, 1],
                                       n[:, 0], n[:, 1]) == 0.0))
        if not len(bad):
            break
        # One at a time: a repeat is a wedge of its twin too.
        arr = np.delete(arr, bad[0], axis=0)
    if len(arr) < 3:
        raise DegenerateGeometryError("ring degenerates to fewer than 3 vertices")
    return arr


def _check_rings(rings) -> None:
    """Raise TriangulationError, naming a ring, unless the rings bound one
    simple polygon: no two edges meet but neighbours of one ring at their
    shared vertex (edge pairs from ``overlapping_boxes``, settled by
    ``segments_meet``), and each hole's first vertex lies inside the outer
    ring and outside the other holes (``points_in_polygons``)."""
    lens = np.array([len(ring) for ring in rings], dtype=np.int64)
    edges = np.concatenate([_ring_edges(ring) for ring in rings])
    ring, k = expand_runs(lens)
    bad = len(rings)
    for i, j in overlapping_boxes(_edge_boxes(edges)):
        step = (k[j] - k[i]) % lens[ring[i]]
        near = (ring[i] == ring[j]) & ((step == 1) | (step == lens[ring[i]] - 1))
        i, j = i[~near], j[~near]
        meet = segments_meet(edges[i], edges[j])
        if meet.any():
            bad = min(bad, int(np.maximum(ring[i], ring[j])[meet].min()))
    if bad < len(rings):
        raise TriangulationError("self-intersecting ring, or rings that meet", bad)
    # Every (hole, other ring) pair.
    hole, other = np.divmod(np.arange((len(rings) - 1) ** 2), max(len(rings) - 1, 1))
    hole += 1
    other += other >= hole
    start = np.r_[0, np.cumsum(lens)]
    wrong = points_in_polygons(edges[start[hole], :2], other, start, edges) != (other == 0)
    if wrong.any():
        raise TriangulationError("hole outside the outer ring or inside another hole",
                                 int(hole[wrong].min()))


class _Node:
    __slots__ = ("x", "y", "ring", "idx", "prev", "next")

    def __init__(self, x, y, ring, idx):
        self.x, self.y, self.ring, self.idx = x, y, ring, idx
        self.prev = self.next = None


def _link(nodes):
    for a, b in zip(nodes, nodes[1:] + nodes[:1]):
        a.next, b.prev = b, a


def _find_bridge(hole_nodes, merged, all_edges):
    """Pick (hole node, merged-ring node) joinable without crossing any edge."""
    h = max(hole_nodes, key=lambda n: (n.x, n.y))
    candidates = sorted(merged, key=lambda v: (v.x - h.x) ** 2 + (v.y - h.y) ** 2)
    for v in candidates:
        if v.x == h.x and v.y == h.y:
            continue
        ok = True
        for ax, ay, bx, by in all_edges:
            # Edges sharing an endpoint with the bridge cannot block it.
            if (ax == h.x and ay == h.y) or (bx == h.x and by == h.y):
                continue
            if (ax == v.x and ay == v.y) or (bx == v.x and by == v.y):
                continue
            if _segments_intersect(h.x, h.y, v.x, v.y, ax, ay, bx, by):
                ok = False
                break
        if ok:
            return h, v
    raise TriangulationError("no visible bridge vertex for hole", hole_nodes[0].ring)


def triangulate(rings) -> tuple:
    """Ear-clip a normalized ring set into (triangles, edge_to_triangle).

    Expects the outer ring CCW and holes CW (``polygon_from_rings`` arranges
    this). Holes are joined to the outer boundary with bridge edges before
    clipping. Raises TriangulationError for rings ``_check_rings`` refuses.
    """
    rings = [np.asarray(r, dtype=float) for r in rings]
    _check_rings(rings)

    ring_lens = [len(r) for r in rings]
    all_edges = []
    for ring in rings:
        all_edges.extend(np.concatenate([ring, np.roll(ring, -1, axis=0)], axis=1))

    outer = [_Node(x, y, 0, i) for i, (x, y) in enumerate(rings[0])]
    _link(outer)
    merged = list(outer)
    hole_order = sorted(range(1, len(rings)), key=lambda ri: -rings[ri][:, 0].max())
    for ri in hole_order:
        hole = [_Node(x, y, ri, i) for i, (x, y) in enumerate(rings[ri])]
        _link(hole)
        h, v = _find_bridge(hole, merged, all_edges)
        h2 = _Node(h.x, h.y, h.ring, h.idx)
        v2 = _Node(v.x, v.y, v.ring, v.idx)
        # Splice: ... -> v -> h -> (hole cycle) -> h2 -> v2 -> v.next -> ...
        v_next, h_prev = v.next, h.prev
        v.next, h.prev = h, v
        h2.next, v2.prev = v2, h2
        h_prev.next, h2.prev = h2, h_prev
        v2.next, v_next.prev = v_next, v2
        all_edges.append(np.array([h.x, h.y, v.x, v.y]))
        merged = merged + hole + [h2, v2]

    count = len(merged)
    triangles = []
    tri_of_edge = {}

    def is_boundary(a, b):
        return a.ring == b.ring and b.idx == (a.idx + 1) % ring_lens[a.ring]

    def emit(a, b, c):
        ti = len(triangles)
        triangles.append(((a.x, a.y), (b.x, b.y), (c.x, c.y)))
        for u, w in ((a, b), (b, c), (c, a)):
            if is_boundary(u, w):
                tri_of_edge[(u.ring, u.idx)] = ti

    node = merged[0]
    stall = 0
    while count > 3:
        p, c, n = node.prev, node, node.next
        cross = orient(p.x, p.y, c.x, c.y, n.x, n.y)
        clipped = False
        if cross > 0.0:
            blocked = False
            other = n.next
            while other is not p:
                o = other
                same = ((o.x == p.x and o.y == p.y) or (o.x == c.x and o.y == c.y)
                        or (o.x == n.x and o.y == n.y))
                if not same and _point_in_triangle(o.x, o.y, (p.x, p.y, c.x, c.y, n.x, n.y)):
                    blocked = True
                    break
                other = other.next
            if not blocked:
                emit(p, c, n)
                clipped = True
        elif cross == 0.0 and not is_boundary(p, c) and not is_boundary(c, n):
            clipped = True  # degenerate wedge from a bridge duplicate
        if clipped:
            p.next, n.prev = n, p
            node = n
            count -= 1
            stall = 0
        else:
            node = node.next
            stall += 1
            if stall > count + 1:
                raise TriangulationError("ear clipping stalled (non-simple input?)", 0)
    p, c, n = node.prev, node, node.next
    if orient(p.x, p.y, c.x, c.y, n.x, n.y) > 0.0:
        emit(p, c, n)

    tris = np.array(triangles, dtype=float)
    expected = sum(ring_lens)
    if len(tri_of_edge) != expected:
        raise TriangulationError(
            f"edge map incomplete ({len(tri_of_edge)}/{expected} boundary edges)", 0)
    return tris, tri_of_edge


def polygon_from_rings(rings) -> PolygonGeom:
    """Normalize ring orientation and degeneracies, then check the rings.

    The outer ring is forced CCW and holes CW regardless of input winding.
    Raises TriangulationError, naming the ring, for a self-intersecting
    ring, rings that meet, or a hole outside the outer ring (or inside
    another hole), and DegenerateGeometryError when no area is left.
    """
    norm = []
    for ri, ring in enumerate(rings):
        arr = _normalize_ring(ring)
        if (shoelace(arr) > 0) != (ri == 0):
            arr = arr[::-1].copy()
        norm.append(arr)
    _check_rings(norm)
    if abs(shoelace(norm[0])) - sum(abs(shoelace(r)) for r in norm[1:]) <= 0:
        raise DegenerateGeometryError("holes consume the full polygon area")
    return PolygonGeom(rings=norm)


# ---------------------------------------------------------------------------
# Convex hull
# ---------------------------------------------------------------------------

def convex_hull(points) -> PolygonGeom:
    """Minimal convex polygon containing all inputs (monotone chain), CCW."""
    pts = sorted({_pt(p) for p in points})
    if len(pts) < 3:
        raise DegenerateGeometryError("convex hull needs >= 3 distinct points")

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) > 1 and orient(*chain[-2], *chain[-1], *p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(pts[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DegenerateGeometryError("all points collinear")
    return polygon_from_rings([hull])


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------

def project_4326_to_3857(p) -> Point2:
    """Spherical web-mercator forward transform (degrees to meters), by
    ``project_points_4326_to_3857``: every projection takes that one path,
    so a point projects alike alone, in a record and in a column."""
    lon, lat = _pt(p)
    if abs(lat) >= MERCATOR_MAX_LAT:
        raise ProjectionError(f"latitude {lat} outside (-{MERCATOR_MAX_LAT}, {MERCATOR_MAX_LAT})")
    if abs(lon) > 180.0:
        raise ProjectionError(f"longitude {lon} outside [-180, 180]")
    return Point2(*project_points_4326_to_3857(np.array([[lon, lat]]))[0].tolist())


def project_points_4326_to_3857(pts: np.ndarray) -> np.ndarray:
    """(N, 2) degrees to meters; each row's result does not depend on the
    others."""
    lon, lat = pts[:, 0], pts[:, 1]
    if np.any(np.abs(lat) >= MERCATOR_MAX_LAT) or np.any(np.abs(lon) > 180.0):
        raise ProjectionError("coordinates outside the web-mercator domain")
    x = MERCATOR_RADIUS * np.radians(lon)
    y = MERCATOR_RADIUS * np.arctanh(np.sin(np.radians(lat)))
    return np.column_stack([x, y])


def project_record_4326_to_3857(record: GeometryRecord) -> GeometryRecord:
    """Project a record's vertices; polygon rings are checked again after."""
    if record.kind == "point":
        return GeometryRecord(record.id, "point",
                              project_4326_to_3857(record.geometry), record.value)
    if record.kind == "polyline":
        ends = project_points_4326_to_3857(
            np.array([_seg(s) for s in record.geometry], dtype=np.float64).reshape(-1, 2))
        segs = [Segment(Point2(ax, ay), Point2(bx, by))
                for ax, ay, bx, by in ends.reshape(-1, 4).tolist()]
        return GeometryRecord(record.id, "polyline", segs, record.value)
    parts = [polygon_from_rings([project_points_4326_to_3857(r) for r in part.rings])
             for part in record.geometry]
    return GeometryRecord(record.id, "polygon", parts, record.value)


# ---------------------------------------------------------------------------
# WKT and CSV parsing
# ---------------------------------------------------------------------------

class _Tokens:
    """WKT tokens: "(", ")", "," or a run of other non-space characters,
    found by one regex pass over the text. ``peek`` returns the next token
    ("" at the end) and ``take`` also steps past it; ``pos``, the offset
    ``ParseError`` reports, is then the token's start or its end."""

    _TOKEN = re.compile(r"\s*([(),]|[^\s(),]+)")

    def __init__(self, text: str):
        self._tokens = [(m.start(1), m.end(), m[1]) for m in self._TOKEN.finditer(text)]
        self._tokens.append((len(text), len(text), ""))
        self._next = 0
        self.pos = 0

    def peek(self) -> str:
        self.pos, _, tok = self._tokens[self._next]
        return tok

    def take(self) -> str:
        _, self.pos, tok = self._tokens[self._next]
        if tok:
            self._next += 1
        return tok

    def expect(self, want: str):
        got = self.take()
        if got != want:
            raise ParseError(f"expected {want!r}, got {got!r}", self.pos)

    def number(self) -> float:
        tok = self.take()
        try:
            return float(tok)
        except ValueError:
            raise ParseError(f"expected a number, got {tok!r}", self.pos) from None


def _wkt_coords(tk: _Tokens) -> np.ndarray:
    tk.expect("(")
    coords = [(tk.number(), tk.number())]
    while tk.peek() == ",":
        tk.take()
        coords.append((tk.number(), tk.number()))
    tk.expect(")")
    return np.array(coords, dtype=float)


def _wkt_rings(tk: _Tokens) -> list:
    tk.expect("(")
    rings = [_wkt_coords(tk)]
    while tk.peek() == ",":
        tk.take()
        rings.append(_wkt_coords(tk))
    tk.expect(")")
    return rings


def parse_wkt(text: str) -> tuple:
    """Parse WKT into a (kind, geometry) payload for a GeometryRecord.

    Supports POINT, LINESTRING, POLYGON, MULTIPOLYGON. A MULTIPOLYGON becomes
    one PolygonGeom per part under one record.
    """
    tk = _Tokens(text)
    tag = tk.take().upper()
    if tag in {"POINT", "LINESTRING", "POLYGON", "MULTIPOLYGON"} and tk.peek().upper() == "EMPTY":
        raise ParseError("EMPTY geometries are not supported", tk.pos)
    if tag == "POINT":
        tk.expect("(")
        x, y = tk.number(), tk.number()
        tk.expect(")")
        return "point", Point2(x, y)
    if tag == "LINESTRING":
        coords = _wkt_coords(tk)
        if len(coords) < 2:
            raise ParseError("LINESTRING needs >= 2 points", tk.pos)
        segs = []
        for (ax, ay), (bx, by) in zip(coords, coords[1:]):
            if ax == bx and ay == by:
                continue
            segs.append(Segment(Point2(ax, ay), Point2(bx, by)))
        if not segs:
            raise ParseError("LINESTRING degenerates to a point", tk.pos)
        return "polyline", segs
    if tag == "POLYGON":
        start = tk.pos
        try:
            return "polygon", [polygon_from_rings(_wkt_rings(tk))]
        except (DegenerateGeometryError, TriangulationError) as exc:
            raise ParseError(f"invalid POLYGON: {exc}", start) from exc
    if tag == "MULTIPOLYGON":
        start = tk.pos
        tk.expect("(")
        parts = []
        try:
            parts.append(polygon_from_rings(_wkt_rings(tk)))
            while tk.peek() == ",":
                tk.take()
                parts.append(polygon_from_rings(_wkt_rings(tk)))
        except (DegenerateGeometryError, TriangulationError) as exc:
            raise ParseError(f"invalid MULTIPOLYGON part: {exc}", start) from exc
        tk.expect(")")
        return "polygon", parts
    if tag in {"MULTIPOINT", "MULTILINESTRING", "GEOMETRYCOLLECTION", "POINTZ", "POINT Z"}:
        raise UnsupportedTypeError(f"unsupported WKT type {tag}")
    raise UnsupportedTypeError(f"unsupported WKT type {tag!r}")

