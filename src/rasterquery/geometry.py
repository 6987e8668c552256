"""Exact geometric primitives, predicates, triangulation, hulls, projection.

All predicates evaluate double-precision orientation determinants with no
epsilon; closed-set semantics throughout (a shared boundary point counts as
intersecting). Everything here is a pure function over immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    """A simple polygon (outer ring plus holes) with its triangulation.

    rings: vertex arrays of shape (n, 2), outer first (CCW), holes CW, no
    closing duplicate. triangles: (T, 3, 2) CCW triangles covering the
    interior. edge_to_triangle maps each boundary edge (ring index, edge
    index) to the one triangle incident on it.
    """

    rings: list
    triangles: np.ndarray
    edge_to_triangle: dict

    _edges: np.ndarray | None = field(default=None, repr=False)

    @property
    def area(self) -> float:
        return float(np.sum(_tri_areas(self.triangles)))

    def boundary_edges(self) -> np.ndarray:
        """All boundary edges as an (E, 4) array of ax, ay, bx, by, with edge
        ordinal = position in this enumeration (ring-major)."""
        if self._edges is None:
            parts = []
            for ring in self.rings:
                parts.append(np.concatenate([ring, np.roll(ring, -1, axis=0)], axis=1))
            self._edges = np.concatenate(parts, axis=0)
        return self._edges

    def bbox(self):
        pts = np.concatenate(self.rings, axis=0)
        return (float(pts[:, 0].min()), float(pts[:, 1].min()),
                float(pts[:, 0].max()), float(pts[:, 1].max()))


@dataclass
class GeometryRecord:
    """One spatial object with a dataset-unique id.

    kind 'point' -> Point2, 'polyline' -> list[Segment], 'polygon' ->
    list[PolygonGeom] (one per part). value is an optional payload that sum
    aggregation adds up.
    """

    id: int
    kind: str
    geometry: object
    value: float | None = None

    def __post_init__(self):
        if self.id < 0:
            raise DataError(f"record id must be unsigned, got {self.id}")
        ok = (self.kind == "point" and isinstance(self.geometry, Point2)) or \
             (self.kind == "polyline" and isinstance(self.geometry, list)
              and all(isinstance(s, Segment) for s in self.geometry)) or \
             (self.kind == "polygon" and isinstance(self.geometry, list)
              and all(isinstance(p, PolygonGeom) for p in self.geometry))
        if not ok:
            raise DataError(f"kind {self.kind!r} does not match geometry payload")

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
        tris = triangles_array(self)
        areas = _tri_areas(tris)
        cents = tris.mean(axis=1)
        w = areas / areas.sum()
        return (float(cents[:, 0] @ w), float(cents[:, 1] @ w))


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
    """(T, 3, 2) array of all triangles across a polygon record's parts."""
    arr = getattr(record, "_tris_cache", None)
    if arr is None:
        arr = np.concatenate([part.triangles for part in record.geometry], axis=0)
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
# Distances
# ---------------------------------------------------------------------------

def _point_seg_dist(px, py, ax, ay, bx, by):
    """Distance from point(s) to a closed segment; broadcasts over arrays."""
    dx, dy = bx - ax, by - ay
    den = dx * dx + dy * dy
    t = ((px - ax) * dx + (py - ay) * dy) / den
    t = np.clip(t, 0.0, 1.0)
    return np.hypot(px - (ax + t * dx), py - (ay + t * dy))


def _point_tri_dist(px, py, t):
    x0, y0, x1, y1, x2, y2 = t
    d = min(_point_seg_dist(px, py, x0, y0, x1, y1),
            _point_seg_dist(px, py, x1, y1, x2, y2),
            _point_seg_dist(px, py, x2, y2, x0, y0))
    if _point_in_triangle(px, py, t):
        return 0.0
    return float(d)


def _seg_seg_dist(s1, s2):
    if _segments_intersect(*s1, *s2):
        return 0.0
    ax, ay, bx, by = s1
    cx, cy, dx, dy = s2
    return float(min(_point_seg_dist(ax, ay, *s2), _point_seg_dist(bx, by, *s2),
                     _point_seg_dist(cx, cy, *s1), _point_seg_dist(dx, dy, *s1)))


def _tri_edges(t):
    return ((t[0], t[1], t[2], t[3]), (t[2], t[3], t[4], t[5]), (t[4], t[5], t[0], t[1]))


def primitive_distance(a, b) -> float:
    """Euclidean distance between two closed primitives (0 when they touch)."""
    rank = {Point2: 0, Segment: 1, Triangle: 2}
    if rank[type(a)] > rank[type(b)]:
        a, b = b, a
    if isinstance(a, Point2):
        px, py = _pt(a)
        if isinstance(b, Point2):
            return math.hypot(px - b.x, py - b.y)
        if isinstance(b, Segment):
            return float(_point_seg_dist(px, py, *_seg(b)))
        return _point_tri_dist(px, py, _tri(b))
    if isinstance(a, Segment):
        if isinstance(b, Segment):
            return _seg_seg_dist(_seg(a), _seg(b))
        s, t = _seg(a), _tri(b)
        if _seg_tri_intersect(s, t):
            return 0.0
        return min(_seg_seg_dist(s, e) for e in _tri_edges(t))
    t1, t2 = _tri(a), _tri(b)
    if _tri_tri_intersect(t1, t2):
        return 0.0
    return min(_seg_seg_dist(e1, e2) for e1 in _tri_edges(t1) for e2 in _tri_edges(t2))


def features(record: GeometryRecord) -> list:
    """Convex primitives whose union equals the record's closed point set."""
    if record.kind == "point":
        return [record.geometry]
    if record.kind == "polyline":
        return list(record.geometry)
    out = []
    for part in record.geometry:
        for t in part.triangles:
            out.append(Triangle(Point2(*t[0]), Point2(*t[1]), Point2(*t[2])))
    return out


def exact_distance(p, g) -> float:
    """Distance from point p to the closed point set of geometry/record g."""
    px, py = _pt(p)
    if isinstance(g, GeometryRecord):
        g = g.geometry
    if isinstance(g, Point2):
        return math.hypot(px - g.x, py - g.y)
    if isinstance(g, Segment):
        return float(_point_seg_dist(px, py, *_seg(g)))
    if isinstance(g, Triangle):
        return _point_tri_dist(px, py, _tri(g))
    if isinstance(g, PolygonGeom):
        g = [g]
    if isinstance(g, list) and g and isinstance(g[0], Segment):
        segs = np.array([_seg(s) for s in g])
        return float(_point_seg_dist(px, py, segs[:, 0], segs[:, 1], segs[:, 2], segs[:, 3]).min())
    if isinstance(g, list) and g and isinstance(g[0], PolygonGeom):
        for part in g:
            if point_in_polygon((px, py), part):
                return 0.0
        best = math.inf
        for part in g:
            e = part.boundary_edges()
            best = min(best, float(_point_seg_dist(px, py, e[:, 0], e[:, 1], e[:, 2], e[:, 3]).min()))
        return best
    raise TypeError(f"unsupported geometry {type(g)!r}")


def geometry_distance(a: GeometryRecord, b: GeometryRecord) -> float:
    """Exact distance between two records' closed point sets."""
    if a.kind == "point":
        return exact_distance(a.geometry, b)
    if b.kind == "point":
        return exact_distance(b.geometry, a)
    fa, fb = features(a), features(b)
    return min(primitive_distance(x, y) for x in fa for y in fb)


# ---------------------------------------------------------------------------
# Vectorized point batch helpers
# ---------------------------------------------------------------------------

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


def point_in_polygon(p, poly: PolygonGeom) -> bool:
    px, py = _pt(p)
    return bool(points_in_triangles(np.array([[px, py]]), poly.triangles)[0])


def points_to_segments_distance(pts: np.ndarray, segs: np.ndarray) -> np.ndarray:
    """(N,) min distance from each point to any of the (S, 4) segments."""
    out = np.full(len(pts), np.inf)
    px, py = pts[:, 0], pts[:, 1]
    for ax, ay, bx, by in segs:
        np.minimum(out, _point_seg_dist(px, py, ax, ay, bx, by), out=out)
    return out


def points_to_record_distance(pts: np.ndarray, record: GeometryRecord) -> np.ndarray:
    """(N,) exact distance from each point to the record's closed point set."""
    if record.kind == "point":
        g = record.geometry
        return np.hypot(pts[:, 0] - g.x, pts[:, 1] - g.y)
    if record.kind == "polyline":
        return points_to_segments_distance(pts, segments_array(record))
    edges = np.concatenate([part.boundary_edges() for part in record.geometry], axis=0)
    d = points_to_segments_distance(pts, edges)
    d[points_in_triangles(pts, triangles_array(record))] = 0.0
    return d


def pairwise_intersects(a: GeometryRecord, b: GeometryRecord) -> bool:
    """Exact full-geometry intersection between two records (closed sets)."""
    abox, bbox_ = a.bbox(), b.bbox()
    if abox[2] < bbox_[0] or bbox_[2] < abox[0] or abox[3] < bbox_[1] or bbox_[3] < abox[1]:
        return False
    if a.kind == "point":
        if b.kind == "point":
            return a.geometry == b.geometry
        return exact_distance(a.geometry, b) == 0.0
    if b.kind == "point":
        return pairwise_intersects(b, a)
    for fa in features(a):
        for fb in features(b):
            if exact_intersects(fa, fb):
                return True
    return False


# ---------------------------------------------------------------------------
# Rings, shoelace, triangulation
# ---------------------------------------------------------------------------

def shoelace(ring: np.ndarray) -> float:
    """Signed area of a ring (positive when counter-clockwise)."""
    x, y = ring[:, 0], ring[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _normalize_ring(ring) -> np.ndarray:
    """Drop the closing duplicate, exact repeats, and collinear wedges."""
    arr = np.asarray(ring, dtype=float)
    if len(arr) >= 2 and np.array_equal(arr[0], arr[-1]):
        arr = arr[:-1]
    changed = True
    while changed and len(arr) >= 3:
        changed = False
        keep = np.ones(len(arr), dtype=bool)
        n = len(arr)
        for i in range(n):
            p, c, nx = arr[i - 1], arr[i], arr[(i + 1) % n]
            if np.array_equal(c, nx) or orient(p[0], p[1], c[0], c[1], nx[0], nx[1]) == 0.0:
                keep[i] = False
                changed = True
                break
        arr = arr[keep]
    if len(arr) < 3:
        raise DegenerateGeometryError("ring degenerates to fewer than 3 vertices")
    return arr


def _ring_is_simple(ring: np.ndarray) -> bool:
    n = len(ring)
    segs = np.concatenate([ring, np.roll(ring, -1, axis=0)], axis=1)
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue  # adjacent edges share a vertex by construction
            if _segments_intersect(*segs[i], *segs[j]):
                return False
    return True


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
    clipping. Raises TriangulationError for self-intersecting rings.
    """
    rings = [np.asarray(r, dtype=float) for r in rings]
    for ri, ring in enumerate(rings):
        if not _ring_is_simple(ring):
            raise TriangulationError("self-intersecting ring", ri)

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
    """Normalize ring orientation/degeneracies, triangulate, and validate.

    The outer ring is forced CCW and holes CW regardless of input winding.
    The summed triangle area must match the shoelace area within 1e-9
    relative, which guards against a bad triangulation slipping through.
    """
    norm = []
    for ri, ring in enumerate(rings):
        arr = _normalize_ring(ring)
        signed = shoelace(arr)
        want_ccw = ri == 0
        if (signed > 0) != want_ccw:
            arr = arr[::-1].copy()
        norm.append(arr)
    tris, edge_map = triangulate(norm)
    tri_area = float(np.sum(_tri_areas(tris)))
    ring_area = abs(shoelace(norm[0])) - sum(abs(shoelace(r)) for r in norm[1:])
    if ring_area <= 0:
        raise DegenerateGeometryError("holes consume the full polygon area")
    if abs(tri_area - ring_area) > 1e-9 * max(ring_area, 1e-300):
        raise TriangulationError(
            f"triangulated area {tri_area!r} != ring area {ring_area!r}", 0)
    return PolygonGeom(rings=norm, triangles=tris, edge_to_triangle=edge_map)


def _tri_areas(tris: np.ndarray) -> np.ndarray:
    if len(tris) == 0:
        return np.zeros(0)
    return 0.5 * np.abs(orient(tris[:, 0, 0], tris[:, 0, 1], tris[:, 1, 0],
                               tris[:, 1, 1], tris[:, 2, 0], tris[:, 2, 1]))


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
    """Spherical web-mercator forward transform (degrees to meters)."""
    lon, lat = _pt(p)
    if abs(lat) >= MERCATOR_MAX_LAT:
        raise ProjectionError(f"latitude {lat} outside (-{MERCATOR_MAX_LAT}, {MERCATOR_MAX_LAT})")
    if abs(lon) > 180.0:
        raise ProjectionError(f"longitude {lon} outside [-180, 180]")
    x = MERCATOR_RADIUS * math.radians(lon)
    y = MERCATOR_RADIUS * math.atanh(math.sin(math.radians(lat)))
    return Point2(x, y)


def project_points_4326_to_3857(pts: np.ndarray) -> np.ndarray:
    lon, lat = pts[:, 0], pts[:, 1]
    if np.any(np.abs(lat) >= MERCATOR_MAX_LAT) or np.any(np.abs(lon) > 180.0):
        raise ProjectionError("coordinates outside the web-mercator domain")
    x = MERCATOR_RADIUS * np.radians(lon)
    y = MERCATOR_RADIUS * np.arctanh(np.sin(np.radians(lat)))
    return np.column_stack([x, y])


def project_record_4326_to_3857(record: GeometryRecord) -> GeometryRecord:
    """Project a record's vertices; polygons are re-triangulated after."""
    if record.kind == "point":
        return GeometryRecord(record.id, "point",
                              project_4326_to_3857(record.geometry), record.value)
    if record.kind == "polyline":
        segs = [Segment(project_4326_to_3857(s.a), project_4326_to_3857(s.b))
                for s in record.geometry]
        return GeometryRecord(record.id, "polyline", segs, record.value)
    parts = [polygon_from_rings([project_points_4326_to_3857(r) for r in part.rings])
             for part in record.geometry]
    return GeometryRecord(record.id, "polygon", parts, record.value)


# ---------------------------------------------------------------------------
# WKT and CSV parsing
# ---------------------------------------------------------------------------

class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self._skip_ws()
        if self.pos >= len(self.text):
            return ""
        ch = self.text[self.pos]
        if ch in "(),":
            return ch
        j = self.pos
        while j < len(self.text) and not self.text[j].isspace() and self.text[j] not in "(),":
            j += 1
        return self.text[self.pos:j]

    def take(self) -> str:
        tok = self.peek()
        if tok:
            self.pos += len(tok)
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

