"""Query evaluation: selection, joins, distance queries, kNN, and spatial
aggregation, composed from canvas rendering and exact boundary tests.

Every query is exact: raster classification only routes work (interior hits
are certain, boundary pixels fall back to exact tests), so results are
independent of the canvas resolution.

Each constraint canvas (one selection constraint, one layer of disjoint
join or aggregation constraints, one layer of distance buffers) is probed
layer-at-a-time. A distance canvas is rendered by
``canvas.DistanceCanvasBuilder``: each source's r-buffer is the union of
its polygon interior, a capsule per segment or ring edge and a disc per
point; pixels a buffer covers are interior, and pixels it only touches list
the source's points and edges that reach them, each with r.

Points go through ``match_points``: one pixel lookup each settles those on
interior pixels, then one array pass serves all points on boundary pixels.
On a distance canvas it pairs each point with the entries of its pixel's
bucket and tests all pairs at once (within r of the point or edge); the
first hit in bucket order wins. Entries are points and edges only, never a
polygon's interior, so every point still unmatched on a pixel of polygon
objects goes, with each of those objects, through the exact even-odd
point-in-polygon kernel of ``geometry``; the lowest id holding the point
wins. Entry pairs are processed in chunks under ``PIXEL_KEY_BUDGET``.

Polylines and polygons go through ``match_records``, one array pass over all
of them: the edge supercover and the even-odd scanline fill of ``canvas``
turn every probe into (probe, pixel) keys, and each (probe, object) pair
then settles or is refined:

- settled: the probe touches a pixel the object's interior covers, or the
  probe's interior (a filled pixel no probe edge touches) covers a boundary
  pixel of the object;
- refined: a pair seen only where a probe edge meets a boundary pixel of the
  object gets one exact test, full-geometry intersection on polygon
  canvases and distance at most r on distance canvases.

All functions are read-only over their inputs, apart from derived arrays
cached on records. Their results do not depend on other calls, but their
timing reports do: ``instrument`` keeps the active collectors in one
process-global list, so a query running in one thread while another thread
is inside ``instrument.collect()`` adds its phases to that report. Time
queries one at a time.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import instrument
from .canvas import (
    PIXEL_KEY_BUDGET,
    DistanceCanvasBuilder,
    in_sorted,
    scanline_fill,
    segment_pixels,
    stack_edges,
    unique_keys,
    viewport_from_bounds,
)
from .canvas_index import (
    KIND_POINT,
    KIND_SEGMENT,
    BoundaryIndex,
    LayerIndex,
    PixelMatcher,
    build_boundary_index_direct,
    build_distance_layer_index,
    build_layer_index,
)
from .config import DEFAULT, Config
from .errors import DataError
from .geometry import (
    GeometryRecord,
    Point2,
    PolygonGeom,
    _point_seg_dist,
    budget_runs,
    expand_runs,
    points_in_parts,
    project_points_4326_to_3857,
)
# No query runs the Map any more; these names stay bound here only because
# perfbench's tracer wraps them on this module by name.
from .operators import compact, map_one_pass, map_two_pass
from .optimizer import choose_map_impl, estimate_nmax

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelectionResult:
    ids: tuple

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(sorted(set(self.ids))))


@dataclass(frozen=True)
class JoinResult:
    pairs: tuple

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(sorted(set(self.pairs))))


@dataclass(frozen=True)
class AggregationResult:
    """Rows of (constraint id, count, sum-of-values-or-None), count > 0."""

    rows: tuple


@dataclass(frozen=True)
class KnnConfig:
    alpha: float = 2.0
    circle_count: int | None = None
    r_max: float | None = None
    radius_floor: float = 1e-3
    circle_cap: int = 64

    def __post_init__(self):
        if self.alpha <= 1.0:
            raise DataError("kNN alpha must be > 1")

    def radii(self, r_max: float) -> list:
        """Shrinking radius schedule r_max / alpha^i, largest first."""
        if self.circle_count is not None:
            c = self.circle_count
        else:
            c = math.ceil(math.log(max(r_max / self.radius_floor, 1.0), self.alpha))
            c = min(max(c, 1), self.circle_cap)
        return [r_max / self.alpha ** i for i in range(c + 1)]


# ---------------------------------------------------------------------------
# Dataset plumbing
# ---------------------------------------------------------------------------

class PreparedPoints:
    """Point dataset as columns, for repeated queries and for stored cells:
    ``ids`` ascending (int64), their ``xy`` (N, 2) and ``values`` (NaN
    where a point has none). Built on first use: ``x_order``, the
    permutation that sorts the points by x, with ``x_sorted`` those x
    values; ``bbox``; and ``records``, for the few callers that need
    ``GeometryRecord``s (geographic projection, the type-1 flip of
    ``distance_join``, ``knn_join``'s left side).

    ``PreparedPoints(records)`` builds the columns from point records;
    ``PreparedPoints.from_arrays`` takes columns as they are, such as a
    stored cell's decoded point section."""

    def __init__(self, records):
        recs = sorted(records, key=lambda r: r.id)
        if any(r.kind != "point" for r in recs):
            raise DataError("PreparedPoints requires point records")
        self.xy, self.ids = _point_arrays(recs)
        self._records = recs
        self._values = None

    @classmethod
    def from_arrays(cls, ids, xy, values) -> "PreparedPoints":
        """Points from aligned columns, put in id order when they are not."""
        ids = np.asarray(ids, dtype=np.int64)
        xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
        values = np.asarray(values, dtype=np.float64)
        if not len(ids) == len(xy) == len(values):
            raise DataError("PreparedPoints columns differ in length")
        if np.any(ids[1:] < ids[:-1]):
            order = np.argsort(ids, kind="stable")
            ids, xy, values = ids[order], xy[order], values[order]
        self = cls.__new__(cls)
        self.ids, self.xy, self._values, self._records = ids, xy, values, None
        return self

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = _point_values(self._records)
        return self._values

    @property
    def records(self) -> list:
        if self._records is None:
            self._records = [
                GeometryRecord(i, "point", Point2(x, y), None if v != v else v)
                for i, (x, y), v in zip(self.ids.tolist(), self.xy.tolist(),
                                        self.values.tolist())]
        return self._records

    @cached_property
    def x_order(self) -> np.ndarray:
        return np.argsort(self.xy[:, 0])

    @cached_property
    def x_sorted(self) -> np.ndarray:
        return self.xy[self.x_order, 0]

    @cached_property
    def bbox(self):
        if not len(self.ids):
            return None
        return (self.x_sorted[0], self.xy[:, 1].min(), self.x_sorted[-1], self.xy[:, 1].max())

    def x_slab(self, x0: float, x1: float) -> np.ndarray:
        """Indices of the points with x0 <= x <= x1."""
        lo = np.searchsorted(self.x_sorted, x0, side="left")
        hi = np.searchsorted(self.x_sorted, x1, side="right")
        return self.x_order[lo:hi]

    def __len__(self):
        return len(self.ids)


@dataclass
class SplitDataset:
    """A dataset split by kind: ``points``, a ``PreparedPoints``, and
    ``others``, its polyline and polygon records. ``select``,
    ``distance_select``, ``distance_join``, ``join`` (as D2) and
    ``aggregate`` take it like a record list and read the points' columns
    directly."""

    points: PreparedPoints
    others: list

    def __len__(self):
        return len(self.points) + len(self.others)


def _split_kinds(records):
    pts, others = [], []
    for rec in records:
        (pts if rec.kind == "point" else others).append(rec)
    return pts, others


def _as_constraint_record(constraint) -> GeometryRecord:
    if isinstance(constraint, GeometryRecord):
        if constraint.kind != "polygon":
            raise DataError("constraint must be a polygon")
        return constraint
    if isinstance(constraint, PolygonGeom):
        return GeometryRecord(0, "polygon", [constraint])
    if isinstance(constraint, list) and constraint and isinstance(constraint[0], PolygonGeom):
        return GeometryRecord(0, "polygon", list(constraint))
    raise DataError(f"invalid constraint {type(constraint)!r}")


def _bounds_union(boxes):
    arr = np.asarray(boxes, dtype=float)
    b = (float(arr[:, 0].min()), float(arr[:, 1].min()),
         float(arr[:, 2].max()), float(arr[:, 3].max()))
    if not (b[2] > b[0] and b[3] > b[1]):
        pad = max(abs(b[0]), abs(b[1]), 1.0) * 1e-9 + 1e-12
        b = (b[0] - pad, b[1] - pad, b[2] + pad, b[3] + pad)
    return b


# ---------------------------------------------------------------------------
# Probe classification against a constraint canvas
# ---------------------------------------------------------------------------

def match_points(matcher: PixelMatcher, pts_xy: np.ndarray) -> np.ndarray:
    """Per-point matched constraint id (-1 when none). Constraint objects in
    one canvas are pairwise disjoint, so a point matches at most one.

    Interior pixels resolve wholesale from the interior grid; points on
    boundary pixels take their first distance-entry hit in bucket order
    (``_entry_hits``), else the lowest-id polygon object of their pixel
    that holds them (``_polygon_hits``), as the module docstring details.
    """
    vp = matcher.vp
    out = np.full(len(pts_xy), -1, dtype=np.int64)
    if len(pts_xy) == 0:
        return out
    idx = np.flatnonzero(vp.in_bounds(pts_xy))
    if len(idx) == 0:
        return out
    cols, rows = vp.pixel_of_points(pts_xy[idx])
    flat = rows * vp.width_px + cols
    interior = matcher.plane.interior_id.ravel()[flat]
    hit = interior >= 0
    out[idx[hit]] = interior[hit]
    bpf = matcher.plane.bp_flat
    rem = np.flatnonzero(~hit)
    if len(bpf) == 0 or len(rem) == 0:
        return out
    pos = np.minimum(np.searchsorted(bpf, flat[rem]), len(bpf) - 1)
    onb = bpf[pos] == flat[rem]
    pidx, pix = idx[rem[onb]], pos[onb]
    xy = pts_xy[pidx]
    cid = (_entry_hits(matcher, xy, pix) if matcher.distance
           else np.full(len(pix), -1, dtype=np.int64))
    if matcher.has_polygons:
        todo = np.flatnonzero(cid < 0)
        cid[todo] = _polygon_hits(matcher, xy[todo], pix[todo])
    out[pidx] = cid
    return out


def _first_per_run(keys: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal sorted keys."""
    return np.r_[True, keys[1:] != keys[:-1]][:len(keys)]


def _entry_hits(matcher: PixelMatcher, xy: np.ndarray, pix: np.ndarray) -> np.ndarray:
    """Per point, the object of the first distance entry of boundary pixel
    ``pix`` (an index into ``bp_flat``) whose buffer holds it, -1 when none
    does."""
    plane, bindex = matcher.plane, matcher.bindex
    start = plane.bp_start[pix]
    count = plane.bp_start[pix + 1] - start
    res = np.full(len(pix), -1, dtype=np.int64)
    for lo, hi in budget_runs(count, PIXEL_KEY_BUDGET):
        j, off = expand_runs(count[lo:hi])
        j += lo
        ref = plane.bp_entries[start[j] + off]
        m = _points_near_entries(bindex, ref, xy[j, 0], xy[j, 1])
        j, ref = j[m], ref[m]
        first = _first_per_run(j)
        res[j[first]] = bindex.obj_ids[ref[first]]
    return res


def _points_near_entries(bindex, ref, px, py) -> np.ndarray:
    """Whether each point lies within its distance entry's radius of the
    entry's point or segment."""
    kind, c, r = bindex.kinds[ref], bindex.coords[ref], bindex.aux_r[ref]
    out = np.zeros(len(ref), dtype=bool)
    s = np.flatnonzero(kind == KIND_POINT)
    out[s] = np.hypot(px[s] - c[s, 0], py[s] - c[s, 1]) <= r[s]
    s = np.flatnonzero(kind == KIND_SEGMENT)
    out[s] = _point_seg_dist(px[s], py[s], c[s, 0], c[s, 1], c[s, 2], c[s, 3]) <= r[s]
    return out


def _polygon_hits(matcher: PixelMatcher, xy: np.ndarray, pix: np.ndarray) -> np.ndarray:
    """Per point, the lowest-id object of boundary pixel ``pix``'s bucket
    that holds the point by the point-in-polygon kernel, -1 when none
    does."""
    _, ostart, rank = matcher.bucket_objects()
    # (point, object) pairs, objects ascending per point.
    j, off = expand_runs(ostart[pix + 1] - ostart[pix])
    obj = rank[ostart[pix[j]] + off]
    inside = points_in_parts(xy[j], obj, matcher.object_parts())
    j, obj = j[inside], obj[inside]
    first = _first_per_run(j)
    res = np.full(len(pix), -1, dtype=np.int64)
    res[j[first]] = matcher.object_ids[obj[first]]
    return res


def match_records(matcher: PixelMatcher, records) -> set:
    """(constraint id, record id) for every polyline or polygon record and
    every constraint object of the canvas that it truly meets.

    One array pass serves all records: probes whose bbox misses the
    viewport drop out, then, chunk by chunk under ``PIXEL_KEY_BUDGET``,
    ``segment_pixels`` lists the (probe, pixel) keys its edges touch and
    ``scanline_fill`` those inside a polygon probe away from its edges.
    Pairs settle in bulk where the raster proves them: a probe touching an
    object's interior pixel meets it, and so does a probe whose interior
    covers a boundary pixel of the object. A pair seen only where a probe
    edge meets an object's boundary pixel gets one exact test,
    ``PixelMatcher.exact_pair``.
    """
    records = list(records)
    if not records:
        return set()
    vp = matcher.vp
    edges, _, ordinal, _ = stack_edges(records)
    starts = np.flatnonzero(ordinal == 0)
    ex0, ex1 = np.minimum(edges[:, 0], edges[:, 2]), np.maximum(edges[:, 0], edges[:, 2])
    ey0, ey1 = np.minimum(edges[:, 1], edges[:, 3]), np.maximum(edges[:, 1], edges[:, 3])
    on = ((np.maximum.reduceat(ex1, starts) >= vp.min_x)
          & (np.minimum.reduceat(ex0, starts) <= vp.max_x)
          & (np.maximum.reduceat(ey1, starts) >= vp.min_y)
          & (np.minimum.reduceat(ey0, starts) <= vp.max_y))
    # Edge-pixel candidates per probe, about a column strip of rows plus
    # four pixels per column spanned.
    cost = np.add.reduceat(np.minimum((ey1 - ey0) / vp.sy, vp.height_px)
                           + 4.0 * (np.minimum((ex1 - ex0) / vp.sx, vp.width_px) + 3.0),
                           starts)
    idx = np.flatnonzero(on)
    pairs: set = set()
    for lo, hi in budget_runs(cost[idx], PIXEL_KEY_BUDGET):
        pairs |= _match_chunk(matcher, [records[i] for i in idx[lo:hi]])
    return pairs


def _match_chunk(matcher: PixelMatcher, recs) -> set:
    vp = matcher.vp
    hw = vp.width_px * vp.height_px
    n = max(len(matcher.object_ids), 1)
    edges, probe, _, part = stack_edges(recs)
    k, flat = segment_pixels(vp, edges)
    ekeys = unique_keys(probe[k] * hw + flat)
    ep, ef = np.divmod(ekeys, hw)
    settled = [_interior_pairs(matcher, ep, ef, n)]
    touched = _boundary_pairs(matcher, ep, ef, n)
    sel = np.array([rec.kind == "polygon" for rec in recs])[probe]
    if sel.any():
        part_probe = np.zeros(int(part.max()) + 1, dtype=np.int64)
        part_probe[part] = probe
        for owner, fflat in scanline_fill(vp, edges[sel], part[sel]):
            fp = part_probe[owner]
            settled.append(_interior_pairs(matcher, fp, fflat, n))
            # Only a pixel inside the probe and off its edges is wholly
            # covered by it.
            settled.append(_boundary_pairs(matcher, fp, fflat, n, ekeys))
    settled = unique_keys(np.concatenate(settled))
    touched = unique_keys(touched)
    refine = touched[~in_sorted(touched, settled)]
    ids = matcher.object_ids
    pairs = {(int(ids[c]), recs[p].id) for p, c in zip(*np.divmod(settled, n))}
    for p, c in zip(*np.divmod(refine, n)):
        if matcher.exact_pair(recs[p], int(ids[c])):
            pairs.add((int(ids[c]), recs[p].id))
    return pairs


def _interior_pairs(matcher, probe, flat, n) -> np.ndarray:
    """Pair keys probe * n + object rank where the pixel is an object's
    interior pixel. Pixels of one probe come in runs, so ids are ranked
    once per run of equal (probe, id)."""
    iid = matcher.plane.interior_id.ravel()[flat]
    hit = iid >= 0
    probe, iid = probe[hit], iid[hit]
    head = np.r_[True, (probe[1:] != probe[:-1]) | (iid[1:] != iid[:-1])][:len(iid)]
    return probe[head] * n + np.searchsorted(matcher.object_ids, iid[head])


def _boundary_pairs(matcher, probe, flat, n, exclude=None) -> np.ndarray:
    """Pair keys probe * n + object rank for every object with a boundary
    entry at the pixel, skipping (probe, pixel) keys found in the sorted
    ``exclude`` keys."""
    slot, start, rank = matcher.bucket_objects()
    pix = slot[flat]
    on = pix >= 0
    pix, probe = pix[on], probe[on]
    if exclude is not None:
        keep = ~in_sorted(probe * len(slot) + flat[on], exclude)
        pix, probe = pix[keep], probe[keep]
    j, off = expand_runs(start[pix + 1] - start[pix])
    return probe[j] * n + rank[start[pix[j]] + off]


def match_record(matcher: PixelMatcher, rec: GeometryRecord) -> set:
    """Constraint ids the record's geometry intersects (or lies within the
    radius of, on a distance canvas)."""
    if rec.kind == "point":
        cid = int(match_points(matcher, np.array([[rec.geometry.x, rec.geometry.y]]))[0])
        return {cid} if cid >= 0 else set()
    return {c for c, _ in match_records(matcher, [rec])}


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------

def _layer_matcher(members, resolution: int) -> PixelMatcher:
    """Boundary index plus rendered canvas of pairwise-disjoint polygons."""
    vp = viewport_from_bounds(_bounds_union([m.bbox() for m in members]), resolution)
    with instrument.phase("polygon"):
        bindex = build_boundary_index_direct(members)
    with instrument.phase("raster"):
        from .canvas import render_geometry_canvas
        canvas = render_geometry_canvas(members, vp, bindex)
    return PixelMatcher(canvas)


def _probe_pairs(matcher: PixelMatcher, points, others) -> set:
    """(constraint id, record id) pairs of points, given as ``_point_arrays``,
    and of other records against one canvas."""
    pairs: set = set()
    xy, ids = points
    with instrument.phase("raster"):
        if len(ids):
            cid = match_points(matcher, xy)
            got = cid >= 0
            pairs.update(zip(cid[got].tolist(), ids[got].tolist()))
        pairs |= match_records(matcher, others)
    return pairs


def _point_arrays(pts) -> tuple:
    """(N, 2) coordinates and (N,) ids of point records."""
    n = len(pts)
    xy = np.empty((n, 2))
    # One scalar ``fromiter`` per column takes about half the time of an
    # array over a list of tuples (``fromiter`` with a (float, 2) dtype is
    # slower than either).
    xy[:, 0] = np.fromiter((p.geometry.x for p in pts), dtype=np.float64, count=n)
    xy[:, 1] = np.fromiter((p.geometry.y for p in pts), dtype=np.float64, count=n)
    return xy, np.fromiter((p.id for p in pts), dtype=np.int64, count=n)


def _point_values(pts) -> np.ndarray:
    """Value column of point records, NaN where a record has none."""
    return np.fromiter((np.nan if r.value is None else r.value for r in pts),
                       dtype=np.float64, count=len(pts))


def _dataset_points(dataset, values: bool = False) -> tuple:
    """((xy, ids), others): a dataset's points as ``match_points`` arrays
    plus its polyline and polygon records; with ``values``, ((xy, ids,
    values), others), NaN where a point has no value. A ``PreparedPoints``
    or ``SplitDataset`` passes its columns straight through; a record list
    is split here."""
    if isinstance(dataset, SplitDataset):
        pts, others = dataset.points, dataset.others
    elif isinstance(dataset, PreparedPoints):
        pts, others = dataset, []
    else:
        recs, others = _split_kinds(dataset)
        return _point_arrays(recs) + ((_point_values(recs),) if values else ()), others
    return (pts.xy, pts.ids) + ((pts.values,) if values else ()), others


def _as_records(dataset) -> list:
    """Any dataset form as a record list."""
    if isinstance(dataset, SplitDataset):
        return dataset.points.records + dataset.others
    if isinstance(dataset, PreparedPoints):
        return dataset.records
    return list(dataset)


def _selection(matcher: PixelMatcher, dataset) -> SelectionResult:
    """Ids of the dataset's objects that meet the single-object canvas."""
    points, others = _dataset_points(dataset)
    return SelectionResult(tuple(rid for _, rid in _probe_pairs(matcher, points, others)))


def select(dataset, constraint, resolution: int | None = None,
           config: Config = DEFAULT) -> SelectionResult:
    """Ids of all objects whose geometry intersects the closed constraint
    polygon: render the constraint canvas plus boundary index, then
    classify the dataset against it in one pass."""
    resolution = resolution or config.resolution
    matcher = _layer_matcher([_as_constraint_record(constraint)], resolution)
    return _selection(matcher, dataset)


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------

def join(d1, d2, resolution: int | None = None, config: Config = DEFAULT,
         d1_layers: LayerIndex | None = None,
         d2_layers: LayerIndex | None = None) -> JoinResult:
    """All intersecting (d1 id, d2 id) pairs. d1 must be polygons; d2 points
    or polygons. Runs one classification pass per layer of the side with
    fewer layers (disjoint layer members share one constraint canvas)."""
    resolution = resolution or config.resolution
    d1 = list(d1)
    if any(r.kind != "polygon" for r in d1):
        raise DataError("join: D1 must be a polygon dataset")
    points, others = _dataset_points(d2)
    if any(r.kind != "polygon" for r in others):
        raise DataError("join: D2 must be points or polygons")
    has_points = len(points[1]) > 0
    if not d1 or not (has_points or others):
        return JoinResult(())

    if d1_layers is None:
        log.warning("join: building layer index for D1 on demand")
        d1_layers = build_layer_index(d1)
    swapped = False
    if not has_points:
        if d2_layers is None:
            log.warning("join: building layer index for D2 on demand")
            d2_layers = build_layer_index(others)
        if d2_layers.layer_count < d1_layers.layer_count:
            d1, others = others, d1
            d1_layers = d2_layers
            swapped = True

    pairs = _join_layers(d1, points, others, d1_layers, resolution)
    if swapped:
        pairs = {(b, a) for a, b in pairs}
    return JoinResult(tuple(pairs))


def _join_layers(d1, points, others, layers: LayerIndex, resolution) -> set:
    """Pairs of every layer of d1 against all of d2, given as
    ``_dataset_points``, collected as a set (a probe may meet several
    members of one layer)."""
    by_id = {r.id: r for r in d1}
    pairs: set = set()
    for layer_ids in layers.layers:
        matcher = _layer_matcher([by_id[i] for i in layer_ids], resolution)
        pairs |= _probe_pairs(matcher, points, others)
    return pairs


# ---------------------------------------------------------------------------
# Distance queries
# ---------------------------------------------------------------------------

def _maybe_project(dataset, geographic):
    """The dataset (in any form) projected from EPSG:4326 to EPSG:3857 when
    ``geographic``."""
    if not geographic:
        return dataset
    from .geometry import project_record_4326_to_3857
    if isinstance(dataset, SplitDataset):
        return SplitDataset(_maybe_project(dataset.points, True),
                            _maybe_project(dataset.others, True))
    if isinstance(dataset, PreparedPoints):
        return PreparedPoints([project_record_4326_to_3857(r) for r in dataset.records])
    return [project_record_4326_to_3857(r) for r in dataset]


def _distance_matcher(sources, radii, resolution: int) -> PixelMatcher:
    """Canvas of the radius buffers of pairwise-disjoint buffered sources."""
    boxes = []
    for src, r in zip(sources, radii):
        x0, y0, x1, y1 = src.bbox()
        boxes.append((x0 - r, y0 - r, x1 + r, y1 + r))
    vp = viewport_from_bounds(_bounds_union(boxes), resolution)
    with instrument.phase("polygon"):
        bindex = BoundaryIndex.for_distance_sources(sources, radii)
    with instrument.phase("raster"):
        builder = DistanceCanvasBuilder(vp, bindex)
        for src, r in zip(sources, radii):
            builder.add_source(src, r)
        canvas = builder.finalize()
    return PixelMatcher(canvas)


def distance_select(dataset, source: GeometryRecord, r: float,
                    resolution: int | None = None, config: Config = DEFAULT,
                    geographic: bool = False) -> SelectionResult:
    """Ids within distance r of the source's closed geometry; exact via
    distance boundary entries (never the rasterized buffer outline)."""
    if not (r > 0):
        raise DataError(f"distance radius must be positive, got {r}")
    resolution = resolution or config.resolution
    dataset = _maybe_project(dataset, geographic)
    source = _maybe_project([source], geographic)[0]
    return _selection(_distance_matcher([source], [r], resolution), dataset)


def distance_join(d1, d2, radii, resolution: int | None = None,
                  config: Config = DEFAULT, geographic: bool = False) -> JoinResult:
    """Pairs within distance: a single radius (type 1, the smaller dataset
    becomes the constraint side) or one radius per D1 object (type 2). The
    layer index over the generated buffers is built on the fly. D2 may be a
    ``PreparedPoints`` or ``SplitDataset``, whose point columns the probe
    pass reads directly."""
    resolution = resolution or config.resolution
    d1 = list(d1)
    if not isinstance(d2, (PreparedPoints, SplitDataset)):
        d2 = list(d2)
    d1, d2 = _maybe_project(d1, geographic), _maybe_project(d2, geographic)
    if not d1 or not len(d2):
        return JoinResult(())
    if np.isscalar(radii):
        r = float(radii)
        if not r > 0:
            raise DataError("distance radius must be positive")
        if len(d2) < len(d1):
            sources, probes, flip = _as_records(d2), d1, True
        else:
            sources, probes, flip = d1, d2, False
        rmap = {rec.id: r for rec in sources}
    else:
        radii_list = [float(x) for x in radii]
        if len(radii_list) != len(d1):
            raise DataError(f"radii length {len(radii_list)} != |D1| {len(d1)}")
        if any(x <= 0 for x in radii_list):
            raise DataError("all radii must be positive")
        sources, probes, flip = d1, d2, False
        rmap = {rec.id: rr for rec, rr in zip(d1, radii_list)}

    sources = sorted(sources, key=lambda rec: rec.id)
    layers = build_distance_layer_index(sources, [rmap[s.id] for s in sources])
    by_id = {s.id: s for s in sources}
    points, others = _dataset_points(probes)
    pairs: set = set()
    for layer_ids in layers.layers:
        members = [by_id[i] for i in layer_ids]
        matcher = _distance_matcher(members, [rmap[m.id] for m in members], resolution)
        pairs |= _probe_pairs(matcher, points, others)
    if flip:
        pairs = {(b, a) for a, b in pairs}
    return JoinResult(tuple(pairs))


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def aggregate(constraints, data, mode: str = "count",
              resolution: int | None = None, config: Config = DEFAULT,
              layer_index: LayerIndex | None = None) -> AggregationResult:
    """Per-constraint count (or sum of value payloads) of intersecting data
    objects: each constraint layer is rendered once and the data classified
    against it (points per pixel, other records in one pass)."""
    if mode not in ("count", "sum"):
        raise DataError(f"unknown aggregation mode {mode!r}")
    resolution = resolution or config.resolution
    constraints = list(constraints)
    if any(r.kind != "polygon" for r in constraints):
        raise DataError("aggregation constraints must be polygons")
    points, others = _dataset_points(data, values=mode == "sum")
    xy = points[0]
    vals = points[2] if mode == "sum" else None
    if mode == "sum" and (np.isnan(vals).any() or any(r.value is None for r in others)):
        raise DataError("sum aggregation over a value-less dataset")
    if layer_index is None:
        log.warning("aggregate: building constraint layer index on demand")
        layer_index = build_layer_index(constraints)

    counts: dict = {}
    sums: dict = {}
    by_id = {r.id: r for r in constraints}
    value_of = {r.id: r.value for r in others}
    for layer_ids in layer_index.layers if len(xy) or others else ():
        matcher = _layer_matcher([by_id[i] for i in layer_ids], resolution)
        if len(xy):
            with instrument.phase("raster"):
                cid = match_points(matcher, xy)
            got = cid >= 0
            # Per object: its count, and its values added in point order.
            rank = np.searchsorted(matcher.object_ids, cid[got])
            n = len(matcher.object_ids)
            layer_counts = np.bincount(rank, minlength=n)
            if mode == "sum":
                layer_sums = np.bincount(rank, weights=vals[got], minlength=n)
            for j in np.flatnonzero(layer_counts):
                c = int(matcher.object_ids[j])
                counts[c] = counts.get(c, 0) + int(layer_counts[j])
                if mode == "sum":
                    sums[c] = sums.get(c, 0.0) + float(layer_sums[j])
        with instrument.phase("raster"):
            pairs = match_records(matcher, others)
        for c, did in pairs:
            counts[c] = counts.get(c, 0) + 1
            if mode == "sum":
                sums[c] = sums.get(c, 0.0) + float(value_of[did])
    rows = tuple((cid, counts[cid], sums.get(cid) if mode == "sum" else None)
                 for cid in sorted(counts))
    return AggregationResult(rows)


# ---------------------------------------------------------------------------
# kNN
# ---------------------------------------------------------------------------

def _prepared_points(dataset) -> PreparedPoints:
    if isinstance(dataset, PreparedPoints):
        return dataset
    return PreparedPoints(list(dataset))


def count_resolution(config: Config) -> int:
    """Resolution of canvases that only count or test overlap: any
    resolution gives exact answers, and a small one keeps their planes
    small (at most 128 pixels a side)."""
    return max(min(128, config.resolution), 16)


def _count_within(prepared: PreparedPoints, center: Point2, r: float,
                  resolution: int) -> int:
    """Exact count of dataset points within r of center, via a distance
    canvas (any resolution yields the exact count). Only points in the
    canvas's x range can match, so only that slab is classified."""
    matcher = _distance_matcher([GeometryRecord(0, "point", center)], [r], resolution)
    slab = prepared.x_slab(matcher.vp.min_x, matcher.vp.max_x)
    return int((match_points(matcher, prepared.xy[slab]) >= 0).sum())


def _knn_radius(prepared: PreparedPoints, center: Point2, k: int,
                cfg: KnnConfig, config: Config) -> float:
    """Smallest ladder radius whose circle holds at least k points: binary
    search over the monotone aggregation counts."""
    box = _bounds_union([prepared.bbox])
    corners = [(box[0], box[1]), (box[2], box[1]), (box[0], box[3]), (box[2], box[3])]
    r_max = cfg.r_max or max(math.hypot(center.x - cx, center.y - cy)
                             for cx, cy in corners)
    if r_max <= 0:
        r_max = cfg.radius_floor
    radii = cfg.radii(r_max)  # descending
    count_res = count_resolution(config)
    lo, hi = 0, len(radii) - 1  # counts decrease with index
    # invariant: count(radii[lo]) >= k; find the largest index still >= k
    if _count_within(prepared, center, radii[hi], count_res) >= k:
        return radii[hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _count_within(prepared, center, radii[mid], count_res) >= k:
            lo = mid
        else:
            hi = mid
    return radii[lo]


def knn_select(dataset, p, k: int, cfg: KnnConfig | None = None,
               resolution: int | None = None, config: Config = DEFAULT,
               geographic: bool = False) -> list:
    """The k nearest dataset points to p as (id, distance) sorted by
    (distance, id). Ties at the k-th distance break toward ascending id."""
    cfg = cfg or KnnConfig(alpha=config.alpha, radius_floor=config.knn_radius_floor,
                           circle_cap=config.circle_cap)
    resolution = resolution or config.resolution
    prepared = _maybe_project(_prepared_points(dataset), geographic)
    if geographic:
        px, py = project_points_4326_to_3857(np.array([[p[0] if not isinstance(p, Point2) else p.x,
                                                        p[1] if not isinstance(p, Point2) else p.y]]))[0]
        p = Point2(px, py)
    elif not isinstance(p, Point2):
        p = Point2(float(p[0]), float(p[1]))
    n = len(prepared)
    if k <= 0:
        raise DataError("k must be positive")
    if k > n:
        raise DataError(f"k={k} exceeds dataset size {n}")
    r = _knn_radius(prepared, p, k, cfg, config)
    ids = distance_select(prepared, GeometryRecord(0, "point", p), r,
                          resolution=resolution, config=config).ids
    idx = np.searchsorted(prepared.ids, np.array(ids, dtype=np.int64))
    d = np.hypot(prepared.xy[idx, 0] - p.x, prepared.xy[idx, 1] - p.y)
    order = sorted(zip(d, ids))[:k]
    return [(int(i), float(dd)) for dd, i in order]


def knn_join(d1, d2, k: int, cfg: KnnConfig | None = None,
             resolution: int | None = None, config: Config = DEFAULT,
             geographic: bool = False) -> list:
    """Per D1 point, its k nearest D2 points: a per-point radius from the
    shrinking-circle aggregation, one type-2 distance join with those radii,
    then a per-point distance sort."""
    cfg = cfg or KnnConfig(alpha=config.alpha, radius_floor=config.knn_radius_floor,
                           circle_cap=config.circle_cap)
    resolution = resolution or config.resolution
    left = _maybe_project(_prepared_points(d1), geographic)
    right = _maybe_project(_prepared_points(d2), geographic)
    if k <= 0:
        raise DataError("k must be positive")
    if k > len(right):
        raise DataError(f"k={k} exceeds |D2|={len(right)}")
    radii = [_knn_radius(right, Point2(x, y), k, cfg, config)
             for x, y in left.xy]
    pairs = distance_join(left.records, right, radii,
                          resolution=resolution, config=config).pairs
    lid, rid = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    li, ri = np.searchsorted(left.ids, lid), np.searchsorted(right.ids, rid)
    d = np.hypot(left.xy[li, 0] - right.xy[ri, 0], left.xy[li, 1] - right.xy[ri, 1])
    # Per left point, its pairs by ascending (distance, id); keep k of them.
    order = np.lexsort((rid, d, li))
    li, rid = li[order], rid[order]
    start = np.searchsorted(li, np.arange(len(left.ids) + 1))
    return [(int(left.ids[j]), rid[start[j]:min(start[j] + k, start[j + 1])].tolist())
            for j in range(len(left.ids))]
