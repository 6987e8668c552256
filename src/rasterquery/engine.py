"""Query evaluation: selection, joins, distance queries, kNN, and spatial
aggregation, composed from canvas rendering and exact boundary tests.

Every query is exact: raster classification only routes work (interior hits
are certain, boundary pixels fall back to exact tests), so results are
independent of the canvas resolution.

Each constraint canvas (one selection constraint, one layer of disjoint
join or aggregation constraints, one layer of distance buffers) is
rendered once per query, and all canvases of a query share one viewport:
the union of its layers' bounds (distance buffers grown by their radii)
at the query resolution. A query checks its inputs, then streams its
dataset parts past its canvases (``_probe_parts``): the whole dataset in
memory, or the kept cells of a store one at a time (``storage``). Each
part is rasterized once over the shared viewport, whatever the number of
canvases: its points' pixel keys once, and those of its other records
that the window pass leaves chunk by chunk, each chunk's raster then met
with every canvas before the next is built.
No part is touched and no canvas rendered before the checks pass, and a
query over no parts renders nothing.

A canvas keeps no pixel grid: its interior is a table of sorted, disjoint
pixel runs, each owned by one object, and its boundary pixels are a
sorted key array with a bucket of entries each (see ``canvas``). A
distance canvas is rendered by
``canvas.DistanceCanvasBuilder``: each source's r-buffer is the union of
its polygon interior, a capsule per segment or ring edge and a disc per
point; the runs a buffer covers are interior, and pixels it only touches
list the source's points and edges that reach them, each with r.

Points go through ``match_points``, once per canvas over keys found once
per part (``_point_keys``): in pixel-key order, one ``searchsorted`` over
the run starts settles those on interior pixels and one over the boundary
keys finds the rest, then one array pass serves all points on boundary
pixels.
On a distance canvas it pairs each point with the entries of its pixel's
bucket and tests all pairs at once (within r of the point or edge); the
first hit in bucket order wins. Entries are points and edges only, never a
polygon's interior, so every point still unmatched on a pixel of polygon
objects goes, with each of those objects, through the exact even-odd
point-in-polygon kernel of ``geometry``; the lowest id holding the point
wins. Entry pairs are processed in chunks under ``PIXEL_KEY_BUDGET``.

Polylines and polygons go through three steps. The window pass
(``_window_pass``), once per part: each probe's pixel window, its record
box over the viewport, is looked up as column key intervals in every
canvas's boundary keys. A window with no boundary pixel is uniform, all
one object's interior or all empty, so its probe settles with that object
or drops, with no raster, unless it needs the raster on another canvas.
The raster step (``_probe_raster``), once per chunk under
``PIXEL_KEY_BUDGET`` of the other probes: the edge supercover of
``canvas`` turns every probe into (probe, pixel) keys and its even-odd
fill into (probe, run) column runs. The canvas step (``_match_raster``),
once per chunk and canvas: those keys and runs are intersected with the
canvas's interior runs and boundary keys as intervals, so only fill
pixels on a boundary pixel are ever listed. Each (probe, object) pair then
settles or is refined:

- settled: the probe touches a pixel the object's interior covers, or the
  probe's interior (a filled pixel no probe edge touches) covers a boundary
  pixel of the object;
- refined: the pairs seen only where a probe edge meets a boundary pixel of
  the object are tested together by one ``geometry.records_intersect``
  call, full-geometry intersection on polygon canvases and distance at
  most each object's r on distance canvases.

All functions are read-only over their inputs, apart from derived arrays
cached on records and the resident memo of queried record lists (see
Dataset plumbing below): a list and its records' fields may change
between queries, a record's geometry payload may not change in place.
Their results do not depend on other calls, but their timing reports do:
``instrument`` keeps the active collectors in one process-global list, so
a query running in one thread while another thread is inside
``instrument.collect()`` adds its phases to that report. Time
queries one at a time.
"""

from __future__ import annotations

import logging
import math
import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import instrument
from .canvas import (
    NULL_ID,
    PIXEL_KEY_BUDGET,
    DistanceCanvasBuilder,
    edge_cost,
    edge_keys,
    fill_runs,
    find_sorted,
    in_sorted,
    interval_pairs,
    pixel_windows,
    unique_keys,
    viewport_from_bounds,
)
from .canvas_index import (
    BoundaryIndex,
    LayerIndex,
    PixelMatcher,
    build_boundary_index_direct,
    build_distance_layer_index,
    build_layer_index,
)
from .config import DEFAULT, Config
from .errors import DataError, InternalInvariantError
from .geometry import (
    GeometryRecord,
    Point2,
    PolygonGeom,
    RecordTable,
    _point_seg_dist,
    budget_runs,
    expand_runs,
    grown_boxes,
    points_in_parts,
    project_4326_to_3857,
    project_points_4326_to_3857,
    record_edit,
    records_intersect,
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


# ---------------------------------------------------------------------------
# Dataset plumbing
# ---------------------------------------------------------------------------

class PreparedPoints:
    """Point dataset as columns, for repeated queries and for stored cells:
    ``ids`` ascending (int64), their ``xy`` (N, 2) and ``values`` (NaN
    where a point has none). Built on first use: ``x_order``, the
    permutation that sorts the points by x, with ``x_sorted`` and
    ``y_by_x`` the points' x and y in that order (the kNN ladder counts
    over an x slab of them); ``bbox``; and ``records``, for the few callers
    that need ``GeometryRecord``s (the type-1 flip of ``distance_join``,
    ``knn_join``'s left side).

    ``PreparedPoints(records)`` builds the columns from point records;
    ``PreparedPoints.from_arrays`` takes columns as they are, such as a
    stored cell's decoded point section."""

    def __init__(self, records):
        recs = sorted(records, key=lambda r: r.id)
        if any(r.kind != "point" for r in recs):
            raise DataError("PreparedPoints requires point records")
        self.xy, self.ids = _point_xy(recs), _point_ids(recs)
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
    def y_by_x(self) -> np.ndarray:
        return self.xy[self.x_order, 1]

    @cached_property
    def bbox(self):
        if not len(self.ids):
            return None
        return (self.x_sorted[0], self.xy[:, 1].min(), self.x_sorted[-1], self.xy[:, 1].max())

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


# The resident memo: a record list or tuple of at least
# ``RESIDENT_MIN_RECORDS`` records that reaches a query is split and
# flattened once (``_Records``) and the entry kept under the sequence's
# ``id``, with a strong reference to the sequence, so the key cannot be
# reused while the entry lives. A later query over the same object reuses
# the entry only while it ``holds`` the sequence: no record field was
# reassigned since it was built (``geometry.record_edit``) and the sequence
# still holds the snapshot's records, element by element by identity (one
# C-level pass), so any append, replacement, deletion, reordering or
# record edit rebuilds it. The memo keeps at most ``RESIDENT_LISTS``
# entries and an estimated ``RESIDENT_BYTES`` (``_Records.footprint``, the
# records each entry pins included), the least recently queried dropped
# first; a list estimated above that is never kept, and
# ``clear_resident()`` drops every entry. Shorter lists, other iterables,
# projected copies and store cells are split per use and never kept; a
# cell's memory is counted by the cell cache instead.
RESIDENT_LISTS = 8
RESIDENT_BYTES = 256 << 20
RESIDENT_MIN_RECORDS = 256
# Footprint estimate of an entry, from tracemalloc over point, polyline and
# polygon lists: a record with its share of the snapshot, point columns and
# ``PreparedPoints`` (about 330 bytes a point), plus a probe table edge
# with the record geometry and edge cache behind it (256-520 bytes) and
# the edge boxes the batched refine keeps on the table (32 bytes).
_RECORD_BYTES = 400
_EDGE_BYTES = 352
_resident: OrderedDict = OrderedDict()  # id(sequence) -> (sequence, _Records, footprint)
_resident_lock = threading.Lock()


def clear_resident() -> None:
    """Drop every record list the engine keeps between queries, with all
    it derived from them; the next query over a list builds its entry
    again."""
    with _resident_lock:
        _resident.clear()


# The probe table of a part with no polyline or polygon, built once.
_NO_PROBES = RecordTable([])


class _Part:
    """One dataset part as the probe loops read it: ``points``, its point
    records in dataset order or a ``PreparedPoints``, and ``others``, its
    polyline and polygon records. Built on first use and kept with the
    part: the point columns ``xy``, ``ids`` and ``values`` (NaN where a
    point has none), ``probes``, the ``RecordTable`` of ``others``, and
    ``value_of``, what sum aggregation reads."""

    def __init__(self, points, others):
        self.points, self.others = points, others

    def _column(self, name: str) -> np.ndarray:
        if isinstance(self.points, PreparedPoints):
            return getattr(self.points, name)
        return {"xy": _point_xy, "ids": _point_ids, "values": _point_values}[name](self.points)

    @cached_property
    def xy(self) -> np.ndarray:
        return self._column("xy")

    @cached_property
    def ids(self) -> np.ndarray:
        return self._column("ids")

    @cached_property
    def values(self) -> np.ndarray:
        return self._column("values")

    @cached_property
    def probes(self) -> RecordTable:
        return RecordTable(self.others) if self.others else _NO_PROBES

    @cached_property
    def value_of(self) -> dict:
        """Id -> value of ``others``; a DataError when any object of the
        part has no value."""
        if np.isnan(self.values).any() or any(r.value is None for r in self.others):
            raise DataError("sum aggregation over a value-less dataset")
        return {r.id: r.value for r in self.others}


class _Records(_Part):
    """A record sequence as a ``_Part``: ``records``, a snapshot of it,
    split in order, and ``prepared``, its points as a ``PreparedPoints``
    for kNN, built on first use. It reads like the sequence."""

    def __init__(self, records):
        self.edit = record_edit()  # read before any record is
        self.records = tuple(records)
        points, others = _split_kinds(self.records)
        super().__init__(points if others else self.records, others)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, i):
        return self.records[i]

    def holds(self, records) -> bool:
        """Whether ``records`` holds exactly the snapshot's objects, in
        order, and no record was edited since the snapshot was taken."""
        if self.edit != record_edit():
            return False
        if records is self.records:  # a tuple is its own snapshot
            return True
        return len(records) == len(self.records) and all(map(operator.is_, records,
                                                              self.records))

    def footprint(self) -> int:
        """The estimated bytes the entry keeps alive; builds ``probes``."""
        return _RECORD_BYTES * len(self.records) + _EDGE_BYTES * len(self.probes.edges)

    @cached_property
    def prepared(self) -> PreparedPoints:
        return PreparedPoints(self.records)


def _records(dataset) -> _Records:
    """The ``_Records`` of a record sequence: the resident entry of a list
    or tuple, reused while it ``holds`` the sequence and otherwise built
    and kept while the memo's bounds allow; a shorter sequence or any
    other iterable is split for this use alone."""
    if isinstance(dataset, _Records):
        return dataset
    if not isinstance(dataset, (list, tuple)) or len(dataset) < RESIDENT_MIN_RECORDS:
        return _Records(dataset)
    key = id(dataset)
    with _resident_lock:
        held = _resident.get(key)
        if held is not None:
            _resident.move_to_end(key)
    if held is not None and held[1].holds(dataset):
        return held[1]
    entry = _Records(dataset)
    size = entry.footprint()
    with _resident_lock:
        _resident.pop(key, None)
        if size <= RESIDENT_BYTES:
            _resident[key] = (dataset, entry, size)
        total = sum(kept[2] for kept in _resident.values())
        while len(_resident) > RESIDENT_LISTS or total > RESIDENT_BYTES:
            total -= _resident.popitem(last=False)[1][2]
    return entry


def _dataset_part(dataset) -> _Part:
    """Any dataset form as a ``_Part``: a ``PreparedPoints`` or
    ``SplitDataset`` lends its columns and records, a record sequence is
    ``_records``."""
    if isinstance(dataset, _Part):
        return dataset
    if isinstance(dataset, SplitDataset):
        return _Part(dataset.points, dataset.others)
    if isinstance(dataset, PreparedPoints):
        return _Part(dataset, [])
    return _records(dataset)


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

def _point_keys(vp, pts_xy: np.ndarray) -> tuple:
    """(idx, keys): the points of ``pts_xy`` inside the viewport, in
    pixel-key order, and the canvas key of each one's covering pixel. Every
    canvas over ``vp`` reads the same keys."""
    idx = np.flatnonzero(vp.in_bounds(pts_xy))
    keys = vp.pixel_keys(pts_xy[idx])
    # In key order, the run and bucket lookups of ``match_points`` search
    # ascending keys.
    order = np.argsort(keys)
    return idx[order], keys[order]


def match_points(matcher: PixelMatcher, pts_xy: np.ndarray, keys=None) -> np.ndarray:
    """Per-point matched constraint id (-1 when none). Constraint objects in
    one canvas are pairwise disjoint, so a point matches at most one.

    ``keys`` is ``_point_keys`` of the points over the matcher's viewport,
    found here when None. Points in an interior run resolve wholesale from
    the run table; points on boundary pixels take their first
    distance-entry hit in bucket order (``_entry_hits``), else the
    lowest-id polygon object of their pixel that holds them
    (``_polygon_hits``), as the module docstring details.
    """
    out = np.full(len(pts_xy), -1, dtype=np.int64)
    if len(pts_xy) == 0:
        return out
    idx, keys = _point_keys(matcher.vp, pts_xy) if keys is None else keys
    if len(idx) == 0:
        return out
    interior = matcher.plane.interior_of(keys)
    hit = interior != NULL_ID
    out[idx[hit]] = interior[hit]
    rem = np.flatnonzero(~hit)
    if len(matcher.plane.bp_flat) == 0 or len(rem) == 0:
        return out
    pos, onb = find_sorted(keys[rem], matcher.plane.bp_flat)
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
    plane, bindex, table = matcher.plane, matcher.bindex, matcher.table
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
        res[j[first]] = table.ids[table.rank[ref[first]]]
    return res


def _points_near_entries(bindex, ref, px, py) -> np.ndarray:
    """Whether each point lies within its distance entry's radius of the
    entry's point or segment."""
    t = bindex.table
    point, c, r = t.kinds[t.rank[ref]] == RecordTable.POINT, t.edges[ref], bindex.aux_r[ref]
    out = np.zeros(len(ref), dtype=bool)
    s = np.flatnonzero(point)
    out[s] = np.hypot(px[s] - c[s, 0], py[s] - c[s, 1]) <= r[s]
    s = np.flatnonzero(~point)
    out[s] = _point_seg_dist(px[s], py[s], c[s, 0], c[s, 1], c[s, 2], c[s, 3]) <= r[s]
    return out


def _polygon_hits(matcher: PixelMatcher, xy: np.ndarray, pix: np.ndarray) -> np.ndarray:
    """Per point, the lowest-id object of boundary pixel ``pix``'s bucket
    that holds the point by the point-in-polygon kernel, -1 when none
    does."""
    ostart, rank = matcher.bucket_objects()
    # (point, object) pairs, objects ascending per point.
    j, off = expand_runs(ostart[pix + 1] - ostart[pix])
    obj = rank[ostart[pix[j]] + off]
    inside = points_in_parts(xy[j], obj, matcher.table)
    j, obj = j[inside], obj[inside]
    first = _first_per_run(j)
    res = np.full(len(pix), -1, dtype=np.int64)
    res[j[first]] = matcher.object_ids[obj[first]]
    return res


def match_records(matcher: PixelMatcher, probes: RecordTable) -> set:
    """(constraint id, record id) for every polyline or polygon record of
    the table ``probes`` and every constraint object of the canvas that it
    truly meets: ``_record_matches`` with this one canvas."""
    return set().union(*(pairs for _, pairs in _record_matches([matcher], probes)))


@dataclass(frozen=True)
class _ProbeRaster:
    """One chunk of probes rasterized over a query's viewport, ready to
    meet every canvas over it. ``ekeys`` are the sorted keys probe rank *
    W * H + canvas key of the pixels the chunk's edges touch, split into
    ``ep`` (probe rank) and ``ef`` (canvas key); the chunk's polygons fill
    the column runs of canvas keys [``a``, ``b``] inside probe ``fp``."""

    ekeys: np.ndarray
    ep: np.ndarray
    ef: np.ndarray
    fp: np.ndarray
    a: np.ndarray
    b: np.ndarray


def _window_pass(canvases, probes: RecordTable) -> tuple:
    """(need, settled): the ranks of the probes of the table ``probes``
    whose pixel window holds a boundary pixel of some canvas, and per
    canvas the (constraint id, record id) pairs of all other probes.

    A probe's window is ``pixel_windows`` of its record box over the
    canvases' shared viewport, every pixel its closed set can touch, taken
    column by column as key intervals [c * H + r0, c * H + r1], in chunks
    under ``PIXEL_KEY_BUDGET`` columns. A window that holds no boundary key
    is uniform: a pixel sharing a side with an interior pixel of an object
    meets that object, so unless it is a boundary pixel it is interior to
    the same object. The window lies then in one object's interior runs,
    and the probe meets that object alone (``interior_of`` of any one key),
    or it is empty, and the probe meets nothing. The viewport's guard rows
    and columns are never interior, so a window the viewport clips, or a box
    off the viewport (an empty window), settles no pair. A probe settles by
    its window only when it needs the raster on no canvas, so the raster
    step never sees it again."""
    vp = canvases[0].vp
    h = vp.height_px
    c0, c1, r0, r1 = pixel_windows(vp, *probes.boxes.T)
    ncol = np.maximum(c1 - c0 + 1, 0)
    on = np.flatnonzero(ncol)
    need = np.zeros(len(probes), dtype=bool)
    for lo, hi in budget_runs(ncol[on], PIXEL_KEY_BUDGET):
        j, col = expand_runs(ncol[on[lo:hi]])
        rank = on[lo + j]
        a = (c0[rank] + col) * h + r0[rank]
        b = a + (r1 - r0)[rank]
        for matcher in canvases:
            bpf = matcher.plane.bp_flat
            if len(bpf):
                # Whether the first boundary key at or after a is at most b.
                first = bpf[np.minimum(np.searchsorted(bpf, a), len(bpf) - 1)]
                need[rank[(first >= a) & (first <= b)]] = True
    rest = on[~need[on]]
    key = c0[rest] * h + r0[rest]
    settled = []
    for matcher in canvases:
        iid = matcher.plane.interior_of(key)
        hit = iid != NULL_ID
        settled.append(set(zip(iid[hit].tolist(), probes.ids[rest[hit]].tolist())))
    return np.flatnonzero(need), settled


def _probe_rasters(vp, probes: RecordTable, ranks):
    """The ``_ProbeRaster`` of each chunk of the probes of ``ranks``, rows
    of the table ``probes``, over ``vp``, one chunk alive at a time. They go
    in chunks under ``PIXEL_KEY_BUDGET`` candidate pixels (``edge_cost``),
    where ``edge_keys`` lists the (probe, pixel) keys of a chunk's edges
    and ``fill_runs`` the column runs inside its polygons."""
    j, rows = probes.rows(ranks)
    cost = np.bincount(j, weights=edge_cost(vp, probes.edges[rows]), minlength=len(ranks))
    for lo, hi in budget_runs(cost, PIXEL_KEY_BUDGET):
        yield _probe_raster(vp, probes, ranks[lo:hi])


def _probe_raster(vp, probes: RecordTable, ranks) -> _ProbeRaster:
    """The raster of the probes of ``ranks``, rows of the table."""
    with instrument.phase("raster"):
        hw = vp.width_px * vp.height_px
        _, rows = probes.rows(ranks)
        edges, probe = probes.edges[rows], probes.rank[rows]
        k, key = edge_keys(vp, edges)
        ekeys = unique_keys(probe[k] * hw + key)
        ep, ef = np.divmod(ekeys, hw)
        sel = probes.kinds[probe] == RecordTable.POLYGON
        own, col, row0, row1 = fill_runs(vp, edges[sel], probes.part[rows[sel]])
        return _ProbeRaster(ekeys, ep, ef, probes.rank[probes.part_edges[own]],
                            col * vp.height_px + row0, col * vp.height_px + row1)


def _match_raster(matcher: PixelMatcher, probes: RecordTable, raster: _ProbeRaster) -> set:
    """The (constraint id, record id) pairs of one chunk's raster against
    one canvas over the same viewport. Pairs settle in bulk where the
    raster proves them: a probe touching an object's interior pixel meets
    it (a fill run meeting an interior run, or an edge pixel in one), and
    so does a probe whose interior covers a boundary pixel of the object (a
    fill run over a boundary key that no probe edge touches). The pairs
    seen only where a probe edge meets an object's boundary pixel are
    refined together by one ``records_intersect`` call: full-geometry
    intersection on a polygon canvas, within each object's radius
    (``PixelMatcher.reach``) on a distance canvas."""
    vp, plane = matcher.vp, matcher.plane
    hw = vp.width_px * vp.height_px
    n = max(len(matcher.object_ids), 1)
    settled = [_interior_pairs(matcher, raster.ep, raster.ef, n)]
    bpf = plane.bp_flat
    pos, on = find_sorted(raster.ef, bpf)
    touched = _bucket_pairs(matcher, raster.ep[on], pos[on], n)
    # The probe's fill meets an object's interior run.
    i, j = interval_pairs(plane.run_start, plane.run_end, raster.a, raster.b)
    settled.append(raster.fp[i] * n + matcher.run_rank[j])
    # Only a pixel inside the probe and off its edges is wholly covered by
    # it; such a pixel settles the objects of its bucket.
    i, pix = interval_pairs(bpf, bpf, raster.a, raster.b)
    fp = raster.fp[i]
    inner = ~in_sorted(fp * hw + bpf[pix], raster.ekeys)
    settled.append(_bucket_pairs(matcher, fp[inner], pix[inner], n))
    settled = unique_keys(np.concatenate(settled))
    touched = unique_keys(touched)
    refine = touched[~in_sorted(touched, settled)]
    p, c = np.divmod(refine, n)
    reach = matcher.reach[c] if matcher.distance else None
    keys = np.concatenate([settled, refine[records_intersect(probes, matcher.table, p, c, reach)]])
    return set(zip(matcher.object_ids[keys % n].tolist(), probes.ids[keys // n].tolist()))


def _interior_pairs(matcher, probe, keys, n) -> np.ndarray:
    """Pair keys probe * n + object rank where the pixel is an object's
    interior pixel. Pixels of one probe come in runs, so ids are ranked
    once per run of equal (probe, id)."""
    iid = matcher.plane.interior_of(keys)
    hit = iid != NULL_ID
    probe, iid = probe[hit], iid[hit]
    head = np.r_[True, (probe[1:] != probe[:-1]) | (iid[1:] != iid[:-1])][:len(iid)]
    return probe[head] * n + np.searchsorted(matcher.object_ids, iid[head])


def _bucket_pairs(matcher, probe, pix, n) -> np.ndarray:
    """Pair keys probe * n + object rank for every object with a boundary
    entry at boundary pixel ``pix`` (an index into ``bp_flat``)."""
    start, rank = matcher.bucket_objects()
    j, off = expand_runs(start[pix + 1] - start[pix])
    return probe[j] * n + rank[start[pix[j]] + off]


def match_record(matcher: PixelMatcher, rec: GeometryRecord) -> set:
    """Constraint ids the record's geometry intersects (or lies within the
    radius of, on a distance canvas)."""
    if rec.kind == "point":
        cid = int(match_points(matcher, np.array([[rec.geometry.x, rec.geometry.y]]))[0])
        return {cid} if cid >= 0 else set()
    return {c for c, _ in match_records(matcher, RecordTable([rec]))}


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------

def _layer_matcher(members, resolution: int) -> PixelMatcher:
    """The canvas of one layer of pairwise-disjoint polygons, over the
    viewport of its own records."""
    [matcher] = _layer_matchers(members, LayerIndex([[r.id for r in members]]), resolution)
    return matcher


def _viewport(boxes, resolution: int):
    """The viewport over the union of record boxes (N, 4)."""
    return viewport_from_bounds(_bounds_union(boxes), resolution)


def _layer_matchers(members, layers: LayerIndex, resolution: int):
    """One canvas per layer of the polygons ``members``, all over one
    viewport, built when first drawn: every layer's boundary index
    (``build_boundary_index_direct``), then the viewport over the union of
    their record boxes, then each layer rendered over it as it is drawn."""
    by_id = {r.id: r for r in members}
    with instrument.phase("polygon"):
        bindexes = [build_boundary_index_direct([by_id[i] for i in ids])
                    for ids in layers.layers]
    if not bindexes:
        return
    vp = _viewport(np.concatenate([b.table.boxes for b in bindexes]), resolution)
    for bindex in bindexes:
        with instrument.phase("raster"):
            from .canvas import render_geometry_canvas
            canvas = render_geometry_canvas(vp, bindex)
        yield PixelMatcher(canvas)


def _drawn(matchers) -> list:
    """The canvases of a query, rendered now. They share one viewport, so
    each probe chunk and each part's points are rasterized once for all of
    them."""
    canvases = list(matchers)
    if any(m.vp != canvases[0].vp for m in canvases[1:]):
        raise InternalInvariantError("the canvases of one query differ in viewport")
    return canvases


def _point_matches(canvases, xy):
    """(matcher, cid) per canvas: the matched constraint id of each point
    of ``xy`` (-1 when none). The points' pixel keys are found once over
    the canvases' shared viewport."""
    if not (canvases and len(xy)):
        return
    with instrument.phase("raster"):
        keys = _point_keys(canvases[0].vp, xy)
    for matcher in canvases:
        with instrument.phase("raster"):
            cid = match_points(matcher, xy, keys)
        yield matcher, cid


def _record_matches(canvases, probes: RecordTable):
    """(matcher, pairs) per canvas and then per chunk of the table
    ``probes`` and canvas: the (constraint id, record id) pairs of those
    probes against that canvas. The window pass (``_window_pass``) settles
    or drops every probe whose pixel window holds no boundary pixel, with
    no raster. The rest are rasterized chunk by chunk over the canvases'
    shared viewport, each chunk then met with every canvas, so one chunk's
    raster is alive at a time."""
    if not (canvases and len(probes)):
        return
    with instrument.phase("raster"):
        need, settled = _window_pass(canvases, probes)
    yield from zip(canvases, settled)
    for raster in _probe_rasters(canvases[0].vp, probes, need):
        for matcher in canvases:
            with instrument.phase("raster"):
                pairs = _match_raster(matcher, probes, raster)
            yield matcher, pairs
        # Free this chunk's raster before the next one is built.
        del raster


def _probe_parts(matchers, parts):
    """(part, pairs) per ``_Part`` of ``parts``, in order: the (constraint
    id, record id) pairs of its points and other records against every
    canvas of ``matchers``, drawn when the first part arrives. Parts stream
    past the canvases, so each is rendered once. All canvases share one
    viewport: a part's points get their pixel keys once, and its other
    records, flattened into its one ``probes`` table, are rasterized once
    per chunk; each chunk then meets every canvas (``_record_matches``)."""
    canvases = None
    for part in parts:
        if canvases is None:
            canvases = _drawn(matchers)
        pairs: set = set()
        for _, cid in _point_matches(canvases, part.xy):
            got = cid >= 0
            pairs.update(zip(cid[got].tolist(), part.ids[got].tolist()))
        for _, got in _record_matches(canvases, part.probes):
            pairs |= got
        yield part, pairs


def _joined(matchers, parts) -> set:
    """Every (constraint id, record id) pair of the datasets ``parts``."""
    parts = map(_dataset_part, parts)
    return set().union(*(pairs for _, pairs in _probe_parts(matchers, parts)))


def _point_xy(pts) -> np.ndarray:
    """(N, 2) coordinates of point records."""
    n = len(pts)
    xy = np.empty((n, 2))
    # One scalar ``fromiter`` per column takes about half the time of an
    # array over a list of tuples (``fromiter`` with a (float, 2) dtype is
    # slower than either).
    xy[:, 0] = np.fromiter((p.geometry.x for p in pts), dtype=np.float64, count=n)
    xy[:, 1] = np.fromiter((p.geometry.y for p in pts), dtype=np.float64, count=n)
    return xy


def _point_ids(pts) -> np.ndarray:
    """(N,) ids of point records."""
    return np.fromiter((p.id for p in pts), dtype=np.int64, count=len(pts))


def _point_values(pts) -> np.ndarray:
    """Value column of point records, NaN where a record has none."""
    return np.fromiter((np.nan if r.value is None else r.value for r in pts),
                       dtype=np.float64, count=len(pts))


def _as_records(dataset) -> list:
    """Any dataset form as a record list."""
    if isinstance(dataset, SplitDataset):
        return dataset.points.records + dataset.others
    if isinstance(dataset, PreparedPoints):
        return dataset.records
    return list(dataset)


def _constraint_matchers(constraint, resolution: int):
    """The canvas of one selection constraint, checked now and rendered
    when drawn."""
    rec = _as_constraint_record(constraint)
    return _layer_matchers([rec], LayerIndex([[rec.id]]), resolution)


def _selection(matchers, parts) -> SelectionResult:
    """Ids of the objects of the datasets ``parts`` that meet the canvases."""
    return SelectionResult(tuple(rid for _, rid in _joined(matchers, parts)))


def select(dataset, constraint, resolution: int | None = None,
           config: Config = DEFAULT) -> SelectionResult:
    """Ids of all objects whose geometry intersects the closed constraint
    polygon: render the constraint canvas plus boundary index, then
    classify the dataset against it in one pass."""
    return _selection(_constraint_matchers(constraint, resolution or config.resolution),
                      [dataset])


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------

def join(d1, d2, resolution: int | None = None, config: Config = DEFAULT,
         d1_layers: LayerIndex | None = None,
         d2_layers: LayerIndex | None = None) -> JoinResult:
    """All intersecting (d1 id, d2 id) pairs. d1 must be polygons; d2 points
    or polygons. Renders one canvas per layer of the side with fewer layers
    (disjoint layer members share one constraint canvas) and probes the
    other side against each."""
    resolution = resolution or config.resolution
    d1 = list(d1)
    if any(r.kind != "polygon" for r in d1):
        raise DataError("join: D1 must be a polygon dataset")
    part = _dataset_part(d2)
    others = part.others
    if any(r.kind != "polygon" for r in others):
        raise DataError("join: D2 must be points or polygons")
    has_points = len(part.points) > 0
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
            d1, part = others, _Part([], d1)
            d1_layers = d2_layers
            swapped = True

    [(_, pairs)] = _probe_parts(_layer_matchers(d1, d1_layers, resolution), [part])
    if swapped:
        pairs = {(b, a) for a, b in pairs}
    return JoinResult(tuple(pairs))


# ---------------------------------------------------------------------------
# Distance queries
# ---------------------------------------------------------------------------

def _maybe_project(dataset, geographic):
    """The dataset (in any form) projected from EPSG:4326 to EPSG:3857 when
    ``geographic``. Projected records are a fresh ``_Records``, split for
    this query and never kept resident."""
    if not geographic:
        return dataset
    from .geometry import project_record_4326_to_3857
    if isinstance(dataset, SplitDataset):
        return SplitDataset(_maybe_project(dataset.points, True),
                            [project_record_4326_to_3857(r) for r in dataset.others])
    if isinstance(dataset, PreparedPoints):
        return PreparedPoints.from_arrays(dataset.ids, project_points_4326_to_3857(dataset.xy),
                                          dataset.values)
    return _Records(map(project_record_4326_to_3857, dataset))


def _distance_matcher(sources: RecordTable, radii, resolution: int,
                      vp=None) -> PixelMatcher:
    """Canvas of the radius buffers of a table of pairwise-disjoint
    buffered sources, in id order, over ``vp``, or when None over the
    viewport of their record boxes grown by their radii."""
    radii = np.asarray(radii, dtype=float)
    if vp is None:
        vp = _viewport(grown_boxes(sources.boxes, radii), resolution)
    with instrument.phase("polygon"):
        bindex = BoundaryIndex.for_distance_sources(sources, radii)
    with instrument.phase("raster"):
        builder = DistanceCanvasBuilder(vp, bindex)
        for src, r in zip(sources.records, radii.tolist()):
            builder.add_source(src, r)
        canvas = builder.finalize()
    return PixelMatcher(canvas)


def _radii(radii, n: int) -> list:
    """One radius per source of n: a scalar serves all of them, a sequence
    must hold n. Every radius must be positive and finite."""
    rs = [float(radii)] if np.isscalar(radii) else [float(r) for r in radii]
    if not all(0 < r < math.inf for r in rs):
        raise DataError(f"distance radius must be positive and finite, got {radii}")
    if np.isscalar(radii):
        return rs * n
    if len(rs) != n:
        raise DataError(f"radii length {len(rs)} != |D1| {n}")
    return rs


def _buffer_matchers(sources, radii, resolution: int):
    """One canvas per layer of pairwise-disjoint buffers (source i buffered
    by ``radii[i]``), all over the viewport of the sources' boxes grown by
    their radii; the layers are found and each canvas rendered when drawn.
    One source is one layer; more go through the distance layer index. The
    sources are flattened once, in id order; each layer's canvas takes its
    rows of that table, or all of it."""
    order = sorted(range(len(sources)), key=lambda i: sources[i].id)
    table = RecordTable([sources[i] for i in order])
    rad = np.array([radii[i] for i in order], dtype=float)
    if not len(table):
        return
    vp = _viewport(grown_boxes(table.boxes, rad), resolution)
    layers = [table.ids] if len(table) == 1 else build_distance_layer_index(table, rad).layers
    for ids in layers:
        rank = np.searchsorted(table.ids, ids)
        layer = table if len(rank) == len(table) else table.take(rank)
        yield _distance_matcher(layer, rad[rank], resolution, vp)


def distance_select(dataset, source: GeometryRecord, r: float,
                    resolution: int | None = None, config: Config = DEFAULT,
                    geographic: bool = False) -> SelectionResult:
    """Ids within distance r of the source's closed geometry; exact via
    distance boundary entries (never the rasterized buffer outline)."""
    matchers = _buffer_matchers(_maybe_project([source], geographic), _radii(r, 1),
                                resolution or config.resolution)
    return _selection(matchers, [_maybe_project(dataset, geographic)])


def distance_join(d1, d2, radii, resolution: int | None = None,
                  config: Config = DEFAULT, geographic: bool = False) -> JoinResult:
    """Pairs within distance: a single radius (type 1, the smaller dataset
    becomes the constraint side) or one radius per D1 object (type 2). The
    layer index over the generated buffers is built on the fly, each layer
    rendered once and the probe side classified against it. D2 may be a
    ``PreparedPoints`` or ``SplitDataset``, whose point columns the probe
    pass reads directly; a record list D2 is probed as given, so repeated
    joins over it reuse its resident entry."""
    d1 = list(d1)
    rs = _radii(radii, len(d1))
    d1, d2 = _maybe_project(d1, geographic), _maybe_project(d2, geographic)
    if not isinstance(d2, (PreparedPoints, SplitDataset)):
        d2 = _records(d2)
    if not d1 or not len(d2):
        return JoinResult(())
    flip = np.isscalar(radii) and len(d2) < len(d1)
    if flip:
        d1, d2 = _as_records(d2), _Records(d1)
        rs = rs[:1] * len(d1)
    pairs = _joined(_buffer_matchers(d1, rs, resolution or config.resolution), [d2])
    if flip:
        pairs = {(b, a) for a, b in pairs}
    return JoinResult(tuple(pairs))


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _aggregation_matchers(constraints, mode: str, layers: LayerIndex | None,
                          resolution: int):
    """One canvas per layer of the aggregation constraints, checked now with
    ``mode`` (``layers`` built now when None) and rendered when drawn."""
    if mode not in ("count", "sum"):
        raise DataError(f"unknown aggregation mode {mode!r}")
    if any(r.kind != "polygon" for r in constraints):
        raise DataError("aggregation constraints must be polygons")
    return _layer_matchers(constraints, layers or build_layer_index(constraints), resolution)


def _aggregate(matchers, parts, mode: str) -> AggregationResult:
    """Per-constraint count (or sum) over the datasets ``parts``, each
    classified against every canvas, drawn at the first part that holds an
    object, by the part loops ``_probe_parts`` runs: points per pixel
    (``_point_matches``), other records by chunk (``_record_matches``)."""
    counts: dict = {}
    sums: dict = {}
    canvases = None
    for part in map(_dataset_part, parts):
        xy = part.xy
        value_of = part.value_of if mode == "sum" else None
        if not (len(xy) or part.others):
            continue
        if canvases is None:
            canvases = _drawn(matchers)
        for matcher, cid in _point_matches(canvases, xy):
            got = cid >= 0
            # Per object: its count, and its values added in point order.
            rank = np.searchsorted(matcher.object_ids, cid[got])
            n = len(matcher.object_ids)
            layer_counts = np.bincount(rank, minlength=n)
            if mode == "sum":
                layer_sums = np.bincount(rank, weights=part.values[got], minlength=n)
            for j in np.flatnonzero(layer_counts):
                c = int(matcher.object_ids[j])
                counts[c] = counts.get(c, 0) + int(layer_counts[j])
                if mode == "sum":
                    sums[c] = sums.get(c, 0.0) + float(layer_sums[j])
        for _, pairs in _record_matches(canvases, part.probes):
            for c, did in pairs:
                counts[c] = counts.get(c, 0) + 1
                if mode == "sum":
                    sums[c] = sums.get(c, 0.0) + float(value_of[did])
    rows = tuple((cid, counts[cid], sums.get(cid) if mode == "sum" else None)
                 for cid in sorted(counts))
    return AggregationResult(rows)


def aggregate(constraints, data, mode: str = "count",
              resolution: int | None = None, config: Config = DEFAULT,
              layer_index: LayerIndex | None = None) -> AggregationResult:
    """Per-constraint count (or sum of value payloads) of intersecting data
    objects: each constraint layer is rendered once and the data classified
    against it (points per pixel, other records in one pass)."""
    constraints = list(constraints)
    matchers = _aggregation_matchers(constraints, mode, layer_index,
                                     resolution or config.resolution)
    if layer_index is None:
        log.warning("aggregate: building constraint layer index on demand")
    return _aggregate(matchers, [data], mode)


# ---------------------------------------------------------------------------
# kNN
# ---------------------------------------------------------------------------

def _prepared_points(dataset) -> PreparedPoints:
    """A point dataset as a ``PreparedPoints``, a record sequence's kept
    with its resident entry."""
    if isinstance(dataset, PreparedPoints):
        return dataset
    return _records(dataset).prepared


def farthest_corner(p: Point2, box) -> float:
    """Distance from p to the farthest corner of box (x0, y0, x1, y1): the
    kNN ladder's largest radius."""
    x0, y0, x1, y1 = box
    return max(math.hypot(p.x - cx, p.y - cy)
               for cx, cy in ((x0, y0), (x1, y0), (x0, y1), (x1, y1)))


def _count_within(prepared: PreparedPoints, center: Point2, r: float) -> int:
    """Exact count of dataset points within r of center, by the predicate
    ``_points_near_entries`` tests, over the points of the x slab
    [cx - r, cx + r]. The slab is widened by a few ulps: ``x - cx`` can
    round down to r for an x just past ``cx + r``."""
    pad = 4.0 * np.finfo(np.float64).eps * (abs(center.x) + r)
    xs = prepared.x_sorted
    lo = int(np.searchsorted(xs, center.x - r - pad, side="left"))
    hi = int(np.searchsorted(xs, center.x + r + pad, side="right"))
    d = np.hypot(xs[lo:hi] - center.x, prepared.y_by_x[lo:hi] - center.y)
    return int(np.count_nonzero(d <= r))


def _knn_radii(config: Config, r_max: float) -> list:
    """The kNN radius schedule r_max / alpha^i, largest first: enough rungs
    to shrink r_max to ``knn_radius_floor``, at least 1 and at most
    ``circle_cap``."""
    if config.alpha <= 1.0:
        raise DataError("kNN alpha must be > 1")
    c = math.ceil(math.log(max(r_max / config.knn_radius_floor, 1.0), config.alpha))
    c = min(max(c, 1), config.circle_cap)
    return [r_max / config.alpha ** i for i in range(c + 1)]


def _ladder_radius(config: Config, count, k: int, r_max: float) -> float:
    """Smallest radius of the schedule from ``r_max`` (``knn_radius_floor``
    when not positive) whose circle holds at least k points, by binary
    search over the monotone ``count(r)``; the largest radius when none
    does."""
    if r_max <= 0:
        r_max = config.knn_radius_floor
    radii = _knn_radii(config, r_max)  # descending
    lo, hi = 0, len(radii) - 1  # counts decrease with index
    # invariant: count(radii[lo]) >= k; find the largest index still >= k
    if count(radii[hi]) >= k:
        return radii[hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if count(radii[mid]) >= k:
            lo = mid
        else:
            hi = mid
    return radii[lo]


def _knn_radius(prepared: PreparedPoints, center: Point2, k: int, config: Config) -> float:
    """The ladder radius for k neighbours of center, counted in memory."""
    return _ladder_radius(config, lambda r: _count_within(prepared, center, r), k,
                          farthest_corner(center, _bounds_union([prepared.bbox])))


def _check_k(k: int, n: int):
    """A kNN query over n points needs 0 < k <= n."""
    if k <= 0:
        raise DataError("k must be positive")
    if k > n:
        raise DataError(f"k={k} exceeds dataset size {n}")


def _neighbours(left, radii, k: int, parts, resolution: int) -> list:
    """Per point record of ``left`` (ids ascending), the (id, distance) of
    its k nearest points of ``parts`` (point ids ascending) within its
    radius, by ascending (distance, id)."""
    left_ids, left_xy = _point_ids(left), _point_xy(left)
    li, rid, d = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
    matchers = _buffer_matchers(left, radii, resolution)
    for part, pairs in _probe_parts(matchers, map(_dataset_part, parts)):
        lid, rid_p = np.array(list(pairs), dtype=np.int64).reshape(-1, 2).T
        lj = np.searchsorted(left_ids, lid)
        at = part.xy[np.searchsorted(part.ids, rid_p)]
        li.append(lj)
        rid.append(rid_p)
        d.append(np.hypot(left_xy[lj, 0] - at[:, 0], left_xy[lj, 1] - at[:, 1]))
    li, rid, d = map(np.concatenate, (li, rid, d))
    order = np.lexsort((rid, d, li))
    start = np.searchsorted(li[order], np.arange(len(left) + 1))
    return [[(int(rid[i]), float(d[i])) for i in order[a:min(a + k, b)]]
            for a, b in zip(start[:-1], start[1:])]


def knn_select(dataset, p, k: int, resolution: int | None = None,
               config: Config = DEFAULT, geographic: bool = False) -> list:
    """The k nearest dataset points to p as (id, distance) sorted by
    (distance, id). Ties at the k-th distance break toward ascending id."""
    prepared = _maybe_project(_prepared_points(dataset), geographic)
    if not isinstance(p, Point2):
        p = Point2(float(p[0]), float(p[1]))
    if geographic:
        p = project_4326_to_3857(p)
    _check_k(k, len(prepared))
    r = _knn_radius(prepared, p, k, config)
    return _neighbours([GeometryRecord(0, "point", p)], [r], k, [prepared],
                       resolution or config.resolution)[0]


def knn_join(d1, d2, k: int, resolution: int | None = None, config: Config = DEFAULT,
             geographic: bool = False) -> list:
    """Per D1 point, its k nearest D2 points: a per-point radius from the
    radius ladder (exact counts, no canvas), one type-2 distance join with
    those radii, its buffers rendered once, then a per-point (distance, id)
    sort."""
    left = _maybe_project(_prepared_points(d1), geographic)
    right = _maybe_project(_prepared_points(d2), geographic)
    _check_k(k, len(right))
    radii = [_knn_radius(right, Point2(x, y), k, config) for x, y in left.xy]
    found = _neighbours(left.records, radii, k, [right], resolution or config.resolution)
    return [(lid, [i for i, _ in got]) for lid, got in zip(left.ids.tolist(), found)]
