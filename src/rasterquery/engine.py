"""Query evaluation: selection, joins, distance queries, kNN, and spatial
aggregation, composed from canvas rendering and exact boundary tests. kNN
renders no canvas: it ranks points by exact (distance, id) (see kNN below).

Every query is exact: raster classification only routes work (interior hits
are certain, boundary pixels fall back to exact tests), so results are
independent of the canvas resolution.

Each constraint canvas (one selection constraint, one layer of disjoint
join or aggregation constraints, one layer of distance buffers) is
rendered once per query, and all canvases of a query share one viewport:
the union of its layers' bounds (distance buffers grown by their radii)
at the query resolution. A query checks its inputs, then streams its
dataset parts past its canvases (``_probe_parts``): the whole dataset in
memory, or the kept cells of a store one at a time (``storage``), each a
``Dataset`` (see Datasets below). Each
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
per part (``_point_keys``, one sort of packed key and index values). The
sorted point keys meet the canvas's interior runs and boundary keys from
the side with fewer searches: a part with more in-viewport points than the
canvas has runs plus boundary keys has each run and each boundary key
looked up in the point keys, and the points of each come out as one range;
a smaller part has each point key looked up in the run starts, then in the
boundary keys. Points on interior pixels settle from the run table, then
one array pass serves all points on boundary pixels.
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

Every pass hands its pairs on as (constraint ids, record ids) int64
arrays. A join or selection joins them end to end over canvases, chunks
and parts, and builds its result tuple once, after one sort-based dedup
(``_join_result``, ``unique_keys``); a swapped or flipped join swaps the
two arrays. Aggregation counts and sums the same arrays per constraint.

Datasets. A ``Dataset`` is the one form the probe loops and kNN read: its
points as ``ids``, ``xy`` and ``values`` columns, its polyline and polygon
records as ``others``, and what queries derive from them, built on first
use and kept with it. A loaded store cell (``storage.CellData``) is one.
Every query takes each dataset argument as a ``Dataset`` or as any
iterable of records, and converts it once, at its entry (``_dataset``): a
``Dataset`` passes through; a list or tuple of at least
``RESIDENT_MIN_RECORDS`` records goes through the resident memo, which
keeps its ``Dataset`` while the list is unchanged; any other iterable
becomes a fresh ``Dataset`` that is never kept. A ``geographic=True``
query reads the ``Dataset``'s projected copy: its points are projected
once and kept with it, its polylines and polygons projected per query.

All functions are read-only over their inputs, apart from derived arrays
cached on records and ``Dataset``s and the resident memo of queried record
lists: a list and its records' fields may change between queries, a
record's geometry payload may not change in place, and the records of a
``Dataset`` may not change once it is built. Their results do not
depend on other calls, but their timing reports do: ``instrument`` keeps
the active collectors in one process-global list, so a query running in
one thread while another thread is inside ``instrument.collect()`` adds
its phases to that report. Time queries one at a time.
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
    packed_bits,
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
    project_record_4326_to_3857,
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

    @classmethod
    def _of_sorted(cls, ids: np.ndarray) -> "SelectionResult":
        """The result of ids already ascending and distinct, as they are."""
        self = cls.__new__(cls)
        object.__setattr__(self, "ids", tuple(ids.tolist()))
        return self


@dataclass(frozen=True)
class JoinResult:
    pairs: tuple

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(sorted(set(self.pairs))))

    @classmethod
    def _of_sorted(cls, left: np.ndarray, right: np.ndarray) -> "JoinResult":
        """The result of (left, right) pairs already ascending and distinct,
        as they are."""
        self = cls.__new__(cls)
        object.__setattr__(self, "pairs", tuple(zip(left.tolist(), right.tolist())))
        return self


def _join_result(left: np.ndarray, right: np.ndarray) -> JoinResult:
    """The ``JoinResult`` of the pairs (left[i], right[i]): one lexsort by
    left then right, and a neighbour comparison drops repeats."""
    order = np.lexsort((right, left))
    left, right = left[order], right[order]
    head = np.r_[True, (left[1:] != left[:-1]) | (right[1:] != right[:-1])][:len(left)]
    return JoinResult._of_sorted(left[head], right[head])


@dataclass(frozen=True)
class AggregationResult:
    """Rows of (constraint id, count, sum-of-values-or-None), count > 0."""

    rows: tuple


# ---------------------------------------------------------------------------
# Dataset plumbing
# ---------------------------------------------------------------------------

class Dataset:
    """A dataset in columns: the one form every query reads.

    ``ids`` (int64), ``xy`` (N, 2) and ``values`` (NaN where a point has
    none) are its points' columns, ``others`` its polyline and polygon
    records. ``Dataset(records)`` splits a record sequence by kind and
    builds each column on first use; ``Dataset.from_arrays`` takes columns
    as they are, such as a stored cell's decoded point section. Built on
    first use and kept with it: ``probes``, the ``RecordTable`` of
    ``others``; ``value_of``, what sum aggregation reads of them;
    ``x_order``, the permutation that sorts the points by x, with
    ``x_sorted`` and ``y_by_x`` the points' x and y in that order (kNN
    ranks an x slab of them); its points projected from EPSG:4326 to
    EPSG:3857, with what kNN derives from them; and ``records``, every
    record (a record sequence's in its order, else the points in id order
    and then ``others``), point records built from the columns when none
    were given. ``projected``, the dataset in EPSG:3857 that every
    ``geographic=True`` query over it reads, reuses those points and
    projects ``others`` afresh on each use, so a kept dataset keeps no
    projected polyline or polygon. A dataset is a snapshot: its records
    must not change once it is built."""

    def __init__(self, records):
        self.records = records = tuple(records)
        self.others = [rec for rec in records if rec.kind != "point"]
        self._points = ([rec for rec in records if rec.kind == "point"] if self.others
                        else records)

    @classmethod
    def from_arrays(cls, ids, xy, values, others=()) -> "Dataset":
        """A dataset of aligned point columns, put in id order when they
        are not, and ``others``."""
        ids = np.asarray(ids, dtype=np.int64)
        xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
        values = np.asarray(values, dtype=np.float64)
        if not len(ids) == len(xy) == len(values):
            raise DataError("point columns differ in length")
        if np.any(ids[1:] < ids[:-1]):
            order = np.argsort(ids, kind="stable")
            ids, xy, values = ids[order], xy[order], values[order]
        self = cls.__new__(cls)
        self.ids, self.xy, self.values = ids, xy, values
        self.others, self._points = list(others), None
        return self

    def __len__(self):
        points = self.ids if self._points is None else self._points
        return len(points) + len(self.others)

    @cached_property
    def ids(self) -> np.ndarray:
        return _point_ids(self._points)

    @cached_property
    def xy(self) -> np.ndarray:
        return _point_xy(self._points)

    @cached_property
    def values(self) -> np.ndarray:
        return _point_values(self._points)

    @cached_property
    def records(self) -> tuple:
        return (*_point_records(self.ids, self.xy, self.values), *self.others)

    @cached_property
    def probes(self) -> RecordTable:
        return RecordTable(self.others) if self.others else _NO_PROBES

    @cached_property
    def value_of(self) -> tuple:
        """(ids, values): the ids of ``others`` ascending and their values;
        a DataError when any object of the dataset has no value."""
        if np.isnan(self.values).any() or any(r.value is None for r in self.others):
            raise DataError("sum aggregation over a value-less dataset")
        ids = self.probes.ids
        order = np.argsort(ids, kind="stable")
        values = np.fromiter((r.value for r in self.others), np.float64, len(ids))
        return ids[order], values[order]

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
    def _projected_points(self) -> "Dataset":
        return Dataset.from_arrays(self.ids, project_points_4326_to_3857(self.xy), self.values)

    @property
    def projected(self) -> "Dataset":
        points = self._projected_points
        if not self.others:
            return points
        return Dataset.from_arrays(points.ids, points.xy, points.values,
                                   map(project_record_4326_to_3857, self.others))


class PreparedPoints(Dataset):
    """A ``Dataset`` of point records only; a DataError for any other."""

    def __init__(self, records):
        super().__init__(records)
        if self.others:
            raise DataError("PreparedPoints requires point records")
        # Built now, for the repeated queries a caller prepares points for.
        self.ids, self.xy = _point_ids(self._points), _point_xy(self._points)


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


def _point_records(ids, xy, values) -> list:
    """Point records of aligned columns, a NaN value as None."""
    return [GeometryRecord(i, "point", Point2(x, y), None if v != v else v)
            for i, (x, y), v in zip(ids.tolist(), xy.tolist(), values.tolist())]


# The probe table of a dataset with no polyline or polygon, built once.
_NO_PROBES = RecordTable([])


# The resident memo: a record list or tuple of at least
# ``RESIDENT_MIN_RECORDS`` records that reaches a query becomes a
# ``Dataset`` once, kept under the sequence's ``id`` with a strong
# reference to the sequence, so the key cannot be reused while the entry
# lives. A later query over the same object reuses the entry only while it
# ``_holds`` the sequence: no record field was reassigned since it was
# built (``geometry.record_edit``) and the sequence still holds the
# snapshot's records, element by element by identity (one C-level pass),
# so any append, replacement, deletion, reordering or record edit rebuilds
# it. The memo keeps at most ``RESIDENT_LISTS`` entries and an estimated
# ``RESIDENT_BYTES`` (``_footprint``, the records each entry pins
# included), the least recently queried dropped first; a list estimated
# above that is never kept, and ``clear_resident()`` drops every entry.
# Shorter lists and other iterables become a fresh ``Dataset`` per use
# and are never kept. An entry's projected point columns live with its
# ``Dataset``, outside the estimate (about 40 bytes a point, with kNN's x
# order); no projected polyline or polygon is kept. A store cell's memory
# is counted by the cell cache instead.
RESIDENT_LISTS = 8
RESIDENT_BYTES = 256 << 20
RESIDENT_MIN_RECORDS = 256
# Footprint estimate of an entry, from tracemalloc over point, polyline and
# polygon lists: a record with its share of the snapshot and point columns
# (about 330 bytes a point), plus a probe table edge with the record
# geometry and edge cache behind it (256-520 bytes) and the edge boxes the
# batched refine keeps on the table (32 bytes).
_RECORD_BYTES = 400
_EDGE_BYTES = 352
# id(sequence) -> (sequence, snapshot, record_edit() number, Dataset, footprint)
_resident: OrderedDict = OrderedDict()
_resident_lock = threading.Lock()


def clear_resident() -> None:
    """Drop every record list the engine keeps between queries, with all
    it derived from them; the next query over a list builds its entry
    again."""
    with _resident_lock:
        _resident.clear()


def _holds(entry: tuple, records) -> bool:
    """Whether ``records`` holds exactly the objects of the memo entry's
    snapshot, in order, and no record was edited since it was taken."""
    _, snapshot, edit, _, _ = entry
    if edit != record_edit():
        return False
    if records is snapshot:  # a tuple is its own snapshot
        return True
    return len(records) == len(snapshot) and all(map(operator.is_, records, snapshot))


def _footprint(data: Dataset) -> int:
    """The estimated bytes a memo entry keeps alive; builds ``probes``."""
    return _RECORD_BYTES * len(data) + _EDGE_BYTES * len(data.probes.edges)


def _resident_dataset(records) -> Dataset:
    """The ``Dataset`` of a record list or tuple: its memo entry's, reused
    while the entry ``_holds`` it, else built and kept while the memo's
    bounds allow."""
    key = id(records)
    with _resident_lock:
        held = _resident.get(key)
        if held is not None:
            _resident.move_to_end(key)
    if held is not None and _holds(held, records):
        return held[3]
    edit = record_edit()  # read before any record is
    data = Dataset(records)
    size = _footprint(data)
    with _resident_lock:
        _resident.pop(key, None)
        if size <= RESIDENT_BYTES:
            _resident[key] = (records, data.records, edit, data, size)
        total = sum(kept[4] for kept in _resident.values())
        while len(_resident) > RESIDENT_LISTS or total > RESIDENT_BYTES:
            total -= _resident.popitem(last=False)[1][4]
    return data


def _dataset(dataset, geographic: bool = False) -> Dataset:
    """Any dataset form as a ``Dataset``: a ``Dataset`` as it is; a list or
    tuple of at least ``RESIDENT_MIN_RECORDS`` records through the resident
    memo; any other record iterable as a fresh ``Dataset`` that is never
    kept. When ``geographic``, its ``projected`` copy, kept with it."""
    if not isinstance(dataset, Dataset):
        if isinstance(dataset, (list, tuple)) and len(dataset) >= RESIDENT_MIN_RECORDS:
            dataset = _resident_dataset(dataset)
        else:
            dataset = Dataset(dataset)
    return dataset.projected if geographic else dataset


def _point_dataset(dataset, geographic: bool = False) -> Dataset:
    """``_dataset`` of a dataset of points only, as kNN reads them; a
    DataError for any other record."""
    data = _dataset(dataset, geographic)
    if data.others:
        raise DataError("kNN requires point records")
    return data


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

def _index_bits(n: int, hw: int) -> int:
    """The bits ``_point_keys`` packs a point index of n points into, below
    a pixel key of a viewport of hw pixels: the bit length of n. Key and
    index must fit in 62 bits together, else an InternalInvariantError (at
    32768 x 32768 pixels, past 2^32 points)."""
    return packed_bits(max(hw, 1) - 1, n)


def _point_keys(vp, pts_xy: np.ndarray) -> tuple:
    """(idx, keys): the points of ``pts_xy`` inside the viewport, in
    pixel-key order (index order within a pixel), and the canvas key of
    each one's covering pixel. Every canvas over ``vp`` reads the same
    keys."""
    bits = _index_bits(len(pts_xy), vp.width_px * vp.height_px)
    idx = np.flatnonzero(vp.in_bounds(pts_xy))
    # One value sort of key << bits | index orders both at once; an argsort
    # and two gathers take about 2.5x as long.
    packed = np.sort(vp.pixel_keys(pts_xy[idx]) << bits | idx)
    return packed & ((1 << bits) - 1), packed >> bits


def match_points(matcher: PixelMatcher, pts_xy: np.ndarray, keys=None) -> np.ndarray:
    """Per-point matched constraint id (-1 when none). Constraint objects in
    one canvas are pairwise disjoint, so a point matches at most one.

    ``keys`` is ``_point_keys`` of the points over the matcher's viewport,
    found here when None. Interior runs and boundary keys are met with the
    sorted point keys in the direction of fewer searches: with more
    in-viewport points than runs plus boundary keys, each run and boundary
    key is looked up in the point keys, and its points come out as one
    range; otherwise each point key is looked up in the run starts and then
    in the boundary keys. Points in an interior run resolve wholesale from
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
    plane = matcher.plane
    if len(idx) > len(plane.run_start) + len(plane.bp_flat):
        run, at = interval_pairs(keys, keys, plane.run_start, plane.run_end)
        out[idx[at]] = plane.run_id[run]
        hit = np.zeros(len(idx), dtype=bool)
        hit[at] = True
        pix, at = interval_pairs(keys, keys, plane.bp_flat, plane.bp_flat)
        # As below, a point an interior run settles is not refined.
        pix, at = pix[~hit[at]], at[~hit[at]]
    else:
        interior = plane.interior_of(keys)
        hit = interior != NULL_ID
        out[idx[hit]] = interior[hit]
        rem = np.flatnonzero(~hit)
        pos, onb = find_sorted(keys[rem], plane.bp_flat)
        pix, at = pos[onb], rem[onb]
    if len(at) == 0:
        return out
    pidx = idx[at]
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
    return {pair for _, (cids, rids) in _record_matches([matcher], probes)
            for pair in zip(cids.tolist(), rids.tolist())}


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
    canvas the (constraint ids, record ids) arrays of the pairs of all
    other probes.

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
        settled.append((iid[hit], probes.ids[rest[hit]]))
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


def _match_raster(matcher: PixelMatcher, probes: RecordTable, raster: _ProbeRaster) -> tuple:
    """The (constraint ids, record ids) arrays of the pairs of one chunk's
    raster against one canvas over the same viewport, each pair once.
    Pairs settle in bulk where the raster proves them: a probe touching an
    object's interior pixel meets it (a fill run meeting an interior run,
    or an edge pixel in one), and so does a probe whose interior covers a
    boundary pixel of the object (a fill run over a boundary key that no
    probe edge touches). The pairs
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
    return matcher.object_ids[keys % n], probes.ids[keys // n]


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
    """(matcher, (cids, rids)) per canvas and then per chunk of the table
    ``probes`` and canvas: the constraint ids and record ids of the pairs
    of those probes against that canvas, each pair once. The window pass
    (``_window_pass``) settles or drops every probe whose pixel window
    holds no boundary pixel, with no raster. The rest are rasterized chunk
    by chunk over the canvases' shared viewport, each chunk then met with
    every canvas, so one chunk's raster is alive at a time."""
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
    """(cids, rids) per ``Dataset`` of ``parts``, in order: the constraint
    ids and record ids of the pairs of its points and other records against
    every canvas of ``matchers``, drawn when the first part arrives, each
    pair once. Parts stream past the canvases, so each is rendered once.
    All canvases share one viewport: a part's points get
    their pixel keys once, and its other records, flattened into its one
    ``probes`` table, are rasterized once per chunk; each chunk then meets
    every canvas (``_record_matches``)."""
    canvases = None
    for part in parts:
        if canvases is None:
            canvases = _drawn(matchers)
        pairs = []
        for _, cid in _point_matches(canvases, part.xy):
            got = cid >= 0
            pairs.append((cid[got], part.ids[got]))
        pairs.extend(got for _, got in _record_matches(canvases, part.probes))
        yield _stacked(pairs)


def _stacked(pairs) -> tuple:
    """(cids, rids) of a list of (cids, rids) array pairs, end to end."""
    empty = np.zeros(0, dtype=np.int64)
    return (np.concatenate([empty, *(c for c, _ in pairs)]),
            np.concatenate([empty, *(r for _, r in pairs)]))


def _joined(matchers, parts) -> tuple:
    """(cids, rids): the constraint ids and record ids of every pair of the
    ``Dataset``s ``parts``, each pair once per part that holds it."""
    return _stacked(list(_probe_parts(matchers, parts)))


def _constraint_matchers(constraint, resolution: int):
    """The canvas of one selection constraint, checked now and rendered
    when drawn."""
    rec = _as_constraint_record(constraint)
    return _layer_matchers([rec], LayerIndex([[rec.id]]), resolution)


def _selection(matchers, parts) -> SelectionResult:
    """Ids of the objects of the datasets ``parts`` that meet the canvases."""
    return SelectionResult._of_sorted(unique_keys(_joined(matchers, parts)[1]))


def select(dataset, constraint, resolution: int | None = None,
           config: Config = DEFAULT) -> SelectionResult:
    """Ids of all objects whose geometry intersects the closed constraint
    polygon: render the constraint canvas plus boundary index, then
    classify the dataset against it in one pass."""
    return _selection(_constraint_matchers(constraint, resolution or config.resolution),
                      [_dataset(dataset)])


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
    part = _dataset(d2)
    others = part.others
    if any(r.kind != "polygon" for r in others):
        raise DataError("join: D2 must be points or polygons")
    has_points = len(part) > len(others)
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
            d1, part = others, Dataset(d1)
            d1_layers = d2_layers
            swapped = True

    [(cids, rids)] = _probe_parts(_layer_matchers(d1, d1_layers, resolution), [part])
    return _join_result(rids, cids) if swapped else _join_result(cids, rids)


# ---------------------------------------------------------------------------
# Distance queries
# ---------------------------------------------------------------------------

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


def _radii(radii, sources: Dataset) -> np.ndarray:
    """One radius per source, in id order: a scalar serves all of them, a
    sequence gives ``sources.records[i]`` its i-th and must hold one per
    source. Every radius must be positive and finite. Ids are unique in a
    dataset, so the order holds for its projected copy too."""
    rs = [float(radii)] if np.isscalar(radii) else [float(r) for r in radii]
    if not all(0 < r < math.inf for r in rs):
        raise DataError(f"distance radius must be positive and finite, got {radii}")
    if np.isscalar(radii):
        return np.full(len(sources), rs[0])
    if len(rs) != len(sources):
        raise DataError(f"radii length {len(rs)} != |D1| {len(sources)}")
    ids = np.fromiter((rec.id for rec in sources.records), np.int64, len(rs))
    return np.array(rs)[np.argsort(ids, kind="stable")]


def _source_table(sources: Dataset) -> RecordTable:
    """The sources flattened once, in id order: a dataset of no point
    reuses its ``probes``."""
    table = sources.probes if len(sources.others) == len(sources) else RecordTable(sources.records)
    if np.any(table.ids[1:] < table.ids[:-1]):
        table = table.take(np.argsort(table.ids, kind="stable"))
    return table


def _buffer_matchers(table: RecordTable, rad, resolution: int):
    """One canvas per layer of pairwise-disjoint buffers (the table's row i,
    in id order, buffered by ``rad[i]``), all over the viewport of the
    sources' boxes grown by their radii; the layers are found and each
    canvas rendered when drawn. One source is one layer; more go through
    the distance layer index. Each layer's canvas takes its rows of the
    table, or all of it."""
    if not len(table):
        return
    vp = _viewport(grown_boxes(table.boxes, rad), resolution)
    layers = [table.ids] if len(table) == 1 else build_distance_layer_index(table, rad).layers
    for ids in layers:
        rank = np.searchsorted(table.ids, ids)
        layer = table if len(rank) == len(table) else table.take(rank)
        yield _distance_matcher(layer, rad[rank], resolution, vp)


def _source_matchers(source: GeometryRecord, r: float, resolution: int):
    """The canvas of one source's buffer of radius r."""
    src = Dataset([source])
    return _buffer_matchers(_source_table(src), _radii(r, src), resolution)


def distance_select(dataset, source: GeometryRecord, r: float,
                    resolution: int | None = None, config: Config = DEFAULT,
                    geographic: bool = False) -> SelectionResult:
    """Ids within distance r of the source's closed geometry; exact via
    distance boundary entries (never the rasterized buffer outline)."""
    if geographic:
        source = project_record_4326_to_3857(source)
    return _selection(_source_matchers(source, r, resolution or config.resolution),
                      [_dataset(dataset, geographic)])


def distance_join(d1, d2, radii, resolution: int | None = None,
                  config: Config = DEFAULT, geographic: bool = False) -> JoinResult:
    """Pairs within distance: a single radius (type 1, the smaller dataset
    becomes the constraint side) or one radius per D1 object (type 2). The
    layer index over the generated buffers is built on the fly, each layer
    rendered once and the probe side classified against it. Radii given
    one per D1 object follow the order of D1's records (``_radii``)."""
    d1, d2 = _dataset(d1), _dataset(d2, geographic)
    rad = _radii(radii, d1)
    if geographic:
        d1 = d1.projected
    if not len(d1) or not len(d2):
        return JoinResult(())
    flip = np.isscalar(radii) and len(d2) < len(d1)
    if flip:
        d1, d2, rad = d2, d1, np.full(len(d2), rad[0])
    cids, rids = _joined(_buffer_matchers(_source_table(d1), rad,
                                          resolution or config.resolution), [d2])
    return _join_result(rids, cids) if flip else _join_result(cids, rids)


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
    (``_point_matches``), other records by chunk (``_record_matches``).
    Each pair comes once: a point matches at most one object per canvas,
    the window pass and the chunks take disjoint records, and each yields a
    pair once."""
    counts: dict = {}
    sums: dict = {} if mode == "sum" else None
    canvases = None
    for part in parts:
        xy = part.xy
        if mode == "sum":
            ids, values = part.value_of
        if not (len(xy) or part.others):
            continue
        if canvases is None:
            canvases = _drawn(matchers)
        for matcher, cid in _point_matches(canvases, xy):
            got = cid >= 0
            _tally(counts, sums, matcher.object_ids, cid[got],
                   part.values[got] if mode == "sum" else None)
        for matcher, (cids, rids) in _record_matches(canvases, part.probes):
            _tally(counts, sums, matcher.object_ids, cids,
                   values[np.searchsorted(ids, rids)] if mode == "sum" else None)
    rows = tuple((cid, counts[cid], sums[cid] if mode == "sum" else None)
                 for cid in sorted(counts))
    return AggregationResult(rows)


def _tally(counts: dict, sums: dict | None, object_ids, cids, values) -> None:
    """Add the pairs of constraint ids ``cids``, objects of one canvas, to
    each object's count and, when ``sums`` is given, its pairs' ``values``
    (added in pair order) to its sum."""
    rank = np.searchsorted(object_ids, cids)
    layer_counts = np.bincount(rank, minlength=len(object_ids))
    if sums is not None:
        layer_sums = np.bincount(rank, weights=values, minlength=len(object_ids))
    for j in np.flatnonzero(layer_counts).tolist():
        c = int(object_ids[j])
        counts[c] = counts.get(c, 0) + int(layer_counts[j])
        if sums is not None:
            sums[c] = sums.get(c, 0.0) + float(layer_sums[j])


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
    return _aggregate(matchers, [_dataset(data)], mode)


# ---------------------------------------------------------------------------
# kNN
# ---------------------------------------------------------------------------

def _slab(prepared: Dataset, center: Point2, w: float) -> tuple:
    """(lo, hi, d): the points of the x slab [cx - w, cx + w], positions
    lo to hi in x order, and their distances to center. The slab is widened
    by a few ulps: ``x - cx`` can round down to w for an x just past
    ``cx + w``, so every point with ``d <= w`` lies in it."""
    pad = 4.0 * np.finfo(np.float64).eps * (abs(center.x) + w)
    xs = prepared.x_sorted
    lo = int(np.searchsorted(xs, center.x - w - pad, side="left"))
    hi = int(np.searchsorted(xs, center.x + w + pad, side="right"))
    return lo, hi, np.hypot(xs[lo:hi] - center.x, prepared.y_by_x[lo:hi] - center.y)


def _count_within(prepared: Dataset, center: Point2, r: float) -> int:
    """Exact count of dataset points within r of center, by the predicate
    ``_points_near_entries`` tests, over the points of the x slab
    [cx - r, cx + r]."""
    return int(np.count_nonzero(_slab(prepared, center, r)[2] <= r))


def _ranked(ids: np.ndarray, d: np.ndarray, k: int) -> tuple:
    """(ids, d) of the first k points by ascending (distance, id): the one
    tie rule of every kNN query."""
    order = np.lexsort((ids, d))[:k]
    return ids[order], d[order]


def _nearest(prepared: Dataset, center: Point2, k: int) -> list:
    """The k nearest points to center, ranked. The x slab of half-width w
    starts at the x extent times sqrt(k / n) and doubles until it holds k
    points within w of center, or every point: then the k nearest are all
    within w, and so in the slab."""
    n, xs = len(prepared), prepared.x_sorted
    w = max((xs[-1] - xs[0]) * math.sqrt(k / n),
            4.0 * np.finfo(np.float64).eps * (abs(center.x) + abs(center.y)),
            np.finfo(np.float64).tiny)
    while True:
        lo, hi, d = _slab(prepared, center, w)
        near = np.flatnonzero(d <= w)
        if len(near) >= k:
            break
        if lo == 0 and hi == n:
            near = np.arange(n)
            break
        w *= 2.0
    ids, d = _ranked(prepared.ids[prepared.x_order[lo + near]], d[near], k)
    return list(zip(ids.tolist(), d.tolist()))


def _check_k(k: int, n: int):
    """A kNN query over n points needs 0 < k <= n."""
    if k <= 0:
        raise DataError("k must be positive")
    if k > n:
        raise DataError(f"k={k} exceeds dataset size {n}")


def knn_select(dataset, p, k: int, *, config: Config = DEFAULT,
               geographic: bool = False) -> list:
    """The k nearest dataset points to p as (id, distance) sorted by
    (distance, id): ties at the k-th distance break toward ascending id.
    Exact, by distance order over an x slab of the points; no canvas, so
    nothing of ``config`` is read (every query takes one)."""
    prepared = _point_dataset(dataset, geographic)
    if not isinstance(p, Point2):
        p = Point2(float(p[0]), float(p[1]))
    if geographic:
        p = project_4326_to_3857(p)
    _check_k(k, len(prepared))
    return _nearest(prepared, p, k)


def knn_join(d1, d2, k: int, *, config: Config = DEFAULT, geographic: bool = False) -> list:
    """Per D1 point in id order, (its id, the ids of its k nearest D2
    points), ranked as ``knn_select`` ranks them."""
    left = _point_dataset(d1, geographic)
    right = _point_dataset(d2, geographic)
    _check_k(k, len(right))
    order = np.argsort(left.ids, kind="stable")
    return [(lid, [i for i, _ in _nearest(right, Point2(x, y), k)])
            for lid, (x, y) in zip(left.ids[order].tolist(), left.xy[order].tolist())]
