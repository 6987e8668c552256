"""The rasterization backend: viewports, the layer-at-a-time raster kernels,
and discrete canvas construction for data geometry and distance constraints.

A discrete canvas holds one plane, ``polygon``: a run table of its
interior (sorted, disjoint runs of pixels whose square one object's
interior fully covers, each with that object's id) and a CSR table of
boundary-index entry refs per boundary pixel. No canvas allocates a
width x height array: memory and render work grow with the rows and edge
crossings of its objects. Classification is sound: a pixel square in an
interior run lies wholly inside its object, an unmarked square is disjoint
from every object, and every partially-covered square is boundary-marked.

Canvases key pixels column-major: pixel (c, r) has key ``c * height_px +
r``, so runs lie within one column. That key is the row-major flat id of
(r, c) in ``Viewport.transposed``; ``edge_keys`` and ``fill_runs`` run the
row-oriented kernels over the transposed viewport to produce it, while
``capsule_pixels`` works in columns as it is.

Every canvas takes pairwise-disjoint records (one constraint, one layer or
one layer of distance buffers), whose interior runs never overlap; runs
that do overlap raise ``OverlapError``.

Whole layers are rasterized at once, the CPU counterpart of one draw call
per layer, by three array kernels:

- ``segment_pixels``, the edge supercover: every pixel whose closed square
  meets a segment, for all segments of a layer in one pass. Candidates are
  column strips padded by one pixel; an exact corner-straddle and bbox
  predicate then filters them, so the result equals a per-window mask of
  that predicate (``seg_touch_mask`` in ``tests/dense.py``).
  The corner test orient = a - b splits into a row term a = dx * (y - ay)
  and a column term b = dy * (x - ax). The b terms of a strip's two edges
  and its x-bbox test are computed once per strip, the a terms per
  candidate. Rounded subtraction is monotone, so the four-corner minimum
  is min(a) - max(b) and the maximum max(a) - min(b), the same floats the
  four differences give.
- ``scanline_fill``, the even-odd fill: the spans of pixels whose centre
  lies inside a polygon part, from the sorted edge crossings of each row of
  pixel centres. Pixels that no edge of the polygon touches have their
  whole closed square inside it.
- ``capsule_pixels``, the buffer kernel: for points and segments each
  dilated by a radius (discs and capsules), the pixels a buffer covers, as
  column runs, and those it touches without covering. It works column by
  column from the buffer's outline, so its work and temporaries grow with
  the outline, not with the window.

One-sort rule: a kernel that orders rows by several keys packs the keys
into one int64 (``high << bits | low``, widths checked by ``packed_bits``
against 62 bits) and sorts the values with one ``np.sort``, reading the
fields back from the sorted values; ``np.lexsort`` is never used on the
render path. A key it cannot pack, such as the float crossing x of
``scanline_fill``, enters as its rank in a stable argsort.

``render_geometry_canvas`` builds polygon canvases from the first two, and
the query engine runs them over its probe records. ``DistanceCanvasBuilder``
renders a layer of r-buffers as the union of simple shapes: a polygon
source's filled interior, a capsule per segment or ring edge and a disc per
point. The runs a buffer covers become interior runs; the other pixels it
touches list every point or edge entry whose buffer reaches them. Both
read their records from the boundary index's ``geometry.RecordTable``,
whose edge rows are the boundary entries.

Pixel (c, r) covers the half-open square
``[min_x + c*sx, min_x + (c+1)*sx) x [min_y + r*sy, min_y + (r+1)*sy)``;
pixel (0, 0) sits at the minimum corner. Conservative tests use the closed
square.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import CanvasError, DataError, InternalInvariantError, OverlapError
from .geometry import GeometryRecord, RecordTable, budget_runs, expand_runs

PLANES = ("polygon",)
NULL_ID = -1


# ---------------------------------------------------------------------------
# Viewport
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Viewport:
    min_x: float
    min_y: float
    max_x: float
    max_y: float
    width_px: int
    height_px: int

    def __post_init__(self):
        if not (self.max_x > self.min_x and self.max_y > self.min_y):
            raise CanvasError("degenerate viewport bounds")
        if not (1 <= self.width_px <= 32768 and 1 <= self.height_px <= 32768):
            raise CanvasError("viewport resolution outside [1, 32768]")

    @property
    def sx(self) -> float:
        return (self.max_x - self.min_x) / self.width_px

    @property
    def sy(self) -> float:
        return (self.max_y - self.min_y) / self.height_px

    def pixel_of_points(self, pts: np.ndarray) -> tuple:
        """(cols, rows) of each point's covering pixel, clipped to the grid."""
        cols = np.floor((pts[:, 0] - self.min_x) / self.sx).astype(np.int64)
        rows = np.floor((pts[:, 1] - self.min_y) / self.sy).astype(np.int64)
        np.clip(cols, 0, self.width_px - 1, out=cols)
        np.clip(rows, 0, self.height_px - 1, out=rows)
        return cols, rows

    def pixel_keys(self, pts: np.ndarray) -> np.ndarray:
        """Canvas key of each point's covering pixel, clipped to the grid."""
        cols, rows = self.pixel_of_points(pts)
        return cols * self.height_px + rows

    def transposed(self) -> "Viewport":
        """The grid with x and y swapped: its row-major flat id of pixel
        (r, c) is the canvas key of pixel (c, r) here."""
        return Viewport(self.min_y, self.min_x, self.max_y, self.max_x,
                        self.height_px, self.width_px)

    def in_bounds(self, pts: np.ndarray) -> np.ndarray:
        return ((pts[:, 0] >= self.min_x) & (pts[:, 0] <= self.max_x)
                & (pts[:, 1] >= self.min_y) & (pts[:, 1] <= self.max_y))


def viewport_from_bounds(bounds, resolution: int) -> Viewport:
    """Viewport over ``bounds`` expanded by one pre-expansion pixel per side
    (guard band), so conservative pixels of rim geometry stay on the grid."""
    x0, y0, x1, y1 = bounds
    if not (x1 > x0 and y1 > y0):
        raise CanvasError(f"degenerate bounds {bounds}")
    if not 16 <= resolution <= 32768:
        raise CanvasError(f"resolution {resolution} outside [16, 32768]")
    gx = (x1 - x0) / resolution
    gy = (y1 - y0) / resolution
    return Viewport(x0 - gx, y0 - gy, x1 + gx, y1 + gy, resolution, resolution)


# ---------------------------------------------------------------------------
# Layer-at-a-time kernels
# ---------------------------------------------------------------------------

# Pixel keys one kernel call or probe chunk materializes at a time; bounds
# the temporary memory of a pass (about 8 bytes per key per live array).
PIXEL_KEY_BUDGET = 1 << 18


def unique_keys(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer key array, by a sort and a
    neighbour comparison (numpy 2's hash-based ``np.unique`` is many times
    slower on these int64 keys)."""
    if len(keys) < 2:
        return keys
    keys = np.sort(keys)
    return keys[np.r_[True, keys[1:] != keys[:-1]]]


def packed_bits(high: int, low: int) -> int:
    """The low field's width in a packed sort key ``high << bits | low``
    whose fields reach at most ``high`` and ``low`` (neither negative): the
    bit length of ``low``. Both fields must fit in 62 bits together, else
    an InternalInvariantError; callers pass Python ints, so the check
    itself cannot overflow."""
    bits = int(low).bit_length()
    if int(high).bit_length() + bits > 62:
        raise InternalInvariantError(f"packed sort key of {high} above {bits} bits overflows int64")
    return bits


def find_sorted(keys: np.ndarray, sorted_keys: np.ndarray) -> tuple:
    """(pos, found): where each key sits in the sorted key array, and
    whether it occurs there."""
    if len(sorted_keys) == 0:
        return np.zeros(len(keys), dtype=np.int64), np.zeros(len(keys), dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return pos, sorted_keys[pos] == keys


def in_sorted(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Boolean mask of the keys that occur in the sorted key array."""
    return find_sorted(keys, sorted_keys)[1]


def _index(v: np.ndarray, n: int, rounding=np.floor) -> np.ndarray:
    """Rounded pixel coordinate as int64, clipped to [-2, n + 1] before the
    cast so far-off coordinates cannot overflow it."""
    return np.clip(rounding(v), -2, n + 1).astype(np.int64)


def pixel_windows(vp: Viewport, x0, y0, x1, y1) -> tuple:
    """Inclusive (c0, c1, r0, r1) pixel windows of arrays of boxes, one
    pixel wider on every side so no closed-square touch is missed; a box
    that cannot touch the grid gets c1 < c0."""
    w, h = vp.width_px, vp.height_px
    c0 = np.maximum(_index((x0 - vp.min_x) / vp.sx, w) - 1, 0)
    c1 = np.minimum(_index((x1 - vp.min_x) / vp.sx, w) + 1, w - 1)
    r0 = np.maximum(_index((y0 - vp.min_y) / vp.sy, h) - 1, 0)
    r1 = np.minimum(_index((y1 - vp.min_y) / vp.sy, h) + 1, h - 1)
    off = (x1 < vp.min_x) | (x0 > vp.max_x) | (y1 < vp.min_y) | (y0 > vp.max_y)
    return c0, np.where(off, c0 - 1, c1), r0, r1


def segment_pixels(vp: Viewport, segs: np.ndarray) -> tuple:
    """Edge supercover: (segment index, flat pixel) for every pixel whose
    closed square meets the closed segment, for all (S, 4) segments at once.

    Candidates come in column strips of the segment's ``pixel_windows``
    window: in each window column, the rows the segment spans inside that
    strip, padded by one row on either side so rounding in the strip's end
    heights cannot drop a pixel. The exact corner-straddle and bbox
    predicate then keeps the touched ones: its x terms once per strip, its
    y terms per candidate (see the module docstring).
    """
    segs = np.asarray(segs, dtype=float).reshape(-1, 4)
    ax, ay, bx, by = segs[:, 0], segs[:, 1], segs[:, 2], segs[:, 3]
    x0, x1 = np.minimum(ax, bx), np.maximum(ax, bx)
    y0, y1 = np.minimum(ay, by), np.maximum(ay, by)
    c0, c1, r0, r1 = pixel_windows(vp, x0, y0, x1, y1)
    s, off = expand_runs(np.maximum(c1 - c0 + 1, 0))
    col = c0[s] + off
    # A strip whose square columns miss the segment's x range holds no
    # touched pixel.
    cx0 = vp.min_x + col * vp.sx
    cx1 = vp.min_x + (col + 1) * vp.sx
    near = (cx0 <= x1[s]) & (cx1 >= x0[s])
    s, col, cx0, cx1 = s[near], col[near], cx0[near], cx1[near]
    # Height range of the segment inside each column strip.
    sax, say = ax[s], ay[s]
    dx, dy = bx[s] - sax, by[s] - say
    xl = np.clip(cx0, x0[s], x1[s])
    xr = np.clip(cx1, x0[s], x1[s])
    with np.errstate(divide="ignore", invalid="ignore"):
        tl = np.clip((xl - sax) / dx, 0.0, 1.0)
        tr = np.clip((xr - sax) / dx, 0.0, 1.0)
    vertical = dx == 0.0
    tl[vertical], tr[vertical] = 0.0, 1.0
    ya, yb = say + tl * dy, say + tr * dy
    h = vp.height_px
    rlo = np.maximum(_index((np.minimum(ya, yb) - vp.min_y) / vp.sy, h) - 1, r0[s])
    rhi = np.minimum(_index((np.maximum(ya, yb) - vp.min_y) / vp.sy, h) + 1, r1[s])
    # The orient terms of the strip's two corner columns.
    b0, b1 = dy * (cx0 - sax), dy * (cx1 - sax)
    bmin, bmax = np.minimum(b0, b1), np.maximum(b0, b1)
    k, off = expand_runs(np.maximum(rhi - rlo + 1, 0))
    s, col, row = s[k], col[k], rlo[k] + off
    cy0 = vp.min_y + row * vp.sy
    cy1 = vp.min_y + (row + 1) * vp.sy
    a0, a1 = dx[k] * (cy0 - say[k]), dx[k] * (cy1 - say[k])
    # The exact test: orient a - b at the four corners straddles 0 and the
    # square overlaps the segment's bbox.
    ok = ((np.minimum(a0, a1) - bmax[k] <= 0.0) & (np.maximum(a0, a1) - bmin[k] >= 0.0)
          & (cy0 <= y1[s]) & (cy1 >= y0[s]))
    return s[ok], row[ok] * vp.width_px + col[ok]


def scanline_fill(vp: Viewport, edges: np.ndarray, owner: np.ndarray) -> tuple:
    """Even-odd scanline fill: (owner, row, c0, c1) spans of the pixels
    whose centre lies inside the rings of their owner, clipped to the grid.

    ``edges`` (E, 4) holds every ring edge of every owner and ``owner``
    (E,) the owner of each, not negative; an owner's rings must be closed
    and must not cross (one polygon part: outer ring plus holes). Each
    scanline through a row of pixel centres pairs up the owner's sorted
    edge crossings, and the centres between a pair are inside. A centre
    within rounding of an edge may land on either side, but its pixel is
    always touched by that edge, so callers that set edge pixels apart
    never depend on it.
    """
    edges = np.asarray(edges, dtype=float).reshape(-1, 4)
    owner = np.asarray(owner, dtype=np.int64)
    ax, ay, bx, by = edges[:, 0], edges[:, 1], edges[:, 2], edges[:, 3]
    w, h = vp.width_px, vp.height_px
    # Rows whose centre height yc has min(ay, by) <= yc < max(ay, by),
    # padded by one row and settled by the exact half-open test below: it
    # counts a vertex on the scanline once, so every row sees an even
    # number of crossings per closed ring.
    rlo = np.maximum(_index((np.minimum(ay, by) - vp.min_y) / vp.sy - 0.5, h) - 1, 0)
    rhi = np.minimum(_index((np.maximum(ay, by) - vp.min_y) / vp.sy - 0.5, h) + 1, h - 1)
    e, off = expand_runs(np.maximum(rhi - rlo + 1, 0))
    row = rlo[e] + off
    yc = vp.min_y + (row + 0.5) * vp.sy
    cross = (ay[e] <= yc) != (by[e] <= yc)
    e, row, yc = e[cross], row[cross], yc[cross]
    xc = ax[e] + (yc - ay[e]) * (bx[e] - ax[e]) / (by[e] - ay[e])
    # Crossings in (owner, row, xc) order, ties in index order: the rank
    # of each in a stable xc order, packed below its (owner, row).
    n, rbits = len(xc), (h - 1).bit_length()
    by_x = np.argsort(xc, kind="stable")
    bits = packed_bits(int(owner.max(initial=0)) << rbits | (h - 1), max(n - 1, 0))
    packed = np.sort((owner[e[by_x]] << rbits | row[by_x]) << bits | np.arange(n))
    key, xc = packed >> bits, xc[by_x[packed & ((1 << bits) - 1)]]
    if n % 2 or np.any(key[0::2] != key[1::2]):
        raise InternalInvariantError("scanline fill saw an odd crossing count (open ring?)")
    key = key[0::2]
    own, row = key >> rbits, key & ((1 << rbits) - 1)
    c0 = np.maximum(_index((xc[0::2] - vp.min_x) / vp.sx - 0.5, w, np.ceil), 0)
    c1 = np.minimum(_index((xc[1::2] - vp.min_x) / vp.sx - 0.5, w, np.ceil) - 1, w - 1)
    keep = c1 >= c0
    return own[keep], row[keep], c0[keep], c1[keep]


def _swap_xy(segs) -> np.ndarray:
    return np.asarray(segs, dtype=float).reshape(-1, 4)[:, [1, 0, 3, 2]]


def edge_cost(vp: Viewport, segs: np.ndarray) -> np.ndarray:
    """Per (S, 4) segment, an upper estimate of the candidate pixels
    ``edge_keys`` tests for it: three per pixel step along the segment (its
    strip of window columns, padded by one pixel on either side), plus the
    window's padding."""
    return 3.0 * (np.minimum(np.abs(segs[:, 2] - segs[:, 0]) / vp.sx, vp.width_px)
                  + np.minimum(np.abs(segs[:, 3] - segs[:, 1]) / vp.sy, vp.height_px) + 3.0)


def edge_keys(vp: Viewport, segs: np.ndarray) -> tuple:
    """(segment index, canvas key) for every pixel whose closed square
    meets the closed segment: ``segment_pixels`` over the transposed
    viewport. Swapping x and y only negates its corner test and leaves its
    bbox test as it is, so it marks the same pixels.

    ``segment_pixels`` holds some two dozen candidate-length arrays at
    once, so the segments go in chunks of at most ``PIXEL_KEY_BUDGET``
    candidates (``edge_cost``); only the result grows with the input."""
    segs = np.asarray(segs, dtype=float).reshape(-1, 4)
    vt, swapped = vp.transposed(), _swap_xy(segs)
    runs = list(budget_runs(edge_cost(vp, segs), PIXEL_KEY_BUDGET))
    if len(runs) <= 1:
        return segment_pixels(vt, swapped)
    out = []
    for lo, hi in runs:
        k, key = segment_pixels(vt, swapped[lo:hi])
        out.append((k + lo, key))
    return tuple(np.concatenate(a) for a in zip(*out))


def fill_runs(vp: Viewport, edges: np.ndarray, owner: np.ndarray) -> tuple:
    """(owner, col, row0, row1) column runs of the pixels whose centre lies
    inside the rings of their owner: ``scanline_fill`` over the transposed
    viewport. Its decision can differ from a fill along rows only for a
    centre within rounding of an edge, on a pixel that edge touches."""
    return scanline_fill(vp.transposed(), _swap_xy(edges), owner)


def interval_pairs(start: np.ndarray, end: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple:
    """(i, j) for each query interval [a[i], b[i]] and each interval
    [start[j], end[j]] it meets, of sorted pairwise-disjoint intervals (a
    sorted key array serves as both ``start`` and ``end``)."""
    lo = np.searchsorted(end, a)
    hi = np.searchsorted(start, b, side="right")
    i, off = expand_runs(np.maximum(hi - lo, 0))
    return i, lo[i] + off


# ---------------------------------------------------------------------------
# Discrete canvas
# ---------------------------------------------------------------------------

class DiscreteCanvas:
    """The one plane (``PLANES``) of a discrete canvas over ``viewport``,
    over canvas keys (pixel (c, r) is ``c * height_px + r``), with the
    boundary index ``bindex`` its buckets refer to; ``plane`` returns it.
    The interior is a run table: ``run_start`` and ``run_end`` (inclusive)
    keys of sorted, pairwise-disjoint runs within one column each, whose
    pixel squares the interior of object ``run_id`` fully covers. Boundary
    pixels carry CSR buckets of boundary entry refs: ``bp_flat`` sorted
    pixel keys, ``bp_start`` bucket offsets, ``bp_entries`` ascending refs
    per bucket. A canvas with no runs and no buckets holds nothing."""

    def __init__(self, viewport: Viewport, bindex=None):
        self.viewport = viewport
        self.bindex = bindex
        self.run_start = self.run_end = self.run_id = np.zeros(0, dtype=np.int64)
        self.bp_flat = np.zeros(0, dtype=np.int64)
        self.bp_start = np.zeros(1, dtype=np.int64)
        self.bp_entries = np.zeros(0, dtype=np.int64)

    def plane(self, name: str) -> "DiscreteCanvas":
        if name not in PLANES:
            raise CanvasError(f"unknown plane {name!r}")
        return self

    def has_plane(self, name: str) -> bool:
        return name in PLANES

    def interior_of(self, keys: np.ndarray) -> np.ndarray:
        """The object whose interior covers each pixel key, NULL_ID where
        none does: one ``searchsorted`` over the run starts."""
        if len(self.run_start) == 0:
            return np.full(len(keys), NULL_ID, dtype=np.int64)
        pos = np.searchsorted(self.run_start, keys, side="right") - 1
        at = np.maximum(pos, 0)
        return np.where((pos >= 0) & (keys <= self.run_end[at]), self.run_id[at], NULL_ID)

    def set_interior(self, start, end, ids):
        """Install the interior runs [start[i], end[i]] of object ``ids[i]``,
        given in any order; raise ``OverlapError`` where two runs share a
        pixel."""
        order = np.argsort(start, kind="stable")
        start, end = start[order], end[order]
        if np.any(start[1:] <= end[:-1]):
            raise OverlapError("interior runs of two records overlap; "
                               "a canvas takes pairwise-disjoint records")
        self.run_start, self.run_end, self.run_id = start, end, ids[order]

    def set_boundary(self, flat, refs):
        """Install the buckets of boundary entry ``refs[i]`` at pixel key
        ``flat[i]``, pairs given in any order and possibly repeated."""
        flat, refs = np.asarray(flat, dtype=np.int64), np.asarray(refs, dtype=np.int64)
        bits = packed_bits(int(flat.max(initial=0)), int(refs.max(initial=0)))
        packed = np.sort(flat << bits | refs)
        flat, refs = packed >> bits, packed & ((1 << bits) - 1)
        start = np.flatnonzero(np.r_[True, flat[1:] != flat[:-1]][:len(flat)])
        self.bp_flat = flat[start]
        self.bp_start = np.append(start, len(flat)).astype(np.int64)
        self.bp_entries = refs


def render_geometry_canvas(vp: Viewport, bindex) -> DiscreteCanvas:
    """Render the pairwise-disjoint polygons of a boundary index's table
    into a discrete canvas; every boundary entry ref is the row of its edge
    in that table, and a table holding a point or polyline is a DataError.

    Every pixel a ring edge touches (``edge_keys``) gets that edge's entry,
    and the interior runs of each polygon hold the pixels whose centre it
    contains (``fill_runs``) less those its own edges touch. Polygons whose
    interior runs overlap raise ``OverlapError``.
    """
    t = bindex.table
    if np.any(t.kinds != RecordTable.POLYGON):
        raise DataError("a geometry canvas takes polygons only")
    canvas = DiscreteCanvas(vp, bindex)
    if len(t.edges):
        k, key = edge_keys(vp, t.edges)
        canvas.set_boundary(key, k)
        rank, col, row0, row1 = _polygon_runs(vp, t.edges, t.rank, t.part, k, key)
        canvas.set_interior(col * vp.height_px + row0, col * vp.height_px + row1, t.ids[rank])
    return canvas


def _union_runs(key, row0, row1) -> tuple:
    """The union of the row runs [row0, row1] of each key, as (key, row0,
    row1) of disjoint runs that do not touch, sorted by key and row0.
    Keys and rows must not be negative."""
    if len(key) == 0:
        return key, row0, row1
    # One value sort of (key, row0, row1) packed into an int64; the order
    # of row1 among equal (key, row0) does not change the union.
    rbits = max(int(row0.max()), int(row1.max())).bit_length()
    packed_bits(int(key.max()), (1 << 2 * rbits) - 1)  # raises past 62 bits
    packed = np.sort((key << rbits | row0) << rbits | row1)
    mask = (1 << rbits) - 1
    key, row0, row1 = packed >> 2 * rbits, packed >> rbits & mask, packed & mask
    # Running maximum of row1 within each key: lifting each key's rows
    # above the previous key's keeps the maximum from crossing keys.
    newkey = key[1:] != key[:-1]
    lift = np.concatenate([[0], np.cumsum(newkey)]) * (int(row1.max()) + 2)
    reach = np.maximum.accumulate(row1 + lift) - lift
    head = np.flatnonzero(np.concatenate([[True], newkey | (row0[1:] > reach[:-1] + 1)]))
    return key[head], row0[head], reach[np.append(head[1:], len(key)) - 1]


def _polygon_runs(vp: Viewport, edges, rank, part, k, key) -> tuple:
    """(rank, col, row0, row1) runs of the pixels each polygon's interior
    covers: the centres ``fill_runs`` puts inside one of its parts, less
    the pixels its own edges touch, (edge ``k``, ``key``) as ``edge_keys``
    gives them for ``edges``, whose polygon is ``rank`` and whose part
    ``part`` (rows of a ``RecordTable``).

    Runs are merged per polygon and column, then split around the cut
    pixels, all in one key space of (rank * width + col) * height + row.
    """
    w, h = vp.width_px, vp.height_px
    part_rank = np.zeros(int(part.max()) + 1, dtype=np.int64)
    part_rank[part] = rank
    own, col, row0, row1 = fill_runs(vp, edges, part)
    kk, row0, row1 = _union_runs(part_rank[own] * w + col, row0, row1)
    start, end = kk * h + row0, kk * h + row1
    cuts = unique_keys(rank[k] * (w * h) + key)
    # Piece j of run i ends before its j-th cut inside the run and starts
    # after the one before (the run's own ends bound the first and last).
    lo = np.searchsorted(cuts, start)
    m = np.searchsorted(cuts, end, side="right") - lo
    i, j = expand_runs(m + 1)
    c = lo[i] + j
    ext = np.concatenate([[0], cuts, [0]])
    first = np.where(j == 0, start[i], ext[c] + 1)
    last = np.where(j == m[i], end[i], ext[c + 1] - 1)
    keep = first <= last
    kk, row0, row1 = kk[i[keep]], first[keep] % h, last[keep] % h
    return kk // w, kk % w, row0, row1


# ---------------------------------------------------------------------------
# Distance canvases (Minkowski buffers)
# ---------------------------------------------------------------------------

# Candidate pixels one chunk of ``capsule_pixels`` tests at a time: about
# ten arrays of that length are alive at once, some 5 MB in all.
CAPSULE_KEY_BUDGET = PIXEL_KEY_BUDGET // 4


def _outline_params(ax, ay, bx, by, r) -> np.ndarray:
    """Per capsule (closed segment a-b dilated by r), one column of what
    ``capsule_pixels`` needs to trace its top and bottom, rows as named in
    ``_P``.

    The top, as a function of x, is the higher of the end discs' tops and
    the upper side: the segment moved by r along its upward normal, the
    line y = oy + (x - ox) * slope over lo <= x <= hi (lo > hi when the
    segment is vertical or a point). It is concave, highest at x = ``peak``
    (the higher end). The bottom is the top of the mirror image in y,
    negated; each of those rows comes as a pair, capsule then mirror.
    """
    dx, dy = bx - ax, by - ay
    level = dx != 0.0
    n = np.divide(r, np.hypot(dx, dy), out=np.zeros_like(r), where=level)
    slope = np.divide(dy, dx, out=np.zeros_like(r), where=level)
    shift = -dy * np.sign(dx) * n
    x0, x1 = np.minimum(ax, bx), np.maximum(ax, bx)
    rise = np.abs(dx) * n
    return np.array([
        x0 - r, x1 + r, ax, bx, r * r,
        # A line through a disc's extreme point, computed as its centre
        # +- r, must not miss the disc by rounding.
        r + 1e-12 * (np.abs(ax) + r), r + 1e-12 * (np.abs(bx) + r),
        np.where(ay >= by, ax, bx), np.where(ay <= by, ax, bx),
        ay, -ay, by, -by, ax + shift, ax - shift, ay + rise, rise - ay, slope, -slope,
        np.where(level, x0 + shift, np.inf), np.where(level, x0 - shift, np.inf),
        np.where(level, x1 + shift, -np.inf), np.where(level, x1 - shift, -np.inf)])


# Rows of ``_outline_params``; two-row slices are (capsule, mirror) pairs.
_P = dict(x0=0, x1=1, ax=2, bx=3, rr=4, reach_a=5, reach_b=6, peak=slice(7, 9),
          ya=slice(9, 11), yb=slice(11, 13), ox=slice(13, 15), oy=slice(15, 17),
          slope=slice(17, 19), lo=slice(19, 21), hi=slice(21, 23))


def _outline_tops(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Tops of capsules and of their mirrors, (2, k, m), at x (k, m) for the
    gathered ``_outline_params`` columns ``g`` (.., m); -inf where the
    vertical line misses."""
    def pair(name):
        return g[_P[name], None, :]
    side = np.where((x >= pair("lo")) & (x <= pair("hi")),
                    pair("oy") + (x - pair("ox")) * pair("slope"), -np.inf)
    rr = g[_P["rr"]]
    chord = []
    for end, reach in (("ax", "reach_a"), ("bx", "reach_b")):
        d = x - g[_P[end]]
        chord.append(np.where(np.abs(d) <= g[_P[reach]], np.sqrt(np.maximum(rr - d * d, 0.0)),
                              -np.inf))
    return np.maximum(np.maximum(pair("ya") + chord[0], pair("yb") + chord[1]), side)


def capsule_pixels(vp: Viewport, segs: np.ndarray, r: np.ndarray) -> tuple:
    """Buffer kernel: for (S, 4) closed segments (a == b for a point), each
    dilated by its radius in ``r`` (S,), returns the band keys (shape index,
    canvas key) of every pixel whose closed square the buffer touches
    without covering, and the runs (shape index, column, first row, last
    row) of pixels it covers.

    Work follows the buffer's outline, in column strips as in
    ``segment_pixels``. A capsule is convex, so its part in a column strip
    projects onto one y interval: a pixel of the column is touched iff its
    rows meet that interval, and covered iff they lie between the bottom
    and the top at both strip edges (its corners are then inside). The top
    is concave in x, so its highest value over the strip is at the strip's
    point nearest the capsule's peak; the bottom likewise. Rows inside the
    covered part, less one row of margin per side, form the column's run;
    only the few rows around the top and the bottom get the comparisons.
    """
    segs = np.asarray(segs, dtype=float).reshape(-1, 4)
    r = np.broadcast_to(np.asarray(r, dtype=float), len(segs))
    ax, ay, bx, by = segs[:, 0], segs[:, 1], segs[:, 2], segs[:, 3]
    params = _outline_params(ax, ay, bx, by, r)
    c0, c1, r0, r1 = pixel_windows(vp, params[_P["x0"]], np.minimum(ay, by) - r,
                                   params[_P["x1"]], np.maximum(ay, by) + r)
    ncol = np.maximum(c1 - c0 + 1, 0)
    # Candidates per capsule: a few per column plus the rise and fall of
    # its top and bottom, each at most twice its height.
    cost = 8 * ncol + 4 * np.maximum(r1 - r0 + 1, 0) * (ncol > 0)
    h = vp.height_px
    band, runs = [(np.zeros(0, np.int64),) * 2], [(np.zeros(0, np.int64),) * 4]
    for lo, hi in budget_runs(cost, CAPSULE_KEY_BUDGET):
        s, off = expand_runs(ncol[lo:hi])
        s += lo
        m = len(s)
        g = params[:, s]
        col = c0[s] + off
        left = vp.min_x + col * vp.sx
        right = vp.min_x + (col + 1) * vp.sx
        p = np.minimum(np.maximum(left, g[_P["x0"]]), g[_P["x1"]])
        q = np.minimum(np.maximum(right, g[_P["x0"]]), g[_P["x1"]])
        peak = np.minimum(np.maximum(g[_P["peak"]], p), q)
        t = _outline_tops(g, np.concatenate([peak[0], peak[1], left, right]).reshape(4, m))
        # Per column: the slice's y range over the strip, and the covered
        # part's bottom and top (lowest at the strip's edges).
        ymin, ymax = -t[1, 1], t[0, 0]
        bottom, top = -np.minimum(t[1, 2], t[1, 3]), np.minimum(t[0, 2], t[0, 3])
        z = (np.concatenate([ymin, ymax, bottom, top]).reshape(4, m) - vp.min_y) / vp.sy
        z[2] = np.ceil(z[2])
        rows = np.minimum(np.maximum(np.floor(z), -2), h + 1).astype(np.int64)
        tlo, thi = np.maximum(rows[0] - 1, r0[s]), np.minimum(rows[1] + 1, r1[s])
        # Window columns wholly beside the capsule (p and q then agree but
        # lie outside the strip) hold nothing.
        thi = np.where((right < g[_P["x0"]]) | (left > g[_P["x1"]]), tlo - 1, thi)
        flo, fhi = np.maximum(rows[2] + 1, tlo), np.minimum(rows[3] - 2, thi)
        full = flo <= fhi
        runs.append((s[full], col[full], flo[full], fhi[full]))
        # Candidate rows: below the run and above it, or the whole slice.
        first = np.concatenate([tlo, np.where(full, fhi + 1, thi + 1)])
        last = np.concatenate([np.where(full, flo - 1, thi), thi])
        k, off = expand_runs(np.maximum(last - first + 1, 0))
        row = first[k] + off
        k %= m
        y0 = vp.min_y + row * vp.sy
        y1 = vp.min_y + (row + 1) * vp.sy
        inside = (y0 >= bottom[k]) & (y1 <= top[k])
        edge = (y1 >= ymin[k]) & (y0 <= ymax[k]) & ~inside
        band.append((s[k[edge]], col[k[edge]] * h + row[edge]))
        runs.append((s[k[inside]], col[k[inside]], row[inside], row[inside]))
    band = tuple(np.concatenate(a) for a in zip(*band))
    return band, tuple(np.concatenate(a) for a in zip(*runs))


class DistanceCanvasBuilder:
    """Renders the r-buffers of pairwise-disjoint sources into one canvas.

    A buffer is a union of simple shapes: a disc around a point source, a
    capsule around each polyline segment or polygon ring edge, and a
    polygon source's own interior. ``add_source`` queues a source;
    ``finalize`` renders all of them in one pass:

    - polygon interiors by ``fill_runs``, less the pixels the polygon's
      own edges touch (``edge_keys``);
    - discs and capsules by ``capsule_pixels``, whose covered column runs
      are merged with the interior's per source into the interior runs;
    - every other pixel a buffer touches becomes a boundary pixel whose
      bucket lists each point or edge entry whose buffer touches it.

    A point on a boundary pixel is then in a buffer iff it lies within r of
    one of its pixel's entries or inside a polygon source of that pixel;
    the engine tests the second by the point-in-polygon kernel.
    """

    def __init__(self, vp: Viewport, bindex):
        self.vp = vp
        self.bindex = bindex
        self._queue: list = []

    def add_source(self, source: GeometryRecord, r: float):
        """Queue a source and its radius for ``finalize``."""
        if not (r > 0) or not np.isfinite(r):
            raise DataError(f"distance radius must be positive, got {r}")
        self._queue.append((source, float(r)))

    def finalize(self) -> DiscreteCanvas:
        vp, bindex, t = self.vp, self.bindex, self.bindex.table
        w, h = vp.width_px, vp.height_px
        # The queued sources' entries: their rows of the boundary index's
        # table (in id order), one per point, segment or ring edge.
        ids = np.array([src.id for src, _ in self._queue], dtype=np.int64)
        rank = np.searchsorted(t.ids, ids)
        j, ref = t.rows(rank)
        radius = np.array([r for _, r in self._queue], dtype=float)[j]
        (bs, bkey), (rs, col, row0, row1) = capsule_pixels(vp, t.edges[ref], radius)
        runs = [(j[rs], col, row0, row1)]
        polys = np.flatnonzero(t.kinds[rank] == RecordTable.POLYGON)
        if len(polys):
            q, rows = t.rows(rank[polys])
            edges = t.edges[rows]
            k, key = edge_keys(vp, edges)
            runs.append(_polygon_runs(vp, edges, polys[q], t.part[rows], k, key))
        # A source's capsules overlap each other (each end disc is shared)
        # and its interior, so its runs are merged per column.
        src, col, row0, row1 = (np.concatenate(a) for a in zip(*runs))
        key, row0, row1 = _union_runs(src * w + col, row0, row1)
        canvas = DiscreteCanvas(vp, bindex)
        base = key % w * h
        canvas.set_interior(base + row0, base + row1, ids[key // w])
        keep = canvas.interior_of(bkey) == NULL_ID
        canvas.set_boundary(bkey[keep], ref[bs[keep]])
        return canvas
