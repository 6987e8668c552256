"""The rasterization backend: viewports, the layer-at-a-time raster kernels,
and discrete canvas construction for data geometry and distance constraints.

A discrete canvas holds, per plane (point/line/polygon), a run table of its
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
  column strips padded by one pixel; ``seg_touch_mask``'s corner-straddle
  and bbox predicate then filters them, so the result equals that mask.
- ``scanline_fill``, the even-odd fill: the spans of pixels whose centre
  lies inside a polygon part, from the sorted edge crossings of each row of
  pixel centres. Pixels that no edge of the polygon touches have their
  whole closed square inside it.
- ``capsule_pixels``, the buffer kernel: for points and segments each
  dilated by a radius (discs and capsules), the pixels a buffer covers, as
  column runs, and those it touches without covering. It works column by
  column from the buffer's outline, so its work and temporaries grow with
  the outline, not with the window.

``render_geometry_canvas`` builds data canvases from the first two, and the
query engine runs them over its probe records. ``DistanceCanvasBuilder``
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
from .geometry import GeometryRecord, RecordTable, budget_runs, expand_runs, orient

PLANES = ("point", "line", "polygon")
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

    def window_for_bbox(self, bbox) -> tuple | None:
        """Inclusive (c0, c1, r0, r1) pixel window covering a world bbox,
        expanded one pixel outward so closed-square touching is never missed;
        None when the bbox cannot touch the grid."""
        x0, y0, x1, y1 = bbox
        if x1 < self.min_x or x0 > self.max_x or y1 < self.min_y or y0 > self.max_y:
            return None
        c0 = int(np.floor((x0 - self.min_x) / self.sx)) - 1
        c1 = int(np.floor((x1 - self.min_x) / self.sx)) + 1
        r0 = int(np.floor((y0 - self.min_y) / self.sy)) - 1
        r1 = int(np.floor((y1 - self.min_y) / self.sy)) + 1
        c0, c1 = max(c0, 0), min(c1, self.width_px - 1)
        r0, r1 = max(r0, 0), min(r1, self.height_px - 1)
        if c0 > c1 or r0 > r1:
            return None
        return (c0, c1, r0, r1)

    def corner_xs(self, c0: int, c1: int) -> np.ndarray:
        return self.min_x + np.arange(c0, c1 + 2, dtype=float) * self.sx

    def corner_ys(self, r0: int, r1: int) -> np.ndarray:
        return self.min_y + np.arange(r0, r1 + 2, dtype=float) * self.sy

    def center_xs(self, c0: int, c1: int) -> np.ndarray:
        return self.min_x + (np.arange(c0, c1 + 1, dtype=float) + 0.5) * self.sx

    def center_ys(self, r0: int, r1: int) -> np.ndarray:
        return self.min_y + (np.arange(r0, r1 + 1, dtype=float) + 0.5) * self.sy

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
# Exact per-pixel masks over a window
# ---------------------------------------------------------------------------

def _corner_min_max(f: np.ndarray) -> tuple:
    """Per-pixel min/max over the 4 corners of a corner-lattice field."""
    fmin = np.minimum(np.minimum(f[:-1, :-1], f[:-1, 1:]),
                      np.minimum(f[1:, :-1], f[1:, 1:]))
    fmax = np.maximum(np.maximum(f[:-1, :-1], f[:-1, 1:]),
                      np.maximum(f[1:, :-1], f[1:, 1:]))
    return fmin, fmax


def _bbox_overlap_mask(vp: Viewport, window, bbox) -> np.ndarray:
    c0, c1, r0, r1 = window
    xs = vp.corner_xs(c0, c1)
    ys = vp.corner_ys(r0, r1)
    x0, y0, x1, y1 = bbox
    col_ok = (xs[:-1] <= x1) & (xs[1:] >= x0)
    row_ok = (ys[:-1] <= y1) & (ys[1:] >= y0)
    return row_ok[:, None] & col_ok[None, :]


def seg_touch_mask(vp: Viewport, window, ax, ay, bx, by) -> np.ndarray:
    """Pixels of the window whose closed square intersects the closed segment.

    Exact: the square and segment (both convex) intersect iff their bboxes
    overlap on both axes and the segment's supporting line straddles the
    square's corners.
    """
    c0, c1, r0, r1 = window
    xs = vp.corner_xs(c0, c1)
    ys = vp.corner_ys(r0, r1)
    f = orient(ax, ay, bx, by, xs[None, :], ys[:, None])
    fmin, fmax = _corner_min_max(f)
    straddle = (fmin <= 0.0) & (fmax >= 0.0)
    bbox = (min(ax, bx), min(ay, by), max(ax, bx), max(ay, by))
    return straddle & _bbox_overlap_mask(vp, window, bbox)


def point_pixels(vp: Viewport, x: float, y: float) -> list:
    """All grid pixels whose closed square contains the point (up to 4)."""
    if not (vp.min_x <= x <= vp.max_x and vp.min_y <= y <= vp.max_y):
        return []
    cc = int(np.floor((x - vp.min_x) / vp.sx))
    rr = int(np.floor((y - vp.min_y) / vp.sy))
    out = []
    for c in (cc - 1, cc, cc + 1):
        if not 0 <= c < vp.width_px:
            continue
        if not (vp.min_x + c * vp.sx <= x <= vp.min_x + (c + 1) * vp.sx):
            continue
        for r in (rr - 1, rr, rr + 1):
            if not 0 <= r < vp.height_px:
                continue
            if vp.min_y + r * vp.sy <= y <= vp.min_y + (r + 1) * vp.sy:
                out.append((c, r))
    return out


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
    """``Viewport.window_for_bbox`` over arrays of boxes: inclusive
    (c0, c1, r0, r1) arrays; a box that cannot touch the grid gets c1 < c0."""
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

    The pixels are exactly those ``seg_touch_mask`` marks in the segment's
    ``window_for_bbox`` window. Candidates come in column strips: in each
    window column, the rows the segment spans inside that strip, padded by
    one row on either side so rounding in the strip's end heights cannot
    drop a pixel. The corner-straddle and bbox predicate of
    ``seg_touch_mask``, evaluated with the same floating-point operations,
    then keeps the touched ones.
    """
    segs = np.asarray(segs, dtype=float).reshape(-1, 4)
    ax, ay, bx, by = segs[:, 0], segs[:, 1], segs[:, 2], segs[:, 3]
    x0, x1 = np.minimum(ax, bx), np.maximum(ax, bx)
    y0, y1 = np.minimum(ay, by), np.maximum(ay, by)
    c0, c1, r0, r1 = pixel_windows(vp, x0, y0, x1, y1)
    s, off = expand_runs(np.maximum(c1 - c0 + 1, 0))
    col = c0[s] + off
    # Height range of the segment inside each column strip.
    dx, dy = (bx - ax)[s], (by - ay)[s]
    xl = np.clip(vp.min_x + col * vp.sx, x0[s], x1[s])
    xr = np.clip(vp.min_x + (col + 1) * vp.sx, x0[s], x1[s])
    with np.errstate(divide="ignore", invalid="ignore"):
        tl = np.clip((xl - ax[s]) / dx, 0.0, 1.0)
        tr = np.clip((xr - ax[s]) / dx, 0.0, 1.0)
    vertical = dx == 0.0
    tl[vertical], tr[vertical] = 0.0, 1.0
    ya, yb = ay[s] + tl * dy, ay[s] + tr * dy
    h = vp.height_px
    rlo = np.maximum(_index((np.minimum(ya, yb) - vp.min_y) / vp.sy, h) - 1, r0[s])
    rhi = np.minimum(_index((np.maximum(ya, yb) - vp.min_y) / vp.sy, h) + 1, r1[s])
    k, off = expand_runs(np.maximum(rhi - rlo + 1, 0))
    s, col, row = s[k], col[k], rlo[k] + off
    dx, dy = dx[k], dy[k]
    # seg_touch_mask's exact test: orient at the four corners straddles 0
    # and the square overlaps the segment's bbox.
    cx0 = vp.min_x + col * vp.sx
    cx1 = vp.min_x + (col + 1) * vp.sx
    cy0 = vp.min_y + row * vp.sy
    cy1 = vp.min_y + (row + 1) * vp.sy
    sax, say = ax[s], ay[s]
    a0, a1 = dx * (cy0 - say), dx * (cy1 - say)
    b0, b1 = dy * (cx0 - sax), dy * (cx1 - sax)
    f00, f01, f10, f11 = a0 - b0, a0 - b1, a1 - b0, a1 - b1
    fmin = np.minimum(np.minimum(f00, f01), np.minimum(f10, f11))
    fmax = np.maximum(np.maximum(f00, f01), np.maximum(f10, f11))
    ok = ((fmin <= 0.0) & (fmax >= 0.0)
          & (cx0 <= x1[s]) & (cx1 >= x0[s]) & (cy0 <= y1[s]) & (cy1 >= y0[s]))
    return s[ok], row[ok] * vp.width_px + col[ok]


def scanline_fill(vp: Viewport, edges: np.ndarray, owner: np.ndarray) -> tuple:
    """Even-odd scanline fill: (owner, row, c0, c1) spans of the pixels
    whose centre lies inside the rings of their owner, clipped to the grid.

    ``edges`` (E, 4) holds every ring edge of every owner and ``owner``
    (E,) the owner of each; an owner's rings must be closed and must not
    cross (one polygon part: outer ring plus holes). Each scanline through
    a row of pixel centres pairs up the owner's sorted edge crossings, and
    the centres between a pair are inside. A centre within rounding of an
    edge may land on either side, but its pixel is always touched by that
    edge, so callers that set edge pixels apart never depend on it.
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
    own = owner[e]
    order = np.lexsort((xc, row, own))
    own, row, xc = own[order], row[order], xc[order]
    if len(own) % 2 or np.any(own[0::2] != own[1::2]) or np.any(row[0::2] != row[1::2]):
        raise InternalInvariantError("scanline fill saw an odd crossing count (open ring?)")
    own, row = own[0::2], row[0::2]
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


def point_pixels_array(vp: Viewport, xy: np.ndarray) -> tuple:
    """``point_pixels`` for an (N, 2) array: (point index, flat pixel) for
    every pixel whose closed square contains the point."""
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    idx = np.flatnonzero(vp.in_bounds(xy))
    x, y = xy[idx, 0], xy[idx, 1]
    cc = np.floor((x - vp.min_x) / vp.sx).astype(np.int64)
    rr = np.floor((y - vp.min_y) / vp.sy).astype(np.int64)
    k = np.repeat(np.arange(len(idx)), 9)
    col = cc[k] + np.tile(np.repeat([-1, 0, 1], 3), len(idx))
    row = rr[k] + np.tile([-1, 0, 1], 3 * len(idx))
    ok = ((col >= 0) & (col < vp.width_px) & (row >= 0) & (row < vp.height_px)
          & (vp.min_x + col * vp.sx <= x[k]) & (x[k] <= vp.min_x + (col + 1) * vp.sx)
          & (vp.min_y + row * vp.sy <= y[k]) & (y[k] <= vp.min_y + (row + 1) * vp.sy))
    return idx[k[ok]], row[ok] * vp.width_px + col[ok]


# ---------------------------------------------------------------------------
# Discrete canvas
# ---------------------------------------------------------------------------

class PlaneData:
    """One primitive plane of a discrete canvas, over canvas keys (pixel
    (c, r) is ``c * height_px + r``).

    The interior is a run table: ``run_start`` and ``run_end`` (inclusive)
    keys of sorted, pairwise-disjoint runs within one column each, whose
    pixel squares the interior of object ``run_id`` fully covers. Boundary
    pixels carry CSR buckets of boundary entry refs: ``bp_flat`` sorted
    pixel keys, ``bp_start`` bucket offsets, ``bp_entries`` ascending refs
    per bucket. A plane with no runs and no buckets holds nothing."""

    def __init__(self):
        self.run_start = self.run_end = self.run_id = np.zeros(0, dtype=np.int64)
        self.bp_flat = np.zeros(0, dtype=np.int64)
        self.bp_start = np.zeros(1, dtype=np.int64)
        self.bp_entries = np.zeros(0, dtype=np.int64)

    def interior_of(self, keys: np.ndarray) -> np.ndarray:
        """The object whose interior covers each pixel key, NULL_ID where
        none does: one ``searchsorted`` over the run starts."""
        if len(self.run_start) == 0:
            return np.full(len(keys), NULL_ID, dtype=np.int64)
        pos = np.searchsorted(self.run_start, keys, side="right") - 1
        at = np.maximum(pos, 0)
        return np.where((pos >= 0) & (keys <= self.run_end[at]), self.run_id[at], NULL_ID)


class DiscreteCanvas:
    """Three pixel planes over one viewport plus the boundary-entry table.
    A plane nothing was rendered into reads as an empty ``PlaneData``."""

    def __init__(self, viewport: Viewport, bindex=None):
        self.viewport = viewport
        self.bindex = bindex
        self._planes: dict = {}

    def plane(self, name: str) -> PlaneData:
        if name not in PLANES:
            raise CanvasError(f"unknown plane {name!r}")
        return self._planes.get(name) or PlaneData()

    def has_plane(self, name: str) -> bool:
        return name in self._planes


class _Builder:
    """Accumulates interior runs and boundary (pixel, entry ref) pairs,
    then finalizes the run and bucket tables."""

    def __init__(self, vp: Viewport, bindex):
        self.canvas = DiscreteCanvas(vp, bindex)
        self._pix: dict = {name: [] for name in PLANES}
        self._refs: dict = {name: [] for name in PLANES}

    def _plane(self, name) -> PlaneData:
        return self.canvas._planes.setdefault(name, PlaneData())

    def set_interior(self, plane_name, start, end, ids):
        """Install a plane's interior runs [start[i], end[i]] of object
        ``ids[i]``, given in any order; raise ``OverlapError`` where two
        runs share a pixel."""
        order = np.argsort(start, kind="stable")
        start, end = start[order], end[order]
        if np.any(start[1:] <= end[:-1]):
            raise OverlapError("interior runs of two records overlap; "
                               "a canvas takes pairwise-disjoint records")
        plane = self._plane(plane_name)
        plane.run_start, plane.run_end, plane.run_id = start, end, ids[order]

    def add_boundary(self, plane_name, flat, refs):
        """Record boundary entry ``refs[i]`` at pixel key ``flat[i]``."""
        self._pix[plane_name].append(np.asarray(flat, dtype=np.int64))
        self._refs[plane_name].append(np.asarray(refs, dtype=np.int64))

    def finalize(self) -> DiscreteCanvas:
        for name in PLANES:
            if not self._pix[name]:
                continue
            plane = self._plane(name)
            flat = np.concatenate(self._pix[name])
            refs = np.concatenate(self._refs[name])
            order = np.lexsort((refs, flat))
            flat, refs = flat[order], refs[order]
            start = np.flatnonzero(np.r_[True, flat[1:] != flat[:-1]][:len(flat)])
            plane.bp_flat = flat[start]
            plane.bp_start = np.append(start, len(flat)).astype(np.int64)
            plane.bp_entries = refs
        return self.canvas


def render_geometry_canvas(vp: Viewport, bindex) -> DiscreteCanvas:
    """Render the pairwise-disjoint records of a boundary index's table
    into a discrete canvas, one kernel call per kind; every boundary entry
    ref is the row of its point or edge in that table.

    Points land conservatively in the point plane and polyline segments in
    the line plane, as boundary entries. Polygons fill the polygon plane:
    every pixel a ring edge touches (``edge_keys``) gets that edge's entry,
    and the interior runs of each polygon hold the pixels whose centre it
    contains (``fill_runs``) less those its own edges touch. Records whose
    interior runs overlap raise ``OverlapError``.
    """
    t = bindex.table
    b = _Builder(vp, bindex)
    rows = t.start[:-1][t.kinds == RecordTable.POINT]
    if len(rows):
        k, key = point_pixels_array(vp.transposed(), t.edges[rows][:, [1, 0]])
        b.add_boundary("point", key, rows[k])
    _, rows = t.rows(np.flatnonzero(t.kinds == RecordTable.POLYLINE))
    if len(rows):
        k, key = edge_keys(vp, t.edges[rows])
        b.add_boundary("line", key, rows[k])
    _, rows = t.rows(np.flatnonzero(t.kinds == RecordTable.POLYGON))
    if len(rows):
        edges = t.edges[rows]
        k, key = edge_keys(vp, edges)
        b.add_boundary("polygon", key, rows[k])
        rank, col, row0, row1 = _polygon_runs(vp, edges, t.rank[rows], t.part[rows], k, key)
        b.set_interior("polygon", col * vp.height_px + row0, col * vp.height_px + row1,
                       t.ids[rank])
    return b.finalize()


def _union_runs(key, row0, row1) -> tuple:
    """The union of the row runs [row0, row1] of each key, as (key, row0,
    row1) of disjoint runs that do not touch, sorted by key and row0."""
    order = np.lexsort((row0, key))
    key, row0, row1 = key[order], row0[order], row1[order]
    if len(key) == 0:
        return key, row0, row1
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
        b = _Builder(vp, bindex)
        base = key % w * h
        b.set_interior("polygon", base + row0, base + row1, ids[key // w])
        keep = b.canvas.plane("polygon").interior_of(bkey) == NULL_ID
        b.add_boundary("polygon", bkey[keep], ref[bs[keep]])
        return b.finalize()
