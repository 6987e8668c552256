"""The rasterization backend: viewports, conservative rasterization, and
discrete canvas construction for data geometry and distance constraints.

A discrete canvas holds, per plane (point/line/polygon), an ``interior_id``
grid (the object whose interior fully covers the pixel square) and a CSR
table of boundary-index entry refs per boundary pixel. Classification is
sound: an interior-marked pixel square lies wholly inside its object, an
unmarked square is disjoint from every object, and every partially-covered
square is boundary-marked.

Whole layers are rasterized at once, the CPU counterpart of one draw call
per layer, by two array kernels:

- ``segment_pixels``, the edge supercover: every pixel whose closed square
  meets a segment, for all segments of a layer in one pass. Candidates are
  column strips padded by one pixel; ``seg_touch_mask``'s corner-straddle
  and bbox predicate then filters them, so the result equals that mask.
- ``scanline_fill``, the even-odd fill: every pixel whose centre lies
  inside a polygon part, from the sorted edge crossings of each row of
  pixel centres. Pixels that no edge of the polygon touches have their
  whole closed square inside it.

``render_geometry_canvas`` builds canvases from them, and the query engine
runs the same kernels over its probe records.

Pixel (c, r) covers the half-open square
``[min_x + c*sx, min_x + (c+1)*sx) x [min_y + r*sy, min_y + (r+1)*sy)``;
pixel (0, 0) sits at the minimum corner. Conservative tests use the closed
square.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import CanvasError, DataError, DegenerateGeometryError, InternalInvariantError
from .geometry import (
    GeometryRecord,
    Point2,
    Segment,
    Triangle,
    edge_table,
    features,
    orient,
    triangles_array,
)

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


def tri_touch_mask(vp: Viewport, window, tri: np.ndarray) -> np.ndarray:
    """Pixels whose closed square intersects the closed CCW triangle (SAT)."""
    c0, c1, r0, r1 = window
    xs = vp.corner_xs(c0, c1)
    ys = vp.corner_ys(r0, r1)
    (x0, y0), (x1, y1), (x2, y2) = tri
    ok = _bbox_overlap_mask(vp, window,
                            (min(x0, x1, x2), min(y0, y1, y2),
                             max(x0, x1, x2), max(y0, y1, y2)))
    for (ax, ay, bx, by, cx, cy) in ((x0, y0, x1, y1, x2, y2),
                                     (x1, y1, x2, y2, x0, y0),
                                     (x2, y2, x0, y0, x1, y1)):
        f = orient(ax, ay, bx, by, xs[None, :], ys[:, None])
        fmin, fmax = _corner_min_max(f)
        third = orient(ax, ay, bx, by, cx, cy)
        tmin, tmax = min(0.0, third), max(0.0, third)
        ok &= (fmax >= tmin) & (fmin <= tmax)
    return ok


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


def _mask_to_pixels(window, mask: np.ndarray) -> set:
    c0, _, r0, _ = window
    rows, cols = np.nonzero(mask)
    return {(int(c + c0), int(r + r0)) for r, c in zip(rows, cols)}


def rasterize_conservative(prim, vp: Viewport) -> set:
    """Exactly the pixels whose closed square intersects the closed primitive,
    clipped to the viewport grid."""
    if isinstance(prim, Segment):
        bbox = (min(prim.a.x, prim.b.x), min(prim.a.y, prim.b.y),
                max(prim.a.x, prim.b.x), max(prim.a.y, prim.b.y))
        window = vp.window_for_bbox(bbox)
        if window is None:
            return set()
        return _mask_to_pixels(window, seg_touch_mask(vp, window, prim.a.x, prim.a.y,
                                                      prim.b.x, prim.b.y))
    if isinstance(prim, Triangle):
        tri = np.array([(prim.v0.x, prim.v0.y), (prim.v1.x, prim.v1.y),
                        (prim.v2.x, prim.v2.y)])
        window = vp.window_for_bbox((tri[:, 0].min(), tri[:, 1].min(),
                                     tri[:, 0].max(), tri[:, 1].max()))
        if window is None:
            return set()
        return _mask_to_pixels(window, tri_touch_mask(vp, window, tri))
    if isinstance(prim, Point2):
        return set(point_pixels(vp, prim.x, prim.y))
    raise TypeError(f"cannot rasterize {type(prim)!r}")


def rect_to_triangles(mn, mx) -> tuple:
    """Split an axis-aligned rectangle into two CCW triangles."""
    x0, y0 = mn if not isinstance(mn, Point2) else (mn.x, mn.y)
    x1, y1 = mx if not isinstance(mx, Point2) else (mx.x, mx.y)
    if not (x1 > x0 and y1 > y0):
        raise DegenerateGeometryError(f"degenerate rectangle ({x0},{y0})-({x1},{y1})")
    t1 = Triangle(Point2(x0, y0), Point2(x1, y0), Point2(x1, y1))
    t2 = Triangle(Point2(x0, y0), Point2(x1, y1), Point2(x0, y1))
    return t1, t2


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


def in_sorted(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Boolean mask of the keys that occur in the sorted key array."""
    if len(sorted_keys) == 0:
        return np.zeros(len(keys), dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return sorted_keys[pos] == keys


def expand_runs(counts: np.ndarray) -> tuple:
    """For consecutive runs of the given lengths: the run index of every
    element and its offset inside the run."""
    counts = np.asarray(counts, dtype=np.int64)
    run = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    starts = np.cumsum(counts) - counts
    return run, np.arange(len(run), dtype=np.int64) - starts[run]


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


def _fill_spans(vp: Viewport, edges: np.ndarray, owner: np.ndarray) -> tuple:
    """(owner, row, c0, c1) runs of pixel centres inside each owner's rings
    by the even-odd rule, clipped to the grid."""
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


def scanline_fill(vp: Viewport, edges: np.ndarray, owner: np.ndarray):
    """Even-odd scanline fill: yields (owner, flat pixel) chunks covering
    every pixel whose centre lies inside the rings of its owner.

    ``edges`` (E, 4) holds every ring edge of every owner and ``owner``
    (E,) the owner of each; an owner's rings must be closed and must not
    cross (one polygon part: outer ring plus holes). Each scanline through
    a row of pixel centres pairs up the owner's sorted edge crossings, and
    the centres between a pair are inside. A centre within rounding of an
    edge may land on either side, but its pixel is always touched by that
    edge, so callers that set edge pixels apart never depend on it. Chunks
    hold at most ``PIXEL_KEY_BUDGET`` plus one row of pixels.
    """
    edges = np.asarray(edges, dtype=float).reshape(-1, 4)
    own, row, c0, c1 = _fill_spans(vp, edges, np.asarray(owner, dtype=np.int64))
    n = c1 - c0 + 1
    ends = np.cumsum(n)
    lo = 0
    while lo < len(n):
        base = ends[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(ends, base + PIXEL_KEY_BUDGET, side="right")), lo + 1)
        k, off = expand_runs(n[lo:hi])
        k += lo
        yield own[k], row[k] * vp.width_px + c0[k] + off
        lo = hi


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
    """One primitive plane of a discrete canvas: the object whose interior
    fully covers each pixel square (``interior_id``, indexed [row, col]),
    plus CSR buckets of boundary entry refs per boundary pixel (``bp_flat``
    sorted flat pixel ids, ``bp_start`` bucket offsets, ``bp_entries``
    ascending refs per bucket)."""

    def __init__(self, height: int, width: int):
        self.interior_id = np.full((height, width), NULL_ID, dtype=np.int64)
        self.bp_flat = np.zeros(0, dtype=np.int64)
        self.bp_start = np.zeros(1, dtype=np.int64)
        self.bp_entries = np.zeros(0, dtype=np.int64)

    def entries_at(self, flat: int) -> np.ndarray:
        i = np.searchsorted(self.bp_flat, flat)
        if i >= len(self.bp_flat) or self.bp_flat[i] != flat:
            return self.bp_entries[0:0]
        return self.bp_entries[self.bp_start[i]:self.bp_start[i + 1]]


class DiscreteCanvas:
    """Three pixel planes over one viewport plus the boundary-entry table."""

    def __init__(self, viewport: Viewport, bindex=None, entries_complete: bool = False):
        self.viewport = viewport
        self.bindex = bindex
        # True when boundary buckets already reference every primitive
        # touching the pixel (distance canvases); polygon canvases may need
        # escalation to all triangles of an object touching the pixel.
        self.entries_complete = entries_complete
        self._planes: dict = {}

    def plane(self, name: str) -> PlaneData:
        if name not in PLANES:
            raise CanvasError(f"unknown plane {name!r}")
        if name not in self._planes:
            self._planes[name] = PlaneData(self.viewport.height_px, self.viewport.width_px)
        return self._planes[name]

    def has_plane(self, name: str) -> bool:
        return name in self._planes

    def flat(self, cols, rows):
        return rows * self.viewport.width_px + cols


class _Builder:
    """Accumulates interior claims and boundary (pixel, entry ref) pairs,
    then finalizes the bucket CSR tables."""

    def __init__(self, vp: Viewport, bindex, entries_complete=False):
        self.canvas = DiscreteCanvas(vp, bindex, entries_complete)
        self._pix: dict = {name: [] for name in PLANES}
        self._refs: dict = {name: [] for name in PLANES}

    def write_interior(self, plane_name, window, mask, rid):
        plane = self.canvas.plane(plane_name)
        c0, _, r0, _ = window
        view = np.s_[r0:r0 + mask.shape[0], c0:c0 + mask.shape[1]]
        plane.interior_id[view][mask] = rid

    def write_boundary(self, plane_name, window, mask, rid, entry_ref):
        plane = self.canvas.plane(plane_name)
        c0, _, r0, _ = window
        rows, cols = np.nonzero(mask)
        if len(rows) == 0:
            return
        # A pixel the object's own boundary touches is not fully covered by
        # it; revoke this object's interior claim (others' claims stand).
        sub = plane.interior_id[r0:r0 + mask.shape[0], c0:c0 + mask.shape[1]]
        sub[mask & (sub == rid)] = NULL_ID
        flat = (rows + r0) * self.canvas.viewport.width_px + (cols + c0)
        self.add_boundary(plane_name, flat, np.full(len(flat), entry_ref, dtype=np.int64))

    def add_boundary(self, plane_name, flat, refs):
        """Record boundary entry ``refs[i]`` at flat pixel ``flat[i]``."""
        self.canvas.plane(plane_name)
        self._pix[plane_name].append(np.asarray(flat, dtype=np.int64))
        self._refs[plane_name].append(np.asarray(refs, dtype=np.int64))

    def finalize(self) -> DiscreteCanvas:
        for name in PLANES:
            if not self._pix[name]:
                continue
            plane = self.canvas.plane(name)
            flat = np.concatenate(self._pix[name])
            refs = np.concatenate(self._refs[name])
            order = np.lexsort((refs, flat))
            flat, refs = flat[order], refs[order]
            start = np.flatnonzero(np.r_[True, flat[1:] != flat[:-1]][:len(flat)])
            plane.bp_flat = flat[start]
            plane.bp_start = np.append(start, len(flat)).astype(np.int64)
            plane.bp_entries = refs
        return self.canvas


def render_geometry_canvas(records, vp: Viewport, bindex) -> DiscreteCanvas:
    """Render data records into a discrete canvas, one kernel call per kind.

    Points land conservatively in the point plane and polyline segments in
    the line plane, as boundary entries. Polygons fill the polygon plane:
    every pixel an edge touches (``segment_pixels``) gets the edge's
    incident-triangle entry, and ``interior_id`` holds, for each pixel, the
    highest-id polygon whose closed triangles contain the pixel centre,
    unless that polygon's own edges touch the pixel (then NULL). The
    centres come from ``scanline_fill``; only where a polygon's edge pixel
    lies under a lower-id polygon's claim does an exact centre-in-triangle
    test decide. On pairwise-disjoint records that
    case never changes the result.
    """
    recs = sorted(records, key=lambda rec: rec.id)
    ids = [rec.id for rec in recs]
    if len(set(ids)) != len(ids):
        raise DataError("duplicate record ids in one canvas")
    b = _Builder(vp, bindex)
    pts = [rec for rec in recs if rec.kind == "point"]
    if pts:
        k, flat = point_pixels_array(vp, [(p.geometry.x, p.geometry.y) for p in pts])
        refs = np.array([bindex.offsets[p.id][0] for p in pts], dtype=np.int64)
        b.add_boundary("point", flat, refs[k])
    lines = [rec for rec in recs if rec.kind == "polyline"]
    if lines:
        edges, rank, ordinal, _ = stack_edges(lines)
        k, flat = segment_pixels(vp, edges)
        b.add_boundary("line", flat, _entry_refs(lines, bindex, rank, ordinal)[k])
    polys = [rec for rec in recs if rec.kind == "polygon"]
    if polys:
        _render_polygons(b, polys, vp, bindex)
    return b.finalize()


def stack_edges(recs) -> tuple:
    """The ``edge_table`` of every record stacked: (edges, rank, ordinal,
    part) per edge, where rank is the record's position in ``recs``,
    ordinal the edge's position within its record, and part a part ordinal
    unique across all records."""
    tables = [edge_table(rec) for rec in recs]
    counts = [len(e) for e, _ in tables]
    rank, ordinal = expand_runs(counts)
    nparts = np.array([int(p[-1]) + 1 for _, p in tables])
    part = np.concatenate([p for _, p in tables]) + np.repeat(np.cumsum(nparts) - nparts, counts)
    return np.concatenate([e for e, _ in tables]), rank, ordinal, part


def _entry_refs(recs, bindex, rank, ordinal) -> np.ndarray:
    """Boundary-index entry ref of each stacked edge."""
    first = np.array([bindex.offsets[rec.id][0] for rec in recs], dtype=np.int64)
    return first[rank] + ordinal


def _render_polygons(b: _Builder, recs, vp: Viewport, bindex):
    hw = vp.width_px * vp.height_px
    edges, rank, ordinal, part = stack_edges(recs)
    k, flat = segment_pixels(vp, edges)
    b.add_boundary("polygon", flat, _entry_refs(recs, bindex, rank, ordinal)[k])
    erank = rank[k]
    own = unique_keys(erank * hw + flat)
    part_rank = np.zeros(int(part.max()) + 1, dtype=np.int64)
    part_rank[part] = rank
    # Claims: centres inside a polygon, off its own edge pixels; the
    # highest rank wins, as when records are written in id order.
    winner = np.full(hw, -1, dtype=np.int64)
    for owner, fflat in scanline_fill(vp, edges, part):
        frank = part_rank[owner]
        keep = ~in_sorted(frank * hw + fflat, own)
        np.maximum.at(winner, fflat[keep], frank[keep])
    # A higher-rank polygon whose edge touches a claimed pixel revokes the
    # claim when its closed triangles hold the centre.
    hit = winner[flat]
    late = (hit >= 0) & (erank > hit)
    if late.any():
        key = unique_keys((erank * hw + flat)[late])
        crank, cflat = np.divmod(key, hw)
        inside = _centres_in_records(vp, cflat, [triangles_array(recs[r]) for r in crank])
        winner[cflat[inside]] = -1
    ids = np.array([rec.id for rec in recs], dtype=np.int64)
    interior = np.where(winner >= 0, ids[np.maximum(winner, 0)], NULL_ID)
    b.canvas.plane("polygon").interior_id = interior.reshape(vp.height_px, vp.width_px)


def _centres_in_records(vp: Viewport, flat: np.ndarray, tris: list) -> np.ndarray:
    """Per pixel, whether its centre lies in one of the matching (T, 3, 2)
    closed CCW triangle arrays."""
    j, _ = expand_runs([len(t) for t in tris])
    t = np.concatenate(tris)
    col, row = flat % vp.width_px, flat // vp.width_px
    cx = vp.min_x + (col + 0.5) * vp.sx
    cy = vp.min_y + (row + 0.5) * vp.sy
    cx, cy = cx[j], cy[j]
    (x0, y0), (x1, y1), (x2, y2) = t[:, 0].T, t[:, 1].T, t[:, 2].T
    inside = ((orient(x0, y0, x1, y1, cx, cy) >= 0.0)
              & (orient(x1, y1, x2, y2, cx, cy) >= 0.0)
              & (orient(x2, y2, x0, y0, cx, cy) >= 0.0))
    return np.bincount(j[inside], minlength=len(flat)) > 0


# ---------------------------------------------------------------------------
# Distance canvases (Minkowski buffers)
# ---------------------------------------------------------------------------

def _point_to_square_dist(px, py, xs0, xs1, ys0, ys1):
    dx = np.maximum(np.maximum(xs0 - px, px - xs1), 0.0)
    dy = np.maximum(np.maximum(ys0 - py, py - ys1), 0.0)
    return np.hypot(dx, dy)


def _corner_dist_field(vp, window, feat) -> np.ndarray:
    """Distance from every window corner-lattice point to the feature."""
    c0, c1, r0, r1 = window
    xs = vp.corner_xs(c0, c1)[None, :]
    ys = vp.corner_ys(r0, r1)[:, None]
    if isinstance(feat, Point2):
        return np.hypot(xs - feat.x, ys - feat.y)
    if isinstance(feat, Segment):
        from .geometry import _point_seg_dist
        return _point_seg_dist(xs, ys, feat.a.x, feat.a.y, feat.b.x, feat.b.y)
    from .geometry import _point_seg_dist
    t = ((feat.v0.x, feat.v0.y), (feat.v1.x, feat.v1.y), (feat.v2.x, feat.v2.y))
    d = np.minimum(np.minimum(
        _point_seg_dist(xs, ys, t[0][0], t[0][1], t[1][0], t[1][1]),
        _point_seg_dist(xs, ys, t[1][0], t[1][1], t[2][0], t[2][1])),
        _point_seg_dist(xs, ys, t[2][0], t[2][1], t[0][0], t[0][1]))
    inside = ((orient(t[0][0], t[0][1], t[1][0], t[1][1], xs, ys) >= 0)
              & (orient(t[1][0], t[1][1], t[2][0], t[2][1], xs, ys) >= 0)
              & (orient(t[2][0], t[2][1], t[0][0], t[0][1], xs, ys) >= 0))
    d[inside] = 0.0
    return d


def feature_square_dminmax(vp: Viewport, window, feat) -> tuple:
    """Exact per-pixel (min, max) distance from the closed pixel square to a
    convex feature. min is 0 when they touch; max is attained at a corner
    because distance-to-a-convex-set is convex."""
    c0, c1, r0, r1 = window
    corner = _corner_dist_field(vp, window, feat)
    cmin, cmax = _corner_min_max(corner)
    xs = vp.corner_xs(c0, c1)
    ys = vp.corner_ys(r0, r1)
    xs0, xs1 = xs[None, :-1], xs[None, 1:]
    ys0, ys1 = ys[:-1, None], ys[1:, None]
    if isinstance(feat, Point2):
        dmin = _point_to_square_dist(feat.x, feat.y, xs0, xs1, ys0, ys1)
        return dmin, cmax
    if isinstance(feat, Segment):
        dmin = np.minimum(cmin, np.minimum(
            _point_to_square_dist(feat.a.x, feat.a.y, xs0, xs1, ys0, ys1),
            _point_to_square_dist(feat.b.x, feat.b.y, xs0, xs1, ys0, ys1)))
        touch = seg_touch_mask(vp, window, feat.a.x, feat.a.y, feat.b.x, feat.b.y)
    else:
        tri = np.array([(feat.v0.x, feat.v0.y), (feat.v1.x, feat.v1.y),
                        (feat.v2.x, feat.v2.y)])
        dmin = cmin
        for vx, vy in tri:
            dmin = np.minimum(dmin, _point_to_square_dist(vx, vy, xs0, xs1, ys0, ys1))
        touch = tri_touch_mask(vp, window, tri)
    dmin = np.where(touch, 0.0, dmin)
    return dmin, cmax


def _sub_window(outer, inner):
    """Relative slice of ``inner`` window inside ``outer`` window."""
    oc0, _, or0, _ = outer
    c0, c1, r0, r1 = inner
    return np.s_[r0 - or0:r1 - or0 + 1, c0 - oc0:c1 - oc0 + 1]


class DistanceCanvasBuilder:
    """Renders Minkowski buffers of one or more sources into a canvas.

    Every boundary pixel's bucket lists all generating features whose buffer
    touches the pixel, so membership tests reduce to exact_distance <= r and
    no escalation is ever needed (entries_complete canvas).
    """

    def __init__(self, vp: Viewport, bindex):
        self._b = _Builder(vp, bindex, entries_complete=True)
        self.vp = vp
        self.bindex = bindex

    def add_source(self, source: GeometryRecord, r: float):
        if not (r > 0) or not np.isfinite(r):
            raise DataError(f"distance radius must be positive, got {r}")
        vp = self.vp
        x0, y0, x1, y1 = source.bbox()
        window = vp.window_for_bbox((x0 - r, y0 - r, x1 + r, y1 + r))
        if window is None:
            return
        c0, c1, r0, r1 = window
        shape = (r1 - r0 + 1, c1 - c0 + 1)
        interior = np.zeros(shape, dtype=bool)
        feats = features(source)
        start, _ = self.bindex.offsets[source.id]
        per_feat = []
        for fi, feat in enumerate(feats):
            fx0, fy0, fx1, fy1 = _feat_bbox(feat)
            fwin = vp.window_for_bbox((fx0 - r, fy0 - r, fx1 + r, fy1 + r))
            if fwin is None:
                per_feat.append(None)
                continue
            dmin, dmax = feature_square_dminmax(vp, fwin, feat)
            sl = _sub_window(window, fwin)
            interior[sl] |= dmax <= r
            per_feat.append((fwin, dmin <= r))
        self._b.write_interior("polygon", window, interior, source.id)
        for fi, item in enumerate(per_feat):
            if item is None:
                continue
            fwin, touched = item
            sl = _sub_window(window, fwin)
            boundary = touched & ~interior[sl]
            self._b.write_boundary("polygon", fwin, boundary, source.id, start + fi)

    def finalize(self) -> DiscreteCanvas:
        return self._b.finalize()


def _feat_bbox(feat):
    if isinstance(feat, Point2):
        return (feat.x, feat.y, feat.x, feat.y)
    if isinstance(feat, Segment):
        return (min(feat.a.x, feat.b.x), min(feat.a.y, feat.b.y),
                max(feat.a.x, feat.b.x), max(feat.a.y, feat.b.y))
    xs = (feat.v0.x, feat.v1.x, feat.v2.x)
    ys = (feat.v0.y, feat.v1.y, feat.v2.y)
    return (min(xs), min(ys), max(xs), max(ys))


def render_distance_canvas(source: GeometryRecord, r: float, vp: Viewport):
    """Canvas of the radius-r Minkowski buffer of one source record.

    Returns (canvas, boundary index); boundary entries carry the generating
    feature plus r, so exact membership is exact_distance(probe, feature) <= r.
    """
    from .canvas_index import BoundaryIndex
    if not (r > 0):
        raise DataError(f"distance radius must be positive, got {r}")
    bindex = BoundaryIndex.for_distance_sources([source], [r])
    builder = DistanceCanvasBuilder(vp, bindex)
    builder.add_source(source, r)
    return builder.finalize(), bindex
