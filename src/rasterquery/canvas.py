"""The rasterization backend: viewports, the layer-at-a-time raster kernels,
and discrete canvas construction for data geometry and distance constraints.

A discrete canvas holds, per plane (point/line/polygon), an ``interior_id``
grid (the object whose interior fully covers the pixel square) and a CSR
table of boundary-index entry refs per boundary pixel. Classification is
sound: an interior-marked pixel square lies wholly inside its object, an
unmarked square is disjoint from every object, and every partially-covered
square is boundary-marked.

Whole layers are rasterized at once, the CPU counterpart of one draw call
per layer, by three array kernels:

- ``segment_pixels``, the edge supercover: every pixel whose closed square
  meets a segment, for all segments of a layer in one pass. Candidates are
  column strips padded by one pixel; ``seg_touch_mask``'s corner-straddle
  and bbox predicate then filters them, so the result equals that mask.
- ``scanline_fill``, the even-odd fill: every pixel whose centre lies
  inside a polygon part, from the sorted edge crossings of each row of
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
point. Pixels a buffer covers go straight into ``interior_id``; the others
it touches list every point or edge entry whose buffer reaches them.

Pixel (c, r) covers the half-open square
``[min_x + c*sx, min_x + (c+1)*sx) x [min_y + r*sy, min_y + (r+1)*sy)``;
pixel (0, 0) sits at the minimum corner. Conservative tests use the closed
square.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import CanvasError, DataError, InternalInvariantError
from .geometry import GeometryRecord, edge_table, orient, triangles_array

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
    for lo, hi in budget_runs(n, PIXEL_KEY_BUDGET):
        k, off = expand_runs(n[lo:hi])
        k += lo
        yield own[k], row[k] * vp.width_px + c0[k] + off


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

    def __init__(self, interior_id: np.ndarray):
        self.interior_id = interior_id
        self.bp_flat = np.zeros(0, dtype=np.int64)
        self.bp_start = np.zeros(1, dtype=np.int64)
        self.bp_entries = np.zeros(0, dtype=np.int64)


class DiscreteCanvas:
    """Three pixel planes over one viewport plus the boundary-entry table."""

    def __init__(self, viewport: Viewport, bindex=None, entries_complete: bool = False):
        self.viewport = viewport
        self.bindex = bindex
        # True on distance canvases: buckets list every point and edge whose
        # buffer touches the pixel, each with its radius. Neither kind of
        # canvas lists a polygon's interior, so points in a pixel of a
        # polygon object may need escalation to its triangles.
        self.entries_complete = entries_complete
        self._planes: dict = {}

    def plane(self, name: str) -> PlaneData:
        if name not in PLANES:
            raise CanvasError(f"unknown plane {name!r}")
        if name not in self._planes:
            shape = (self.viewport.height_px, self.viewport.width_px)
            self._planes[name] = PlaneData(np.full(shape, NULL_ID, dtype=np.int64))
        return self._planes[name]

    def has_plane(self, name: str) -> bool:
        return name in self._planes


class _Builder:
    """Accumulates interior claims and boundary (pixel, entry ref) pairs,
    then finalizes the bucket CSR tables."""

    def __init__(self, vp: Viewport, bindex, entries_complete=False):
        self.canvas = DiscreteCanvas(vp, bindex, entries_complete)
        self._pix: dict = {name: [] for name in PLANES}
        self._refs: dict = {name: [] for name in PLANES}

    def set_interior(self, plane_name, flat_ids: np.ndarray):
        """Install a plane's ``interior_id`` grid, given flat."""
        vp = self.canvas.viewport
        self.canvas._planes[plane_name] = PlaneData(flat_ids.reshape(vp.height_px, vp.width_px))

    def add_boundary(self, plane_name, flat, refs):
        """Record boundary entry ``refs[i]`` at flat pixel ``flat[i]``."""
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
    # The claims become the interior grid in place (NULL_ID is -1).
    claimed = winner >= 0
    winner[claimed] = ids[winner[claimed]]
    b.set_interior("polygon", winner)


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
    flat pixel) of every pixel whose closed square the buffer touches
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
    h, w = vp.height_px, vp.width_px
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
        band.append((s[k[edge]], row[edge] * w + col[k[edge]]))
        runs.append((s[k[inside]], col[k[inside]], row[inside], row[inside]))
    band = tuple(np.concatenate(a) for a in zip(*band))
    return band, tuple(np.concatenate(a) for a in zip(*runs))


def _union_runs(key, row0, row1) -> tuple:
    """The union of the row runs [row0, row1] of each key, as (key, row0,
    row1) of disjoint runs that do not touch."""
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


def _write_runs(iid: np.ndarray, width: int, col, row0, row1, value):
    """Write ``value[i]`` into the flat plane over column run i."""
    n = row1 - row0 + 1
    for lo, hi in budget_runs(n, PIXEL_KEY_BUDGET):
        # Element g of the chunk, j-th of run i (which starts at element
        # start[i]), lies j = g - start[i] rows below the run's first
        # pixel: at first[i] + g * width.
        start = np.cumsum(n[lo:hi]) - n[lo:hi]
        first = row0[lo:hi] * width + col[lo:hi] - start * width
        flat = np.repeat(first, n[lo:hi]) + width * np.arange(int(n[lo:hi].sum()))
        iid[flat] = np.repeat(value[lo:hi], n[lo:hi])


def _fill_interiors(vp: Viewport, iid: np.ndarray, polys):
    """Write each polygon's id over the pixels its interior covers: those
    whose centre ``scanline_fill`` puts inside it, less those its own edges
    touch."""
    edges, rank, _, part = stack_edges(polys)
    ids = np.array([rec.id for rec in polys], dtype=np.int64)
    part_id = np.zeros(int(part.max()) + 1, dtype=np.int64)
    part_id[part] = ids[rank]
    for owner, flat in scanline_fill(vp, edges, part):
        iid[flat] = part_id[owner]
    k, flat = segment_pixels(vp, edges)
    own = iid[flat] == ids[rank[k]]
    iid[flat[own]] = NULL_ID


class DistanceCanvasBuilder:
    """Renders the r-buffers of pairwise-disjoint sources into one canvas.

    A buffer is a union of simple shapes: a disc around a point source, a
    capsule around each polyline segment or polygon ring edge, and a
    polygon source's own interior. ``add_source`` queues a source;
    ``finalize`` renders all of them in one pass:

    - polygon interiors by ``scanline_fill``, less the pixels the polygon's
      own edges touch (``segment_pixels``);
    - discs and capsules by ``capsule_pixels``, whose covered runs go
      straight into ``interior_id``;
    - every other pixel a buffer touches becomes a boundary pixel whose
      bucket lists each point or edge entry whose buffer touches it.

    A point on a boundary pixel is then in a buffer iff it lies within r of
    one of its pixel's entries or inside a polygon source of that pixel;
    the engine tests the second by its triangle escalation.
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
        vp, bindex = self.vp, self.bindex
        iid = np.full(vp.width_px * vp.height_px, NULL_ID, dtype=np.int64)
        polys = [src for src, _ in self._queue if src.kind == "polygon"]
        if polys:
            _fill_interiors(vp, iid, polys)
        # The queued sources' entries, one per point, segment or ring edge;
        # a point entry has NaN in place of a second end.
        first = np.array([bindex.offsets[src.id][0] for src, _ in self._queue], dtype=np.int64)
        count = np.array([bindex.offsets[src.id][1] for src, _ in self._queue], dtype=np.int64)
        j, off = expand_runs(count)
        ref = first[j] + off
        segs = bindex.coords[ref, :4].copy()
        point = np.isnan(segs[:, 2])
        segs[point, 2:] = segs[point, :2]
        radius = np.array([r for _, r in self._queue], dtype=float)[j]
        ids = np.array([src.id for src, _ in self._queue], dtype=np.int64)
        (bs, bflat), (rs, col, row0, row1) = capsule_pixels(vp, segs, radius)
        if len(ref) > len(ids):
            # Capsules of one source overlap (each end disc is shared), so
            # their runs are merged per source and column before writing.
            key, row0, row1 = _union_runs(j[rs] * vp.width_px + col, row0, row1)
            col, rs = key % vp.width_px, key // vp.width_px
        else:
            rs = j[rs]
        _write_runs(iid, vp.width_px, col, row0, row1, ids[rs])
        b = _Builder(vp, bindex, entries_complete=True)
        b.set_interior("polygon", iid)
        keep = iid[bflat] == NULL_ID
        b.add_boundary("polygon", bflat[keep], ref[bs[keep]])
        return b.finalize()
