"""Per-pixel references over a ``canvas.Viewport``, and span canvases as
dense row-major arrays to compare with them: canvas keys are column-major
(``col * height_px + row``), references index pixels as
``row * width_px + col``."""

import numpy as np

from rasterquery.canvas import NULL_ID
from rasterquery.geometry import expand_runs, orient


def window_for_bbox(vp, bbox) -> tuple | None:
    """Inclusive (c0, c1, r0, r1) pixel window covering a world bbox,
    expanded one pixel outward so closed-square touching is never missed;
    None when the bbox cannot touch the grid."""
    x0, y0, x1, y1 = bbox
    if x1 < vp.min_x or x0 > vp.max_x or y1 < vp.min_y or y0 > vp.max_y:
        return None
    c0 = max(int(np.floor((x0 - vp.min_x) / vp.sx)) - 1, 0)
    c1 = min(int(np.floor((x1 - vp.min_x) / vp.sx)) + 1, vp.width_px - 1)
    r0 = max(int(np.floor((y0 - vp.min_y) / vp.sy)) - 1, 0)
    r1 = min(int(np.floor((y1 - vp.min_y) / vp.sy)) + 1, vp.height_px - 1)
    if c0 > c1 or r0 > r1:
        return None
    return (c0, c1, r0, r1)


def corner_xs(vp, c0: int, c1: int) -> np.ndarray:
    return vp.min_x + np.arange(c0, c1 + 2, dtype=float) * vp.sx


def corner_ys(vp, r0: int, r1: int) -> np.ndarray:
    return vp.min_y + np.arange(r0, r1 + 2, dtype=float) * vp.sy


def center_xs(vp, c0: int, c1: int) -> np.ndarray:
    return vp.min_x + (np.arange(c0, c1 + 1, dtype=float) + 0.5) * vp.sx


def center_ys(vp, r0: int, r1: int) -> np.ndarray:
    return vp.min_y + (np.arange(r0, r1 + 1, dtype=float) + 0.5) * vp.sy


def corner_min_max(f: np.ndarray) -> tuple:
    """Per-pixel min/max over the 4 corners of a corner-lattice field."""
    fmin = np.minimum(np.minimum(f[:-1, :-1], f[:-1, 1:]), np.minimum(f[1:, :-1], f[1:, 1:]))
    fmax = np.maximum(np.maximum(f[:-1, :-1], f[:-1, 1:]), np.maximum(f[1:, :-1], f[1:, 1:]))
    return fmin, fmax


def seg_touch_mask(vp, window, ax, ay, bx, by) -> np.ndarray:
    """Pixels of the window whose closed square intersects the closed
    segment, (rows, cols) of the window.

    Exact: the square and segment (both convex) intersect iff their bboxes
    overlap on both axes and the segment's supporting line straddles the
    square's corners. ``canvas.segment_pixels`` must mark the same pixels.
    """
    c0, c1, r0, r1 = window
    xs, ys = corner_xs(vp, c0, c1), corner_ys(vp, r0, r1)
    fmin, fmax = corner_min_max(orient(ax, ay, bx, by, xs[None, :], ys[:, None]))
    col_ok = (xs[:-1] <= max(ax, bx)) & (xs[1:] >= min(ax, bx))
    row_ok = (ys[:-1] <= max(ay, by)) & (ys[1:] >= min(ay, by))
    return (fmin <= 0.0) & (fmax >= 0.0) & row_ok[:, None] & col_ok[None, :]


def row_major(vp, keys) -> np.ndarray:
    """Row-major flat ids of canvas keys."""
    col, row = np.divmod(np.asarray(keys, dtype=np.int64), vp.height_px)
    return row * vp.width_px + col


def dense_interior(plane, vp) -> np.ndarray:
    """The plane's interior runs expanded to a row-major array of object
    ids, NULL_ID off every run."""
    out = np.full(vp.width_px * vp.height_px, NULL_ID, dtype=np.int64)
    i, off = expand_runs(plane.run_end - plane.run_start + 1)
    out[row_major(vp, plane.run_start[i] + off)] = plane.run_id[i]
    return out


def boundary_pairs(plane, vp) -> list:
    """Sorted (row-major flat, entry ref) pairs of the plane's buckets."""
    flat = np.repeat(row_major(vp, plane.bp_flat), np.diff(plane.bp_start))
    return sorted(zip(flat.tolist(), plane.bp_entries.tolist()))
