"""Span canvases as dense row-major arrays, for comparison with per-pixel
references: canvas keys are column-major (``col * height_px + row``),
references index pixels as ``row * width_px + col``."""

import numpy as np

from rasterquery.canvas import NULL_ID
from rasterquery.geometry import expand_runs


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
