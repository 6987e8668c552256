"""The raster kernels' packed-key sorts against ``np.lexsort`` references.

``scanline_fill``, ``_union_runs`` and ``DiscreteCanvas.set_boundary`` order their
multi-key arrays by one value sort of keys packed into an int64, and
``segment_pixels`` evaluates its corner test per column strip. Each test
here runs a test-local copy of the multi-key ``np.lexsort`` (or
four-corner) version and asserts equal arrays, order and dtype included.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rasterquery import canvas
from rasterquery.canvas import (
    DiscreteCanvas,
    _index,
    _swap_xy,
    _union_runs,
    fill_runs,
    packed_bits,
    pixel_windows,
    scanline_fill,
    segment_pixels,
    viewport_from_bounds,
)
from rasterquery.errors import InternalInvariantError
from rasterquery.geometry import expand_runs

RESOLUTIONS = [16, 17, 64, 255, 1000, 2048]


# -- references: the kernels as they were before the packed sorts ------------

def ref_scanline_fill(vp, edges, owner):
    edges = np.asarray(edges, dtype=float).reshape(-1, 4)
    owner = np.asarray(owner, dtype=np.int64)
    ax, ay, bx, by = edges[:, 0], edges[:, 1], edges[:, 2], edges[:, 3]
    w, h = vp.width_px, vp.height_px
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
    assert len(own) % 2 == 0
    own, row = own[0::2], row[0::2]
    c0 = np.maximum(_index((xc[0::2] - vp.min_x) / vp.sx - 0.5, w, np.ceil), 0)
    c1 = np.minimum(_index((xc[1::2] - vp.min_x) / vp.sx - 0.5, w, np.ceil) - 1, w - 1)
    keep = c1 >= c0
    return own[keep], row[keep], c0[keep], c1[keep]


def ref_union_runs(key, row0, row1):
    order = np.lexsort((row0, key))
    key, row0, row1 = key[order], row0[order], row1[order]
    if len(key) == 0:
        return key, row0, row1
    newkey = key[1:] != key[:-1]
    lift = np.concatenate([[0], np.cumsum(newkey)]) * (int(row1.max()) + 2)
    reach = np.maximum.accumulate(row1 + lift) - lift
    head = np.flatnonzero(np.concatenate([[True], newkey | (row0[1:] > reach[:-1] + 1)]))
    return key[head], row0[head], reach[np.append(head[1:], len(key)) - 1]


def ref_buckets(flat, refs):
    order = np.lexsort((refs, flat))
    flat, refs = flat[order], refs[order]
    start = np.flatnonzero(np.r_[True, flat[1:] != flat[:-1]][:len(flat)])
    return flat[start], np.append(start, len(flat)).astype(np.int64), refs


def ref_segment_pixels(vp, segs):
    segs = np.asarray(segs, dtype=float).reshape(-1, 4)
    ax, ay, bx, by = segs[:, 0], segs[:, 1], segs[:, 2], segs[:, 3]
    x0, x1 = np.minimum(ax, bx), np.maximum(ax, bx)
    y0, y1 = np.minimum(ay, by), np.maximum(ay, by)
    c0, c1, r0, r1 = pixel_windows(vp, x0, y0, x1, y1)
    s, off = expand_runs(np.maximum(c1 - c0 + 1, 0))
    col = c0[s] + off
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


def assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


def assert_fill_matches(vp, edges, owner):
    assert_same(scanline_fill(vp, edges, owner), ref_scanline_fill(vp, edges, owner))
    vt = vp.transposed()
    assert_same(fill_runs(vp, edges, owner), ref_scanline_fill(vt, _swap_xy(edges), owner))


def ring_edges(*rings):
    """(E, 4) edges of closed rings given as vertex lists, and each edge's
    ring number."""
    edges, ring_of = [], []
    for i, ring in enumerate(rings):
        ring = np.asarray(ring, dtype=float)
        edges.append(np.hstack([ring, np.roll(ring, -1, axis=0)]))
        ring_of += [i] * len(ring)
    return np.vstack(edges), np.array(ring_of, dtype=np.int64)


def star(r, centre, radius, n):
    step = 2 * np.pi / n
    angles = r.uniform(0, 2 * np.pi) + (np.arange(n) + r.uniform(-0.4, 0.4, n)) * step
    radii = radius * r.uniform(0.35, 1.0, n)
    return np.column_stack([centre[0] + radii * np.cos(angles),
                            centre[1] + radii * np.sin(angles)])


# -- scanline_fill -----------------------------------------------------------

@pytest.mark.parametrize("res", RESOLUTIONS)
def test_scanline_fill_vertices_on_pixel_centre_scanlines(res):
    """Every vertex of a star ring sits exactly on a row of pixel centres,
    so each counts once at its scanline by the half-open test."""
    vp = viewport_from_bounds((0.0, 0.0, 1.0, 1.0), res)
    r = np.random.default_rng(res)
    rings = []
    for centre in ((0.3, 0.3), (0.7, 0.6), (0.45, 0.75)):
        ring = star(r, centre, 0.2, 24)
        ring[:, 1] = vp.min_y + (np.round((ring[:, 1] - vp.min_y) / vp.sy - 0.5) + 0.5) * vp.sy
        rings.append(ring)
    edges, ring_of = ring_edges(*rings)
    keep = np.any(edges[:, :2] != edges[:, 2:], axis=1)
    edges, ring_of = edges[keep], ring_of[keep]
    assert_fill_matches(vp, edges, np.array([2, 0, 1])[ring_of])


@pytest.mark.parametrize("res", RESOLUTIONS)
def test_scanline_fill_parts_crossing_a_row_at_one_x(res):
    """Side by side squares share their vertical side, so both parts cross
    every row there at the same x; a third part, listed first, shares
    x = 0.7 with the right one. Owner ids run against the edge order."""
    vp = viewport_from_bounds((0.0, 0.0, 1.0, 1.0), res)
    left = [(0.1, 0.2), (0.4, 0.2), (0.4, 0.8), (0.1, 0.8)]
    right = [(0.4, 0.3), (0.7, 0.3), (0.7, 0.9), (0.4, 0.9)]
    far = [(0.7, 0.1), (0.9, 0.1), (0.9, 0.5), (0.7, 0.5)]
    edges, ring_of = ring_edges(far, left, right)
    assert_fill_matches(vp, edges, np.array([0, 5, 3])[ring_of])


@pytest.mark.parametrize("res", RESOLUTIONS)
def test_scanline_fill_horizontal_edges(res):
    """A staircase ring of horizontal and vertical edges, with a square
    hole (same owner) and a rectangle on pixel centre heights."""
    vp = viewport_from_bounds((0.0, 0.0, 1.0, 1.0), res)
    stairs = [(0.05, 0.05), (0.6, 0.05), (0.6, 0.3), (0.45, 0.3), (0.45, 0.55),
              (0.25, 0.55), (0.25, 0.8), (0.05, 0.8)]
    hole = [(0.1, 0.1), (0.1, 0.2), (0.2, 0.2), (0.2, 0.1)]
    yc = vp.min_y + (np.floor(np.array([0.6, 0.9]) * res) + 0.5) * vp.sy
    rect = [(0.65, yc[0]), (0.95, yc[0]), (0.95, yc[1]), (0.65, yc[1])]
    edges, ring_of = ring_edges(stairs, hole, rect)
    assert_fill_matches(vp, edges, np.array([4, 4, 1])[ring_of])


def test_scanline_fill_with_no_crossings():
    vp = viewport_from_bounds((0.0, 0.0, 1.0, 1.0), 64)
    edges, ring_of = ring_edges([(2.0, 2.0), (3.0, 2.0), (3.0, 3.0)])
    assert_fill_matches(vp, edges, ring_of)
    assert_fill_matches(vp, np.zeros((0, 4)), np.zeros(0, dtype=np.int64))


@given(parts=st.lists(st.tuples(st.integers(4, 40), st.floats(0.01, 0.3),
                                st.tuples(st.floats(-0.1, 1.1), st.floats(-0.1, 1.1)),
                                st.booleans(), st.integers(0, 6)),
                      min_size=1, max_size=8),
       res=st.sampled_from(RESOLUTIONS), seed=st.integers(0, 2**16))
def test_random_multipart_polygons_match_the_references(parts, res, seed):
    """Random star parts, possibly overlapping or past the viewport, some
    snapped to pixel corners, each its own owner, ids in any order:
    ``scanline_fill``, ``fill_runs`` and ``segment_pixels`` over their
    edges equal the references."""
    vp = viewport_from_bounds((0.0, 0.0, 1.0, 1.0), res)
    r = np.random.default_rng(seed)
    edges, owner = [], []
    for n, radius, centre, snap, own in parts:
        ring = star(r, centre, radius, n)
        if snap:
            ring = np.round(ring * res) / res
        e, _ = ring_edges(ring)
        e = e[np.any(e[:, :2] != e[:, 2:], axis=1)]
        edges.append(e)
        # Parts of one owner must not cross; a repeated owner draws a new
        # id past every small one.
        owner += [own if own not in owner else 7 + len(edges)] * len(e)
    edges, owner = np.vstack(edges), np.array(owner, dtype=np.int64)
    assert_fill_matches(vp, edges, owner)
    for v in (vp, vp.transposed()):
        assert_same(segment_pixels(v, edges), ref_segment_pixels(v, edges))


# -- segment_pixels ----------------------------------------------------------

@pytest.mark.parametrize("res", RESOLUTIONS)
def test_segment_pixels_strip_corner_terms_match_four_corners(res):
    """Segments on pixel lines, axis-parallel ones, points and segments
    reaching past the viewport: the strip-level corner algebra marks the
    same pixels in the same order as the four-corner test."""
    vp = viewport_from_bounds((0.0, 0.0, 1.0, 1.0), res)
    r = np.random.default_rng(res + 1)
    a = r.uniform(-0.2, 1.2, (300, 2))
    b = a + r.uniform(-0.5, 0.5, (300, 2))
    b[:50, 0], b[50:100, 1], b[100:110] = a[:50, 0], a[50:100, 1], a[100:110]
    segs = np.hstack([a, b])
    snapped = vp.min_x + np.round((segs - vp.min_x) / vp.sx) * vp.sx
    for s in (segs, snapped):
        for v in (vp, vp.transposed()):
            assert_same(segment_pixels(v, s), ref_segment_pixels(v, s))


# -- _union_runs and DiscreteCanvas.set_boundary -----------------------------

@pytest.mark.parametrize("res", RESOLUTIONS)
def test_union_runs_with_tied_key_and_row0(res):
    """Many runs share their (key, row0) with different row1, overlap or
    touch each other; one key reaches the last row."""
    r = np.random.default_rng(res + 2)
    n = 4 * res
    key = r.integers(0, 12, n)
    row0 = r.integers(0, res, n)
    row1 = np.minimum(row0 + r.integers(0, 6, n), res - 1)
    dup = r.integers(0, n, n // 2)
    key = np.concatenate([key, key[dup], [3]])
    row0 = np.concatenate([row0, row0[dup], [0]])
    row1 = np.concatenate([row1, np.minimum(row0[dup] + r.integers(0, 9, len(dup)), res - 1),
                           [res - 1]])
    assert_same(_union_runs(key, row0, row1), ref_union_runs(key, row0, row1))
    empty = np.zeros(0, dtype=np.int64)
    assert_same(_union_runs(empty, empty, empty), ref_union_runs(empty, empty, empty))


@pytest.mark.parametrize("res", RESOLUTIONS)
def test_finalize_with_repeated_pixel_ref_pairs(res):
    """Boundary pairs in several chunks, many (pixel, ref) pairs repeated,
    the first and last pixel of the grid among them, and an empty chunk,
    installed at once."""
    vp = viewport_from_bounds((0.0, 0.0, 1.0, 1.0), res)
    r = np.random.default_rng(res + 3)
    flat, refs = [], []
    for size in (0, 200, 5, 3 * res):
        f = r.integers(0, res * res, size)
        e = r.integers(0, 50, size)
        if size:
            f[:3], e[:3] = (0, res * res - 1, f[-1]), (7, 0, e[-1])
        flat += [f, f[::2]]
        refs += [e, e[::2]]
    plane = DiscreteCanvas(vp)
    plane.set_boundary(np.concatenate(flat), np.concatenate(refs))
    want = ref_buckets(np.concatenate(flat), np.concatenate(refs))
    assert_same((plane.bp_flat, plane.bp_start, plane.bp_entries), want)


# -- bit budgets -------------------------------------------------------------

def test_packed_key_budgets_at_the_largest_viewport():
    """Each packed sort's fields at and just past 62 bits over 32768 x
    32768 pixels; sizes alone are checked, nothing is allocated."""
    side = 32768
    rbits = (side - 1).bit_length()
    assert packed_bits(0, 0) == 0
    # scanline_fill: (owner << rbits | row) above a crossing rank.
    assert packed_bits((2**20 - 1) << rbits | (side - 1), 2**27 - 1) == 27
    with pytest.raises(InternalInvariantError):
        packed_bits((2**20 - 1) << rbits | (side - 1), 2**27)
    with pytest.raises(InternalInvariantError):
        packed_bits(2**20 << rbits | (side - 1), 2**27 - 1)
    # DiscreteCanvas.set_boundary: a pixel key above a boundary entry ref.
    assert packed_bits(side * side - 1, 2**32 - 1) == 32
    with pytest.raises(InternalInvariantError):
        packed_bits(side * side - 1, 2**32)
    # _union_runs: a run key above two row fields.
    assert packed_bits(2**32 - 1, (1 << 2 * rbits) - 1) == 2 * rbits
    with pytest.raises(InternalInvariantError):
        packed_bits(2**32, (1 << 2 * rbits) - 1)


def test_kernels_check_their_budget(monkeypatch):
    """The kernels raise rather than sort an overflowing key: with the
    budget shrunk to nothing, each one's check fails."""
    def tight(high, low):
        raise InternalInvariantError("budget")
    monkeypatch.setattr(canvas, "packed_bits", tight)
    vp = viewport_from_bounds((0.0, 0.0, 1.0, 1.0), 16)
    edges, owner = ring_edges([(0.1, 0.1), (0.9, 0.1), (0.5, 0.9)])
    one = np.ones(1, dtype=np.int64)
    for call in (lambda: scanline_fill(vp, edges, owner), lambda: _union_runs(one, one, one),
                 lambda: DiscreteCanvas(vp).set_boundary(one, one)):
        with pytest.raises(InternalInvariantError):
            call()
