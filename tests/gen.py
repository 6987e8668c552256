"""Randomized fixture generators shared by unit and acceptance tests.

Generators keep configurations at least ``CLEARANCE`` x domain-extent away
from degeneracy where a predicate could flip under double rounding: probe
points are resampled when they land too close to a constraint boundary, and
distance-query radii are nudged away from exact probe distances. Everything
is driven by explicit numpy Generators so fixtures are reproducible.
"""

from __future__ import annotations

import numpy as np

from rasterquery.geometry import (
    GeometryRecord,
    box_record,
    edge_table,
    line_record,
    point_record,
    points_to_record_distance,
    polygon_from_rings,
    polygon_record,
)

CLEARANCE = 1e-6


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def concave_polygon(r, center=(0.5, 0.5), radius=0.35, nverts=12, rmin_frac=0.35):
    """Random star-shaped (hence simple) polygon, concave for varied radii."""
    while True:
        angles = np.sort(r.uniform(0, 2 * np.pi, nverts))
        gaps = np.diff(angles, append=angles[0] + 2 * np.pi)
        # star polygons stay simple when spokes are distinct and no chord
        # wraps past the center (max angular gap below pi)
        if gaps.min() > 2e-3 and gaps.max() < np.pi - 1e-2:
            break
    radii = r.uniform(rmin_frac * radius, radius, nverts)
    xs = center[0] + radii * np.cos(angles)
    ys = center[1] + radii * np.sin(angles)
    return polygon_from_rings([np.column_stack([xs, ys])])


def uniform_points(r, n, lo=0.0, hi=1.0, values=False):
    xy = r.uniform(lo, hi, size=(n, 2))
    vals = r.uniform(0, 10, n) if values else [None] * n
    return [point_record(i, x, y, v) for i, (x, y), v in zip(range(n), xy, vals)]


def gaussian_points(r, n, center=(0.5, 0.5), sigma=0.15, values=False):
    xy = r.normal(loc=center, scale=sigma, size=(n, 2))
    vals = r.uniform(0, 10, n) if values else [None] * n
    return [point_record(i, x, y, v) for i, (x, y), v in zip(range(n), xy, vals)]


def random_boxes(r, n, extent=1.0, min_size=0.01, max_size=0.08, start_id=0):
    recs = []
    for i in range(n):
        w, h = r.uniform(min_size, max_size, 2) * extent
        x0 = r.uniform(0, extent - w)
        y0 = r.uniform(0, extent - h)
        recs.append(box_record(start_id + i, x0, y0, x0 + w, y0 + h))
    return recs


def random_polygons(r, n, extent=1.0, radius_frac=0.05, start_id=0):
    recs = []
    for i in range(n):
        c = r.uniform(extent * radius_frac, extent * (1 - radius_frac), 2)
        poly = concave_polygon(r, center=c, radius=extent * radius_frac,
                               nverts=int(r.integers(5, 10)))
        recs.append(GeometryRecord(start_id + i, "polygon", [poly]))
    return recs


def random_polylines(r, n, extent=1.0, nseg=3, step=0.05, start_id=0):
    recs = []
    for i in range(n):
        start = r.uniform(0.1 * extent, 0.9 * extent, 2)
        steps = r.uniform(-step * extent, step * extent, size=(nseg, 2))
        # reject zero-length steps
        steps[np.all(steps == 0, axis=1)] = step * extent * 0.5
        coords = np.vstack([start, start + np.cumsum(steps, axis=0)])
        recs.append(line_record(start_id + i, coords))
    return recs


def clear_points_near_boundary(r, records, constraint, extent=1.0):
    """Resample point records that sit within CLEARANCE*extent of the
    constraint polygon's boundary (degeneracy clearance)."""
    limit = CLEARANCE * extent
    ref = polygon_record(0, [constraint]) if not isinstance(constraint, GeometryRecord) else constraint
    out = list(records)
    pts = np.array([(rec.geometry.x, rec.geometry.y) for rec in out])
    edges = edge_table(ref)[0]
    from rasterquery.geometry import points_to_segments_distance
    d = points_to_segments_distance(pts, edges)
    bad = np.flatnonzero(d < limit)
    for idx in bad:
        while True:
            x, y = r.uniform(0, extent, 2)
            cand = np.array([[x, y]])
            if points_to_segments_distance(cand, edges)[0] >= limit:
                out[idx] = point_record(out[idx].id, x, y, out[idx].value)
                break
    return out


def clear_distance_fixture(r, source: GeometryRecord, records, radius, extent=1.0):
    """Nudge the radius so no probe sits within CLEARANCE*extent of it."""
    limit = CLEARANCE * extent
    pts = np.array([(rec.geometry.x, rec.geometry.y) for rec in records])
    d = points_to_record_distance(pts, source)
    while np.any(np.abs(d - radius) < limit):
        radius += 3 * limit
    return radius


def mixed_dataset(r, n, extent=1.0):
    """Points, polylines, and small polygons under one id space."""
    n_pt = n // 2
    n_ln = n // 4
    n_pg = n - n_pt - n_ln
    recs = uniform_points(r, n_pt, hi=extent)
    recs += random_polylines(r, n_ln, extent=extent, start_id=n_pt)
    recs += random_polygons(r, n_pg, extent=extent, start_id=n_pt + n_ln)
    return recs


def holed_polygon(center=(0.5, 0.5), radius=0.35):
    """A fixed concave outer ring (a notched octagon) with two holes, a
    square and a triangle, scaled to ``radius`` around ``center``."""
    outer = [(1.0, 0.0), (0.7, 0.7), (0.0, 1.0), (-0.7, 0.7), (-1.0, 0.0),
             (-0.7, -0.7), (0.0, -0.3), (0.7, -0.7)]
    square = [(-0.6, -0.1), (-0.6, 0.3), (-0.2, 0.3), (-0.2, -0.1)]
    tri = [(0.1, 0.1), (0.6, 0.0), (0.3, 0.5)]
    c = np.asarray(center, dtype=float)
    return polygon_from_rings([c + radius * np.array(ring) for ring in (outer, square, tri)])


def disjoint_polygons(r, n_side, extent=1.0, start_id=0, holes_every=3):
    """One random polygon per cell of an n_side x n_side lattice, each inside
    its own cell (so the set is pairwise disjoint, one layer); every
    ``holes_every``-th polygon has holes."""
    cell = extent / n_side
    recs = []
    for i in range(n_side * n_side):
        c = ((i % n_side + 0.5) * cell, (i // n_side + 0.5) * cell)
        if holes_every and i % holes_every == 0:
            poly = holed_polygon(c, 0.45 * cell)
        else:
            poly = concave_polygon(r, c, 0.45 * cell, int(r.integers(5, 10)))
        recs.append(GeometryRecord(start_id + i, "polygon", [poly]))
    return recs


def assert_same_record(a, b):
    """Assert two records equal: id, kind, value and geometry, polygon rings
    array by array."""
    assert (a.id, a.kind, a.value) == (b.id, b.kind, b.value)
    if a.kind != "polygon":
        assert a.geometry == b.geometry
        return
    assert [len(p.rings) for p in a.geometry] == [len(p.rings) for p in b.geometry]
    for pa, pb in zip(a.geometry, b.geometry):
        for ra, rb in zip(pa.rings, pb.rings):
            np.testing.assert_array_equal(ra, rb)
