"""Seeded input generator for the benchmark workloads.

Every function takes an explicit ``numpy.random.Generator`` so one workload
seed fixes every input. Star polygons use jittered, evenly spaced spoke
angles: the angles stay strictly increasing and every angular gap stays
below pi, so the ring is simple for any vertex count without a rejection
loop.
"""

from __future__ import annotations

import numpy as np

from rasterquery.geometry import GeometryRecord, line_record, point_record, polygon_from_rings

TAU = 2.0 * np.pi


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def star_ring(r: np.random.Generator, center, radius: float, nverts: int,
              rmin_frac: float = 0.35) -> np.ndarray:
    """(nverts, 2) CCW ring of a star-shaped polygon around ``center``.

    Spoke k sits at ``phase + (k + j_k) * step`` with ``|j_k| <= 0.4``, so
    consecutive angles differ by 0.2 to 1.8 steps: increasing, and each gap
    below pi once ``nverts >= 4``.
    """
    if nverts < 4:
        raise ValueError("star_ring needs at least 4 vertices")
    step = TAU / nverts
    angles = r.uniform(0.0, TAU) + (np.arange(nverts) + r.uniform(-0.4, 0.4, nverts)) * step
    radii = radius * r.uniform(rmin_frac, 1.0, nverts)
    return np.column_stack([center[0] + radii * np.cos(angles),
                            center[1] + radii * np.sin(angles)])


def ring_wkt(ring: np.ndarray) -> str:
    """WKT text of a one-ring polygon (closing vertex repeated)."""
    pts = list(ring) + [ring[0]]
    return "POLYGON ((" + ", ".join(f"{float(x)!r} {float(y)!r}" for x, y in pts) + "))"


def star_polygon(r, rid: int, center, radius: float, nverts: int) -> GeometryRecord:
    poly = polygon_from_rings([star_ring(r, center, radius, nverts)])
    return GeometryRecord(rid, "polygon", [poly])


def mixed_points(r, n: int, clusters: int = 32) -> tuple:
    """(records, cluster centres): half the points uniform over the unit
    square, half in Gaussian clusters centred in [0.2, 0.8] with sigma
    0.015 to 0.04. Many clusters keep density, and so query cost, similar
    from seed to seed."""
    n_uni = n // 2
    xy_uni = r.uniform(0.0, 1.0, size=(n_uni, 2))
    centers = r.uniform(0.2, 0.8, size=(clusters, 2))
    sigmas = r.uniform(0.015, 0.04, clusters)
    which = r.integers(0, clusters, n - n_uni)
    xy_gau = centers[which] + r.normal(size=(n - n_uni, 2)) * sigmas[which, None]
    xy = np.vstack([xy_uni, xy_gau])
    vals = r.uniform(0.0, 10.0, n).tolist()
    recs = [point_record(i, x, y, v) for i, ((x, y), v) in enumerate(zip(xy.tolist(), vals))]
    return recs, centers


def polygons(r, n: int, radius: float, start_id: int = 0) -> list:
    """n star polygons of 5 to 9 vertices with centres uniform in the unit
    square (overlaps allowed)."""
    out = []
    for i in range(n):
        c = r.uniform(radius, 1.0 - radius, 2)
        out.append(star_polygon(r, start_id + i, c, radius, int(r.integers(5, 10))))
    return out


def polylines(r, n: int, nseg: int = 3, step: float = 0.02, start_id: int = 0) -> list:
    """Random walks of ``nseg`` segments starting inside the unit square."""
    out = []
    for i in range(n):
        start = r.uniform(0.1, 0.9, 2)
        steps = r.uniform(-step, step, size=(nseg, 2))
        steps[np.all(steps == 0.0, axis=1)] = step * 0.5
        out.append(line_record(start_id + i, np.vstack([start, start + np.cumsum(steps, axis=0)])))
    return out


def lattice_polygons(r, n_side: int, start_id: int = 0, offset=(0.0, 0.0),
                     radius_frac: float = 0.45, nverts=(8, 9)) -> list:
    """One star polygon per cell of an ``n_side`` x ``n_side`` lattice over
    the unit square, shifted by ``offset`` cells. Each stays inside its own
    cell (``radius_frac`` < 0.5), so one lattice is pairwise disjoint and
    forms a single layer."""
    if not radius_frac < 0.5:
        raise ValueError("radius_frac must stay below half a cell")
    out = []
    cell = 1.0 / n_side
    rid = start_id
    for gx in range(n_side):
        for gy in range(n_side):
            c = ((gx + 0.5 + offset[0]) * cell, (gy + 0.5 + offset[1]) * cell)
            k = int(r.integers(nverts[0], nverts[1]))
            out.append(star_polygon(r, rid, c, radius_frac * cell, k))
            rid += 1
    return out


def layered_polygons(r, n_side: int, layers: int, start_id: int = 0, shift: float = 0.0,
                     radius_frac: float = 0.45) -> list:
    """``layers`` lattices, each offset diagonally by ``1 / layers`` of a cell
    from the one before (plus ``shift``), ids ascending lattice by lattice.
    Lattices overlap each other but not themselves, so the layer index
    has ``layers`` layers for every seed."""
    out = []
    for i in range(layers):
        off = (i / layers + shift, i / layers + shift)
        out += lattice_polygons(r, n_side, start_id + len(out), off, radius_frac, (5, 10))
    return out


def lattice_points(r, n_side: int, jitter: float = 0.25) -> list:
    """One point per lattice cell, displaced by at most ``jitter`` cells, so
    any two points are at least ``(1 - 2 * jitter)`` cells apart."""
    cell = 1.0 / n_side
    g = (np.arange(n_side) + 0.5) * cell
    xy = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    xy = xy + r.uniform(-jitter, jitter, xy.shape) * cell
    return [point_record(i, x, y) for i, (x, y) in enumerate(xy.tolist())]


def neighbourhoods(r, n_side: int, radius_frac: float = 0.45) -> list:
    """Eight-vertex star polygons, one per lattice cell: pairwise disjoint."""
    return lattice_polygons(r, n_side, radius_frac=radius_frac)
