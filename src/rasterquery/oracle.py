"""Brute-force reference implementations: the acceptance ground truth.

Deliberately simple nested loops over exact full-geometry tests. These share
only the geometry module's primitives with the engine; no canvas, index, or
operator code path is reused, so engine/oracle agreement is a real check.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import (
    GeometryRecord,
    geometry_distance,
    pairwise_intersects,
    points_to_record_distance,
)


def _as_record(constraint) -> GeometryRecord:
    if isinstance(constraint, GeometryRecord):
        return constraint
    if isinstance(constraint, list):
        return GeometryRecord(0, "polygon", constraint)
    return GeometryRecord(0, "polygon", [constraint])


def oracle_select(dataset, constraint) -> list:
    """Sorted ids intersecting the constraint: full nested loop, every
    triangle/segment tested."""
    cons = _as_record(constraint)
    return sorted(rec.id for rec in dataset if pairwise_intersects(rec, cons))


def oracle_join(d1, d2) -> list:
    """All intersecting id pairs by exhaustive pairwise exact tests."""
    out = []
    for a in d1:
        for b in d2:
            if pairwise_intersects(a, b):
                out.append((a.id, b.id))
    return sorted(out)


def oracle_distance_select(dataset, source: GeometryRecord, r: float) -> list:
    pts = [rec for rec in dataset if rec.kind == "point"]
    others = [rec for rec in dataset if rec.kind != "point"]
    out = []
    if pts:
        xy = np.array([(p.geometry.x, p.geometry.y) for p in pts])
        d = points_to_record_distance(xy, source)
        out.extend(p.id for p, di in zip(pts, d) if di <= r)
    out.extend(rec.id for rec in others if geometry_distance(rec, source) <= r)
    return sorted(out)


def oracle_distance_join(d1, d2, radii) -> list:
    if np.isscalar(radii):
        radii = [float(radii)] * len(d1)
    out = []
    for a, r in zip(d1, radii):
        out.extend((a.id, b.id) for b in d2 if geometry_distance(a, b) <= r)
    return sorted(out)


def oracle_knn_select(dataset, p, k: int) -> list:
    """k nearest point records as (id, distance), ties broken by id."""
    px, py = (p.x, p.y) if hasattr(p, "x") else (float(p[0]), float(p[1]))
    ranked = sorted((math.hypot(rec.geometry.x - px, rec.geometry.y - py), rec.id)
                    for rec in dataset)
    return [(rid, d) for d, rid in ranked[:k]]


def oracle_knn_join(d1, d2, k: int) -> list:
    out = []
    for a in sorted(d1, key=lambda rec: rec.id):
        neigh = oracle_knn_select(d2, a.geometry, k)
        out.append((a.id, [rid for rid, _ in neigh]))
    return out


def oracle_aggregate(constraints, data, mode: str = "count") -> list:
    """Per-constraint exact counts/sums from the brute-force join."""
    rows = []
    for cons in sorted(constraints, key=lambda rec: rec.id):
        hit = [rec for rec in data if pairwise_intersects(rec, cons)]
        if not hit:
            continue
        total = sum(rec.value for rec in hit) if mode == "sum" else None
        rows.append((cons.id, len(hit), total))
    return rows


def oracle_layers_valid(records, layer_index) -> bool:
    """Layers partition the ids and members are pairwise disjoint (exact)."""
    ids = sorted(rec.id for rec in records)
    flat = sorted(i for layer in layer_index.layers for i in layer)
    if flat != ids:
        return False
    by_id = {rec.id: rec for rec in records}
    for layer in layer_index.layers:
        for i, a in enumerate(layer):
            for b in layer[i + 1:]:
                if pairwise_intersects(by_id[a], by_id[b]):
                    return False
    return True


def sweepline_pair_count(d1, d2) -> int:
    """Independent recount of intersecting pairs: sort by min-x, sweep an
    active window, exact-test survivors."""
    events = [(rec.bbox(), 0, rec) for rec in d1] + [(rec.bbox(), 1, rec) for rec in d2]
    merged = sorted(events, key=lambda e: e[0][0])
    active: list = []
    count = 0
    for bbox, side, rec in merged:
        active = [(b, s, rr) for b, s, rr in active if b[2] >= bbox[0]]
        for b, s, rr in active:
            if s == side:
                continue
            if b[1] > bbox[3] or bbox[1] > b[3]:
                continue
            a, b_ = (rec, rr) if side == 0 else (rr, rec)
            if pairwise_intersects(a, b_):
                count += 1
        active.append((bbox, side, rec))
    return count
