"""Oracle answers for the timed queries, and the known-defect probes.

Every expected answer comes from ``rasterquery.oracle``. To keep the check
affordable the oracle sees only the records whose bounding box can touch
the query (the constraint box, or the source box grown by the radius);
a record outside that box can neither intersect the constraint nor lie
within the radius, so the oracle's answer is unchanged.
"""

from __future__ import annotations

import math

import numpy as np

from rasterquery import engine, oracle
from rasterquery.errors import SpatialError
from rasterquery.geometry import GeometryRecord, box_record, line_record, point_record


def _pad(box, r: float) -> tuple:
    # The relative pad absorbs rounding in the box arithmetic.
    r = r * (1.0 + 1e-9) + 1e-12
    return (box[0] - r, box[1] - r, box[2] + r, box[3] + r)


class Candidates:
    """Bounding boxes of one dataset for conservative prefiltering."""

    def __init__(self, records):
        self.records = list(records)
        self.boxes = np.array([rec.bbox() for rec in self.records], dtype=float)
        self.by_x = np.argsort(self.boxes[:, 0], kind="stable")
        self.x_sorted = self.boxes[self.by_x, 0]
        self.max_width = float((self.boxes[:, 2] - self.boxes[:, 0]).max())

    def touching(self, box) -> list:
        """Records whose closed bbox meets the closed ``box``, in dataset order."""
        lo = np.searchsorted(self.x_sorted, box[0] - self.max_width, side="left")
        hi = np.searchsorted(self.x_sorted, box[2], side="right")
        idx = self.by_x[lo:hi]
        b = self.boxes[idx]
        hit = ((b[:, 0] <= box[2]) & (b[:, 2] >= box[0])
               & (b[:, 1] <= box[3]) & (b[:, 3] >= box[1]))
        return [self.records[i] for i in np.sort(idx[hit])]

    def nearest_box(self, x: float, y: float, k: int) -> tuple:
        """A box around (x, y) that holds the k records nearest to it
        (point datasets only)."""
        d = np.hypot(self.boxes[:, 0] - x, self.boxes[:, 1] - y)
        kth = float(np.partition(d, k - 1)[k - 1])
        return _pad((x, y, x, y), kth)


def constraint_box(geom) -> tuple:
    return GeometryRecord(0, "polygon", list(geom)).bbox()


def expect_select(cands: Candidates, geom) -> list:
    return oracle.oracle_select(cands.touching(constraint_box(geom)), list(geom))


def expect_join(d1, cands: Candidates) -> list:
    out = []
    for a in d1:
        out += oracle.oracle_join([a], cands.touching(a.bbox()))
    return sorted(out)


def expect_distance_select(cands: Candidates, source, r: float) -> list:
    return oracle.oracle_distance_select(cands.touching(_pad(source.bbox(), r)), source, r)


def expect_distance_join(sources, radii, cands: Candidates) -> list:
    out = []
    for src, r in zip(sources, radii):
        out += oracle.oracle_distance_join([src], cands.touching(_pad(src.bbox(), r)), [r])
    return sorted(out)


def expect_knn_select(cands: Candidates, p, k: int) -> list:
    return oracle.oracle_knn_select(cands.touching(cands.nearest_box(p.x, p.y, k)), p, k)


def expect_knn_join(left, cands: Candidates, k: int) -> list:
    out = []
    for a in sorted(left, key=lambda rec: rec.id):
        box = cands.nearest_box(a.geometry.x, a.geometry.y, k)
        out += oracle.oracle_knn_join([a], cands.touching(box), k)
    return out


def expect_aggregate(constraints, cands: Candidates, mode: str) -> list:
    rows = []
    for cons in sorted(constraints, key=lambda rec: rec.id):
        rows += oracle.oracle_aggregate([cons], cands.touching(cons.bbox()), mode)
    return rows


def same(got, want) -> bool:
    """Structural equality; floats (distances, sums) agree to 1e-9 relative."""
    if isinstance(want, float) or isinstance(got, float):
        if got is None or want is None:
            return got is want
        return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
    if isinstance(want, (list, tuple)):
        return (isinstance(got, (list, tuple)) and len(got) == len(want)
                and all(same(g, w) for g, w in zip(got, want)))
    return got == want


# ---------------------------------------------------------------------------
# Known defects: small fixed inputs, outside every timed mix
# ---------------------------------------------------------------------------

PROBE_RESOLUTION = 64


def _join_mixed_d2():
    # Two disjoint boxes share one layer; one D2 polygon touches both.
    d1 = [box_record(0, 0.0, 0.0, 1.0, 1.0), box_record(1, 2.0, 0.0, 3.0, 1.0)]
    d2 = [point_record(10, 0.5, 0.5), box_record(11, 0.5, 0.25, 2.5, 0.75)]
    got = engine.join(d1, d2, resolution=PROBE_RESOLUTION)
    return list(got.pairs), oracle.oracle_join(d1, d2)


def _distance_join_probe(probe):
    # Two far-apart sources share one layer; the probe lies within r of both.
    sources = [point_record(0, 0.0, 0.0), point_record(1, 4.0, 0.0)]
    radii = [1.0, 1.0]
    got = engine.distance_join(sources, [probe], radii, resolution=PROBE_RESOLUTION)
    return list(got.pairs), oracle.oracle_distance_join(sources, [probe], radii)


KNOWN_DEFECTS = {
    "join_mixed_point_polygon_d2": _join_mixed_d2,
    "distance_join_polyline_probe": lambda: _distance_join_probe(
        line_record(10, [(0.0, 0.5), (4.0, 0.5)])),
    "distance_join_polygon_probe": lambda: _distance_join_probe(
        box_record(10, 0.5, 0.25, 3.5, 0.75)),
}


def run_known_defects() -> dict:
    """Probe name -> None when it agrees with the oracle, else a one-line
    reason (the typed error, or the disagreement)."""
    out = {}
    for name, probe in KNOWN_DEFECTS.items():
        try:
            got, want = probe()
        except SpatialError as exc:
            out[name] = f"{type(exc).__name__}: {exc}"
            continue
        except Exception as exc:  # an untyped error is a failure too
            out[name] = f"untyped {type(exc).__name__}: {exc}"
            continue
        out[name] = None if same(got, want) else f"disagrees with oracle: {got} != {want}"
    return out
