"""Executable canvas algebra: geometric transform and the Map operator
(dissect + transform) in one-pass and two-pass forms, plus result-buffer
compaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .canvas import PLANES, DiscreteCanvas, Viewport
from .errors import (
    CanvasError,
    DataError,
    DegenerateGeometryError,
    InternalInvariantError,
)
from .geometry import (
    GeometryRecord,
    point_record,
    line_record,
    polygon_from_rings,
    project_points_4326_to_3857,
)


# ---------------------------------------------------------------------------
# Geometric transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Affine2D:
    """x' = a*x + b*y + c; y' = d*x + e*y + f."""

    a: float = 1.0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0
    e: float = 1.0
    f: float = 0.0

    @property
    def det(self) -> float:
        return self.a * self.e - self.b * self.d

    def apply(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        x = self.a * pts[..., 0] + self.b * pts[..., 1] + self.c
        y = self.d * pts[..., 0] + self.e * pts[..., 1] + self.f
        return np.stack([x, y], axis=-1)

    def compose(self, inner: "Affine2D") -> "Affine2D":
        return Affine2D(
            self.a * inner.a + self.b * inner.d,
            self.a * inner.b + self.b * inner.e,
            self.a * inner.c + self.b * inner.f + self.c,
            self.d * inner.a + self.e * inner.d,
            self.d * inner.b + self.e * inner.e,
            self.d * inner.c + self.e * inner.f + self.f,
        )

    @staticmethod
    def translation(dx: float, dy: float) -> "Affine2D":
        return Affine2D(c=dx, f=dy)

    @staticmethod
    def scaling(sx: float, sy: float) -> "Affine2D":
        return Affine2D(a=sx, e=sy)


def world_to_pixel_transform(vp: Viewport) -> Affine2D:
    """Affine mapping world coordinates onto the viewport's pixel grid."""
    return Affine2D(a=1.0 / vp.sx, c=-vp.min_x / vp.sx,
                    e=1.0 / vp.sy, f=-vp.min_y / vp.sy)


@dataclass(frozen=True)
class Transform:
    """Optional pointwise projection followed by an invertible affine map."""

    affine: Affine2D = field(default_factory=Affine2D)
    project_4326: bool = False


def _transform_points(pts: np.ndarray, t: Transform) -> np.ndarray:
    if t.project_4326:
        pts = project_points_4326_to_3857(np.asarray(pts, dtype=float))
    return t.affine.apply(pts)


def geometric_transform(target, t: Transform):
    """Apply a Transform to records, raw points, or a canvas.

    Records get every vertex mapped (polygons are re-triangulated). Canvases
    support axis-aligned affines only: the pixel grid is untouched and the
    viewport's world bounds move.
    """
    if t.affine.det == 0.0:
        raise DegenerateGeometryError("singular affine transform")
    if isinstance(target, DiscreteCanvas):
        if t.project_4326 or t.affine.b != 0.0 or t.affine.d != 0.0 \
                or t.affine.a <= 0.0 or t.affine.e <= 0.0:
            raise CanvasError("canvas transform must be an axis-aligned positive affine")
        vp = target.viewport
        lo = t.affine.apply(np.array([[vp.min_x, vp.min_y]]))[0]
        hi = t.affine.apply(np.array([[vp.max_x, vp.max_y]]))[0]
        out = DiscreteCanvas(Viewport(lo[0], lo[1], hi[0], hi[1],
                                      vp.width_px, vp.height_px),
                             target.bindex, target.entries_complete)
        for name in PLANES:
            if target.has_plane(name):
                out._planes[name] = target.plane(name)
        return out
    if isinstance(target, GeometryRecord):
        return _transform_record(target, t)
    if isinstance(target, (list, tuple)) and target and isinstance(target[0], GeometryRecord):
        return [_transform_record(rec, t) for rec in target]
    return _transform_points(np.asarray(target, dtype=float), t)


def _transform_record(rec: GeometryRecord, t: Transform) -> GeometryRecord:
    if rec.kind == "point":
        p = rec.geometry
        x, y = _transform_points(np.array([[p.x, p.y]]), t)[0]
        return point_record(rec.id, x, y, rec.value)
    if rec.kind == "polyline":
        coords = [(rec.geometry[0].a.x, rec.geometry[0].a.y)]
        coords += [(s.b.x, s.b.y) for s in rec.geometry]
        return line_record(rec.id, _transform_points(np.array(coords), t), rec.value)
    parts = [polygon_from_rings([_transform_points(ring, t) for ring in part.rings])
             for part in rec.geometry]
    return GeometryRecord(rec.id, "polygon", parts, rec.value)


# ---------------------------------------------------------------------------
# Map: one-pass (slotted) and two-pass (count then write)
# ---------------------------------------------------------------------------

class ResultBuffer:
    """Fixed-capacity slot array; each result occupies one unique slot."""

    def __init__(self, capacity: int):
        if capacity < 0:
            raise DataError("negative result-buffer capacity")
        self.slots: list = [None] * capacity

    @property
    def capacity(self) -> int:
        return len(self.slots)

    def write(self, slot: int, entry):
        if not 0 <= slot < len(self.slots):
            raise InternalInvariantError(
                f"map slot {slot} outside buffer of {len(self.slots)}")
        cur = self.slots[slot]
        if cur is None:
            self.slots[slot] = entry
        elif cur != entry:
            raise InternalInvariantError(
                f"slot {slot} written with conflicting results {cur!r} / {entry!r}")


def map_one_pass(stream, n_max: int, slot_fn) -> ResultBuffer:
    """Write each satisfied result into its unique slot; duplicates of the
    same result collapse idempotently."""
    buf = ResultBuffer(n_max)
    for entry in stream:
        buf.write(slot_fn(entry), entry)
    return buf


def compact(buffer: ResultBuffer) -> list:
    """Dense result list: non-null slots in ascending slot order."""
    return [e for e in buffer.slots if e is not None]


class TwoPassResult(list):
    iterations: int = 1


def map_two_pass(stream_factory, ceiling: int | None = None) -> TwoPassResult:
    """Count distinct results first, then write exactly that many entries.

    When the distinct count exceeds the configured ceiling the write pass
    runs in multiple iterations, each re-reading the stream and emitting at
    most ``ceiling`` entries; the concatenation equals a one-pass run.
    """
    seen = set()
    for entry in stream_factory():
        seen.add(entry)
    count = len(seen)
    out = TwoPassResult()
    if count == 0:
        out.iterations = 1
        return out
    if ceiling is None or ceiling >= count:
        out.extend(sorted(seen))
        out.iterations = 1
        return out
    iterations = -(-count // ceiling)
    for it in range(iterations):
        chunk = set()
        for entry in stream_factory():
            chunk.add(entry)
        ordered = sorted(chunk)
        out.extend(ordered[it * ceiling:(it + 1) * ceiling])
    out.iterations = iterations
    return out
