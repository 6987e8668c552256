"""In-memory kNN selection and join agree with the brute-force oracle, on a
``PreparedPoints`` and on a plain record list."""

import math

import numpy as np
import pytest

import gen
from rasterquery import canvas, engine, oracle, storage
from rasterquery.config import Config
from rasterquery.errors import DataError
from rasterquery.geometry import (
    GeometryRecord,
    Point2,
    point_record,
    project_4326_to_3857,
    project_record_4326_to_3857,
)

N = 120


@pytest.fixture(scope="module")
def points():
    return gen.gaussian_points(gen.rng(21), N)


def _forms(records):
    return {"prepared": engine.PreparedPoints(records), "records": list(records)}


def _same(got, want):
    assert [rid for rid, _ in got] == [rid for rid, _ in want]
    assert [d for _, d in got] == pytest.approx([d for _, d in want], rel=1e-12)


@pytest.mark.parametrize("form", ["prepared", "records"])
@pytest.mark.parametrize("k", [1, 10, N])
def test_knn_select(points, form, k):
    data = _forms(points)[form]
    for p in (Point2(0.5, 0.5), Point2(0.93, 0.12), Point2(-0.4, 1.6)):
        _same(engine.knn_select(data, p, k, resolution=64),
              oracle.oracle_knn_select(points, p, k))


def tied_points():
    """Four points at distance 0.125 from (0.5, 0.5), four at 0.25 and four
    far off, with ids shuffled so that tie-breaking by id shows. The tied
    coordinates are exact binary fractions, so their distances are equal
    in floating point."""
    offsets = [(0.125, 0), (0, 0.125), (-0.125, 0), (0, -0.125),
               (0.25, 0), (0, 0.25), (-0.25, 0), (0, -0.25)]
    ids = [7, 3, 11, 5, 9, 2, 10, 4]
    return [point_record(i, 0.5 + dx, 0.5 + dy) for i, (dx, dy) in zip(ids, offsets)] \
        + [point_record(20 + i, 0.1 * i, 0.95) for i in range(4)]


@pytest.mark.parametrize("form", ["prepared", "records"])
@pytest.mark.parametrize("k", [1, 3, 5, 6])
def test_knn_select_breaks_ties_toward_lower_id(form, k):
    recs = tied_points()
    got = engine.knn_select(_forms(recs)[form], (0.5, 0.5), k, resolution=32)
    assert got == oracle.oracle_knn_select(recs, Point2(0.5, 0.5), k)
    assert [rid for rid, _ in got] == [3, 5, 7, 11, 2, 4][:k]


@pytest.mark.parametrize("form", ["prepared", "records"])
@pytest.mark.parametrize("k", [1, 10, N])
def test_knn_join(points, form, k):
    left = gen.uniform_points(gen.rng(22), 6)
    assert engine.knn_join(left, _forms(points)[form], k, resolution=64) \
        == oracle.oracle_knn_join(left, points, k)


@pytest.mark.parametrize("form", ["prepared", "records"])
def test_knn_join_breaks_ties_toward_lower_id(form):
    recs = tied_points()
    left = [point_record(0, 0.5, 0.5)]
    got = engine.knn_join(left, _forms(recs)[form], 5, resolution=32)
    assert got == oracle.oracle_knn_join(left, recs, 5) == [(0, [3, 5, 7, 11, 2])]


@pytest.mark.parametrize("form", ["prepared", "records"])
def test_knn_select_geographic(form):
    r = gen.rng(23)
    recs = [point_record(i, lon, lat) for i, (lon, lat)
            in enumerate(zip(r.uniform(2.0, 2.6, 80), r.uniform(48.6, 49.0, 80)))]
    got = engine.knn_select(_forms(recs)[form], (2.3, 48.8), 7, resolution=64,
                            geographic=True)
    want = oracle.oracle_knn_select([project_record_4326_to_3857(rec) for rec in recs],
                                    project_4326_to_3857(Point2(2.3, 48.8)), 7)
    _same(got, want)
    assert all(math.isfinite(d) and d > 1.0 for _, d in got)


@pytest.mark.parametrize("form", ["prepared", "records"])
@pytest.mark.parametrize("k", [0, -1, N + 1])
def test_knn_rejects_bad_k(points, form, k):
    data = _forms(points)[form]
    with pytest.raises(DataError):
        engine.knn_select(data, Point2(0.5, 0.5), k)
    with pytest.raises(DataError):
        engine.knn_join(points[:3], data, k)


@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_knn_rejects_an_alpha_of_at_most_one(points, alpha):
    """The ladder's shrink factor comes from the ``Config``, unvalidated
    when built directly; a factor that does not shrink is refused."""
    config = Config(alpha=alpha)
    with pytest.raises(DataError):
        engine.knn_select(points, Point2(0.5, 0.5), 3, config=config)
    with pytest.raises(DataError):
        engine.knn_join(points[:3], points, 3, config=config)


@pytest.mark.parametrize("n", [16, 128])
def test_count_within_matches_brute_force(n):
    """The ladder's count reads only the x slab of the circle; it must still
    count every point within r, including points just inside the slab's
    ends, on a sparse and a denser point set."""
    prepared = engine.PreparedPoints(gen.gaussian_points(gen.rng(21), n))
    for cx, cy in ((0.5, 0.5), (0.35, 0.6), (1.4, -0.2)):
        d = np.hypot(prepared.xy[:, 0] - cx, prepared.xy[:, 1] - cy)
        for r in (0.02, 0.1, 0.3, float(np.sort(d)[9])):
            assert engine._count_within(prepared, Point2(cx, cy), r) == int((d <= r).sum())


def _count_forms(records):
    """The points as built from records, as a stored cell's read-only
    ``np.frombuffer`` columns, and moved to near 1e7 (EPSG:3857 scale) and
    scaled by 1000."""
    cell, _ = storage.decode_block(storage.encode_block(records))
    assert not cell.xy.flags.writeable
    far = [point_record(rec.id, 1e7 + 1000 * rec.geometry.x, 1e7 + 1000 * rec.geometry.y)
           for rec in records]
    return {"records": engine.PreparedPoints(records), "cell": cell,
            "far": engine.PreparedPoints(far)}


@pytest.mark.parametrize("form", ["records", "cell", "far"])
def test_count_within_at_point_distances(points, form):
    """With r exactly a point's distance, that point counts; so does a point
    exactly at either end of the x slab, and one a float step past r does
    not."""
    prepared = _count_forms(points)[form]
    xy = prepared.xy
    centers = [Point2(*xy[j]) for j in (0, 5, 17)] + [Point2(xy[3, 0] + (xy[4, 0] - xy[3, 0]) / 3,
                                                         xy[3, 1])]
    for c in centers:
        d = np.hypot(xy[:, 0] - c.x, xy[:, 1] - c.y)
        for r in np.sort(d)[1::7]:
            r = float(r)
            assert engine._count_within(prepared, c, r) == int((d <= r).sum())
    # Points on the slab's ends and just past them.
    c, r = Point2(*xy[0]), float(np.sort(np.hypot(xy[:, 0] - xy[0, 0], xy[:, 1] - xy[0, 1]))[20])
    ends = np.array([[c.x + r, c.y], [c.x - r, c.y],
                     [np.nextafter(c.x + r, np.inf), c.y], [np.nextafter(c.x - r, -np.inf), c.y]])
    both = engine.PreparedPoints.from_arrays(
        np.arange(len(xy) + 4), np.vstack([xy, ends]), np.full(len(xy) + 4, np.nan))
    d = np.hypot(both.xy[:, 0] - c.x, both.xy[:, 1] - c.y)
    assert engine._count_within(both, c, r) == int((d <= r).sum())
    # x lies past cx + r, yet x - cx rounds (a tie, to even) down to r.
    tie = engine.PreparedPoints.from_arrays([0], [[1 + 2.0 ** -52, 0.0]], [np.nan])
    assert engine._count_within(tie, Point2(2.0 ** -53, 0.0), 1.0) == 1


def _ladder_by_scan(xy, c, k, cfg, r_max):
    """The ladder radius by counting every rung by brute force: the
    smallest radius holding k points, else the largest rung."""
    radii = engine._knn_radii(cfg, r_max)
    d = np.hypot(xy[:, 0] - c.x, xy[:, 1] - c.y)
    return radii[max((i for i, r in enumerate(radii) if (d <= r).sum() >= k), default=0)]


def _ladder_by_canvas(prepared, c, k, cfg, r_max):
    """The ladder radius with each rung counted by a distance canvas at the
    count resolution, as a distance selection counts it."""
    src = GeometryRecord(0, "point", c)
    return engine._ladder_radius(
        cfg, lambda r: len(engine.distance_select(prepared, src, r, resolution=128).ids), k, r_max)


def _r_max(prepared, c):
    x0, y0, x1, y1 = engine._bounds_union([prepared.bbox])
    return max(math.hypot(c.x - x, c.y - y) for x in (x0, x1) for y in (y0, y1))


@pytest.mark.parametrize("k", [1, 7, N])
def test_knn_radius_matches_brute_force_ladder(points, k):
    """The ladder picks the rung a brute-force count of every rung picks,
    and the one canvas counts pick, for centres inside and outside the
    points' bbox."""
    prepared = engine.PreparedPoints(points)
    cfg = Config()
    r = gen.rng(26)
    for i, (x, y) in enumerate(r.uniform(-0.5, 1.5, (40, 2))):
        c = Point2(float(x), float(y))
        got = engine._knn_radius(prepared, c, k, cfg)
        assert got == _ladder_by_scan(prepared.xy, c, k, cfg, _r_max(prepared, c))
        if i % 8 == 0:
            assert got == _ladder_by_canvas(prepared, c, k, cfg, _r_max(prepared, c))


def test_knn_radius_with_every_point_at_the_centre():
    """All points at the centre: the bbox is one point, so the ladder starts
    from the padded box, and a non-positive r_max falls back to the radius
    floor."""
    recs = [point_record(i, 0.3, 0.3) for i in range(5)]
    prepared = engine.PreparedPoints(recs)
    c, cfg = Point2(0.3, 0.3), Config()
    for k in (1, 5):
        got = engine._knn_radius(prepared, c, k, cfg)
        assert got == _ladder_by_scan(prepared.xy, c, k, cfg, _r_max(prepared, c))
        assert engine.knn_select(prepared, c, k) == oracle.oracle_knn_select(recs, c, k)
    for r_max in (0.0, -1.0):
        assert engine._ladder_radius(cfg, lambda r: 5, 5, r_max) == \
            engine._knn_radii(cfg, cfg.knn_radius_floor)[-1]
        assert engine._ladder_radius(cfg, lambda r: 0, 5, r_max) == cfg.knn_radius_floor


def _count_finalize(monkeypatch) -> list:
    calls = []
    real = canvas.DistanceCanvasBuilder.finalize

    def counted(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)
    monkeypatch.setattr(canvas.DistanceCanvasBuilder, "finalize", counted)
    return calls


@pytest.mark.parametrize("k", [1, 10, N])
def test_knn_select_renders_one_canvas(points, monkeypatch, k):
    """The ladder counts without a canvas; only the final distance
    selection renders one."""
    prepared = engine.PreparedPoints(points)
    calls = _count_finalize(monkeypatch)
    got = engine.knn_select(prepared, Point2(0.4, 0.55), k, resolution=64)
    assert got == oracle.oracle_knn_select(points, Point2(0.4, 0.55), k)
    assert calls == [1]


def test_knn_join_renders_one_canvas_per_distance_layer(points, monkeypatch):
    layers = []
    real = engine.build_distance_layer_index

    def recorded(*args, **kwargs):
        layers.append(real(*args, **kwargs))
        return layers[-1]
    monkeypatch.setattr(engine, "build_distance_layer_index", recorded)
    calls = _count_finalize(monkeypatch)
    left = gen.uniform_points(gen.rng(27), 12)
    got = engine.knn_join(left, engine.PreparedPoints(points), 10, resolution=64)
    assert got == oracle.oracle_knn_join(left, points, 10)
    assert len(layers) == 1
    assert len(calls) == layers[0].layer_count >= 1


@pytest.mark.parametrize("radius", [0.05, 0.2])
def test_distance_join_takes_prepared_points(points, radius):
    """A ``PreparedPoints`` D2 gives the record list's pairs, whichever side
    a single radius makes the sources."""
    prepared = engine.PreparedPoints(points)
    for left in (gen.uniform_points(gen.rng(24), 5), gen.uniform_points(gen.rng(25), 2 * N)):
        want = oracle.oracle_distance_join(left, points, radius)
        assert list(engine.distance_join(left, prepared, radius, resolution=64).pairs) == want
        assert list(engine.distance_join(left, prepared, [radius] * len(left),
                                         resolution=64).pairs) == want
