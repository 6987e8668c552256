"""In-memory kNN selection and join agree with the brute-force oracle, on a
``PreparedPoints`` and on a plain record list."""

import math

import pytest

import gen
from rasterquery import engine, oracle
from rasterquery.errors import DataError
from rasterquery.geometry import (
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
