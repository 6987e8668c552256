"""Joins and selections assemble their results from (constraint ids, record
ids) arrays with one sort-based dedup: the result equals ``sorted(set(...))``
of the pairs the probe pass found, swapped and flipped sides included, and
agrees with the oracle. Aggregation counts the same arrays once per pair.
The public result types still sort and dedup what they are given."""

import numpy as np
import pytest

import gen
from rasterquery import engine, oracle
from rasterquery.canvas_index import build_layer_index
from rasterquery.geometry import GeometryRecord, box_record, geometry_distance, point_record

RES = 64


@pytest.fixture
def assembled(monkeypatch) -> list:
    """(left, right, result) of every ``engine._join_result`` call."""
    calls = []
    real = engine._join_result

    def spy(left, right):
        got = real(left, right)
        calls.append((left, right, got))
        return got
    monkeypatch.setattr(engine, "_join_result", spy)
    return calls


def _check_assembly(calls, got):
    """The one assembly of ``got`` equals the old ``sorted(set(...))`` of
    its pairs, as plain ints."""
    [(left, right, result)] = calls
    assert result is got
    assert got.pairs == tuple(sorted(set(zip(left.tolist(), right.tolist()))))
    assert all(type(v) is int for pair in got.pairs for v in pair)
    return left, right


def _canvas_sides(monkeypatch, name) -> list:
    """The record ids of the canvas side (records or their ``RecordTable``)
    of every ``engine.<name>`` call."""
    sides = []
    real = getattr(engine, name)

    def spy(records, *args):
        sides.append({rec.id for rec in getattr(records, "records", records)})
        return real(records, *args)
    monkeypatch.setattr(engine, name, spy)
    return sides


def _clear_radius(d1, d2, r: float) -> float:
    """r nudged until no pair's distance lies within gen.CLEARANCE of it."""
    d = np.array([geometry_distance(a, b) for a in d1 for b in d2])
    while np.any(np.abs(d - r) < gen.CLEARANCE):
        r += 3 * gen.CLEARANCE
    return r


def test_swapped_polygon_join(assembled, monkeypatch):
    sides = _canvas_sides(monkeypatch, "_layer_matchers")
    r = gen.rng(31)
    d1 = gen.random_polygons(r, 20, radius_frac=0.15)
    d2 = gen.disjoint_polygons(r, 3, start_id=100)
    d1_layers, d2_layers = build_layer_index(d1), build_layer_index(d2)
    assert d2_layers.layer_count < d1_layers.layer_count
    got = engine.join(d1, d2, resolution=RES, d1_layers=d1_layers, d2_layers=d2_layers)
    left, right = _check_assembly(assembled, got)
    # D2's canvases met D1's probes; the arrays came back swapped.
    assert sides == [{rec.id for rec in d2}]
    assert set(left.tolist()) <= {rec.id for rec in d1}
    assert set(right.tolist()) <= {rec.id for rec in d2}
    assert list(got.pairs) == oracle.oracle_join(d1, d2)
    assert got.pairs


def test_flipped_scalar_radius_distance_join(assembled, monkeypatch):
    sides = _canvas_sides(monkeypatch, "_buffer_matchers")
    r = gen.rng(32)
    d1 = gen.uniform_points(r, 40)
    d2 = gen.random_polylines(r, 4, start_id=100)
    radius = _clear_radius(d1, d2, 0.08)
    got = engine.distance_join(d1, d2, radius, resolution=RES)
    left, _ = _check_assembly(assembled, got)
    # D2's buffers met D1's points; the arrays came back flipped.
    assert sides == [{rec.id for rec in d2}]
    assert set(left.tolist()) <= {rec.id for rec in d1}
    assert list(got.pairs) == oracle.oracle_distance_join(d1, d2, radius)
    assert got.pairs


def _two_layers():
    """Two overlapping boxes, one layer each, and points in both, in one and
    in neither."""
    d1 = [box_record(0, 0.0, 0.0, 1.0, 1.0), box_record(1, 0.5, 0.5, 1.5, 1.5)]
    points = [point_record(10, 0.75, 0.75, 1.0), point_record(11, 0.25, 0.25, 2.0),
              point_record(12, 1.25, 1.25, 4.0), point_record(13, 1.75, 0.25, 8.0)]
    layers = build_layer_index(d1)
    assert layers.layer_count == 2
    return d1, points, layers


def test_point_seen_by_two_layers(assembled):
    d1, points, layers = _two_layers()
    got = engine.join(d1, points, resolution=RES, d1_layers=layers)
    _check_assembly(assembled, got)
    assert got.pairs == ((0, 10), (0, 11), (1, 10), (1, 12))
    # A selection over both canvases sees point 10 twice and keeps it once.
    sel = engine._selection(engine._layer_matchers(d1, layers, RES),
                            [engine.Dataset(points)])
    assert sel.ids == (10, 11, 12)


@pytest.mark.parametrize("mode", ["count", "sum"])
def test_two_layer_aggregate_counts_each_pair_once(monkeypatch, mode):
    """Points, polylines and polygons against two layers of zones, with the
    records rasterized in many chunks: counts and sums equal the oracle's."""
    r = gen.rng(33)
    zones = gen.random_polygons(r, 12, radius_frac=0.15, start_id=500)
    layers = build_layer_index(zones)
    assert layers.layer_count >= 2
    data = [GeometryRecord(rec.id, rec.kind, rec.geometry, float(1 + rec.id % 7))
            for rec in gen.mixed_dataset(r, 80)]
    monkeypatch.setattr(engine, "PIXEL_KEY_BUDGET", 64)
    got = engine.aggregate(zones, data, mode, resolution=RES, layer_index=layers).rows
    want = oracle.oracle_aggregate(zones, data, mode)
    assert [row[:2] for row in got] == [row[:2] for row in want]
    assert [row[2] for row in got] == pytest.approx([row[2] for row in want])
    assert sum(row[1] for row in got) > len(got)


def test_join_result_dedups_repeated_pairs():
    left = np.array([3, 1, 3, 2, 1, 3], dtype=np.int64)
    right = np.array([5, 9, 5, 0, 9, 4], dtype=np.int64)
    got = engine._join_result(left, right)
    assert got.pairs == ((1, 9), (2, 0), (3, 4), (3, 5))
    assert got == engine.JoinResult(tuple(zip(left.tolist(), right.tolist())))
    empty = np.zeros(0, dtype=np.int64)
    assert engine._join_result(empty, empty).pairs == ()


def test_public_results_sort_and_dedup_tuples():
    assert engine.JoinResult(((2, 1), (1, 5), (2, 1), (1, 3))).pairs == ((1, 3), (1, 5), (2, 1))
    assert engine.SelectionResult((3, 1, 3, 2)).ids == (1, 2, 3)
    assert engine.SelectionResult(()).ids == ()
