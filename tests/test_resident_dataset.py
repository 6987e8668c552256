"""A record list that queries see twice becomes one ``engine.Dataset``
(``engine._dataset``): a repeat query over the unchanged list builds no
point column or probe table, kNN included, any change to the list
or edit of its records between queries rebuilds its entry so no answer is
stale, and the memo keeps a bounded number of lists and bytes."""

import gc
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import gen
from rasterquery import engine, oracle
from rasterquery.canvas_index import build_layer_index
from rasterquery.geometry import (
    GeometryRecord,
    Point2,
    RecordTable,
    box_record,
    edge_table,
    point_record,
    record_edit,
)

RES = 64
MIN_RECORDS = engine.RESIDENT_MIN_RECORDS
ZONES = gen.random_polygons(gen.rng(31), 6, radius_frac=0.2, start_id=900)
LAYERS = build_layer_index(ZONES)
SOURCE = point_record(950, 0.5, 0.5)
SOURCES = [point_record(960 + i, x, y) for i, (x, y) in
           enumerate([(0.25, 0.25), (0.75, 0.3), (0.5, 0.75)])]


@pytest.fixture(autouse=True)
def memo(monkeypatch):
    """An empty memo that keeps the short lists these tests query."""
    engine.clear_resident()
    monkeypatch.setattr(engine, "RESIDENT_MIN_RECORDS", 1)
    yield
    engine.clear_resident()


def _data(lines: bool) -> list:
    """Points and polygons with values, plus polylines when ``lines``."""
    r = gen.rng(32)
    recs = gen.uniform_points(r, 60, values=True)
    recs += gen.random_polygons(r, 20, radius_frac=0.05, start_id=100)
    if lines:
        recs += gen.random_polylines(r, 10, start_id=200)
    for rec in recs[60:]:
        rec.value = float(rec.id)
    return recs


def _check_all(data):
    """Every list query over ``data`` agrees with the oracle."""
    assert list(engine.select(data, ZONES[0], RES).ids) == oracle.oracle_select(data, ZONES[0])
    if not any(rec.kind == "polyline" for rec in data):
        got = engine.join(ZONES, data, RES, d1_layers=LAYERS).pairs
        assert list(got) == oracle.oracle_join(ZONES, data)
    got = engine.distance_select(data, SOURCE, 0.2, RES).ids
    assert list(got) == oracle.oracle_distance_select(data, SOURCE, 0.2)
    got = engine.distance_join(SOURCES, data, 0.1, RES).pairs
    assert list(got) == oracle.oracle_distance_join(SOURCES, data, 0.1)
    got = engine.aggregate(ZONES, data, "count", RES, layer_index=LAYERS).rows
    assert list(got) == oracle.oracle_aggregate(ZONES, data, "count")
    got = engine.aggregate(ZONES, data, "sum", RES, layer_index=LAYERS).rows
    want = oracle.oracle_aggregate(ZONES, data, "sum")
    assert [(c, n) for c, n, _ in got] == [(c, n) for c, n, _ in want]
    assert [s for _, _, s in got] == pytest.approx([s for _, _, s in want], rel=1e-12)


def _append(lst):
    lst.append(box_record(800, 0.4, 0.4, 0.6, 0.6, 2.0))


def _replace(lst):
    # Same id, moved onto the distance source.
    lst[0] = point_record(lst[0].id, 0.5, 0.5, 7.0)


def _delete(lst):
    del lst[len(lst) // 2]


def _reverse(lst):
    lst.sort(key=lambda rec: -rec.id)


def _slice(lst):
    lst[2:6] = [point_record(810 + i, 0.45 + 0.05 * i, 0.5, 1.0) for i in range(3)]


def _entry(lst):
    return engine._resident.get(id(lst))


@pytest.mark.parametrize("lines", [False, True], ids=["points+polygons", "mixed"])
@pytest.mark.parametrize("change", [_append, _replace, _delete, _reverse, _slice],
                         ids=lambda f: f.__name__.strip("_"))
def test_a_changed_list_is_never_answered_from_its_old_entry(lines, change):
    data = _data(lines)
    _check_all(data)
    before = _entry(data)
    assert before is not None and engine._holds(before, data)
    change(data)
    assert not engine._holds(before, data)
    _check_all(data)
    assert _entry(data) is not before and engine._holds(_entry(data), data)


def _counted(monkeypatch):
    """From now on, one entry per ``_point_xy`` call and the records of every
    ``RecordTable`` built."""
    xy_calls, tables = [], []
    point_xy, init = engine._point_xy, RecordTable.__init__

    def counted_xy(pts):
        xy_calls.append(len(pts))
        return point_xy(pts)

    def built(self, records):
        records = list(records)
        tables.append(records)
        init(self, records)
    monkeypatch.setattr(engine, "_point_xy", counted_xy)
    monkeypatch.setattr(RecordTable, "__init__", built)
    return xy_calls, tables


QUERIES = {
    "select": lambda d: engine.select(d, ZONES[0], RES),
    "join": lambda d: engine.join(ZONES, d, RES, d1_layers=LAYERS),
    "distance_select": lambda d: engine.distance_select(d, SOURCE, 0.2, RES),
    "distance_join": lambda d: engine.distance_join(SOURCES, d, 0.1, RES),
    "aggregate count": lambda d: engine.aggregate(ZONES, d, "count", RES, layer_index=LAYERS),
    "aggregate sum": lambda d: engine.aggregate(ZONES, d, "sum", RES, layer_index=LAYERS),
}


@pytest.mark.parametrize("query", sorted(QUERIES))
def test_a_repeat_query_builds_no_columns_or_probe_table(monkeypatch, query):
    # A join's D2 holds no polylines.
    data = _data(lines=query != "join")
    ids = {id(rec) for rec in data}
    xy_calls, tables = _counted(monkeypatch)
    first = QUERIES[query](data)
    assert xy_calls and sum(any(id(r) in ids for r in t) for t in tables) == 1
    del xy_calls[:], tables[:]
    assert QUERIES[query](data) == first
    assert not xy_calls
    assert not any(id(r) in ids for t in tables for r in t)


def test_the_memo_keeps_the_most_recently_queried_lists():
    lists = [_data(lines=False)[:30] for _ in range(engine.RESIDENT_LISTS + 1)]
    for lst in lists[:-1]:
        engine.select(lst, ZONES[0], RES)
    # Query the oldest again: the second oldest is now the one to go.
    engine.select(lists[0], ZONES[0], RES)
    engine.select(lists[-1], ZONES[0], RES)
    assert len(engine._resident) <= engine.RESIDENT_LISTS
    assert id(lists[1]) not in engine._resident
    assert all(id(lst) in engine._resident for lst in [lists[0], *lists[2:]])


def test_tuples_and_generators(monkeypatch):
    data = _data(lines=True)
    tup = tuple(data)
    want = oracle.oracle_select(data, ZONES[0])
    assert list(engine.select(tup, ZONES[0], RES).ids) == want
    assert _entry(tup) is not None
    xy_calls, _ = _counted(monkeypatch)
    assert list(engine.select(tup, ZONES[0], RES).ids) == want
    assert not xy_calls
    # A generator is split for its one use and never kept.
    kept = set(engine._resident)
    assert list(engine.select((r for r in data), ZONES[0], RES).ids) == want
    got = engine.distance_join(SOURCES, iter(data), 0.1, RES).pairs
    assert list(got) == oracle.oracle_distance_join(SOURCES, data, 0.1)
    got = engine.aggregate(ZONES, iter(data), "sum", RES, layer_index=LAYERS).rows
    assert [(c, n) for c, n, _ in got] == [
        (c, n) for c, n, _ in oracle.oracle_aggregate(ZONES, data, "sum")]
    polys = [r for r in data if r.kind != "polyline"]
    got = engine.join(ZONES, iter(polys), RES, d1_layers=LAYERS).pairs
    assert list(got) == oracle.oracle_join(ZONES, polys)
    assert set(engine._resident) - kept <= {id(SOURCES)}


def test_projected_and_flipped_copies_stay_out_of_the_memo():
    r = gen.rng(33)
    data = (gen.uniform_points(r, 40, lo=-10.0, hi=10.0)
            + gen.random_polygons(r, 5, extent=10.0, start_id=100))
    kept = set(engine._resident)
    src = point_record(999, 0.0, 0.0)
    engine.distance_select(data, src, 2e5, RES, geographic=True)
    # The projected points are kept with the list's own entry, not as one,
    # and no projected polygon is kept at all.
    assert set(engine._resident) - kept == {id(data)}
    derived = vars(_entry(data)[3]).values()
    assert not any(isinstance(d, engine.Dataset) and d.others for d in derived)
    # Fewer D2 than D1 objects: the join flips, probing the sources. Both
    # lists are kept as themselves; no flipped copy is.
    got = engine.distance_join(data, SOURCES, 0.2, RES).pairs
    assert list(got) == oracle.oracle_distance_join(data, SOURCES, 0.2)
    assert set(engine._resident) - kept <= {id(SOURCES), id(data)}


def test_a_repeat_geographic_query_over_a_list_projects_no_point(monkeypatch):
    data = gen.uniform_points(gen.rng(38), 50, lo=2.0, hi=3.0)
    calls, project = [], engine.project_points_4326_to_3857

    def counted(xy):
        calls.append(len(xy))
        return project(xy)
    monkeypatch.setattr(engine, "project_points_4326_to_3857", counted)
    p, src = (2.5, 2.5), point_record(999, 2.4, 2.6)
    first = engine.knn_select(data, p, 5, geographic=True)
    near = engine.distance_select(data, src, 3e4, RES, geographic=True)
    assert calls == [50]
    assert engine.knn_select(data, p, 5, geographic=True) == first
    assert engine.distance_select(data, src, 3e4, RES, geographic=True) == near
    assert calls == [50]
    data.append(point_record(500, 2.5, 2.5))
    # Query point and data points take one projection path: distance 0.
    assert engine.knn_select(data, p, 5, geographic=True)[0] == (500, 0.0)
    assert calls == [50, 51]


def test_a_repeat_knn_over_a_list_prepares_no_points(monkeypatch):
    r = gen.rng(34)
    data, left = gen.uniform_points(r, 80), gen.uniform_points(r, 5)
    builds, _ = _counted(monkeypatch)
    p = (0.4, 0.6)
    first = engine.knn_select(data, p, 7)
    assert [i for i, _ in first] == [i for i, _ in oracle.oracle_knn_select(data, p, 7)]
    joined = engine.knn_join(left, data, 4)
    assert joined == oracle.oracle_knn_join(left, data, 4)
    assert len(builds) == 2
    assert engine.knn_select(data, p, 7) == first
    assert engine.knn_join(left, data, 4) == joined
    assert len(builds) == 2
    # A new nearest point is found at once.
    data.append(point_record(500, *p))
    assert engine.knn_select(data, p, 7)[0] == (500, 0.0)
    assert len(builds) == 3


def test_a_record_replaced_in_place_by_an_equal_one_is_still_checked():
    data = _data(lines=False)
    engine.select(data, ZONES[0], RES)
    old = _entry(data)
    rec = data[5]
    data[5] = GeometryRecord(rec.id, rec.kind, rec.geometry, rec.value)
    assert list(engine.select(data, ZONES[0], RES).ids) == oracle.oracle_select(data, ZONES[0])
    assert _entry(data) is not old
    assert np.array_equal(_entry(data)[3].xy, old[3].xy)


def test_threads_share_the_memo():
    """More threads than cores query more lists than the memo holds, with
    a short switch interval: every answer agrees with the oracle and no
    memo update is lost or raises."""
    lists = [_data(lines=False)[:20 + i] for i in range(engine.RESIDENT_LISTS + 4)]
    want = [oracle.oracle_select(lst, ZONES[0]) for lst in lists]
    errors = []

    def work(k):
        try:
            for j in range(30):
                i = (7 * k + j) % len(lists)
                got = list(engine.select(lists[i], ZONES[0], 16).ids)
                if got != want[i]:
                    errors.append((i, got))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)
    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(engine._resident) <= engine.RESIDENT_LISTS
    assert all(engine._holds(held, held[0]) for held in engine._resident.values())


def test_a_record_edit_is_seen_by_the_next_query():
    data = _data(lines=True)
    _check_all(data)
    entry, edit = _entry(data), record_edit()
    data[3].value = 123.0
    assert record_edit() != edit and not engine._holds(entry, data)
    _check_all(data)
    # A point moved onto the distance source, a polygon onto the zone.
    data[7].geometry = Point2(SOURCE.geometry.x, SOURCE.geometry.y)
    _check_all(data)
    x0, y0, x1, y1 = ZONES[0].bbox()
    moved = box_record(0, x0, y0, (x0 + x1) / 2, (y0 + y1) / 2)
    poly = next(rec for rec in data if rec.kind == "polygon")
    edge_table(poly)
    poly.geometry = moved.geometry
    assert np.array_equal(edge_table(poly)[0], edge_table(moved)[0])
    assert poly.id in engine.select(data, ZONES[0], RES).ids
    _check_all(data)
    assert engine._holds(_entry(data), data)


def test_lists_shorter_than_the_minimum_are_not_kept(monkeypatch):
    monkeypatch.setattr(engine, "RESIDENT_MIN_RECORDS", MIN_RECORDS)
    pts = gen.uniform_points(gen.rng(35), MIN_RECORDS)
    short = pts[:-1]
    engine.select(short, ZONES[0], RES)
    engine.distance_join(SOURCES, pts[:1], 0.1, RES)
    assert not engine._resident
    engine.select(pts, ZONES[0], RES)
    assert list(engine._resident) == [id(pts)]


def test_the_memo_keeps_an_estimated_byte_bound(monkeypatch):
    lists = [_data(lines=True) for _ in range(3)]
    size = engine._footprint(engine.Dataset(lists[0]))
    assert size >= engine._RECORD_BYTES * len(lists[0])
    monkeypatch.setattr(engine, "RESIDENT_BYTES", int(2.5 * size))
    for lst in lists:
        engine.select(lst, ZONES[0], RES)
    assert list(engine._resident) == [id(lst) for lst in lists[1:]]
    # A list estimated above the whole bound is answered but not kept.
    big = gen.uniform_points(gen.rng(37), 3 * size // engine._RECORD_BYTES)
    assert list(engine.select(big, ZONES[0], RES).ids) == oracle.oracle_select(big, ZONES[0])
    assert id(big) not in engine._resident
    assert list(engine._resident) == [id(lst) for lst in lists[1:]]


def test_a_dropped_list_is_released_once_evicted(monkeypatch):
    monkeypatch.setattr(engine, "RESIDENT_MIN_RECORDS", MIN_RECORDS)
    kept = [gen.uniform_points(gen.rng(36 + i), MIN_RECORDS)
            for i in range(engine.RESIDENT_LISTS)]
    engine.select(kept[0], ZONES[0], RES)  # warm the zone's own caches
    engine.clear_resident()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        big = gen.uniform_points(gen.rng(40), 20_000)
        probe = weakref.ref(big[0])
        engine.select(big, ZONES[0], RES)
        del big
        gc.collect()
        pinned = tracemalloc.get_traced_memory()[0] - base
        assert probe() is not None and pinned > 20_000 * 200
        for lst in kept:
            engine.select(lst, ZONES[0], RES)
        gc.collect()
        assert probe() is None
        assert tracemalloc.get_traced_memory()[0] - base < pinned / 4
    finally:
        tracemalloc.stop()


def test_clear_resident_releases_every_list():
    data = _data(lines=True)
    probe = weakref.ref(data[0])
    engine.select(data, ZONES[0], RES)
    del data
    gc.collect()
    assert probe() is not None
    engine.clear_resident()
    gc.collect()
    assert probe() is None and not engine._resident


def test_edits_in_one_thread_leave_no_stale_entry():
    """Threads aggregate over lists while another reassigns values in
    them: once all are done, every list's answer is its current one."""
    lists = [_data(lines=False) for _ in range(3)]
    errors, stop = [], threading.Event()

    def query(k):
        try:
            while not stop.is_set():
                engine.aggregate(ZONES, lists[k % 3], "sum", 16, layer_index=LAYERS)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    def edit():
        for j in range(300):
            lists[j % 3][j % 60].value = float(j)
        stop.set()
    threads = [threading.Thread(target=query, args=(k,)) for k in range(3)]
    threads.append(threading.Thread(target=edit))
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        stop.set()
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    for lst in lists:
        got = engine.aggregate(ZONES, lst, "sum", RES, layer_index=LAYERS).rows
        want = oracle.oracle_aggregate(ZONES, lst, "sum")
        assert [(c, n) for c, n, _ in got] == [(c, n) for c, n, _ in want]
        assert [s for _, _, s in got] == pytest.approx([s for _, _, s in want], rel=1e-12)
