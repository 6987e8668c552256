"""Every query takes its datasets in every form: a list, a tuple, a
generator, an ``engine.Dataset`` (a ``PreparedPoints`` for points), a
loaded store cell and, where the query projects, a ``geographic=True``
list. Each form gives the brute-force oracle's answer. A kNN query over
anything but points raises the same ``DataError`` in memory and out of
core, before any cell is loaded."""

import numpy as np
import pytest

import gen
from rasterquery import engine, oracle, storage
from rasterquery.canvas_index import build_layer_index
from rasterquery.config import Config
from rasterquery.errors import DataError
from rasterquery.geometry import (
    GeometryRecord,
    Point2,
    point_record,
    project_4326_to_3857,
    project_record_4326_to_3857,
)

RES = 64
CFG = Config(resolution=RES, byte_budget=1 << 20, cache_factor=1)
_r = gen.rng(41)


def _shuffled(records):
    return [records[i] for i in _r.permutation(len(records))]


def _valued(records):
    return [GeometryRecord(rec.id, rec.kind, rec.geometry, float(1 + rec.id % 7))
            for rec in records]


# Lists of at least ``RESIDENT_MIN_RECORDS`` records go through the memo,
# shorter ones do not; neither is in id order.
POINTS = _shuffled(gen.uniform_points(_r, 300, values=True))
LEFT = _shuffled([point_record(1000 + i, x, y) for i, (x, y)
                  in enumerate(_r.uniform(0.05, 0.95, (40, 2)))])
MIXED = _shuffled(_valued(gen.uniform_points(_r, 150)
                          + gen.random_polylines(_r, 75, start_id=150)
                          + gen.random_polygons(_r, 75, start_id=225)))
POLYS_AND_POINTS = [rec for rec in MIXED if rec.kind != "polyline"]
assert len(POINTS) >= engine.RESIDENT_MIN_RECORDS > len(LEFT)
DATA = {"points": POINTS, "left": LEFT, "mixed": MIXED, "polys+points": POLYS_AND_POINTS}

ZONES = gen.random_polygons(gen.rng(42), 6, radius_frac=0.2, start_id=900)
LAYERS = build_layer_index(ZONES)
SOURCE = point_record(950, 0.5, 0.5)
CENTRE = Point2(0.4, 0.6)
# Planar radii, and metres for the same data read as degrees.
RADIUS, RADIUS_M = 0.05, 6e3


def _projected(records):
    return [project_record_4326_to_3857(rec) for rec in records]


def _radius(geographic):
    return RADIUS_M if geographic else RADIUS


def _inputs(geographic, *sets):
    """The record lists the oracle reads: projected when ``geographic``."""
    return [_projected(s) if geographic else s for s in sets]


def _want_distance_select(geographic):
    data, [source] = _inputs(geographic, MIXED, [SOURCE])
    return oracle.oracle_distance_select(data, source, _radius(geographic))


def _want_knn_select(geographic):
    [pts] = _inputs(geographic, POINTS)
    return oracle.oracle_knn_select(pts, project_4326_to_3857(CENTRE) if geographic else CENTRE,
                                    7)


# name: (the records the form is made of, query of (data, geographic, store),
# oracle answer of geographic, whether the query projects).
CASES = {
    "select": (
        "mixed",
        lambda d, g, s: list(engine.select(d, ZONES[0], RES).ids),
        lambda g: oracle.oracle_select(MIXED, ZONES[0]), False),
    "join D2": (
        "polys+points",
        lambda d, g, s: list(engine.join(ZONES, d, RES, d1_layers=LAYERS).pairs),
        lambda g: oracle.oracle_join(ZONES, POLYS_AND_POINTS), False),
    "distance_select": (
        "mixed",
        lambda d, g, s: list(engine.distance_select(d, SOURCE, _radius(g), RES,
                                                    geographic=g).ids),
        _want_distance_select, True),
    "distance_join D1": (
        "left",
        lambda d, g, s: list(engine.distance_join(d, POINTS, _radius(g), RES,
                                                  geographic=g).pairs),
        lambda g: oracle.oracle_distance_join(*_inputs(g, LEFT, POINTS), _radius(g)), True),
    "distance_join D2": (
        "points",
        lambda d, g, s: list(engine.distance_join(LEFT, d, _radius(g), RES,
                                                  geographic=g).pairs),
        lambda g: oracle.oracle_distance_join(*_inputs(g, LEFT, POINTS), _radius(g)), True),
    "aggregate sum": (
        "mixed",
        lambda d, g, s: list(engine.aggregate(ZONES, d, "sum", RES, layer_index=LAYERS).rows),
        lambda g: oracle.oracle_aggregate(ZONES, MIXED, "sum"), False),
    "knn_select": (
        "points",
        lambda d, g, s: engine.knn_select(d, CENTRE, 7, geographic=g),
        _want_knn_select, True),
    "knn_join D1": (
        "left",
        lambda d, g, s: engine.knn_join(d, POINTS, 5, geographic=g),
        lambda g: oracle.oracle_knn_join(*_inputs(g, LEFT, POINTS), 5), True),
    "knn_join D2": (
        "points",
        lambda d, g, s: engine.knn_join(LEFT, d, 5, geographic=g),
        lambda g: oracle.oracle_knn_join(*_inputs(g, LEFT, POINTS), 5), True),
    "ooc_distance_join D1": (
        "left",
        lambda d, g, s: list(storage.ooc_distance_join(d, s, RADIUS, config=CFG).pairs),
        lambda g: oracle.oracle_distance_join(LEFT, POINTS, RADIUS), False),
    "ooc_knn_join D1": (
        "left",
        lambda d, g, s: storage.ooc_knn_join(d, s, 5, config=CFG),
        lambda g: oracle.oracle_knn_join(LEFT, POINTS, 5), False),
}
FORMS = ["list", "tuple", "generator", "Dataset", "PreparedPoints", "CellData", "geographic"]


def _applies(case, form):
    records, _, _, projects = CASES[case]
    if form == "PreparedPoints":
        return all(rec.kind == "point" for rec in DATA[records])
    return form != "geographic" or projects


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """A one-cell store of each record set, and ``points`` again in cells
    of at most 1 KiB for the out-of-core queries."""
    root = tmp_path_factory.mktemp("forms")
    for name, records in DATA.items():
        storage.build_indexes(storage.ingest(records, name.replace("+", "_"), root),
                              byte_budget=1 << 20, config=CFG)
    storage.build_indexes(storage.ingest(POINTS, "cells", root), byte_budget=1024, config=CFG)
    opened = {name: storage.DatasetStore(root, name.replace("+", "_"), CFG) for name in DATA}
    opened["cells"] = storage.DatasetStore(root, "cells", CFG)
    assert len(opened["cells"].grid_index().cells) > 4
    return opened


def _form(form, records, store):
    if form in ("list", "geographic"):
        return list(records)
    if form == "tuple":
        return tuple(records)
    if form == "generator":
        return (rec for rec in records)
    if form == "Dataset":
        return engine.Dataset(records)
    if form == "PreparedPoints":
        return engine.PreparedPoints(records)
    [cell] = store.grid_index().cells
    data = store.load_cell(cell)
    assert isinstance(data, storage.CellData) and len(data) == len(records)
    return data


def _same(got, want):
    """Equal answers; distances and sums to 1e-9 relative."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(a, tuple) and len(a) == 3:  # aggregation rows
            assert a[:2] == b[:2]
            assert a[2] == pytest.approx(b[2], rel=1e-9)
        elif isinstance(a, tuple) and isinstance(a[1], float):  # kNN (id, distance)
            assert a[0] == b[0]
            assert a[1] == pytest.approx(b[1], rel=1e-9)
        else:
            assert a == b


@pytest.mark.parametrize("case,form", [(c, f) for c in CASES for f in FORMS if _applies(c, f)])
def test_every_form_gives_the_oracle_answer(stores, case, form):
    records, query, want, _ = CASES[case]
    geographic = form == "geographic"
    data = _form(form, DATA[records], stores[records])
    expected = want(geographic)
    assert expected
    _same(query(data, geographic, stores["cells"]), expected)


# Per-source radii for a mixed D1 whose records are neither in id order
# nor grouped by kind, a polygon and a polyline before its first point.
SOURCES = [MIXED[i] for i in np.argsort([rec.kind == "point" for rec in MIXED[:40]],
                                        kind="stable")]
RADII = _r.uniform(0.01, 0.06, len(SOURCES)).tolist()
assert SOURCES[0].kind != "point" and SOURCES[-1].kind == "point"


@pytest.mark.parametrize("form", ["list", "tuple", "generator", "Dataset", "geographic"])
def test_per_source_radii_follow_the_d1_records(stores, form):
    geographic = form == "geographic"
    scale = 1.1e5 if geographic else 1.0  # metres a degree, near enough
    radii = [scale * r for r in RADII]
    want = oracle.oracle_distance_join(*_inputs(geographic, SOURCES, POINTS), radii)
    d1 = _form(form, SOURCES, None)
    got = engine.distance_join(d1, POINTS, radii, RES, geographic=geographic)
    assert list(got.pairs) == want
    if not geographic:
        d1 = _form(form, SOURCES, None)
        got = storage.ooc_distance_join(d1, stores["cells"], radii, config=CFG)
        assert list(got.pairs) == want


def test_a_repeated_query_over_a_dataset_gives_the_same_answer(stores):
    """A ``Dataset`` keeps what it builds, its projection included."""
    data = engine.Dataset(MIXED)
    for geographic in (False, True, False, True):
        _same(CASES["distance_select"][1](data, geographic, None),
              CASES["distance_select"][2](geographic))


@pytest.mark.parametrize("form", ["list", "Dataset"])
def test_ooc_knn_join_rejects_a_polygon_d1_before_loading_a_cell(stores, form):
    """The engine's kNN error, raised before any cell load."""
    polys = [rec for rec in MIXED if rec.kind == "polygon"][:3]
    d1 = engine.Dataset(polys) if form == "Dataset" else polys
    with pytest.raises(DataError) as in_memory:
        engine.knn_join(d1, POINTS, 2)
    store = storage.DatasetStore(stores["cells"].catalog.directory.parent, "cells", CFG)
    with pytest.raises(DataError) as out_of_core:
        storage.ooc_knn_join(d1, store, 2, config=CFG)
    assert str(out_of_core.value) == str(in_memory.value)
    assert store.bytes_transferred == 0


def test_prepared_points_takes_points_only():
    with pytest.raises(DataError):
        engine.PreparedPoints(MIXED)
    assert np.array_equal(np.sort(engine.PreparedPoints(POINTS).ids), np.arange(len(POINTS)))
