"""``geometry.RecordTable`` flattens a record list exactly as the records'
own ``edge_table`` and ``bbox`` describe them, and each query builds one
table per probe part and one for its canvases, each canvas's rows gathered
from it, while a store's hull table is built once and its cells' tables are
decoded with no build."""

import numpy as np
import pytest

import gen
from rasterquery import canvas, canvas_index, engine, geometry, storage
from rasterquery.config import Config
from rasterquery.geometry import (
    GeometryRecord,
    RecordTable,
    edge_table,
    line_record,
    point_record,
    polygon_record,
)


def _multipart(rid):
    return polygon_record(rid, [gen.holed_polygon((0.3, 0.3), 0.2),
                                gen.concave_polygon(gen.rng(3), (0.75, 0.7), 0.15),
                                gen.holed_polygon((0.3, 0.75), 0.1)])


def _lists() -> dict:
    r = gen.rng(8)
    return {
        "points": gen.uniform_points(r, 7),
        "polylines": gen.random_polylines(r, 5, nseg=4),
        "multipart polygons with holes": [_multipart(0), _multipart(1)],
        "mixed": gen.mixed_dataset(r, 30) + [_multipart(100)],
        "single point": [point_record(4, 0.25, -3.5)],
        "empty": [],
    }


def _own_edges(rec) -> tuple:
    """(edges, parts) of one record as its own ``edge_table`` gives them,
    a point as one zero-length edge of part 0."""
    if rec.kind == "point":
        p = rec.geometry
        return np.array([[p.x, p.y, p.x, p.y]]), np.zeros(1, dtype=np.int64)
    return edge_table(rec)


def _assert_describes(t: RecordTable, recs):
    assert len(t) == len(recs) and t.records == recs
    assert t.ids.tolist() == [rec.id for rec in recs]
    assert t.kinds.tolist() == [["point", "polyline", "polygon"].index(rec.kind)
                                for rec in recs]
    assert t.start[0] == 0 and t.part_start[0] == 0
    assert t.boxes.shape == (len(recs), 4) and t.edges.shape == (t.start[-1], 4)
    for k, rec in enumerate(recs):
        edges, parts = _own_edges(rec)
        lo, hi = t.start[k], t.start[k + 1]
        assert np.array_equal(t.edges[lo:hi], edges)
        assert np.array_equal(t.part[lo:hi] - t.part_start[k], parts)
        assert t.part_start[k + 1] - t.part_start[k] == parts[-1] + 1
        assert tuple(t.boxes[k]) == rec.bbox()
        assert (t.rank[lo:hi] == k).all()
    # Part ordinals are unique across the table: each part's rows are one
    # contiguous run, and ``part_edges`` gives it.
    assert np.array_equal(t.part_edges, np.r_[np.flatnonzero(np.diff(t.part, prepend=-1)),
                                              len(t.edges)])
    # Values, NaN for none, and rings: a polygon's rings, one ring for any
    # other record.
    np.testing.assert_array_equal(t.values, [np.nan if rec.value is None else rec.value
                                             for rec in recs])
    rings = [len(ring) for rec in recs
             for ring in ([r for p in rec.geometry for r in p.rings] if rec.kind == "polygon"
                          else [_own_edges(rec)[0]])]
    assert np.diff(t.ring_start).tolist() == rings and t.ring_start[0] == 0


@pytest.mark.parametrize("name", sorted(_lists()))
def test_table_matches_per_record_edge_tables_and_bboxes(name):
    recs = _lists()[name]
    _assert_describes(RecordTable(recs), recs)


@pytest.mark.parametrize("name", sorted(_lists()))
def test_take_equals_a_table_of_the_taken_records(name):
    recs = _lists()[name]
    t = RecordTable(recs)
    for ranks in ([], list(range(len(recs)))[::-2], [len(recs) - 1, 0] if recs else []):
        _assert_describes(t.take(ranks), [recs[r] for r in ranks])


@pytest.mark.parametrize("n", [0, 1, 40])
def test_a_points_only_table_equals_a_mixed_build(n):
    """An all-point table (a point source, an empty table) has the arrays,
    dtypes included, of the same points stacked beside a polyline."""
    pts = gen.uniform_points(gen.rng(11), n)
    got = RecordTable(pts)
    _assert_describes(got, pts)
    want = RecordTable(gen.random_polylines(gen.rng(12), 1, start_id=n) + pts).take(
        np.arange(1, n + 1))
    for name in ("ids", "kinds", "values", "start", "edges", "rank", "part", "part_start",
                 "ring_start", "boxes", "part_edges"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name


def test_reassigned_polyline_geometry_is_flattened_anew():
    """Reassigning a record's geometry drops its cached segments with its
    other derived arrays, so a later table holds the new segments."""
    rec = line_record(1, [(0.0, 0.0), (1.0, 1.0)])
    assert RecordTable([rec]).edges.tolist() == [[0.0, 0.0, 1.0, 1.0]]
    rec.geometry = line_record(1, [(5.0, 5.0), (6.0, 7.0)]).geometry
    assert RecordTable([rec]).edges.tolist() == [[5.0, 5.0, 6.0, 7.0]]


def test_points_in_parts_reads_polygon_parts_only():
    recs = [point_record(0, 0.3, 0.3), _multipart(1),
            GeometryRecord(2, "polyline", _lists()["polylines"][0].geometry)]
    t = RecordTable(recs)
    xy = np.array([[0.3, 0.3], [0.3, 0.3], [0.3, 0.3], [0.75, 0.7], [0.5, 0.5]])
    got = geometry.points_in_parts(xy, np.array([0, 2, 1, 1, 1]), t)
    want = [False, False, *(geometry.points_in_record(xy[2:], recs[1]))]
    assert got.tolist() == want


# ---------------------------------------------------------------------------
# Builds per query
# ---------------------------------------------------------------------------

def _count(monkeypatch) -> tuple:
    """(builds, canvases): from now on, the record list of every table the
    one builder makes and one entry per canvas rendered."""
    builds, canvases = [], []
    init = RecordTable.__init__
    render, finalize = canvas.render_geometry_canvas, canvas.DistanceCanvasBuilder.finalize

    def built(self, records):
        records = list(records)
        builds.append(records)
        init(self, records)

    def rendered(*args):
        canvases.append(1)
        return render(*args)

    def finalized(self):
        canvases.append(1)
        return finalize(self)
    monkeypatch.setattr(RecordTable, "__init__", built)
    monkeypatch.setattr(canvas, "render_geometry_canvas", rendered)
    monkeypatch.setattr(canvas.DistanceCanvasBuilder, "finalize", finalized)
    return builds, canvases


@pytest.fixture(scope="module")
def mixed():
    r = gen.rng(9)
    data = gen.mixed_dataset(r, 80)
    zones = gen.random_polygons(r, 12, radius_frac=0.15, start_id=500)
    return data, zones, canvas_index.build_layer_index(zones)


@pytest.mark.parametrize("query", ["select", "join", "aggregate", "distance_select"])
def test_one_table_per_probe_part_and_per_canvas(mixed, monkeypatch, query):
    data, zones, layers = mixed
    assert layers.layer_count > 1
    # A fresh list per query: a list kept resident by an earlier query
    # would build no probe table.
    data = [rec for rec in data if query != "join" or rec.kind != "polyline"]
    run = {
        "select": lambda: engine.select(data, zones[0], resolution=64),
        "join": lambda: engine.join(zones, data, resolution=64, d1_layers=layers),
        "aggregate": lambda: engine.aggregate(zones, data, resolution=64, layer_index=layers),
        "distance_select": lambda: engine.distance_select(data, data[3], 0.1, resolution=64),
    }[query]
    builds, canvases = _count(monkeypatch)
    run()
    assert canvases
    # The probes' table and the constraint side's: every canvas takes its
    # layer's rows of the latter (``RecordTable.take``).
    assert len(builds) == 2
    others = [rec.id for rec in data if rec.kind != "point"]
    assert [[rec.id for rec in b] for b in builds].count(others) == 1


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("hull_tables")
    r = gen.rng(10)
    cfg = Config(resolution=64, byte_budget=1 << 20, cache_factor=1)
    for name, recs, budget in (("mixed", gen.mixed_dataset(r, 300), 3072),
                               ("a", gen.random_polygons(r, 24, radius_frac=0.08), 3584),
                               ("b", gen.random_polygons(r, 24, radius_frac=0.08,
                                                         start_id=100), 3584)):
        storage.build_indexes(storage.ingest(recs, name, root), byte_budget=budget, config=cfg)
    return root, cfg


@pytest.mark.parametrize("query", ["ooc_select", "ooc_aggregate", "ooc_distance_select",
                                   "ooc_join"])
def test_store_hull_table_is_built_once(store_dir, monkeypatch, query):
    root, cfg = store_dir
    stores = {name: storage.DatasetStore(root, name, cfg) for name in ("mixed", "a", "b")}
    cons = gen.concave_polygon(gen.rng(6), center=(0.45, 0.55), radius=0.3)
    hoods = gen.random_polygons(gen.rng(7), 3, radius_frac=0.2, start_id=900)
    run = {
        "ooc_select": lambda: storage.ooc_select(stores["mixed"], cons, config=cfg),
        "ooc_aggregate": lambda: storage.ooc_aggregate(hoods, stores["mixed"], config=cfg),
        "ooc_distance_select": lambda: storage.ooc_distance_select(
            stores["mixed"], point_record(0, 0.4, 0.4), 0.15, config=cfg),
        "ooc_join": lambda: storage.ooc_join(stores["a"], stores["b"], config=cfg),
    }[query]
    used = ("a", "b") if query == "ooc_join" else ("mixed",)
    assert all(len(stores[name].grid_index().cells) > 1 for name in used)
    builds, _ = _count(monkeypatch)
    for _ in range(3):
        run()
    hulls = {id(h) for name in used for h in stores[name].grid_index().hulls().records}
    assert sum(any(id(rec) in hulls for rec in b) for b in builds) == len(used)
    # The rest are the constraint or source tables of each run; no loaded
    # cell builds one.
    per_run = {"ooc_select": 2, "ooc_aggregate": 1, "ooc_distance_select": 1, "ooc_join": 0}
    assert len(builds) == len(used) + 3 * per_run[query]
