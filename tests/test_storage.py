"""Out-of-core queries over small on-disk stores agree with the brute-force
oracle, and reuse the layer indexes they already have."""

import pytest

import gen
from rasterquery import canvas_index, engine, optimizer, oracle, storage
from rasterquery.config import Config
from rasterquery.geometry import GeometryRecord, Point2, point_record

CFG = Config(resolution=64, byte_budget=1 << 20, cache_factor=1)
R = 0.07


class Stores:
    """A point store of 16 cells and two overlapping polygon stores."""

    def __init__(self, root):
        r = gen.rng(5)
        self.points = gen.uniform_points(r, 600, values=True)
        self.a = gen.random_polygons(r, 24, radius_frac=0.08)
        self.b = gen.random_polygons(r, 24, radius_frac=0.08, start_id=100)
        self.hoods = [GeometryRecord(200 + i, "polygon", [gen.concave_polygon(r, c, 0.2)])
                      for i, c in enumerate([(0.3, 0.3), (0.72, 0.3), (0.5, 0.75)])]
        for name, recs, budget in (("points", self.points, 4096),
                                   ("a", self.a, 12 * 1024), ("b", self.b, 12 * 1024)):
            storage.build_indexes(storage.ingest(recs, name, root), byte_budget=budget,
                                  config=CFG)
        self.sp, self.sa, self.sb = (storage.DatasetStore(root, name, CFG)
                                     for name in ("points", "a", "b"))


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    return Stores(tmp_path_factory.mktemp("stores"))


def test_stores_have_several_cells(stores):
    assert len(stores.sp.grid_index().cells) >= 4
    assert len(stores.sa.grid_index().cells) >= 2
    assert len(stores.sb.grid_index().cells) >= 2


def test_ooc_select(stores):
    cons = gen.concave_polygon(gen.rng(6), center=(0.45, 0.55), radius=0.3)
    got = storage.ooc_select(stores.sp, cons, config=CFG).ids
    assert list(got) == oracle.oracle_select(stores.points, cons)


@pytest.mark.parametrize("where", [(0.5, 0.5), (0.1, 0.9)])
def test_ooc_distance_select(stores, where):
    src = point_record(0, *where)
    r = gen.clear_distance_fixture(gen.rng(0), src, stores.points, 0.2)
    got = storage.ooc_distance_select(stores.sp, src, r, config=CFG).ids
    assert list(got) == oracle.oracle_distance_select(stores.points, src, r)


@pytest.mark.parametrize("k", [1, 7, 40])
def test_ooc_knn_select(stores, k):
    p = Point2(0.37, 0.61)
    got = storage.ooc_knn_select(stores.sp, p, k, config=CFG)
    want = oracle.oracle_knn_select(stores.points, p, k)
    assert [i for i, _ in got] == [i for i, _ in want]
    assert [d for _, d in got] == pytest.approx([d for _, d in want])


def test_ooc_distance_join(stores):
    srcs = [point_record(900 + i, x, y) for i, (x, y) in
            enumerate([(0.2, 0.2), (0.5, 0.5), (0.8, 0.3)])]
    got = storage.ooc_distance_join(srcs, stores.sp, R, config=CFG).pairs
    assert list(got) == oracle.oracle_distance_join(srcs, stores.points, R)


def test_ooc_knn_join(stores):
    left = [point_record(900 + i, x, y) for i, (x, y) in enumerate([(0.25, 0.5), (0.7, 0.7)])]
    got = storage.ooc_knn_join(left, stores.sp, 5, config=CFG)
    assert got == oracle.oracle_knn_join(left, stores.points, 5)


@pytest.mark.parametrize("mode", ["count", "sum"])
def test_ooc_aggregate(stores, mode):
    got = storage.ooc_aggregate(stores.hoods, stores.sp, mode, config=CFG).rows
    want = oracle.oracle_aggregate(stores.hoods, stores.points, mode)
    assert [(c, n) for c, n, _ in got] == [(c, n) for c, n, _ in want]
    if mode == "sum":
        assert [s for _, _, s in got] == pytest.approx([s for _, _, s in want])


@pytest.mark.parametrize("strategy", [optimizer.NAIVE_LOOP, optimizer.LAYER_INDEX])
def test_ooc_join_both_strategies(stores, strategy):
    got = storage.ooc_join(stores.sa, stores.sb, config=CFG, force_strategy=strategy)
    assert sorted(set(got.pairs)) == oracle.oracle_join(stores.a, stores.b)


def _count_layer_builds(monkeypatch) -> list:
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return canvas_index.build_layer_index(*args, **kwargs)
    monkeypatch.setattr(storage, "build_layer_index", counted)
    monkeypatch.setattr(engine, "build_layer_index", counted)
    return calls


def test_repeated_ooc_join_builds_no_layer_index(stores, monkeypatch):
    want = storage.ooc_join(stores.sa, stores.sb, config=CFG).pairs
    calls = _count_layer_builds(monkeypatch)
    assert storage.ooc_join(stores.sa, stores.sb, config=CFG).pairs == want
    assert calls == []


def test_ooc_aggregate_builds_one_constraint_layer_index(stores, monkeypatch):
    index = stores.sp.grid_index()
    cells = {c.key for cons in stores.hoods
             for c in storage.filter_select(index, cons, config=CFG)}
    assert len(cells) >= 2
    calls = _count_layer_builds(monkeypatch)
    storage.ooc_aggregate(stores.hoods, stores.sp, "count", config=CFG)
    assert len(calls) == 1


def test_ooc_aggregate_indexes_constraints_at_the_count_resolution(stores, monkeypatch):
    cfg = Config(resolution=1024, byte_budget=1 << 20, cache_factor=1)
    seen = []

    def recorded(records, **kwargs):
        seen.append(kwargs.get("resolution"))
        return canvas_index.build_layer_index(records, **kwargs)
    monkeypatch.setattr(storage, "build_layer_index", recorded)
    got = storage.ooc_aggregate(stores.hoods, stores.sp, "count", config=cfg).rows
    assert seen == [engine.count_resolution(cfg)] == [128]
    assert list(got) == oracle.oracle_aggregate(stores.hoods, stores.points, "count")


def test_filter_distance_renders_no_canvas(stores, monkeypatch):
    index = stores.sp.grid_index()
    src = point_record(0, 0.3, 0.6)
    want = [index.cells[i] for i in oracle.oracle_distance_select(index.hull_records(), src, R)]
    assert 0 < len(want) < len(index.cells)

    def forbidden(*args, **kwargs):
        raise AssertionError("filter_distance rendered a canvas")
    monkeypatch.setattr(engine, "_distance_matcher", forbidden)
    assert storage.filter_distance(index, src, R) == want


def test_cell_layers_are_decoded_only_by_joins(stores, monkeypatch):
    decoded = []
    decode = storage._deserialize_layers

    def counted(blob):
        decoded.append(1)
        return decode(blob)
    monkeypatch.setattr(storage, "_deserialize_layers", counted)
    root = stores.sp.catalog.directory.parent
    sp, sa, sb = (storage.DatasetStore(root, name, CFG) for name in ("points", "a", "b"))
    cons = gen.concave_polygon(gen.rng(6), center=(0.45, 0.55), radius=0.3)
    assert list(storage.ooc_select(sp, cons, config=CFG).ids) == \
        oracle.oracle_select(stores.points, cons)
    storage.ooc_aggregate(stores.hoods, sp, "count", config=CFG)
    assert decoded == []
    got = storage.ooc_join(sa, sb, config=CFG).pairs
    assert sorted(set(got)) == oracle.oracle_join(stores.a, stores.b)
    assert decoded
