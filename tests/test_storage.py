"""Out-of-core queries over small on-disk stores agree with the brute-force
oracle, and reuse the layer indexes they already have."""

import math

import numpy as np
import pytest

import gen
from rasterquery import canvas, canvas_index, engine, optimizer, oracle, storage
from rasterquery.config import Config
from rasterquery.errors import DataError
from rasterquery.geometry import (
    GeometryRecord,
    Point2,
    RecordTable,
    box_record,
    geometry_distance,
    line_record,
    pairwise_intersects,
    point_record,
    polygon_distances,
    polygon_from_rings,
)

CFG = Config(resolution=64, byte_budget=1 << 20, cache_factor=1)
R = 0.07
# The query resolutions the oracle tests over the 64-cell store run at.
RESOLUTIONS = (16, 64, 1024)


class Stores:
    """A point store of 64 cells and two overlapping polygon stores of 4
    cells each."""

    def __init__(self, root):
        self.root = root
        r = gen.rng(5)
        self.points = gen.uniform_points(r, 600, values=True)
        self.a = gen.random_polygons(r, 24, radius_frac=0.08)
        self.b = gen.random_polygons(r, 24, radius_frac=0.08, start_id=100)
        self.hoods = [GeometryRecord(200 + i, "polygon", [gen.concave_polygon(r, c, 0.2)])
                      for i, c in enumerate([(0.3, 0.3), (0.72, 0.3), (0.5, 0.75)])]
        for name, recs, budget in (("points", self.points, 1536),
                                   ("a", self.a, 3584), ("b", self.b, 3584)):
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
    for res in RESOLUTIONS:
        got = storage.ooc_select(stores.sp, cons, resolution=res, config=CFG).ids
        assert list(got) == oracle.oracle_select(stores.points, cons), res


@pytest.mark.parametrize("where", [(0.5, 0.5), (0.1, 0.9)])
def test_ooc_distance_select(stores, where):
    src = point_record(0, *where)
    r = gen.clear_distance_fixture(gen.rng(0), src, stores.points, 0.2)
    for res in RESOLUTIONS:
        got = storage.ooc_distance_select(stores.sp, src, r, resolution=res, config=CFG).ids
        assert list(got) == oracle.oracle_distance_select(stores.points, src, r), res


@pytest.mark.parametrize("k", [1, 7, 40])
def test_ooc_knn_select(stores, k):
    p = Point2(0.37, 0.61)
    want = oracle.oracle_knn_select(stores.points, p, k)
    got = storage.ooc_knn_select(stores.sp, p, k, config=CFG)
    assert [i for i, _ in got] == [i for i, _ in want]
    assert [d for _, d in got] == pytest.approx([d for _, d in want])


def test_ooc_distance_join(stores):
    srcs = [point_record(900 + i, x, y) for i, (x, y) in
            enumerate([(0.2, 0.2), (0.5, 0.5), (0.8, 0.3)])]
    for res in RESOLUTIONS:
        got = storage.ooc_distance_join(srcs, stores.sp, R, resolution=res, config=CFG).pairs
        assert list(got) == oracle.oracle_distance_join(srcs, stores.points, R), res


def test_ooc_knn_join(stores):
    left = [point_record(900 + i, x, y) for i, (x, y) in enumerate([(0.25, 0.5), (0.7, 0.7)])]
    got = storage.ooc_knn_join(left, stores.sp, 5, config=CFG)
    assert got == oracle.oracle_knn_join(left, stores.points, 5)


@pytest.mark.parametrize("mode", ["count", "sum"])
def test_ooc_aggregate(stores, mode):
    want = oracle.oracle_aggregate(stores.hoods, stores.points, mode)
    for res in RESOLUTIONS:
        got = storage.ooc_aggregate(stores.hoods, stores.sp, mode, resolution=res,
                                    config=CFG).rows
        assert [(c, n) for c, n, _ in got] == [(c, n) for c, n, _ in want], res
        if mode == "sum":
            assert [s for _, _, s in got] == pytest.approx([s for _, _, s in want])


# ---------------------------------------------------------------------------
# The out-of-core probe loop: checks first, each canvas rendered once, each
# kept cell loaded once, no public engine query per cell
# ---------------------------------------------------------------------------

NEAR, FAR_SRC = point_record(0, 0.5, 0.5), point_record(0, 5.0, 5.0)
OFF_GRID = [box_record(300, 4.0, 4.0, 4.5, 4.5)]


@pytest.mark.parametrize("ooc, twin", [
    (lambda s: storage.ooc_distance_select(s, NEAR, -1.0, config=CFG),
     lambda d: engine.distance_select(d, NEAR, -1.0, config=CFG)),
    (lambda s: storage.ooc_distance_select(s, FAR_SRC, 0.0, config=CFG),
     lambda d: engine.distance_select(d, FAR_SRC, 0.0, config=CFG)),
    (lambda s: storage.ooc_distance_join([NEAR], s, -1.0, config=CFG),
     lambda d: engine.distance_join([NEAR], d, -1.0, config=CFG)),
    (lambda s: storage.ooc_aggregate(OFF_GRID, s, "avg", config=CFG),
     lambda d: engine.aggregate(OFF_GRID, d, "avg", config=CFG)),
    (lambda s: storage.ooc_knn_join([], s, 0, config=CFG),
     lambda d: engine.knn_join([], d, 0, config=CFG)),
    (lambda s: storage.ooc_distance_select(s, NEAR, math.inf, config=CFG),
     lambda d: engine.distance_select(d, NEAR, math.inf, config=CFG)),
    (lambda s: storage.ooc_distance_join([NEAR], s, [math.inf], config=CFG),
     lambda d: engine.distance_join([NEAR], d, [math.inf], config=CFG)),
], ids=["distance_select-negative-r", "distance_select-zero-r-far", "distance_join-negative-r",
        "aggregate-unknown-mode-off-grid", "knn_join-zero-k-no-left", "distance_select-inf-r",
        "distance_join-inf-r"])
def test_ooc_rejects_what_the_engine_rejects(stores, ooc, twin):
    """Each query checks its inputs before it filters cells, so a filter
    that keeps no cell does not hide a bad input, and before it loads one,
    so a bad input reads no byte (the store is opened afresh, its cache
    cold)."""
    with pytest.raises(DataError):
        twin(stores.points)
    store = storage.DatasetStore(stores.root, "points", CFG)
    before = store.bytes_transferred
    with pytest.raises(DataError):
        ooc(store)
    assert store.bytes_transferred == before


def _ooc_cases(s) -> dict:
    """Per ``ooc_*`` family: (query, the cells it needs, the canvases one
    query renders). kNN needs the cells whose hull lies within a centre's
    k-th distance, and renders none."""
    index = s.sp.grid_index()
    cons = gen.concave_polygon(gen.rng(6), center=(0.45, 0.55), radius=0.3)
    srcs = [point_record(900 + i, x, y) for i, (x, y) in
            enumerate([(0.2, 0.2), (0.5, 0.5), (0.8, 0.3)])]
    p = Point2(0.37, 0.61)
    left = [point_record(900 + i, x, y) for i, (x, y) in enumerate([(0.25, 0.5), (0.7, 0.7)])]

    def within_kth(src, k):
        kth = oracle.oracle_knn_select(s.points, src.geometry, k)[-1][1]
        return storage.filter_distance(index, src, kth)

    def union(kept):
        return sorted({c.key for cells in kept for c in cells})
    return {
        "select": (lambda: storage.ooc_select(s.sp, cons, config=CFG),
                   union([storage.filter_select(index, cons)]), 1),
        "distance_select": (lambda: storage.ooc_distance_select(s.sp, NEAR, 0.2, config=CFG),
                            union([storage.filter_distance(index, NEAR, 0.2)]), 1),
        "distance_join": (lambda: storage.ooc_distance_join(srcs, s.sp, R, config=CFG),
                          union([storage.filter_distance(index, rec, R) for rec in srcs]),
                          canvas_index.build_distance_layer_index(
                              RecordTable(srcs), [R] * 3).layer_count),
        "knn_select": (lambda: storage.ooc_knn_select(s.sp, p, 40, config=CFG),
                       union([within_kth(point_record(0, p.x, p.y), 40)]), 0),
        "knn_join": (lambda: storage.ooc_knn_join(left, s.sp, 5, config=CFG),
                     union([within_kth(rec, 5) for rec in left]), 0),
        "aggregate": (lambda: storage.ooc_aggregate(s.hoods, s.sp, "sum", config=CFG),
                      union([storage.filter_select(index, h) for h in s.hoods]),
                      canvas_index.build_layer_index(s.hoods).layer_count),
    }


def _record_work(monkeypatch) -> tuple:
    """(renders, loads): from now on, one entry per canvas rendered and the
    key of each cell loaded."""
    renders, loads = [], []
    render, finalize = canvas.render_geometry_canvas, canvas.DistanceCanvasBuilder.finalize
    load = storage.DatasetStore.load_cell

    def rendered(*args, **kwargs):
        renders.append("polygons")
        return render(*args, **kwargs)

    def finalized(self):
        renders.append("buffers")
        return finalize(self)

    def loaded(self, cell):
        loads.append(cell.key)
        return load(self, cell)
    monkeypatch.setattr(canvas, "render_geometry_canvas", rendered)
    monkeypatch.setattr(canvas.DistanceCanvasBuilder, "finalize", finalized)
    monkeypatch.setattr(storage.DatasetStore, "load_cell", loaded)
    return renders, loads


FAMILIES = ["select", "distance_select", "distance_join", "knn_select", "knn_join", "aggregate"]


@pytest.mark.parametrize("family", FAMILIES)
def test_ooc_renders_each_canvas_once_and_loads_kept_cells_once(stores, monkeypatch, family):
    query, kept, canvases = _ooc_cases(stores)[family]
    assert len(kept) >= 2
    renders, loads = _record_work(monkeypatch)
    query()
    assert len(renders) == canvases
    assert sorted(loads) == kept


@pytest.mark.parametrize("family", ["select", "distance_select", "distance_join", "aggregate"])
def test_ooc_renders_nothing_when_no_cell_is_kept(stores, monkeypatch, family):
    query = {
        "select": lambda: storage.ooc_select(stores.sp, OFF_GRID[0], config=CFG).ids,
        "distance_select": lambda: storage.ooc_distance_select(stores.sp, FAR_SRC, 0.1,
                                                               config=CFG).ids,
        "distance_join": lambda: storage.ooc_distance_join([FAR_SRC], stores.sp, 0.1,
                                                           config=CFG).pairs,
        "aggregate": lambda: storage.ooc_aggregate(OFF_GRID, stores.sp, "count",
                                                   config=CFG).rows,
    }[family]
    renders, loads = _record_work(monkeypatch)
    assert query() == ()
    assert renders == [] and loads == []


def test_ooc_queries_run_no_public_engine_query(stores, monkeypatch):
    """Out-of-core queries share the engine's probe loop; none of them runs
    a public engine query per cell."""
    queries = [query for query, _, _ in _ooc_cases(stores).values()]
    queries.append(lambda: storage.ooc_join(stores.sa, stores.sb, config=CFG))

    def forbidden(*args, **kwargs):
        raise AssertionError("an ooc_* query ran a public engine query")
    for name in ("select", "distance_select", "distance_join", "aggregate", "knn_select",
                 "knn_join", "join"):
        monkeypatch.setattr(engine, name, forbidden)
    for query in queries:
        query()


@pytest.mark.parametrize("strategy", [optimizer.LAYER_INDEX])
def test_ooc_join_both_strategies(stores, strategy):
    """Of the paper's two load strategies the layer index is the one left:
    the join over the shared stores names it and agrees with the oracle."""
    explain: list = []
    got = storage.ooc_join(stores.sa, stores.sb, config=CFG, explain=explain)
    assert f"join_strategy: {strategy}" in explain
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
             for c in storage.filter_select(index, cons)}
    assert len(cells) >= 2
    calls = _count_layer_builds(monkeypatch)
    storage.ooc_aggregate(stores.hoods, stores.sp, "count", config=CFG)
    assert len(calls) == 1


def test_ooc_aggregate_at_full_resolution_agrees_with_oracle(stores):
    cfg = Config(resolution=1024, byte_budget=1 << 20, cache_factor=1)
    got = storage.ooc_aggregate(stores.hoods, stores.sp, "count", config=cfg).rows
    assert list(got) == oracle.oracle_aggregate(stores.hoods, stores.points, "count")


def test_filter_distance_renders_no_canvas(stores, monkeypatch):
    index = stores.sp.grid_index()
    src = point_record(0, 0.3, 0.6)
    want = [index.cells[i] for i in oracle.oracle_distance_select(index.hulls().records, src, R)]
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


# ---------------------------------------------------------------------------
# Hull filters: exact kernels, checked against all-pairs exact tests
# ---------------------------------------------------------------------------

def _touching_constraints(index):
    """A polygon meeting the first hull at one vertex only, and one sharing
    part of its first edge only, both outside it."""
    ring = index.cells[0].hull.rings[0]
    (px, py), (qx, qy) = ring[0], ring[1]
    nx, ny = qy - py, px - qx  # outward normal of the CCW edge p -> q
    at_vertex = [(px, py), (px + nx - 0.1 * ny, py + ny + 0.1 * nx),
                 (px + nx + 0.1 * ny, py + ny - 0.1 * nx)]
    along_edge = [(px, py), (qx, qy), (qx + 0.1 * nx, qy + 0.1 * ny), (px + 0.1 * nx, py + 0.1 * ny)]
    return [GeometryRecord(0, "polygon", [polygon_from_rings([ring])])
            for ring in (at_vertex, along_edge)]


def test_filter_select_equals_exact_hull_checks(stores):
    index = stores.sp.grid_index()
    hulls = index.hulls().records
    cons = [GeometryRecord(0, "polygon", [gen.concave_polygon(gen.rng(s), (0.45, 0.55), 0.3)])
            for s in range(3)] + _touching_constraints(index)
    for c in cons:
        want = [index.cells[h.id] for h in hulls if pairwise_intersects(c, h)]
        assert storage.filter_select(index, c) == want
    for c in cons[-2:]:
        assert index.cells[0] in storage.filter_select(index, c)


def test_filter_join_equals_exact_hull_checks(stores):
    ia, ib = stores.sa.grid_index(), stores.sb.grid_index()
    want = [(ia.cells[a.id], ib.cells[b.id]) for a in ia.hulls().records
            for b in ib.hulls().records if pairwise_intersects(a, b)]
    assert storage.filter_join(ia, ib) == want
    assert want


@pytest.mark.parametrize("src", [point_record(0, 0.3, 0.6), point_record(0, 1.4, -0.2),
                                 line_record(0, [(1.2, 1.1), (1.3, 1.5)]),
                                 box_record(0, 1.1, 0.2, 1.3, 0.4)],
                         ids=["point inside", "point outside", "polyline", "polygon"])
def test_filter_distance_equals_per_hull_distances(stores, src):
    index = stores.sp.grid_index()
    want = [geometry_distance(src, h) for h in index.hulls().records]
    assert polygon_distances(src, index.hulls()).tolist() == want
    for k, d in enumerate(want):
        if d > 0:
            assert index.cells[k] in storage.filter_distance(index, src, d)
            assert index.cells[k] not in storage.filter_distance(index, src, np.nextafter(d, 0))


# ---------------------------------------------------------------------------
# Out-of-core join: the layer-index plan, each A cell loaded once and its B
# cells pruned by its polygons, every kept A cell's layers rendered once
# ---------------------------------------------------------------------------

# The ids name a coarse (4 cells a store) and a fine (15 and 11 cells) grid;
# they keep the budgets' earlier values so that test ids stay stable.
@pytest.fixture(scope="module", params=[3584, 1024], ids=["12k", "4k"])
def join_stores(stores, request):
    root = stores.sa.catalog.directory.parent / f"join{request.param}"
    for name, recs in (("a", stores.a), ("b", stores.b)):
        storage.build_indexes(storage.ingest(recs, name, root), byte_budget=request.param,
                              config=CFG)
    sa, sb = (storage.DatasetStore(root, name, CFG) for name in ("a", "b"))
    assert len(sa.grid_index().cells) >= 4 and len(sb.grid_index().cells) >= 4
    return sa, sb


def _fresh(store):
    """The store opened again: a cold cache and no byte counted."""
    return storage.DatasetStore(store.catalog.directory.parent, store.catalog.name, CFG)


def _met_pairs(sa, sb) -> list:
    """The hull-filtered (A cell, B cell) pairs, A-cell-major, where some
    polygon of the A cell meets the B cell's hull, by all-pairs exact
    tests over a separate pair of stores."""
    sa, sb = _fresh(sa), _fresh(sb)
    hulls = {cb.key: GeometryRecord(0, "polygon", [cb.hull]) for cb in sb.grid_index().cells}
    return [(ca, cb) for ca, cb in storage.filter_join(sa.grid_index(), sb.grid_index())
            if any(pairwise_intersects(p, hulls[cb.key]) for p in sa.load_cell(ca).others)]


@pytest.mark.parametrize("resolution", [16, 64, 1024])
def test_ooc_join_agrees_with_oracle(stores, join_stores, resolution):
    sa, sb = join_stores
    got = storage.ooc_join(sa, sb, resolution=resolution, config=CFG)
    assert list(got.pairs) == oracle.oracle_join(stores.a, stores.b)


def test_ooc_join_renders_each_a_side_canvas_once(stores, join_stores, monkeypatch):
    """Every layer of each A cell that keeps a B cell is rendered once, and
    no other."""
    sa, sb = join_stores
    renders = []
    real = canvas.render_geometry_canvas

    def counted(vp, bindex):
        renders.append(bindex.table.ids.tolist())
        return real(vp, bindex)
    a_cells = {ca.key: ca for ca, _ in _met_pairs(sa, sb)}
    layers = [sorted(ids) for ca in a_cells.values() for ids in sa.load_cell(ca).layers.layers]
    monkeypatch.setattr(canvas, "render_geometry_canvas", counted)
    storage.ooc_join(sa, sb, config=CFG)
    assert sorted(sorted(ids) for ids in renders) == sorted(layers)


def test_ooc_join_dedups_the_pairs_of_all_steps_once(stores, join_stores, monkeypatch):
    """The pairs of every A cell go through one sort-based dedup, which
    equals ``sorted(set(...))`` of them, and would drop pairs two A cells
    repeat."""
    sa, sb = join_stores
    steps = []
    real = engine._joined

    def joined(matchers, parts):
        got = real(matchers, parts)
        steps.append(got)
        return got
    monkeypatch.setattr(engine, "_joined", joined)
    got = storage.ooc_join(sa, sb, config=CFG)
    assert len(steps) > 1 and sum(len(cids) > 0 for cids, _ in steps) > 1
    pairs = [p for cids, rids in steps for p in zip(cids.tolist(), rids.tolist())]
    assert got.pairs == tuple(sorted(set(pairs)))
    assert list(got.pairs) == oracle.oracle_join(stores.a, stores.b)
    repeated = engine._stacked(steps + steps[::-1])
    assert engine._join_result(*repeated) == got


@pytest.mark.parametrize("strategy", [None, optimizer.LAYER_INDEX])
def test_ooc_join_loads_cells_in_the_explained_order(join_stores, monkeypatch, strategy):
    """Explain names the plan and, in load order, exactly the pairs that
    loaded: the plan's pairs whose B hull some polygon of the A cell
    meets. The recorded loads are each A cell once, then its kept B cells,
    as those lines give them.

    With ``strategy`` None the recorded join runs without an explain list,
    and its loads are checked against the lines of a second, explained run
    over fresh stores; otherwise the explained run itself is recorded and
    must name that strategy."""
    sa, sb = _fresh(join_stores[0]), _fresh(join_stores[1])
    loads = []
    real = storage.DatasetStore.load_cell

    def recorded(store, cell):
        loads.append(("A" if store is sa else "B", cell.key))
        return real(store, cell)
    monkeypatch.setattr(storage.DatasetStore, "load_cell", recorded)
    explain: list = []
    storage.ooc_join(sa, sb, config=CFG, explain=None if strategy is None else explain)
    executed = list(loads)
    if strategy is None:
        storage.ooc_join(_fresh(sa), _fresh(sb), config=CFG, explain=explain)
    _, estimate, choice, steps = storage.plan_ooc_join(sa, sb)
    labels = [line[len("load: "):] for line in explain if line.startswith("load: ")]
    met = {(ca.key, cb.key) for ca, cb in _met_pairs(sa, sb)}
    assert labels == [label for label in choice.load_order
                      if (steps[label][0].key, steps[label][1].key) in met]
    assert f"join_strategy: {strategy or choice.join_strategy}" in explain
    assert f"estimate {choice.join_strategy} bytes={estimate.bytes}" in explain
    want, last = [], None
    for label in labels:
        ca, cb = steps[label]
        if ca.key != last:
            want.append(("A", ca.key))
            last = ca.key
        want.append(("B", cb.key))
    assert executed == want


def test_plan_ooc_join_loads_no_cell(join_stores):
    sa, sb = _fresh(join_stores[0]), _fresh(join_stores[1])
    naive, estimate, choice, steps = storage.plan_ooc_join(sa, sb)
    assert naive is None and choice.join_strategy == optimizer.LAYER_INDEX
    assert list(choice.load_order) == list(steps) and estimate.bytes > 0
    assert sa.bytes_transferred == sb.bytes_transferred == 0


def test_ooc_join_reads_each_a_cell_once(join_stores):
    """A cell cache smaller than the A cells the plan names still loads
    each of them once, and the bytes read stay within the estimate."""
    sa, sb = _fresh(join_stores[0]), _fresh(join_stores[1])
    planned = {ca.key: ca.byte_size for ca, _ in storage.filter_join(sa.grid_index(),
                                                                      sb.grid_index())}
    assert sum(planned.values()) > sa.cache_capacity
    kept = {ca.key: ca.byte_size for ca, _ in _met_pairs(sa, sb)}
    assert kept == planned  # in these stores every A cell keeps a B cell
    storage.ooc_join(sa, sb, config=CFG)
    assert sa.bytes_transferred == sum(kept.values())
    _, estimate, _, _ = storage.plan_ooc_join(sa, sb)
    assert sa.bytes_transferred + sb.bytes_transferred <= estimate.bytes


class FarBoxes:
    """Two far-apart A boxes in one A cell, whose hull crosses a 64-cell B
    store along its diagonal: most B cells the hull meets, neither box
    does. The layout where a nested loop over the A polygons once read
    fewer bytes than the layer index."""

    def __init__(self, root):
        self.a = [box_record(1, 0.05, 0.05, 0.15, 0.15), box_record(2, 0.85, 0.85, 0.95, 0.95)]
        self.b = gen.random_polygons(gen.rng(11), 400, start_id=100)
        for name, recs, budget in (("a", self.a, 1 << 16), ("b", self.b, 4096)):
            storage.build_indexes(storage.ingest(recs, name, root), byte_budget=budget,
                                  config=CFG)
        self.root = root

    def stores(self):
        return tuple(storage.DatasetStore(self.root, name, CFG) for name in ("a", "b"))


@pytest.fixture(scope="module")
def far_boxes(tmp_path_factory):
    return FarBoxes(tmp_path_factory.mktemp("far_boxes"))


def test_ooc_join_reads_only_the_b_cells_an_a_polygon_meets(far_boxes):
    sa, sb = far_boxes.stores()
    [cell] = sa.grid_index().cells
    assert len(sb.grid_index().cells) == 64
    hulls = sb.grid_index().hulls().records
    met = [cb for cb, h in zip(sb.grid_index().cells, hulls)
           if any(pairwise_intersects(box, h) for box in far_boxes.a)]
    filtered = [cb for _, cb in storage.filter_join(sa.grid_index(), sb.grid_index())]
    assert len(filtered) > 2 * len(met)
    storage.ooc_join(sa, sb, config=CFG)
    assert sb.bytes_transferred == sum(cb.byte_size for cb in met)
    assert sa.bytes_transferred == cell.byte_size


@pytest.mark.parametrize("resolution", RESOLUTIONS)
def test_ooc_join_over_far_boxes_agrees_with_oracle(far_boxes, resolution):
    sa, sb = far_boxes.stores()
    got = storage.ooc_join(sa, sb, resolution=resolution, config=CFG)
    want = oracle.oracle_join(far_boxes.a, far_boxes.b)
    assert want and list(got.pairs) == want


# ---------------------------------------------------------------------------
# kNN and distance joins over a store of tiny cells
# ---------------------------------------------------------------------------

class Lattice:
    """A 20 x 20 lattice of points on multiples of 1/32 with shuffled ids,
    in a store of 768-byte cells: distances between lattice points are
    exact, so neighbours at equal distance tie exactly."""

    def __init__(self, root):
        ids = gen.rng(28).permutation(400) + 1
        coords = [(0.125 + i / 32, 0.125 + j / 32) for i in range(20) for j in range(20)]
        self.points = [point_record(int(i), x, y) for i, (x, y) in zip(ids, coords)]
        self.xy = np.array(coords)
        storage.build_indexes(storage.ingest(self.points, "lattice", root), byte_budget=768,
                              config=CFG)
        self.store = storage.DatasetStore(root, "lattice", CFG)


@pytest.fixture(scope="module")
def lattice(tmp_path_factory):
    return Lattice(tmp_path_factory.mktemp("lattice"))


# Lattice points, a square's centre (four neighbours tie), a point off the
# lattice and one outside the store's extent.
PROBES = [Point2(0.4375, 0.5), Point2(0.140625, 0.140625), Point2(0.3, 0.6),
          Point2(0.95, 0.05)]


def _overlapping_sources():
    """Sources whose buffers overlap one another and span several cells;
    5/32 is the exact distance of lattice points (3, 4) steps away."""
    srcs = [point_record(2000 + i, x, y) for i, (x, y) in
            enumerate([(0.3, 0.3), (0.34, 0.31), (0.5, 0.5), (0.7, 0.2)])]
    return srcs, [0.1, 0.125, 5 / 32, 0.0625]


def test_lattice_store_has_tiny_cells(lattice):
    cells = lattice.store.grid_index().cells
    assert len(cells) >= 4
    assert lattice.store.cache_capacity == 768 >= max(c.byte_size for c in cells)


@pytest.mark.parametrize("k", [1, 3, 7, 30])
def test_ooc_knn_select_at_a_tiny_budget(lattice, k):
    for p in PROBES:
        got = storage.ooc_knn_select(lattice.store, p, k, config=CFG)
        want = oracle.oracle_knn_select(lattice.points, p, k)
        assert [i for i, _ in got] == [i for i, _ in want]
        assert [d for _, d in got] == pytest.approx([d for _, d in want], rel=1e-12)


@pytest.mark.parametrize("k", [1, 3, 7, 12])
def test_ooc_knn_join_with_exact_ties_at_a_tiny_budget(lattice, k):
    left = [point_record(1000 + i, p.x, p.y) for i, p in enumerate(PROBES)]
    assert storage.ooc_knn_join(left, lattice.store, k, config=CFG) == \
        oracle.oracle_knn_join(left, lattice.points, k)


@pytest.mark.parametrize("query", ["select", "join"])
def test_ooc_knn_computes_hull_distances_once_per_probe(lattice, monkeypatch, query):
    """One ``polygon_distances`` call per probe serves the whole cell
    walk."""
    calls = []
    real = storage.polygon_distances

    def counted(source, tables):
        calls.append(source)
        return real(source, tables)
    monkeypatch.setattr(storage, "polygon_distances", counted)
    k = 7
    if query == "select":
        for p in PROBES:
            storage.ooc_knn_select(lattice.store, p, k, config=CFG)
    else:
        left = [point_record(1000 + i, p.x, p.y) for i, p in enumerate(PROBES)]
        storage.ooc_knn_join(left, lattice.store, k, config=CFG)
    assert len(calls) == len(PROBES)


def test_ooc_count_within_renders_no_canvas(lattice, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("ooc_count_within rendered a canvas")
    monkeypatch.setattr(canvas.DistanceCanvasBuilder, "finalize", forbidden)
    for p in PROBES:
        d = np.hypot(lattice.xy[:, 0] - p.x, lattice.xy[:, 1] - p.y)
        for r in (1 / 32, 0.1, 5 / 32, 0.6):
            assert storage.ooc_count_within(lattice.store, p, r) == int((d <= r).sum())


def test_ooc_distance_join_at_a_tiny_budget(lattice):
    srcs, radii = _overlapping_sources()
    index = lattice.store.grid_index()
    assert all(len(storage.filter_distance(index, s, r)) >= 2 for s, r in zip(srcs, radii))
    got = storage.ooc_distance_join(srcs, lattice.store, radii, config=CFG).pairs
    assert list(got) == oracle.oracle_distance_join(srcs, lattice.points, radii)


def test_ooc_distance_join_loads_each_kept_cell_once(lattice, monkeypatch):
    """Sources that share cells are joined against each cell in one call,
    so a cache of about one cell reads every kept cell once."""
    store = storage.DatasetStore(lattice.store.catalog.directory.parent, "lattice", CFG)
    loads = []
    real = storage.DatasetStore.load_cell

    def counted(self, cell):
        loads.append(cell.key)
        return real(self, cell)
    monkeypatch.setattr(storage.DatasetStore, "load_cell", counted)
    srcs, radii = _overlapping_sources()
    storage.ooc_distance_join(srcs, store, radii, config=CFG)
    index = store.grid_index()
    kept = {c.key: c for s, r in zip(srcs, radii) for c in storage.filter_distance(index, s, r)}
    assert sorted(loads) == sorted(kept)
    assert store.bytes_transferred == sum(c.byte_size for c in kept.values())


# ---------------------------------------------------------------------------
# Degenerate stores: cells whose points have no convex hull
# ---------------------------------------------------------------------------

def _degenerate_points(shape) -> list:
    t = np.linspace(0.05, 0.95, 60)
    if shape == "diagonal":
        return [point_record(i, x, x) for i, x in enumerate(t)]
    if shape == "horizontal":
        return [point_record(i, x, 0.4) for i, x in enumerate(t)]
    return [point_record(7, 0.3, 0.6)]


@pytest.fixture(scope="module", params=["diagonal", "horizontal", "one point"])
def degenerate(tmp_path_factory, request):
    """Collinear points in a store of several cells, each hull a padded
    box, and a store of one point."""
    recs = _degenerate_points(request.param)
    root = tmp_path_factory.mktemp("degenerate")
    storage.build_indexes(storage.ingest(recs, "deg", root), byte_budget=512, config=CFG)
    store = storage.DatasetStore(root, "deg", CFG)
    assert len(store.grid_index().cells) >= min(len(recs), 4)
    return recs, store


def test_degenerate_stores_agree_with_oracle(degenerate):
    recs, store = degenerate
    for cons in (gen.concave_polygon(gen.rng(6), center=(0.45, 0.55), radius=0.3),
                 box_record(0, 0.2, 0.3, 0.6, 0.7), box_record(0, 0.7, 0.1, 0.9, 0.2)):
        assert list(storage.ooc_select(store, cons, config=CFG).ids) == \
            oracle.oracle_select(recs, cons)
    for src, r in ((point_record(0, 0.5, 0.45), 0.1), (point_record(0, 0.3, 0.58), 0.05),
                   (line_record(0, [(0.1, 0.9), (0.9, 0.7)]), 0.3)):
        assert list(storage.ooc_distance_select(store, src, r, config=CFG).ids) == \
            oracle.oracle_distance_select(recs, src, r)
    for p in (Point2(0.5, 0.45), Point2(0.31, 0.6), Point2(1.5, -0.5)):
        for k in sorted({1, min(5, len(recs))}):
            got = storage.ooc_knn_select(store, p, k, config=CFG)
            want = oracle.oracle_knn_select(recs, p, k)
            assert [i for i, _ in got] == [i for i, _ in want]
            assert [d for _, d in got] == pytest.approx([d for _, d in want])


def test_hull_errors_other_than_degeneracy_propagate(tmp_path, monkeypatch):
    def broken(points):
        raise ValueError("not a degenerate point set")
    monkeypatch.setattr(storage, "convex_hull", broken)
    cat = storage.ingest(gen.uniform_points(gen.rng(1), 20), "pts", tmp_path)
    with pytest.raises(ValueError):
        storage.build_indexes(cat, config=CFG)


# ---------------------------------------------------------------------------
# Degenerate cells far from the origin (EPSG:3857 scale)
# ---------------------------------------------------------------------------

FAR = 1e7


@pytest.fixture(scope="module", params=["one point", "duplicates"])
def far_store(tmp_path_factory, request):
    """A one-point store at (1e7, 1e7), and three duplicates there beside
    three points 100 units away in cells of 120 bytes: each degenerate
    cell's hull is a box padded by the coordinates' magnitude."""
    if request.param == "one point":
        recs, budget = [point_record(1, FAR, FAR)], None
    else:
        recs = [point_record(i, FAR, FAR) for i in (1, 2, 3)]
        recs += [point_record(4, FAR + 100, FAR), point_record(5, FAR, FAR + 100),
                 point_record(6, FAR + 100, FAR + 100)]
        budget = 120
    root = tmp_path_factory.mktemp("far")
    storage.build_indexes(storage.ingest(recs, "far", root), byte_budget=budget, config=CFG)
    return recs, storage.DatasetStore(root, "far", CFG)


def test_far_degenerate_stores_agree_with_oracle(far_store):
    recs, store = far_store
    if len(recs) > 1:
        assert len(store.grid_index().cells) >= 2
    for cons in (box_record(0, FAR - 1, FAR - 1, FAR + 1, FAR + 1),
                 box_record(0, FAR - 50, FAR - 50, FAR + 150, FAR + 50),
                 box_record(0, FAR + 10, FAR + 10, FAR + 20, FAR + 20)):
        assert list(storage.ooc_select(store, cons, config=CFG).ids) == \
            oracle.oracle_select(recs, cons)
    for src, r in ((point_record(0, FAR + 0.5, FAR), 1.0), (point_record(0, FAR + 60, FAR), 45.0),
                   (line_record(0, [(FAR - 10, FAR + 50), (FAR + 110, FAR + 50)]), 49.0)):
        assert list(storage.ooc_distance_select(store, src, r, config=CFG).ids) == \
            oracle.oracle_distance_select(recs, src, r)
    for p in (Point2(FAR, FAR), Point2(FAR + 70, FAR + 20), Point2(FAR - 500, FAR + 900)):
        for k in sorted({1, min(4, len(recs))}):
            got = storage.ooc_knn_select(store, p, k, config=CFG)
            want = oracle.oracle_knn_select(recs, p, k)
            assert [i for i, _ in got] == [i for i, _ in want]
            assert [d for _, d in got] == pytest.approx([d for _, d in want])


def _greedy_order_join(steps, sizes=None):
    """The join-step ordering as a plain Python greedy: from step 0, each
    round takes the step left that shares most cells with the last one,
    the lowest index among ties; kept when it simulates no costlier."""
    steps = list(steps)
    if len(steps) <= 2:
        return steps
    if sizes is None:
        sizes = {c: 1 for _, fp in steps for c in fp}
    footprints = [frozenset(fp) for _, fp in steps]
    remaining = list(range(len(steps)))
    order = [remaining.pop(0)]
    while remaining:
        cur = footprints[order[-1]]
        best = max(range(len(remaining)),
                   key=lambda k: (len(cur & footprints[remaining[k]]), -remaining[k]))
        order.append(remaining.pop(best))
    greedy = [steps[i] for i in order]
    if optimizer.simulate_transfer(greedy, sizes) <= optimizer.simulate_transfer(steps, sizes):
        return greedy
    return steps


@pytest.mark.parametrize("seed", range(6))
def test_order_join_equals_the_python_greedy(seed):
    """Random footprints over few cells (many tied overlaps, some empty
    footprints), with and without cell sizes, 0 to 40 steps."""
    r = np.random.default_rng(seed)
    for n in [0, 1, 2, 3] + list(r.integers(4, 41, 30)):
        ncell = int(r.integers(1, 12))
        steps = [(f"poly:{i}", frozenset(("B", int(c)) for c in
                                         r.integers(0, ncell, int(r.integers(0, 5)))))
                 for i in range(n)]
        sizes = {("B", c): int(r.integers(1, 9)) for c in range(ncell)}
        for sz in (None, sizes):
            assert optimizer.order_join(steps, sz) == _greedy_order_join(steps, sz)
