"""Every canvas of a query shares one viewport, the union of its layers'
bounds, so each probe chunk and each part's points are rasterized once and
then met with every canvas. Layers of very unequal extent, where the shared
viewport differs most from each layer's own, agree with the oracle; probe
rasterization does not grow with the layer count, nor does memory hold
more than one chunk's raster; one-source distance queries build no layer
index."""

import tracemalloc

import numpy as np
import pytest

import gen
from rasterquery import canvas, engine, optimizer, oracle, storage
from rasterquery.canvas_index import LayerIndex, build_distance_layer_index, build_layer_index
from rasterquery.config import Config
from rasterquery.geometry import GeometryRecord, RecordTable, box_record, point_record

RESOLUTIONS = (16, 64, 1024)
CORNER = 0.25


class Fixture:
    """A layer of four small polygons in the lower-left corner and a layer
    of nine boxes spanning the unit square (the corner polygons lie in the
    first box, so the layer index keeps them apart), plus probes over the
    square and crowded into the corner."""

    def __init__(self):
        r = gen.rng(21)
        self.corner = gen.disjoint_polygons(r, 2, extent=CORNER, start_id=0)
        self.span = [box_record(10 + 3 * i + j, i / 3 + 0.01, j / 3 + 0.01,
                                (i + 1) / 3 - 0.01, (j + 1) / 3 - 0.01)
                     for i in range(3) for j in range(3)]
        self.a = self.corner + self.span
        self.layers = build_layer_index(self.a)
        polys = (gen.random_polygons(r, 16, radius_frac=0.06, start_id=100)
                 + gen.random_polygons(r, 12, extent=CORNER, radius_frac=0.1, start_id=200))
        self.polys = [GeometryRecord(p.id, "polygon", p.geometry, float(p.id % 7))
                      for p in polys]
        self.lines = (gen.random_polylines(r, 10, start_id=300)
                      + gen.random_polylines(r, 10, extent=CORNER, step=0.03, start_id=400))
        xy = np.concatenate([r.uniform(0, 1, (200, 2)), r.uniform(0, CORNER, (200, 2))])
        self.points = [point_record(1000 + i, x, y, float(v))
                       for i, ((x, y), v) in enumerate(zip(xy, r.uniform(0, 10, len(xy))))]


@pytest.fixture(scope="module")
def fx():
    return Fixture()


def test_fixture_layers_differ_in_extent(fx):
    assert fx.layers.layers == [[r.id for r in fx.span], [r.id for r in fx.corner]]
    corner = RecordTable(fx.corner).boxes
    assert corner[:, 2:].max() <= CORNER
    assert RecordTable(fx.span).boxes[:, 2:].max() > 0.95


@pytest.mark.parametrize("res", RESOLUTIONS)
def test_polygon_join(fx, res):
    # One layer per probe keeps the two-layer side as the canvas side.
    probe_layers = LayerIndex([[p.id] for p in fx.polys])
    got = engine.join(fx.a, fx.polys, resolution=res, d1_layers=fx.layers,
                      d2_layers=probe_layers)
    assert list(got.pairs) == oracle.oracle_join(fx.a, fx.polys)


@pytest.mark.parametrize("res", RESOLUTIONS)
def test_point_join(fx, res):
    got = engine.join(fx.a, fx.points, resolution=res, d1_layers=fx.layers)
    assert list(got.pairs) == oracle.oracle_join(fx.a, fx.points)


@pytest.mark.parametrize("res", RESOLUTIONS)
@pytest.mark.parametrize("mode", ["count", "sum"])
def test_aggregate(fx, res, mode):
    data = fx.points + fx.polys + ([] if mode == "sum" else fx.lines)
    got = engine.aggregate(fx.a, data, mode, resolution=res, layer_index=fx.layers)
    want = oracle.oracle_aggregate(fx.a, data, mode)
    assert [row[:2] for row in got.rows] == [row[:2] for row in want]
    if mode == "sum":
        assert [row[2] for row in got.rows] == pytest.approx([row[2] for row in want])


@pytest.mark.parametrize("res", RESOLUTIONS)
def test_distance_join_over_several_distance_layers(fx, res):
    sources = fx.corner + fx.span[:4]
    radii = [0.02] * len(fx.corner) + [0.05] * 4
    ranked = sorted(range(len(sources)), key=lambda i: sources[i].id)
    layers = build_distance_layer_index(RecordTable([sources[i] for i in ranked]),
                                        [radii[i] for i in ranked])
    assert layers.layer_count >= 2
    probes = fx.points + fx.polys + fx.lines
    got = engine.distance_join(sources, probes, radii, resolution=res)
    assert list(got.pairs) == oracle.oracle_distance_join(sources, probes, radii)


@pytest.fixture(scope="module")
def stores(fx, tmp_path_factory):
    root = tmp_path_factory.mktemp("shared_viewport")
    cfg = Config(resolution=64, byte_budget=1 << 20, cache_factor=1)
    for name, recs in (("a", fx.a), ("b", fx.polys)):
        storage.build_indexes(storage.ingest(recs, name, root), byte_budget=1 << 16, config=cfg)
    return tuple(storage.DatasetStore(root, name, cfg) for name in ("a", "b"))


@pytest.mark.parametrize("res", RESOLUTIONS)
@pytest.mark.parametrize("strategy", [optimizer.NAIVE_LOOP, optimizer.LAYER_INDEX])
def test_ooc_join(fx, stores, strategy, res):
    sa, sb = stores
    [cell] = sa.grid_index().cells
    assert sa.load_cell(cell).layers.layer_count == 2
    got = storage.ooc_join(sa, sb, resolution=res, force_strategy=strategy)
    assert list(got.pairs) == oracle.oracle_join(fx.a, fx.polys)


# ---------------------------------------------------------------------------
# Rasterize once: call counts, one viewport, bounded memory
# ---------------------------------------------------------------------------

def _stacked_boxes():
    """Three layers over one extent: the unit square alone, then two
    overlapping 3 x 3 lattices of boxes inside it."""
    big = box_record(100, 0.0, 0.0, 1.0, 1.0)
    lattices = [[box_record(k * 10 + 3 * i + j, s + i * 0.3, s + j * 0.3,
                            s + i * 0.3 + 0.25, s + j * 0.3 + 0.25)
                 for i in range(3) for j in range(3)] for k, s in ((0, 0.02), (1, 0.1))]
    layers = LayerIndex([[100]] + [[r.id for r in lat] for lat in lattices])
    return big, [big] + lattices[0] + lattices[1], layers


def _counted(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


def test_probes_rasterized_once_per_chunk_whatever_the_layer_count(monkeypatch):
    """A probe that needs the raster on any canvas of a query is rasterized
    in one chunk, once for all canvases, and each chunk calls ``edge_keys``
    and ``fill_runs`` once, whatever the layer count. A probe the window
    pass settles, as every probe wholly inside the one big box does, never
    reaches them."""
    big, three, layers = _stacked_boxes()
    r = gen.rng(22)
    probes = gen.random_polygons(r, 60, radius_frac=0.08, start_id=500)
    points = gen.uniform_points(r, 300)
    probe_layers = LayerIndex([[p.id] for p in probes])
    monkeypatch.setattr(engine, "PIXEL_KEY_BUDGET", 2000)
    views = []
    real_render = canvas.render_geometry_canvas

    def render(vp, bindex):
        views.append(vp)
        return real_render(vp, bindex)
    monkeypatch.setattr(canvas, "render_geometry_canvas", render)
    calls: dict = {}
    for name in ("edge_keys", "fill_runs", "_point_keys", "match_points"):
        _counted(monkeypatch, engine, name, calls)
    chunks = []
    real_raster = engine._probe_raster

    def raster(vp, table, ranks):
        chunks.append(table.ids[ranks].tolist())
        return real_raster(vp, table, ranks)
    monkeypatch.setattr(engine, "_probe_raster", raster)
    counts, rasterized = [], []
    for d1, d1_layers in (([big], LayerIndex([[100]])), (three, layers)):
        calls.clear()
        views.clear()
        chunks.clear()
        got = engine.join(d1, probes, resolution=256, d1_layers=d1_layers,
                          d2_layers=probe_layers)
        assert list(got.pairs) == oracle.oracle_join(d1, probes)
        rasterized.append([rid for chunk in chunks for rid in chunk])
        assert calls.get("edge_keys", 0) == calls.get("fill_runs", 0) == len(chunks)
        got = engine.join(d1, points, resolution=256, d1_layers=d1_layers)
        assert list(got.pairs) == oracle.oracle_join(d1, points)
        # One render per layer in each join, every one over the same viewport.
        assert len(views) == 2 * d1_layers.layer_count
        assert len(set(views)) == 1
        counts.append(dict(calls))
    one, three_layers = counts
    # Every probe lies in the big box's interior, off its boundary pixels.
    assert rasterized[0] == [] and "edge_keys" not in one
    # Against the lattices most probes need the raster, each in one chunk.
    assert len(rasterized[1]) == len(set(rasterized[1])) > 40
    assert three_layers["edge_keys"] >= 3
    assert three_layers["_point_keys"] == one["_point_keys"] == 1
    assert three_layers["match_points"] == 3 * one["match_points"] == 3


# Peak traced allocation of ``test_join_memory_holds_one_chunk_raster`` at
# the parent of the shared-viewport change, which rasterized each chunk
# once per layer: 6.35 MiB (CPython 3.11, numpy 2.4). The bound adds 1 MiB.
# Keeping all 58 chunk rasters alive instead peaks near 13 MiB.
JOIN_PEAK_BOUND = 7.35 * 2**20


def test_join_memory_holds_one_chunk_raster(monkeypatch):
    """A 3-layer join at res 1024, its probes split into many chunks,
    allocates no more at peak than the per-layer loop did: only one chunk's
    raster is alive at a time."""
    _, three, layers = _stacked_boxes()
    probes = gen.random_polygons(gen.rng(23), 400, radius_frac=0.15, start_id=500)
    probe_layers = LayerIndex([[p.id] for p in probes])
    monkeypatch.setattr(engine, "PIXEL_KEY_BUDGET", 1 << 14)

    def run():
        return engine.join(three, probes, resolution=1024, d1_layers=layers,
                           d2_layers=probe_layers)
    want = run()
    chunks = []
    real = engine.edge_keys

    def counted(vp, segs):
        chunks.append(1)
        return real(vp, segs)
    monkeypatch.setattr(engine, "edge_keys", counted)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        got = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert len(chunks) >= 20
    assert peak < JOIN_PEAK_BOUND, peak / 2**20


# ---------------------------------------------------------------------------
# One-source distance queries build no distance layer index
# ---------------------------------------------------------------------------

def test_one_source_distance_queries_build_no_layer_index(tmp_path, monkeypatch):
    r = gen.rng(24)
    points = gen.uniform_points(r, 200)
    cfg = Config(resolution=64, byte_budget=1 << 20, cache_factor=1)
    storage.build_indexes(storage.ingest(points, "pts", tmp_path), byte_budget=1024, config=cfg)
    store = storage.DatasetStore(tmp_path, "pts", cfg)
    calls: dict = {}
    _counted(monkeypatch, engine, "build_distance_layer_index", calls)
    src = point_record(0, 0.4, 0.6)
    want = oracle.oracle_distance_select(points, src, 0.1)
    assert list(engine.distance_select(points, src, 0.1, resolution=64).ids) == want
    assert list(storage.ooc_distance_select(store, src, 0.1, config=cfg).ids) == want
    p, k = (0.3, 0.7), 5
    want = [rid for rid, _ in oracle.oracle_knn_select(points, p, k)]
    assert [rid for rid, _ in engine.knn_select(points, p, k)] == want
    assert [rid for rid, _ in storage.ooc_knn_select(store, p, k, config=cfg)] == want
    assert calls == {}
    sources = gen.random_polygons(r, 5, radius_frac=0.1, start_id=500)
    got = engine.distance_join(sources, points, [0.05] * 5, resolution=64)
    assert list(got.pairs) == oracle.oracle_distance_join(sources, points, 0.05)
    assert calls == {"build_distance_layer_index": 1}
