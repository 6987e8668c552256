"""Both layer builders partition their input into layers of pairwise
disjoint objects: ``build_layer_index`` by exact intersection,
``build_distance_layer_index`` by buffers that do not meet."""

import pytest

import gen
from rasterquery import canvas, canvas_index, engine, geometry, oracle
from rasterquery.canvas_index import (
    _peel,
    build_distance_layer_index,
    build_layer_index,
    overlap_graph,
)
from rasterquery.geometry import (
    GeometryRecord,
    RecordTable,
    box_record,
    geometry_distance,
    line_record,
    pairwise_intersects,
    point_record,
)


def overlapping_lattices(seed):
    """Two polygon lattices of different pitch laid over each other, plus
    random boxes: many overlaps across lattices, none inside one."""
    r = gen.rng(seed)
    return (gen.disjoint_polygons(r, 4)
            + gen.disjoint_polygons(r, 3, start_id=100)
            + gen.random_boxes(r, 12, max_size=0.2, start_id=200))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_layer_index_valid_on_overlapping_lattices(seed):
    recs = overlapping_lattices(seed)
    layers = build_layer_index(recs)
    assert layers.layer_count > 1
    assert oracle.oracle_layers_valid(recs, layers)


def test_layer_index_of_a_disjoint_lattice_is_one_layer():
    recs = gen.disjoint_polygons(gen.rng(4), 5)
    layers = build_layer_index(recs)
    assert oracle.oracle_layers_valid(recs, layers)
    assert layers.layers == [sorted(rec.id for rec in recs)]


@pytest.mark.parametrize("inner_id, outer_id", [(1, 0), (0, 1)])
def test_nested_polygons_never_share_a_layer(inner_id, outer_id):
    # A box strictly inside another shares no boundary pixel with it; a
    # third box covering the inner one hides the outer's interior too.
    outer = box_record(outer_id, 0.0, 0.0, 1.0, 1.0)
    inner = box_record(inner_id, 0.4, 0.4, 0.5, 0.5)
    cover = box_record(2, 0.3, 0.3, 0.6, 0.6)
    for recs in ([outer, inner], [outer, inner, cover]):
        layers = build_layer_index(recs)
        assert layers.object_to_layer[0] != layers.object_to_layer[1]
        assert oracle.oracle_layers_valid(recs, layers)


def test_join_and_aggregate_over_nested_polygons():
    recs = overlapping_lattices(1)
    pts = gen.uniform_points(gen.rng(9), 200)
    pts += [point_record(1000 + rec.id, *c)
            for rec, c in zip(recs, geometry.table_centroids(RecordTable(recs)).tolist())]
    layers = build_layer_index(recs)
    assert sorted(engine.join(recs, pts, resolution=64, d1_layers=layers).pairs) \
        == oracle.oracle_join(recs, pts)
    got = engine.aggregate(recs, pts, resolution=64, layer_index=layers).rows
    assert list(got) == oracle.oracle_aggregate(recs, pts)


def test_layer_index_of_nothing_is_empty():
    assert build_layer_index([]).layers == []


def brute_force_graph(recs) -> dict:
    """Overlap adjacency from ``pairwise_intersects`` over every pair."""
    graph = {rec.id: set() for rec in recs}
    for i, a in enumerate(recs):
        for b in recs[i + 1:]:
            if pairwise_intersects(a, b):
                graph[a.id].add(b.id)
                graph[b.id].add(a.id)
    return graph


def degenerate_sets() -> dict:
    holed = GeometryRecord(0, "polygon", [gen.holed_polygon()])
    # The holed polygon's square hole spans x 0.29..0.43, y 0.465..0.605:
    # box 1 lies in it without touching it, box 2 crosses its rim.
    return {
        "inside_a_hole": [holed, box_record(1, 0.32, 0.49, 0.40, 0.58),
                          box_record(2, 0.25, 0.50, 0.35, 0.55)],
        "touch_at_a_vertex": [box_record(0, 0, 0, 1, 1), box_record(1, 1, 1, 2, 2),
                              box_record(2, 2, 0, 3, 1), box_record(3, 1.5, -1, 2.5, 0.5)],
        "shared_collinear_edge": [box_record(0, 0, 0, 1, 1), box_record(1, 1, 0.2, 2, 0.8),
                                  box_record(2, 1, 2, 2, 3), box_record(3, 0, 1.5, 1, 2.5)],
        "polylines": [line_record(0, [(0, 0), (1, 1)]), line_record(1, [(0, 1), (1, 0)]),
                      line_record(2, [(2, 0), (3, 0)]), line_record(3, [(2.5, 0), (4, 0)]),
                      line_record(4, [(4.5, 0), (5, 0), (5, 1)]),
                      line_record(5, [(5, 1.5), (5, 2)])],
        "points": [point_record(0, 0.5, 0.5), point_record(1, 0.5, 0.5),
                   point_record(2, 0.5, 0.5), point_record(3, 0.7, 0.7),
                   point_record(4, 1.0, 0.25), box_record(5, 1, 0, 2, 1),
                   point_record(6, 1.5, 0.5), point_record(7, 2.5, 0.5)],
        # A polyline wholly inside a polygon meets no edge of it.
        "polyline_inside_a_polygon": [box_record(0, 0, 0, 1, 1),
                                      line_record(1, [(0.4, 0.4), (0.5, 0.5)]),
                                      line_record(2, [(1.5, 0.5), (2, 0.5)])],
        "lattices": overlapping_lattices(3),
    }


@pytest.mark.parametrize("name", sorted(degenerate_sets()))
def test_overlap_graph_equals_all_pairs(name):
    recs = degenerate_sets()[name]
    want = brute_force_graph(recs)
    assert sum(map(len, want.values())) > 0
    assert overlap_graph(RecordTable(recs)) == want
    assert oracle.oracle_layers_valid(recs, build_layer_index(recs))


def test_overlap_graph_equals_all_pairs_in_many_chunks(monkeypatch):
    recs = overlapping_lattices(4) + gen.random_polylines(gen.rng(4), 20, start_id=300)
    want = brute_force_graph(recs)
    sweep_chunks, edge_chunks = [], []
    sweep, meet = canvas_index.overlapping_boxes, geometry.segments_meet

    def counted_sweep(boxes):
        for chunk in sweep(boxes):
            sweep_chunks.append(1)
            yield chunk

    def counted_meet(s, t):
        edge_chunks.append(1)
        return meet(s, t)
    monkeypatch.setattr(geometry, "PAIR_BUDGET", 64)
    monkeypatch.setattr(canvas_index, "overlapping_boxes", counted_sweep)
    monkeypatch.setattr(geometry, "segments_meet", counted_meet)
    assert overlap_graph(RecordTable(recs)) == want
    assert len(sweep_chunks) > 1 and len(edge_chunks) > 1


def test_layer_index_renders_no_canvas(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("build_layer_index rendered a canvas")
    monkeypatch.setattr(canvas, "render_geometry_canvas", forbidden)
    recs = overlapping_lattices(0)
    assert oracle.oracle_layers_valid(recs, build_layer_index(recs))


def distance_sources(seed):
    r = gen.rng(seed)
    sources = gen.mixed_dataset(r, 24)
    return sources, [0.02 + 0.01 * (s.id % 4) for s in sources]


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_distance_layers_partition_into_disjoint_buffers(seed):
    sources, radii = distance_sources(seed)
    layers = build_distance_layer_index(RecordTable(sources), radii)
    flat = sorted(i for layer in layers.layers for i in layer)
    assert flat == sorted(s.id for s in sources)
    by_id = {s.id: s for s in sources}
    rad = {s.id: rr for s, rr in zip(sources, radii)}
    for layer in layers.layers:
        for i, a in enumerate(layer):
            for b in layer[i + 1:]:
                assert geometry_distance(by_id[a], by_id[b]) > rad[a] + rad[b]


def test_distance_layers_unchanged_on_a_fixed_seed():
    # The layers the builder produced before both builders shared one peel.
    sources, radii = distance_sources(11)
    assert build_distance_layer_index(RecordTable(sources), radii).layers == [
        [1, 4, 8, 9, 10, 11, 12, 15, 16, 17, 20, 21, 22, 23],
        [0, 2, 5, 6, 13, 14, 19], [7, 18], [3]]


@pytest.mark.parametrize("seed", [14, 15])
def test_distance_layers_equal_brute_force_peel(seed):
    """Dense sources with wide radii, so many point pairs, point-polyline
    and polygon pairs overlap: the sweep's layers equal those peeled off
    the graph of every pair tested exactly."""
    sources = gen.mixed_dataset(gen.rng(seed), 60)
    radii = [0.03 + 0.02 * (s.id % 3) for s in sources]
    rad = {s.id: r for s, r in zip(sources, radii)}
    graph = {s.id: set() for s in sources}
    for i, a in enumerate(sources):
        for b in sources[i + 1:]:
            if geometry_distance(a, b) <= rad[a.id] + rad[b.id]:
                graph[a.id].add(b.id)
                graph[b.id].add(a.id)
    assert sum(map(len, graph.values())) > 100
    assert build_distance_layer_index(RecordTable(sources), radii).layers == _peel(graph).layers
