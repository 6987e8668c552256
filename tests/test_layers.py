"""Both layer builders partition their input into layers of pairwise
disjoint objects: ``build_layer_index`` by exact intersection,
``build_distance_layer_index`` by buffers that do not meet."""

import pytest

import gen
from rasterquery import engine, oracle
from rasterquery.canvas_index import build_distance_layer_index, build_layer_index
from rasterquery.geometry import box_record, geometry_distance, point_record


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
    pts += [point_record(1000 + rec.id, *rec.centroid()) for rec in recs]
    layers = build_layer_index(recs)
    assert sorted(engine.join(recs, pts, resolution=64, d1_layers=layers).pairs) \
        == oracle.oracle_join(recs, pts)
    got = engine.aggregate(recs, pts, resolution=64, layer_index=layers).rows
    assert list(got) == oracle.oracle_aggregate(recs, pts)


def test_layer_index_of_nothing_is_empty():
    assert build_layer_index([]).layers == []


def distance_sources(seed):
    r = gen.rng(seed)
    sources = gen.mixed_dataset(r, 24)
    return sources, [0.02 + 0.01 * (s.id % 4) for s in sources]


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_distance_layers_partition_into_disjoint_buffers(seed):
    sources, radii = distance_sources(seed)
    layers = build_distance_layer_index(sources, radii)
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
    assert build_distance_layer_index(sources, radii).layers == [
        [1, 4, 8, 9, 10, 11, 12, 15, 16, 17, 20, 21, 22, 23],
        [0, 2, 5, 6, 13, 14, 19], [7, 18], [3]]
