"""Queries with polyline and polygon probes agree with the brute-force
oracle, plus regressions for the crashes the per-layer Map slots caused."""

import numpy as np
import pytest

import gen
from rasterquery import engine, oracle
from rasterquery.canvas import render_geometry_canvas, viewport_from_bounds
from rasterquery.canvas_index import (
    PixelMatcher,
    build_boundary_index_direct,
    build_layer_index,
)
from rasterquery.geometry import GeometryRecord, RecordTable, box_record, point_record

RESOLUTIONS = (16, 64, 512)
R = 0.05


class Case:
    """One seed's inputs, with each oracle answer computed once."""

    def __init__(self, seed):
        r = gen.rng(seed)
        self.data = gen.mixed_dataset(r, 48)
        self.polys = [rec for rec in self.data if rec.kind == "polygon"]
        self.lines = [rec for rec in self.data if rec.kind == "polyline"]
        self.constraint = gen.concave_polygon(r, nverts=14)
        self.zones = gen.random_polygons(r, 10, radius_frac=0.12, start_id=500)
        self.zone_layers = build_layer_index(self.zones)
        self.source = self.zones[0]
        self._answers = {}

    def answer(self, name, fn):
        if name not in self._answers:
            self._answers[name] = fn()
        return self._answers[name]


@pytest.fixture(scope="module", params=range(4))
def case(request):
    return Case(request.param)


@pytest.mark.parametrize("res", RESOLUTIONS)
def test_select(case, res):
    got = engine.select(case.data, case.constraint, resolution=res).ids
    want = case.answer("select", lambda: oracle.oracle_select(case.data, case.constraint))
    assert list(got) == want


@pytest.mark.parametrize("res", RESOLUTIONS)
def test_join_polygon_probes(case, res):
    got = engine.join(case.zones, case.polys, resolution=res, d1_layers=case.zone_layers,
                      d2_layers=build_layer_index(case.polys))
    want = case.answer("join", lambda: oracle.oracle_join(case.zones, case.polys))
    assert list(got.pairs) == want


@pytest.mark.parametrize("res", RESOLUTIONS)
def test_join_mixed_point_polygon_probes(case, res):
    d2 = [rec for rec in case.data if rec.kind != "polyline"]
    got = engine.join(case.zones, d2, resolution=res, d1_layers=case.zone_layers)
    want = case.answer("join_mixed", lambda: oracle.oracle_join(case.zones, d2))
    assert list(got.pairs) == want


@pytest.mark.parametrize("res", RESOLUTIONS)
def test_distance_select(case, res):
    got = engine.distance_select(case.data, case.source, R, resolution=res).ids
    want = case.answer("dsel", lambda: oracle.oracle_distance_select(case.data, case.source, R))
    assert list(got) == want


@pytest.mark.parametrize("res", RESOLUTIONS)
@pytest.mark.parametrize("kind", ["polyline", "polygon"])
def test_distance_join(case, res, kind):
    probes = case.lines if kind == "polyline" else case.polys
    sources = case.zones[:6]
    got = engine.distance_join(sources, probes, [R] * len(sources), resolution=res)
    want = case.answer(f"djoin_{kind}",
                       lambda: oracle.oracle_distance_join(sources, probes, R))
    assert list(got.pairs) == want


@pytest.mark.parametrize("res", RESOLUTIONS)
def test_aggregate_mixed_data(case, res):
    got = engine.aggregate(case.zones, case.data, "count", resolution=res,
                           layer_index=case.zone_layers)
    want = case.answer("agg", lambda: oracle.oracle_aggregate(case.zones, case.data))
    assert list(got.rows) == want


def test_match_record_wrapper_agrees_with_pass(case):
    layer_ids = set(case.zone_layers.layers[0])
    layer = [rec for rec in case.zones if rec.id in layer_ids]
    vp = viewport_from_bounds(engine._bounds_union([m.bbox() for m in layer]), 64)
    matcher = PixelMatcher(render_geometry_canvas(vp, build_boundary_index_direct(layer)))
    pairs = engine.match_records(matcher,
                                 RecordTable([rec for rec in case.data if rec.kind != "point"]))
    for rec in case.data:
        want = {m.id for m in layer if oracle.oracle_join([m], [rec])}
        assert engine.match_record(matcher, rec) == want
        if rec.kind != "point":
            assert {c for c, rid in pairs if rid == rec.id} == want


def test_match_records_chunks_agree(case, monkeypatch):
    """A tiny pixel-key budget splits the probes into many chunks."""
    want = engine.select(case.data, case.constraint, resolution=64).ids
    monkeypatch.setattr(engine, "PIXEL_KEY_BUDGET", 50)
    assert engine.select(case.data, case.constraint, resolution=64).ids == want


# -- regressions ---------------------------------------------------------------

def _mixed_seed0():
    return gen.mixed_dataset(gen.rng(0), 40)


def test_join_with_mixed_point_polygon_d2_regression():
    # One layer of 5 x 5 boxes 0.01 apart: D2 polygons straddle the gaps,
    # so one probe meets several members of a layer.
    d1 = [box_record(100 + 5 * i + j, 0.2 * i, 0.2 * j, 0.2 * i + 0.19, 0.2 * j + 0.19)
          for i in range(5) for j in range(5)]
    d2 = [rec for rec in _mixed_seed0() if rec.kind != "polyline"]
    got = engine.join(d1, d2, resolution=64, d1_layers=build_layer_index(d1))
    assert list(got.pairs) == oracle.oracle_join(d1, d2)


@pytest.mark.parametrize("kind", ["polyline", "polygon"])
def test_distance_join_with_line_or_polygon_probes_regression(kind):
    # An 8 x 8 lattice of sources 0.125 apart: their r = 0.05 buffers are
    # disjoint (one layer), and a probe can come within r of two of them.
    g = (np.arange(8) + 0.5) / 8
    sources = [point_record(100 + i, x, y)
               for i, (x, y) in enumerate(np.stack(np.meshgrid(g, g), -1).reshape(-1, 2))]
    probes = [rec for rec in _mixed_seed0() if rec.kind == kind]
    radii = [R] * len(sources)
    got = engine.distance_join(sources, probes, radii, resolution=64)
    assert list(got.pairs) == oracle.oracle_distance_join(sources, probes, radii)


def test_one_probe_meeting_two_members_of_one_layer():
    d1 = [box_record(0, 0.0, 0.0, 1.0, 1.0), box_record(1, 2.0, 0.0, 3.0, 1.0)]
    d2 = [point_record(10, 0.5, 0.5), box_record(11, 0.5, 0.25, 2.5, 0.75)]
    got = engine.join(d1, d2, resolution=64, d1_layers=build_layer_index(d1))
    assert list(got.pairs) == [(0, 10), (0, 11), (1, 11)]


def test_aggregate_does_not_index_polygon_data(monkeypatch):
    zones = gen.random_polygons(gen.rng(1), 6, radius_frac=0.15)
    data = gen.random_polygons(gen.rng(2), 30, radius_frac=0.05, start_id=100)
    layers = build_layer_index(zones)

    def forbidden(*args, **kwargs):
        raise AssertionError("aggregate built a layer index")
    monkeypatch.setattr(engine, "build_layer_index", forbidden)
    got = engine.aggregate(zones, data, "count", resolution=64, layer_index=layers)
    assert list(got.rows) == oracle.oracle_aggregate(zones, data)


@pytest.mark.parametrize("mode", ["count", "sum"])
def test_aggregate_builds_no_point_id_column(monkeypatch, mode):
    """Aggregation reads only the points' coordinates and values."""
    zones = gen.random_polygons(gen.rng(1), 6, radius_frac=0.15)
    data = gen.uniform_points(gen.rng(2), 300, values=True)
    layers = build_layer_index(zones)

    def forbidden(pts):
        raise AssertionError("aggregate built a point id column")
    monkeypatch.setattr(engine, "_point_ids", forbidden)
    got = engine.aggregate(zones, data, mode, resolution=64, layer_index=layers)
    assert list(got.rows) == oracle.oracle_aggregate(zones, data, mode)


def test_sweepline_pair_count_with_equal_bboxes():
    d1 = [box_record(0, 0.0, 0.0, 1.0, 1.0), box_record(1, 0.0, 0.0, 1.0, 1.0)]
    d2 = [box_record(2, 0.0, 0.0, 1.0, 1.0), box_record(3, 0.5, 0.5, 2.0, 2.0),
          GeometryRecord(4, "point", point_record(4, 5.0, 5.0).geometry)]
    assert oracle.sweepline_pair_count(d1, d2) == len(oracle.oracle_join(d1, d2)) == 4


def test_selection_of_probe_covering_whole_canvas():
    cons = gen.concave_polygon(gen.rng(3), nverts=10)
    big = box_record(7, -5.0, -5.0, 5.0, 5.0)
    inside = box_record(8, 0.45, 0.45, 0.55, 0.55)
    far = box_record(9, 3.0, 3.0, 4.0, 4.0)
    got = engine.select([big, inside, far], cons, resolution=32).ids
    assert list(got) == oracle.oracle_select([big, inside, far], cons)
    assert 7 in got
