"""The window pass of the probe step: a polyline or polygon probe whose
pixel window holds no boundary pixel of any canvas settles (inside one
object's interior) or drops (over empty pixels) with no raster; the rest
are rasterized once and their leftover pairs refined in one array call.
Every case is checked against the oracle at 16-2048 px: probes inside an
interior or a hole, L-shaped polylines hugging a box's corner, windows
the viewport clips, a multi-layer aggregate where one probe needs the
raster on one canvas only, and random mixed probes in memory and out of
core."""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from rasterquery import engine, oracle, storage
from rasterquery.canvas_index import build_layer_index
from rasterquery.config import Config
from rasterquery.geometry import (
    GeometryRecord,
    box_record,
    line_record,
    point_record,
    polygon_record,
)

RESOLUTIONS = (16, 64, 256, 1024, 2048)


def _rasterized(monkeypatch) -> list:
    """The ids of every probe the engine rasterizes, one list per chunk,
    collected while the test runs."""
    chunks = []
    real = engine._probe_raster

    def raster(vp, table, ranks):
        chunks.append(table.ids[ranks].tolist())
        return real(vp, table, ranks)
    monkeypatch.setattr(engine, "_probe_raster", raster)
    return chunks


def _holed(rid, outer=(0, 0, 10, 10), hole=(2, 2, 8, 8), value=None):
    x0, y0, x1, y1 = outer
    h0, k0, h1, k1 = hole
    return polygon_record(rid, [[(x0, y0), (x1, y0), (x1, y1), (x0, y1)],
                                [(h0, k0), (h0, k1), (h1, k1), (h1, k0)]], value)


# ---------------------------------------------------------------------------
# Uniform windows: settled inside an interior, dropped in a hole
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("res", RESOLUTIONS)
def test_probe_inside_an_interior_is_found_with_no_raster(res, monkeypatch):
    chunks = _rasterized(monkeypatch)
    probes = [box_record(1, 4, 4, 5, 5), line_record(2, [(4, 5.5), (6, 6), (5, 6.5)]),
              _holed(3, (3.5, 3.5, 6.5, 6.5), (4.5, 4.5, 5.5, 5.5))]
    constraint = box_record(0, 0, 0, 10, 10)
    assert list(engine.select(probes, constraint, resolution=res).ids) == [1, 2, 3]
    src = point_record(0, 5, 5)
    want = oracle.oracle_distance_select(probes, src, 4.5)
    assert want == [1, 2, 3]
    assert list(engine.distance_select(probes, src, 4.5, resolution=res).ids) == want
    got = engine.aggregate([constraint], probes, resolution=res,
                           layer_index=build_layer_index([constraint]))
    assert list(got.rows) == oracle.oracle_aggregate([constraint], probes)
    assert chunks == []


@pytest.mark.parametrize("res", RESOLUTIONS)
def test_probe_inside_a_hole_is_dropped_with_no_raster(res, monkeypatch):
    chunks = _rasterized(monkeypatch)
    constraint = _holed(0)
    in_hole = [box_record(1, 4, 4, 6, 6), line_record(2, [(4, 4), (6, 6), (4, 5)]),
               _holed(3, (3.5, 3.5, 6.5, 6.5), (4.5, 4.5, 5.5, 5.5))]
    assert oracle.oracle_select(in_hole, constraint) == []
    assert list(engine.select(in_hole, constraint, resolution=res).ids) == []
    # The buffer of a holed source leaves the middle of its hole empty.
    assert oracle.oracle_distance_select(in_hole, constraint, 0.4) == []
    assert list(engine.distance_select(in_hole, constraint, 0.4, resolution=res).ids) == []
    assert chunks == []
    # A probe filling the hole touches the hole's ring: rasterized, found.
    filling = box_record(4, 2, 2, 8, 8)
    assert list(engine.select(in_hole + [filling], constraint, resolution=res).ids) == [4]
    assert chunks == [[4]]


# ---------------------------------------------------------------------------
# Windows that meet a boundary without the probe meeting the object
# ---------------------------------------------------------------------------

def _corner_ls(eps: float) -> list:
    """L-shaped polylines around the corner (2, 2) of the box [1, 2]^2:
    hugging it from outside at eps, through it, and from inside at eps.
    Each one's box holds the corner's pixels."""
    out = []
    for rid, d in ((1, eps), (2, 0.0), (3, -eps)):
        c = 2.0 + d
        out.append(line_record(rid, [(0.5, c), (c, c), (c, 0.5)]))
    return out


@pytest.mark.parametrize("res", RESOLUTIONS)
@pytest.mark.parametrize("eps", [1e-9, 1e-4, 0.02])
def test_l_shaped_polylines_hugging_a_box_corner(res, eps):
    box = box_record(0, 1, 1, 2, 2)
    probes = _corner_ls(eps)
    want = oracle.oracle_select(probes, box)
    assert want == [2, 3]
    assert list(engine.select(probes, box, resolution=res).ids) == want
    for r in (eps / 2, 2 * eps):
        want = oracle.oracle_distance_select(probes, box, r)
        assert list(engine.distance_select(probes, box, r, resolution=res).ids) == want
    got = engine.aggregate([box], probes, resolution=res, layer_index=build_layer_index([box]))
    assert list(got.rows) == oracle.oracle_aggregate([box], probes)


@pytest.mark.parametrize("res", RESOLUTIONS)
def test_windows_clipped_by_the_viewport(res):
    """Probes leaving the viewport of the unit box, lying in its guard band,
    beside it, or around it (a hole holding the whole box)."""
    g = 0.5 / res
    probes = [
        box_record(1, 0.9, 0.4, 5, 0.6),                     # crosses out on the right
        line_record(2, [(1 + g, -3), (1 + g, 3)]),            # in the guard band, outside
        box_record(3, 2, 2, 3, 3),                            # off the viewport
        box_record(4, -5, -5, 5, 5),                          # covers the viewport
        _holed(5, (-5, -5, 5, 5), (-1, -1, 2, 2)),            # the box lies in its hole
        line_record(6, [(0.2, -g), (0.8, -g)]),               # under the box, in the band
        line_record(7, [(-3, 0.5), (0.5, 0.5), (0.5, 3)]),    # enters and leaves
        polygon_record(8, [[(-1, 1.0), (3, 1.0), (1, 3)]]),   # touches the top edge
    ]
    box = box_record(0, 0, 0, 1, 1)
    want = oracle.oracle_select(probes, box)
    assert want == [1, 4, 7, 8]
    assert list(engine.select(probes, box, resolution=res).ids) == want
    for r in (0.1 * g, 2 * g, 0.3):
        want = oracle.oracle_distance_select(probes, box, r)
        assert list(engine.distance_select(probes, box, r, resolution=res).ids) == want
    got = engine.aggregate([box], probes, resolution=res, layer_index=build_layer_index([box]))
    assert list(got.rows) == oracle.oracle_aggregate([box], probes)


# ---------------------------------------------------------------------------
# Several canvases: settled on one, rasterized for another, counted once
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("res", RESOLUTIONS)
def test_multi_layer_aggregate_counts_each_pair_once(res, monkeypatch):
    chunks = _rasterized(monkeypatch)
    big = box_record(0, 0, 0, 10, 10)
    small = [box_record(1, 4, 4, 4.5, 6), box_record(2, 7, 7, 8, 8)]
    constraints = [big] + small
    layers = build_layer_index(constraints)
    assert layers.layer_count == 2
    # P lies in the big box's interior and crosses small box 1; Q lies in
    # the interiors of the big box and small box 2; R in the big box only.
    probes = [GeometryRecord(r.id, r.kind, r.geometry, float(v)) for r, v in (
        (box_record(10, 3, 3, 5, 5), 1.5), (box_record(11, 7.3, 7.3, 7.7, 7.7), 2.0),
        (line_record(12, [(1, 8), (2, 9), (3, 8)]), 4.0))]
    for mode in ("count", "sum"):
        chunks.clear()
        got = engine.aggregate(constraints, probes, mode, resolution=res, layer_index=layers)
        assert list(got.rows) == oracle.oracle_aggregate(constraints, probes, mode)
        assert [row[:2] for row in got.rows] == [(0, 3), (1, 1), (2, 1)]
        rasterized = [rid for chunk in chunks for rid in chunk]
        assert 10 in rasterized and len(rasterized) == len(set(rasterized))
        if res >= 256:
            assert rasterized == [10]


# ---------------------------------------------------------------------------
# Random mixed probes, in memory and out of core
# ---------------------------------------------------------------------------

def _mixed(r) -> list:
    """Points, polylines, small and holed polygons and boxes of all sizes,
    in one id space."""
    recs = gen.mixed_dataset(r, 24)
    recs += gen.random_boxes(r, 6, min_size=0.01, max_size=0.5, start_id=len(recs))
    holed = gen.holed_polygon(tuple(r.uniform(0.2, 0.8, 2)), float(r.uniform(0.05, 0.3)))
    recs.append(GeometryRecord(len(recs), "polygon", [holed]))
    return recs


@settings(max_examples=25)
@given(seed=st.integers(0, 2**16), res=st.sampled_from(RESOLUTIONS),
       r=st.floats(0.005, 0.2))
def test_mixed_probes_agree_with_the_oracle(seed, res, r):
    rng = gen.rng(seed)
    data = _mixed(rng)
    source = _mixed(rng)[int(rng.integers(30))]
    want = oracle.oracle_distance_select(data, source, r)
    assert list(engine.distance_select(data, source, r, resolution=res).ids) == want
    constraint = GeometryRecord(0, "polygon", [gen.holed_polygon(
        tuple(rng.uniform(0.3, 0.7, 2)), float(rng.uniform(0.1, 0.45)))])
    want = oracle.oracle_select(data, constraint)
    cfg = Config(resolution=res, byte_budget=1 << 20, cache_factor=1)
    with tempfile.TemporaryDirectory() as tmp:
        storage.build_indexes(storage.ingest(data, "mixed", tmp), byte_budget=1024, config=cfg)
        store = storage.DatasetStore(tmp, "mixed", cfg)
        assert list(storage.ooc_select(store, constraint, config=cfg).ids) == want
    assert list(engine.select(data, constraint, resolution=res).ids) == want
