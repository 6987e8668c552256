"""kNN selection and join agree with the brute-force oracle, ids and
distances, ties at the k-th distance included: in memory, on a
``PreparedPoints`` and on a plain record list, and out of core, through a
store of tiny cells. No kNN query renders a canvas."""

import collections
import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from rasterquery import canvas, engine, oracle, storage
from rasterquery.config import Config
from rasterquery.errors import DataError
from rasterquery.geometry import (
    Point2,
    point_record,
    project_4326_to_3857,
    project_record_4326_to_3857,
)

N = 120
CFG = Config(resolution=64, byte_budget=1 << 20, cache_factor=1)


@pytest.fixture(scope="module")
def points():
    return gen.gaussian_points(gen.rng(21), N)


def _forms(records):
    return {"prepared": engine.PreparedPoints(records), "records": list(records)}


def _same(got, want):
    assert [rid for rid, _ in got] == [rid for rid, _ in want]
    assert [d for _, d in got] == pytest.approx([d for _, d in want], rel=1e-12)


@pytest.mark.parametrize("form", ["prepared", "records"])
@pytest.mark.parametrize("k", [1, 10, N])
def test_knn_select(points, form, k):
    data = _forms(points)[form]
    for p in (Point2(0.5, 0.5), Point2(0.93, 0.12), Point2(-0.4, 1.6)):
        _same(engine.knn_select(data, p, k),
              oracle.oracle_knn_select(points, p, k))


def tied_points():
    """Four points at distance 0.125 from (0.5, 0.5), four at 0.25 and four
    far off, with ids shuffled so that tie-breaking by id shows. The tied
    coordinates are exact binary fractions, so their distances are equal
    in floating point."""
    offsets = [(0.125, 0), (0, 0.125), (-0.125, 0), (0, -0.125),
               (0.25, 0), (0, 0.25), (-0.25, 0), (0, -0.25)]
    ids = [7, 3, 11, 5, 9, 2, 10, 4]
    return [point_record(i, 0.5 + dx, 0.5 + dy) for i, (dx, dy) in zip(ids, offsets)] \
        + [point_record(20 + i, 0.1 * i, 0.95) for i in range(4)]


@pytest.mark.parametrize("form", ["prepared", "records"])
@pytest.mark.parametrize("k", [1, 3, 5, 6])
def test_knn_select_breaks_ties_toward_lower_id(form, k):
    recs = tied_points()
    got = engine.knn_select(_forms(recs)[form], (0.5, 0.5), k)
    assert got == oracle.oracle_knn_select(recs, Point2(0.5, 0.5), k)
    assert [rid for rid, _ in got] == [3, 5, 7, 11, 2, 4][:k]


@pytest.mark.parametrize("form", ["prepared", "records"])
@pytest.mark.parametrize("k", [1, 10, N])
def test_knn_join(points, form, k):
    left = gen.uniform_points(gen.rng(22), 6)
    assert engine.knn_join(left, _forms(points)[form], k) \
        == oracle.oracle_knn_join(left, points, k)


@pytest.mark.parametrize("form", ["prepared", "records"])
def test_knn_join_breaks_ties_toward_lower_id(form):
    recs = tied_points()
    left = [point_record(0, 0.5, 0.5)]
    got = engine.knn_join(left, _forms(recs)[form], 5)
    assert got == oracle.oracle_knn_join(left, recs, 5) == [(0, [3, 5, 7, 11, 2])]


@pytest.mark.parametrize("form", ["prepared", "records"])
def test_knn_select_geographic(form):
    r = gen.rng(23)
    recs = [point_record(i, lon, lat) for i, (lon, lat)
            in enumerate(zip(r.uniform(2.0, 2.6, 80), r.uniform(48.6, 49.0, 80)))]
    got = engine.knn_select(_forms(recs)[form], (2.3, 48.8), 7, geographic=True)
    want = oracle.oracle_knn_select([project_record_4326_to_3857(rec) for rec in recs],
                                    project_4326_to_3857(Point2(2.3, 48.8)), 7)
    _same(got, want)
    assert all(math.isfinite(d) and d > 1.0 for _, d in got)


@pytest.mark.parametrize("query", ["knn_select", "distance_select"])
def test_geographic_points_are_projected_once(monkeypatch, query):
    """A ``PreparedPoints`` keeps its EPSG:3857 copy, also as the dataset
    of a selection: a second geographic query over it projects no
    point."""
    r = gen.rng(24)
    prepared = engine.PreparedPoints(
        [point_record(i, lon, lat) for i, (lon, lat)
         in enumerate(zip(r.uniform(2.0, 2.6, 80), r.uniform(48.6, 49.0, 80)))])
    calls = []
    real = engine.project_points_4326_to_3857

    def project(xy):
        calls.append(len(xy))
        return real(xy)
    monkeypatch.setattr(engine, "project_points_4326_to_3857", project)
    if query == "knn_select":
        def run():
            return engine.knn_select(prepared, (2.3, 48.8), 7, geographic=True)
    else:
        data = prepared
        source = point_record(0, 2.3, 48.8)

        def run():
            return engine.distance_select(data, source, 5e3, 64, geographic=True)
    first = run()
    assert calls == [80]
    assert run() == first
    assert calls == [80]


@pytest.mark.parametrize("form", ["prepared", "records"])
@pytest.mark.parametrize("k", [0, -1, N + 1])
def test_knn_rejects_bad_k(points, form, k):
    data = _forms(points)[form]
    with pytest.raises(DataError):
        engine.knn_select(data, Point2(0.5, 0.5), k)
    with pytest.raises(DataError):
        engine.knn_join(points[:3], data, k)


@pytest.mark.parametrize("n", [16, 128])
def test_count_within_matches_brute_force(n):
    """The count reads only the x slab of the circle; it must still
    count every point within r, including points just inside the slab's
    ends, on a sparse and a denser point set."""
    prepared = engine.PreparedPoints(gen.gaussian_points(gen.rng(21), n))
    for cx, cy in ((0.5, 0.5), (0.35, 0.6), (1.4, -0.2)):
        d = np.hypot(prepared.xy[:, 0] - cx, prepared.xy[:, 1] - cy)
        for r in (0.02, 0.1, 0.3, float(np.sort(d)[9])):
            assert engine._count_within(prepared, Point2(cx, cy), r) == int((d <= r).sum())


def _count_forms(records):
    """The points as built from records, as a stored cell's read-only
    ``np.frombuffer`` columns, and moved to near 1e7 (EPSG:3857 scale) and
    scaled by 1000."""
    cell = storage.decode_block(storage.encode_block(engine.Dataset(records)))
    assert not cell.xy.flags.writeable
    far = [point_record(rec.id, 1e7 + 1000 * rec.geometry.x, 1e7 + 1000 * rec.geometry.y)
           for rec in records]
    return {"records": engine.PreparedPoints(records), "cell": cell,
            "far": engine.PreparedPoints(far)}


@pytest.mark.parametrize("form", ["records", "cell", "far"])
def test_count_within_at_point_distances(points, form):
    """With r exactly a point's distance, that point counts; so does a point
    exactly at either end of the x slab, and one a float step past r does
    not."""
    prepared = _count_forms(points)[form]
    xy = prepared.xy
    centers = [Point2(*xy[j]) for j in (0, 5, 17)] + [Point2(xy[3, 0] + (xy[4, 0] - xy[3, 0]) / 3,
                                                         xy[3, 1])]
    for c in centers:
        d = np.hypot(xy[:, 0] - c.x, xy[:, 1] - c.y)
        for r in np.sort(d)[1::7]:
            r = float(r)
            assert engine._count_within(prepared, c, r) == int((d <= r).sum())
    # Points on the slab's ends and just past them.
    c, r = Point2(*xy[0]), float(np.sort(np.hypot(xy[:, 0] - xy[0, 0], xy[:, 1] - xy[0, 1]))[20])
    ends = np.array([[c.x + r, c.y], [c.x - r, c.y],
                     [np.nextafter(c.x + r, np.inf), c.y], [np.nextafter(c.x - r, -np.inf), c.y]])
    both = engine.PreparedPoints.from_arrays(
        np.arange(len(xy) + 4), np.vstack([xy, ends]), np.full(len(xy) + 4, np.nan))
    d = np.hypot(both.xy[:, 0] - c.x, both.xy[:, 1] - c.y)
    assert engine._count_within(both, c, r) == int((d <= r).sum())
    # x lies past cx + r, yet x - cx rounds (a tie, to even) down to r.
    tie = engine.PreparedPoints.from_arrays([0], [[1 + 2.0 ** -52, 0.0]], [np.nan])
    assert engine._count_within(tie, Point2(2.0 ** -53, 0.0), 1.0) == 1


def test_knn_radius_with_every_point_at_the_centre():
    """All points at the centre: the x extent is zero, and the slab still
    starts with a positive half-width."""
    recs = [point_record(i, 0.3, 0.3) for i in range(5)]
    prepared = engine.PreparedPoints(recs)
    c = Point2(0.3, 0.3)
    for k in (1, 5):
        assert engine.knn_select(prepared, c, k) == oracle.oracle_knn_select(recs, c, k)


def _forbid_canvases(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a kNN query rendered a canvas")
    monkeypatch.setattr(canvas.DistanceCanvasBuilder, "finalize", forbidden)
    monkeypatch.setattr(canvas, "render_geometry_canvas", forbidden)


@pytest.fixture(scope="module")
def store(points, tmp_path_factory):
    """The fixture points in cells of at most six points."""
    root = tmp_path_factory.mktemp("knn")
    storage.build_indexes(storage.ingest(points, "pts", root), byte_budget=200, config=CFG)
    store = storage.DatasetStore(root, "pts", CFG)
    assert len(store.grid_index().cells) >= 16
    return store


@pytest.mark.parametrize("k", [1, 10, N])
def test_knn_select_renders_no_canvas(points, store, monkeypatch, k):
    """kNN ranks points by distance; no canvas is rendered, in memory or
    out of core."""
    prepared = engine.PreparedPoints(points)
    _forbid_canvases(monkeypatch)
    p = Point2(0.4, 0.55)
    want = oracle.oracle_knn_select(points, p, k)
    assert engine.knn_select(prepared, p, k) == want
    assert storage.ooc_knn_select(store, p, k, config=CFG) == want


def test_knn_join_renders_no_canvas(points, store, monkeypatch):
    _forbid_canvases(monkeypatch)
    left = gen.uniform_points(gen.rng(27), 12)
    want = oracle.oracle_knn_join(left, points, 10)
    assert engine.knn_join(left, engine.PreparedPoints(points), 10) == want
    assert storage.ooc_knn_join(left, store, 10, config=CFG) == want


@pytest.mark.parametrize("radius", [0.05, 0.2])
def test_distance_join_takes_prepared_points(points, radius):
    """A ``PreparedPoints`` D2 gives the record list's pairs, whichever side
    a single radius makes the sources."""
    prepared = engine.PreparedPoints(points)
    for left in (gen.uniform_points(gen.rng(24), 5), gen.uniform_points(gen.rng(25), 2 * N)):
        want = oracle.oracle_distance_join(left, points, radius)
        assert list(engine.distance_join(left, prepared, radius, resolution=64).pairs) == want
        assert list(engine.distance_join(left, prepared, [radius] * len(left),
                                         resolution=64).pairs) == want


# ---------------------------------------------------------------------------
# Degenerate inputs and ties, in memory and through a store of tiny cells
# ---------------------------------------------------------------------------

def _tiny_store(recs, root, budget=200):
    storage.build_indexes(storage.ingest(recs, "pts", root), byte_budget=budget, config=CFG)
    return storage.DatasetStore(root, "pts", CFG)


def _check_knn(recs, centres, ks, store):
    """Every centre and k, in memory (both dataset forms) and out of core,
    against the oracle, ids and distances (the oracle's ``math.hypot`` may
    differ from ``np.hypot`` in the last place); and the join of all
    centres."""
    left = [point_record(1000 + i, c.x, c.y) for i, c in enumerate(centres)]
    for k in ks:
        for c in centres:
            want = oracle.oracle_knn_select(recs, c, k)
            for data in _forms(recs).values():
                _same(engine.knn_select(data, c, k), want)
            _same(storage.ooc_knn_select(store, c, k, config=CFG), want)
        want = oracle.oracle_knn_join(left, recs, k)
        assert engine.knn_join(left, recs, k) == want
        assert storage.ooc_knn_join(left, store, k, config=CFG) == want


def _coincident():
    return [point_record(i, 0.3, 0.3) for i in (4, 1, 3, 2, 0)]


DEGENERATE = {
    # Zero extent: the slab's start width must still be positive.
    "coincident": (_coincident(), [Point2(0.3, 0.3), Point2(0.9, -0.2), Point2(1e7, 1e7)],
                   [1, 3, 5]),
    "coincident far off": ([point_record(i, 1e7, -1e7) for i in (3, 1, 2)],
                           [Point2(1e7, -1e7), Point2(0.0, 0.0)], [1, 2, 3]),
    "centre 1e7 away": (gen.gaussian_points(gen.rng(21), N),
                        [Point2(1e7, -1e7), Point2(0.5, 1e7)], [1, 7, N]),
    "centre outside the bbox": (gen.gaussian_points(gen.rng(21), N),
                                [Point2(-0.4, 1.6), Point2(2.0, 0.5), Point2(0.5, -3.0)],
                                [1, 7, N]),
}


@pytest.mark.parametrize("case", list(DEGENERATE))
def test_knn_on_degenerate_inputs(case, tmp_path):
    recs, centres, ks = DEGENERATE[case]
    _check_knn(recs, centres, ks, _tiny_store(recs, tmp_path))


def _hull_tie():
    """Around (0.5, 0.5), three points at exactly 5/16, (3, 4, 5) times
    1/16. Ids 50 and 60 share a cell whose hull chord passes nearer than
    5/16; id 1 is the top vertex of another cell's hull, at exactly 5/16
    both as a point and as that hull's distance."""
    return [point_record(50, 0.8125, 0.5), point_record(60, 0.6875, 0.75),
            point_record(101, 1.0, 1.0),
            point_record(1, 0.5, 0.1875), point_record(70, 0.5625, 0.125),
            point_record(71, 0.75, 0.125),
            point_record(100, 0.0, 0.0)]


@pytest.mark.parametrize("k", [1, 2])
def test_ooc_knn_loads_the_cell_whose_hull_ties_the_kth_distance(k, tmp_path, monkeypatch):
    """The lower id of a tie at the k-th distance sits in a cell whose hull
    distance equals that distance, and that cell comes after the nearer
    cell that first sets it: the walk stops only at a hull strictly
    farther, so that cell is still loaded, once."""
    recs, c, kth = _hull_tie(), Point2(0.5, 0.5), 5 / 16
    store = _tiny_store(recs, tmp_path)
    index = store.grid_index()
    hull_d = storage._hull_distances(index, c)
    near, tie = (next(j for j, cell in enumerate(index.cells)
                      if any(rec.id == i for rec in store.load_cell(cell).records))
                 for i in (50, 1))
    assert near != tie and hull_d[near] < kth and hull_d[tie] == kth
    assert sorted(hull_d)[2] > kth
    store = storage.DatasetStore(tmp_path, "pts", CFG)
    loads = []
    real = storage.DatasetStore.load_cell

    def counted(self, cell):
        loads.append(cell.key)
        return real(self, cell)
    monkeypatch.setattr(storage.DatasetStore, "load_cell", counted)
    want = oracle.oracle_knn_select(recs, c, k)
    assert [i for i, _ in want] == [1, 50][:k] and want[-1][1] == kth
    assert storage.ooc_knn_select(store, c, k, config=CFG) == want
    assert loads == [index.cells[near].key, index.cells[tie].key]
    assert engine.knn_select(recs, c, k) == want


# Binary fractions on a coarse lattice: duplicate points and equal distances
# are common, and every distance is computed the same way by every path.
_coord = st.integers(-4, 12).map(lambda i: i / 8)


@settings(max_examples=40)
@given(xy=st.lists(st.tuples(_coord, _coord), min_size=1, max_size=14),
       centre=st.tuples(st.integers(-16, 24).map(lambda i: i / 16),
                        st.integers(-16, 24).map(lambda i: i / 16)),
       seed=st.integers(0, 2**16), data=st.data())
def test_knn_matches_oracle_with_ties(xy, centre, seed, data):
    """Small point sets with duplicates and tied distances, every k from 1
    to n: every kNN path returns the oracle's ids and distances."""
    ids = np.random.default_rng(seed).permutation(4 * len(xy))[:len(xy)]
    recs = [point_record(int(i), x, y) for i, (x, y) in zip(ids, xy)]
    k = data.draw(st.integers(1, len(recs)))
    c = Point2(*centre)
    # Cells of two points, or of as many as share one spot: a tile never
    # splits duplicates.
    most = max(collections.Counter(xy).values())
    with tempfile.TemporaryDirectory() as root:
        _check_knn(recs, [c, Point2(centre[1], centre[0])], sorted({1, k, len(recs)}),
                   _tiny_store(recs, root, budget=8 + 32 * max(most, 2)))
