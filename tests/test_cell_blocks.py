"""Column cell blocks: the codec round-trips every record kind, stores
holding several kinds agree with the brute-force oracle, a point cell loads
without decoding records one by one, a store holds one region per cell and
counts exactly the bytes it reads, and damaged or outdated stores raise
``CorruptionError`` instead of answering."""

import math

import numpy as np
import pytest

import gen
from rasterquery import engine, oracle, storage
from rasterquery.canvas_index import build_layer_index
from rasterquery.config import Config
from rasterquery.errors import CorruptionError, DataError
from rasterquery.geometry import GeometryRecord, box_record, line_record, point_record

CFG = Config(resolution=64, byte_budget=1 << 20, cache_factor=1)
BIG_ID = (1 << 63) - 1


def _decoded(records) -> list:
    return list(storage.decode_block(storage.encode_block(records)).records)


def _same_record(a, b):
    assert (a.id, a.kind, a.value) == (b.id, b.kind, b.value)
    if a.kind != "polygon":
        assert a.geometry == b.geometry
    else:
        assert len(a.geometry) == len(b.geometry)
        for pa, pb in zip(a.geometry, b.geometry):
            assert len(pa.rings) == len(pb.rings)
            for ra, rb in zip(pa.rings, pb.rings):
                np.testing.assert_array_equal(ra, rb)


# ---------------------------------------------------------------------------
# Codec
# ---------------------------------------------------------------------------

def test_point_values_round_trip_none_as_nan():
    recs = [point_record(1, 0.1, 0.2), point_record(2, 0.3, 0.4, 1.5),
            point_record(3, -5.0, 7.25, -2.0), point_record(4, 1e7, -1e7, 0.0)]
    points = storage.decode_block(storage.encode_block(recs))
    assert points.others == []
    assert points.ids.tolist() == [1, 2, 3, 4]
    assert np.isnan(points.values[0])
    assert points.values[1:].tolist() == [1.5, -2.0, 0.0]
    assert points.xy.tolist() == [[0.1, 0.2], [0.3, 0.4], [-5.0, 7.25], [1e7, -1e7]]
    for a, b in zip(_decoded(recs), recs):
        _same_record(a, b)
    assert _decoded(recs)[0].value is None


def test_largest_ids_round_trip():
    recs = [point_record(BIG_ID - 1, 0.5, 0.5, 3.0),
            GeometryRecord(BIG_ID, "polygon", [gen.holed_polygon()])]
    points = storage.decode_block(storage.encode_block(recs))
    assert points.ids.dtype == np.int64
    assert points.ids.tolist() == [BIG_ID - 1]
    assert points.others[0].id == BIG_ID


def test_ingest_rejects_ids_beyond_int64(tmp_path):
    with pytest.raises(DataError):
        storage.ingest([point_record(1 << 63, 0.0, 0.0)], "big", tmp_path)


@pytest.mark.parametrize("which", ["points only", "others only", "empty"])
def test_empty_sections(which):
    pts = gen.uniform_points(gen.rng(1), 5, values=True)
    polys = gen.random_polygons(gen.rng(2), 3, start_id=10)
    recs = {"points only": pts, "others only": polys, "empty": []}[which]
    data = storage.decode_block(storage.encode_block(recs))
    assert len(data.ids) == sum(r.kind == "point" for r in recs)
    assert len(data.others) == sum(r.kind != "point" for r in recs)
    assert data.xy.shape == (len(data.ids), 2)
    for a, b in zip(data.records, recs):
        _same_record(a, b)


def test_holed_polygons_and_polylines_after_points():
    r = gen.rng(3)
    recs = (gen.uniform_points(r, 20)
            + [GeometryRecord(20, "polygon", [gen.holed_polygon()], 4.5),
               line_record(21, [(0.1, 0.1), (0.4, 0.2), (0.3, 0.9)], 1.0),
               GeometryRecord(22, "polygon", [gen.holed_polygon((0.2, 0.2), 0.1),
                                              gen.concave_polygon(r, (0.8, 0.8), 0.1)])])
    got = _decoded(recs)
    assert [g.kind for g in got] == ["point"] * 20 + ["polygon", "polyline", "polygon"]
    for a, b in zip(got, recs):
        _same_record(a, b)


def test_decode_rejects_trailing_bytes():
    block = storage.encode_block(gen.uniform_points(gen.rng(4), 3))
    with pytest.raises(CorruptionError):
        storage.decode_block(block + b"\0")
    with pytest.raises(CorruptionError):
        storage.decode_block(block[:-1])


def test_prepared_points_from_arrays_sorts_by_id():
    pts = engine.PreparedPoints.from_arrays([5, 2, 9], [[0.5, 0.5], [0.2, 0.2], [0.9, 0.9]],
                                            [1.0, np.nan, 3.0])
    assert pts.ids.tolist() == [2, 5, 9]
    assert pts.xy[:, 0].tolist() == [0.2, 0.5, 0.9]
    assert [(r.id, r.value) for r in pts.records] == [(2, None), (5, 1.0), (9, 3.0)]


def test_read_records_returns_the_ingested_records(tmp_path):
    r = gen.rng(5)
    recs = gen.mixed_dataset(r, 40)
    cat = storage.ingest(recs, "mixed", tmp_path)
    for a, b in zip(storage.read_records(cat), recs):
        _same_record(a, b)


# ---------------------------------------------------------------------------
# Stores holding several kinds
# ---------------------------------------------------------------------------

class Mixed:
    """A 300-point + 10-polygon + 10-polyline store and a point store
    without values."""

    def __init__(self, root):
        r = gen.rng(8)
        self.records = (gen.uniform_points(r, 300, values=True)
                        + gen.random_polygons(r, 10, radius_frac=0.05, start_id=300)
                        + gen.random_polylines(r, 10, start_id=310))
        for rec in self.records[300:]:
            rec.value = float(rec.id)
        self.bare = gen.uniform_points(r, 200)
        self.hoods = [GeometryRecord(900 + i, "polygon", [gen.concave_polygon(r, c, 0.2)])
                      for i, c in enumerate([(0.3, 0.3), (0.72, 0.3), (0.5, 0.75)])]
        for name, recs in (("mixed", self.records), ("bare", self.bare)):
            storage.build_indexes(storage.ingest(recs, name, root), byte_budget=1792,
                                  config=CFG)
        self.store = storage.DatasetStore(root, "mixed", CFG)
        self.bare_store = storage.DatasetStore(root, "bare", CFG)


@pytest.fixture(scope="module")
def mixed(tmp_path_factory):
    return Mixed(tmp_path_factory.mktemp("mixed"))


def test_mixed_store_has_mixed_cells(mixed):
    cells = mixed.store.grid_index().cells
    assert len(cells) >= 4
    assert len(mixed.bare_store.grid_index().cells) >= 4
    loaded = [mixed.store.load_cell(c) for c in cells]
    assert any(len(d.ids) and d.others for d in loaded)


def test_mixed_ooc_select(mixed):
    cons = gen.concave_polygon(gen.rng(6), center=(0.45, 0.55), radius=0.3)
    got = storage.ooc_select(mixed.store, cons, config=CFG).ids
    assert list(got) == oracle.oracle_select(mixed.records, cons)


@pytest.mark.parametrize("where", [(0.5, 0.5), (0.15, 0.8)])
def test_mixed_ooc_distance_select(mixed, where):
    src = point_record(0, *where)
    r = gen.clear_distance_fixture(gen.rng(0), src, mixed.records[:300], 0.2)
    got = storage.ooc_distance_select(mixed.store, src, r, config=CFG).ids
    assert list(got) == oracle.oracle_distance_select(mixed.records, src, r)


@pytest.mark.parametrize("mode", ["count", "sum"])
def test_mixed_ooc_aggregate(mixed, mode):
    got = storage.ooc_aggregate(mixed.hoods, mixed.store, mode, config=CFG).rows
    want = oracle.oracle_aggregate(mixed.hoods, mixed.records, mode)
    assert [(c, n) for c, n, _ in got] == [(c, n) for c, n, _ in want]
    if mode == "sum":
        assert [s for _, _, s in got] == pytest.approx([s for _, _, s in want])


def test_ooc_aggregate_sum_needs_values(mixed):
    with pytest.raises(DataError):
        storage.ooc_aggregate(mixed.hoods, mixed.bare_store, "sum", config=CFG)


def test_ooc_knn_select_needs_a_point_store(mixed):
    with pytest.raises(DataError):
        storage.ooc_knn_select(mixed.store, (0.5, 0.5), 5, config=CFG)


def test_ooc_join_needs_a_polygon_store_on_the_left(mixed):
    with pytest.raises(DataError):
        storage.ooc_join(mixed.bare_store, mixed.store, config=CFG)


def test_ooc_join_against_points(mixed, tmp_path):
    polys = gen.random_polygons(gen.rng(9), 12, radius_frac=0.08, start_id=1000)
    storage.build_indexes(storage.ingest(polys, "polys", tmp_path), byte_budget=12 * 1024,
                          config=CFG)
    store = storage.DatasetStore(tmp_path, "polys", CFG)
    want = oracle.oracle_join(polys, mixed.bare)
    for resolution in (16, 64, 1024):
        got = storage.ooc_join(store, mixed.bare_store, resolution=resolution, config=CFG)
        assert list(got.pairs) == want, resolution


# ---------------------------------------------------------------------------
# Point cells load as columns
# ---------------------------------------------------------------------------

def test_point_cell_load_decodes_no_record(mixed, monkeypatch):
    calls = []
    real = storage.deserialize_record

    def counted(*args):
        calls.append(1)
        return real(*args)
    monkeypatch.setattr(storage, "deserialize_record", counted)
    store = storage.DatasetStore(mixed.store.catalog.directory.parent, "bare", CFG)
    for cell in store.grid_index().cells:
        data = store.load_cell(cell)
        assert len(data.ids) == cell.count and data.others == []
    assert calls == []


def test_point_queries_build_no_point_record(mixed, monkeypatch):
    """The out-of-core point paths read cell columns only; no point record
    is built from a cell's columns."""
    def no_records(*columns):
        raise AssertionError("point records built on a cell load path")
    store = storage.DatasetStore(mixed.store.catalog.directory.parent, "bare", CFG)
    monkeypatch.setattr(engine, "_point_records", no_records)
    cons = gen.concave_polygon(gen.rng(6), center=(0.45, 0.55), radius=0.3)
    src = point_record(0, 0.4, 0.6)
    assert storage.ooc_select(store, cons, config=CFG).ids
    assert storage.ooc_distance_select(store, src, 0.2, config=CFG).ids
    assert storage.ooc_distance_join([src], store, 0.2, config=CFG).pairs
    assert storage.ooc_aggregate(mixed.hoods, store, "count", config=CFG).rows
    assert len(storage.ooc_knn_select(store, (0.4, 0.6), 5, config=CFG)) == 5


def test_ooc_knn_select_breaks_ties_toward_lower_id(tmp_path):
    # Four points at the same distance from the centre, one nearer, and
    # none other within 0.2.
    recs = [point_record(7, 0.6, 0.5), point_record(3, 0.4, 0.5), point_record(9, 0.5, 0.6),
            point_record(5, 0.5, 0.4), point_record(11, 0.52, 0.5)]
    recs += [point_record(100 + i, *xy) for i, xy in
             enumerate(gen.rng(10).uniform(0.0, 1.0, (120, 2)))
             if math.hypot(xy[0] - 0.5, xy[1] - 0.5) > 0.2]
    storage.build_indexes(storage.ingest(recs, "ties", tmp_path), byte_budget=1024, config=CFG)
    store = storage.DatasetStore(tmp_path, "ties", CFG)
    assert len(store.grid_index().cells) >= 4
    got = storage.ooc_knn_select(store, (0.5, 0.5), 3, config=CFG)
    assert [i for i, _ in got] == [11, 3, 5]
    assert [d for _, d in got] == pytest.approx([0.02, 0.1, 0.1])


# ---------------------------------------------------------------------------
# One region per cell
# ---------------------------------------------------------------------------

@pytest.fixture
def small_store(tmp_path):
    recs = gen.uniform_points(gen.rng(12), 200, values=True)
    storage.build_indexes(storage.ingest(recs, "pts", tmp_path), byte_budget=2048, config=CFG)
    return tmp_path, tmp_path / "pts"


@pytest.fixture
def poly_store(tmp_path):
    """A polygon store of several cells whose polygons overlap, so cells
    hold several layers."""
    recs = gen.random_polygons(gen.rng(13), 24, radius_frac=0.08)
    storage.build_indexes(storage.ingest(recs, "polys", tmp_path), byte_budget=1024, config=CFG)
    store = storage.DatasetStore(tmp_path, "polys", CFG)
    assert len(store.grid_index().cells) >= 4
    return store


def _open(root):
    store = storage.DatasetStore(root, "pts", CFG)
    store.grid_index()
    return store


def _cell_rows(store) -> list:
    """The cells.bin table rows of a store, in cell order."""
    blob = (store.catalog.directory / "cells.bin").read_bytes()
    ncells = len(store.grid_index().cells)
    return list(storage._CELL_ROW.iter_unpack(
        blob[storage._HEAD_SIZE:storage._HEAD_SIZE + ncells * storage._CELL_ROW.size]))


def _region_offset(store, cell) -> int:
    ncells = len(store.grid_index().cells)
    return storage._HEAD_SIZE + ncells * storage._CELL_ROW.size + cell.offset


def _answers(store):
    """A selection that loads every cell."""
    return storage.ooc_select(store, box_record(0, -0.1, -0.1, 1.1, 1.1), config=CFG)


def test_store_holds_four_files(small_store, poly_store):
    for d in (small_store[1], poly_store.catalog.directory):
        assert sorted(f.name for f in d.iterdir()) == \
            ["catalog.meta", "cells.bin", "hulls.wkt", "records.bin"]


def test_point_cells_have_no_layer_slice(small_store):
    store = _open(small_store[0])
    rows = _cell_rows(store)
    assert len(rows) >= 4
    for cell, (*_, offset, blen, slen, crc) in zip(store.grid_index().cells, rows):
        assert slen == 0 and cell.byte_size == blen
        assert (cell.offset, cell.crc) == (offset, crc)
        assert len(store.load_cell(cell).layer_slice) == 0


def test_bytes_transferred_is_the_regions_read(small_store, poly_store, monkeypatch):
    """Each load is one read and one CRC check of the cell's region, and
    ``bytes_transferred`` adds the regions' lengths: the bytes read."""
    reads = []
    real = storage._read_checked

    def counted(path, offset, length, crc, what):
        blob = real(path, offset, length, crc, what)
        reads.append(len(blob))
        return blob
    monkeypatch.setattr(storage, "_read_checked", counted)
    for store in (_open(small_store[0]), poly_store):
        reads.clear()
        _answers(store)
        regions = [blen + slen for *_, blen, slen, _ in _cell_rows(store)]
        assert len(reads) == len(regions)
        assert sorted(reads) == sorted(regions)
        assert store.bytes_transferred == sum(regions) == \
            sum(c.byte_size for c in store.grid_index().cells)


def test_polygon_cells_carry_their_layer_index(poly_store):
    multi = 0
    for cell in poly_store.grid_index().cells:
        data = poly_store.load_cell(cell)
        want = build_layer_index(data.others)
        assert data.layers.layers == want.layers
        assert oracle.oracle_layers_valid(data.others, data.layers)
        multi += data.layers.layer_count > 1
    assert multi


def test_cell_sizes_bound_the_regions(poly_store):
    """``build_grid_index`` sizes a cell with no layer index built, by an
    upper bound of its layer slice; the region written is no larger."""
    records = storage.read_records(poly_store.catalog)
    index, _ = storage.build_grid_index(records, poly_store.catalog.byte_budget, CFG, "polygon")
    written = poly_store.grid_index().cells
    assert [c.key for c in index.cells] == [c.key for c in written]
    for bound, cell in zip(index.cells, written):
        assert cell.byte_size <= bound.byte_size <= poly_store.catalog.byte_budget


# ---------------------------------------------------------------------------
# Damaged and outdated stores
# ---------------------------------------------------------------------------

def _flip(path, offset):
    blob = bytearray(path.read_bytes())
    blob[offset] ^= 0x40
    path.write_bytes(bytes(blob))


def test_intact_store_answers(small_store):
    store = _open(small_store[0])
    assert len(store.grid_index().cells) >= 4
    assert _answers(store).ids


def test_truncated_cells_bin(small_store):
    root, d = small_store
    loaded = _open(root)
    unread = storage.DatasetStore(root, "pts", CFG)
    blob = (d / "cells.bin").read_bytes()
    (d / "cells.bin").write_bytes(blob[:len(blob) - 100])
    with pytest.raises(CorruptionError):
        _answers(loaded)
    with pytest.raises(CorruptionError):
        storage.DatasetStore(root, "pts", CFG)
    (d / "cells.bin").write_bytes(blob[:storage._HEAD_SIZE + 10])
    with pytest.raises(CorruptionError):
        unread.grid_index()


def test_flipped_byte_in_point_block(small_store):
    root, d = small_store
    store = _open(root)
    cell = store.grid_index().cells[-1]
    # A byte of the last point's y coordinate.
    _flip(d / "cells.bin", _region_offset(store, cell) + cell.byte_size - 3)
    with pytest.raises(CorruptionError):
        store.load_cell(cell)
    with pytest.raises(CorruptionError):
        _answers(store)
    with pytest.raises(CorruptionError):
        storage.DatasetStore(root, "pts", CFG)


def test_flipped_byte_in_layers_slice(poly_store):
    cell = poly_store.grid_index().cells[0]
    *_, blen, slen, _ = _cell_rows(poly_store)[0]
    assert slen > 0
    # A byte of the first layer's first id.
    _flip(poly_store.catalog.directory / "cells.bin",
          _region_offset(poly_store, cell) + blen + 8)
    with pytest.raises(CorruptionError):
        poly_store.load_cell(cell)
    with pytest.raises(CorruptionError):
        storage.ooc_join(poly_store, poly_store, config=CFG)


def test_catalog_of_another_version(small_store):
    root, d = small_store
    meta = d / "catalog.meta"
    meta.write_text(meta.read_text().replace(f"version={storage.FORMAT_VERSION}",
                                             "version=1"))
    with pytest.raises(CorruptionError):
        storage.DatasetStore(root, "pts", CFG)


def test_cells_bin_of_another_version(small_store):
    root, d = small_store
    store = storage.DatasetStore(root, "pts", CFG)
    blob = bytearray((d / "cells.bin").read_bytes())
    blob[len(storage.MAGIC)] = 1
    (d / "cells.bin").write_bytes(bytes(blob))
    with pytest.raises(CorruptionError):
        store.grid_index()


@pytest.mark.parametrize("version", [2, 3])
def test_version_2_stores_are_refused(small_store, version):
    """Stores written while polygon records still held triangles (format
    version 2), or while each cell was split over cells.bin, bindex.bin and
    layers.bin (version 3), are refused, by their catalog and by their
    files."""
    assert storage.FORMAT_VERSION == 4
    root, d = small_store
    store = storage.DatasetStore(root, "pts", CFG)
    for name in ("records.bin", "cells.bin"):
        blob = bytearray((d / name).read_bytes())
        blob[len(storage.MAGIC):len(storage.MAGIC) + 2] = version.to_bytes(2, "little")
        (d / name).write_bytes(bytes(blob))
    with pytest.raises(CorruptionError):
        storage.read_records(store.catalog)
    with pytest.raises(CorruptionError):
        store.grid_index()
    meta = d / "catalog.meta"
    meta.write_text(meta.read_text().replace("version=4", f"version={version}"))
    with pytest.raises(CorruptionError):
        storage.DatasetStore(root, "pts", CFG)
