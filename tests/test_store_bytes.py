"""Golden bytes: seeded point, polygon, mixed and collinear stores are
written byte for byte as pinned here, and every cell decodes to exactly
the rows ingested into it. The ``hulls.wkt`` digests were taken from the
record-by-record build of store format 4 and still hold: format 5 keeps
every row at its format-4 length and every box exact, so zooms, cells and
hulls are the same. ``records.bin``, ``cells.bin`` and ``catalog.meta`` are
pinned at format 5, whose version and columnar others section they hold;
a build that forms cells or hulls another way must write the same bytes."""

import hashlib

import numpy as np
import pytest

import gen
from rasterquery import storage
from rasterquery.config import Config
from rasterquery.geometry import point_record

CFG = Config(resolution=64, byte_budget=1 << 20, cache_factor=1)
FILES = ("records.bin", "cells.bin", "hulls.wkt", "catalog.meta")


def _points():
    """3000 clustered points under scattered ids, some up to 2^63 - 1, one
    in seven without a value."""
    r = gen.rng(31)
    xy = r.normal(0.5, 0.15, (3000, 2))
    ids = r.choice(1 << 40, 3000, replace=False)
    ids[:3] = [(1 << 63) - 1, (1 << 63) - 2, 1 << 62]
    vals = r.uniform(0, 10, 3000)
    return [point_record(int(i), x, y, None if k % 7 == 0 else float(v))
            for k, (i, (x, y), v) in enumerate(zip(ids, xy, vals))]


def _polygons():
    """Overlapping small polygons (several layers a cell) over a lattice of
    disjoint ones, every third with holes."""
    r = gen.rng(32)
    return (gen.random_polygons(r, 120, radius_frac=0.04)
            + gen.disjoint_polygons(r, 6, start_id=500))


def _mixed():
    return gen.mixed_dataset(gen.rng(33), 400)


def _collinear():
    """Points on one diagonal near (1e7, 1e7), with duplicates: every cell's
    hull is a padded box."""
    t = np.linspace(0.0, 100.0, 60)
    pts = [point_record(i, 1e7 + x, 1e7 + x) for i, x in enumerate(t)]
    return pts + [point_record(60 + i, 1e7, 1e7) for i in range(3)]


STORES = {
    "points": (_points, 16 * 1024),
    "polygons": (_polygons, 8 * 1024),
    "mixed": (_mixed, 4096),
    "collinear": (_collinear, 512),
}

GOLDEN = {
    "collinear": {
        "records.bin": "14218da9505d58311af130e9adda91a60a7e6ad5199f88813e3e027b3bb46a7a",
        "cells.bin": "caf4700cd559a7d4f95d5d60435bb962b39ad22be3b978133f458db2bf7ebb75",
        "hulls.wkt": "4b0483d2b3a1a6e3f15a38bb7120e9bfe03b04d84c61fd49ea90ae723205591a",
        "catalog.meta": "2d50eeb5fa63471472234acc841f7067f08d83d1f1fb89e0b9e77d1d8d19d0af",
    },
    "mixed": {
        "records.bin": "63c029d5dd789713cf0f133ab38d019428603e7e454f0db133e1640dd27717d7",
        "cells.bin": "60d7c021a0afee370119ec8fce9723cc987e32fe71049728fd63e15e607a54d8",
        "hulls.wkt": "4bdcb0a37bd9305570cceada26049abefd53785b2cdedf560435072d4bde2eea",
        "catalog.meta": "495715f591e8bcaa707dfd0ee2df5935511c928b9a5ff44586dfdbc00c368ba0",
    },
    "points": {
        "records.bin": "ca0b63f72cf209cbed7330edfe5376d0bdd5af36e8c955ba361fc99791148104",
        "cells.bin": "4df46b09af18beef5cd9dc25a92299e7e4a64f588a4a9571d18774736331ad4a",
        "hulls.wkt": "0ecd0c10f424de703295437d89c5f72f6a3cd8520bc3ed84bffd9c41cb829a71",
        "catalog.meta": "392e7f8a9946fe97864946aeefe9ef976b3b1d91975955307eaade05b4e9771b",
    },
    "polygons": {
        "records.bin": "03177500a850e969ea804ec738876403bc4d22e15940ed8f9e209586b4ff3c67",
        "cells.bin": "cba850790a3157a511b96e57c6f93c87686976ac46cc57694665bae59c11dc61",
        "hulls.wkt": "e549317ab0036e297af74fdcb1aeef4bf911af7e8a8a9e4dba91485ee3ccc008",
        "catalog.meta": "95fd9d93d96944e1d55ca3a26e488908b3de00a88d20c7a966a2aed26c54964a",
    },
}


def _digests(root, name) -> dict:
    make, budget = STORES[name]
    recs = make()
    shuffled = [recs[k] for k in gen.rng(7).permutation(len(recs))]
    storage.build_indexes(storage.ingest(shuffled, name, root), byte_budget=budget, config=CFG)
    return {f: hashlib.sha256((root / name / f).read_bytes()).hexdigest() for f in FILES}


@pytest.mark.parametrize("name", sorted(STORES))
def test_store_files_match_their_pinned_bytes(tmp_path, name):
    assert _digests(tmp_path, name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(STORES))
def test_golden_cells_decode_to_their_ingested_rows(tmp_path, name):
    """Each cell of a golden store holds its rows in id order, points then
    others, each exactly as ingested, and the cells partition the records."""
    _digests(tmp_path, name)
    ingested = {rec.id: rec for rec in STORES[name][0]()}
    store = storage.DatasetStore(tmp_path, name, CFG)
    seen = []
    for cell in store.grid_index().cells:
        data = store.load_cell(cell)
        assert len(data) == cell.count
        assert np.all(np.diff(data.ids) > 0) and np.all(np.diff(data.probes.ids) > 0)
        for rec in data.records:
            gen.assert_same_record(rec, ingested[rec.id])
        seen += [rec.id for rec in data.records]
    assert sorted(seen) == sorted(ingested)
