"""Golden bytes: seeded point, polygon, mixed and collinear stores are
written byte for byte as pinned here. The digests were taken from the
record-by-record build; a build that forms cells or hulls another way must
write the same ``records.bin``, ``cells.bin``, ``hulls.wkt`` and
``catalog.meta``."""

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
        "records.bin": "1970247f3bc53bdc1440b24cd955cf7482d4dfe2dc2935a4d8117933172e4596",
        "cells.bin": "b111968813dfddae3ce9826e6a104f5de98fa4ecc2307fe4f251e22d2d3c6e24",
        "hulls.wkt": "4b0483d2b3a1a6e3f15a38bb7120e9bfe03b04d84c61fd49ea90ae723205591a",
        "catalog.meta": "d074a85f93f539cd1cf0026b1fb41fc3839fa062d055a61981c5b9cc90bc26f1",
    },
    "mixed": {
        "records.bin": "5d62770f3416af4dced2444c82bfe3edbdfa7f93271cc198a96a8dc32ed0c5d9",
        "cells.bin": "bf529fd340cbfb05ca83a1a442ee272aad3d1f00178cbdc88f217c3cc489b73a",
        "hulls.wkt": "4bdcb0a37bd9305570cceada26049abefd53785b2cdedf560435072d4bde2eea",
        "catalog.meta": "d0f8d07e5a2d8e583e5c6969af3ab184bcecc0353513c30d50241694996883f4",
    },
    "points": {
        "records.bin": "09a4e741de913fdff48060e66e1214e10afc0822819bc0db2643868c2e7b9f4c",
        "cells.bin": "11d65a5819dc1159b50b64a012970737df54225cd26968566712514f3fb9d4b9",
        "hulls.wkt": "0ecd0c10f424de703295437d89c5f72f6a3cd8520bc3ed84bffd9c41cb829a71",
        "catalog.meta": "34fd106ccc0a0e7b612ecc992dc5f9ab275ddf7782759749b1b49667e4005815",
    },
    "polygons": {
        "records.bin": "325907e8b14b9f5c3276a00190066d1ddccf245b2c53ddda9253585ddf213876",
        "cells.bin": "0ca674ddc21b20b23712cbae46b63a92837943568d791abf849919e032c8bf65",
        "hulls.wkt": "e549317ab0036e297af74fdcb1aeef4bf911af7e8a8a9e4dba91485ee3ccc008",
        "catalog.meta": "2f105a896d887418821812bcad88980e1fc12d4abdda253399fadf77e3f335d6",
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
