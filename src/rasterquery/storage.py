"""Dataset catalog, clustered grid index with convex-hull cell bounds, cell
serialization, and out-of-core query execution.

Queries filter cells by their convex hulls with exact array kernels of
``geometry`` and no canvas: ``records_intersect`` for selections and joins,
``polygon_distances`` for distance queries. Both read the index's hull
table (``GridIndex.hulls``), built once per index and reused by every
filter. Every ``ooc_*`` query runs the in-memory engine's own probe loop:
it checks its inputs with the engine, filters the cells, then streams the
kept cells, each loaded once, past canvases rendered once per query; a
filter that keeps nothing renders nothing. ``ooc_join`` runs its plan's
load order instead: it loads each hull-filtered A cell once, keeps the B
cells some polygon of the cell meets, and renders the cell's layers once,
with those B cells streamed past them. kNN renders
no canvas: it walks the cells best-first by hull distance and ranks the
points of each cell it reaches, loaded once, by exact (distance, id).

A dataset directory holds four files: ``catalog.meta`` (text key-value),
``records.bin`` (the ingested records), ``cells.bin`` (the grid cells) and
``hulls.wkt`` (each cell's convex hull). Binary files are little-endian and
start with the magic ``SPDC1``, a ``<H`` format version and a ``<I``
count. A store whose catalog or binary files name another version than
``FORMAT_VERSION`` is refused with ``CorruptionError``.

Records are stored in column blocks of contiguous columns, read by
``np.frombuffer``; ``records.bin`` holds one block for the whole dataset.

- header ``<II``: point rows n, other rows m;
- point section: ``ids`` n x ``<u8``, ``values`` n x ``<f8`` (NaN where a
  point has no value) and ``xy`` n x 2 ``<f8``;
- others section, the polylines and polygons: ``ids`` m x ``<u8``,
  ``values`` m x ``<f8``, kind codes m x ``u1``; then ``<u4`` counts: m
  edge counts (segments, or ring vertices), m part counts (0 for a
  polyline), a ring count per polygon part and a vertex count per polygon
  ring; then the polygons' ring vertices V x 2 and the polylines'
  segments S x 4 ``<f8``.

A polygon row takes 25 + 4 parts + 4 rings + 16 vertices bytes, a polyline
row 25 + 32 segments (``_row_lengths``). Decoding checks every count
against the kinds, the block length and, for the edge counts, the vertex
counts, raising ``CorruptionError`` on any disagreement, and reads the
others section straight into the ``RecordTable`` of a ``Dataset``'s
``probes``; its records are built only when read.

Both sections are in ascending id order. ``cells.bin`` holds a table of
one ``_CELL_ROW`` per cell (zoom, x, y, rows, region offset, block length,
slice length, CRC-32), then one region per cell: the cell's column block
followed by its layer slice. Only polygon stores write a slice (the
layer index ``ooc_join`` renders its A side by); a cell of any other store
is its block alone. A region is exactly what ``load_cell`` reads, with one
read and one CRC check, and its length is the cell's ``byte_size``. A cell
loads as a ``CellData``, an ``engine.Dataset`` whose point columns are the
block's point section read in place and whose ``probes`` is its others
section, with no record built; every query reads it as it reads an
in-memory dataset.

``records.bin`` stays beside ``cells.bin`` although the cells hold the same
records: it is the only source ``build_indexes`` reads, so a store can be
re-celled under another byte budget without the original records. It is
read once, as an ``engine.Dataset``, and no record is built: a cell is an
array of row ordinals into its columns and table, written as column
gathers, and its hull is taken over one array of the cell's coordinates.

Integrity: opening a ``DatasetStore`` checks every file against the SHA-256
in its catalog, and ``load_cell`` checks each region against the CRC-32 in
its cell row.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import groupby
from pathlib import Path

import numpy as np

from . import engine, instrument, optimizer
from .canvas_index import LayerIndex, build_layer_index
from .config import DEFAULT, Config
from .errors import CorruptionError, DataError, DegenerateGeometryError
from .geometry import (
    GeometryRecord,
    Point2,
    PolygonGeom,
    RecordTable,
    convex_hull,
    parse_wkt,
    polygon_distances,
    polygon_from_rings,
    records_intersect,
    table_centroids,
)

MAGIC = b"SPDC1"
FORMAT_VERSION = 5
MAX_ZOOM = 20

_FILE_HEAD = struct.Struct("<HI")  # format version, item count (after MAGIC)
_HEAD_SIZE = len(MAGIC) + _FILE_HEAD.size
_BLOCK_HEAD = struct.Struct("<II")  # point rows, other rows
_POINT_ROW = 32  # id, value, x, y
_OTHER_ROW = 25  # id, value, kind, edge count, part count
# zoom, x, y, rows, region offset, block length, slice length, region CRC
_CELL_ROW = struct.Struct("<BIIIQQQI")


# ---------------------------------------------------------------------------
# Column blocks
# ---------------------------------------------------------------------------

def _others_columns(table: RecordTable) -> tuple:
    """(edges, parts, rings, vertices): a table's counts as a block stores
    them, rows and polygon parts (0 for a polyline) per record, rings per
    polygon part and vertices per polygon ring."""
    poly = table.kinds == RecordTable.POLYGON
    part_rings = np.diff(np.searchsorted(table.ring_start, table.part_edges))
    return (np.diff(table.start), np.where(poly, np.diff(table.part_start), 0),
            part_rings[poly[table.rank[table.part_edges[:-1]]]],
            np.diff(table.ring_start)[poly[table.rank[table.ring_start[:-1]]]])


def _row_lengths(table: RecordTable) -> np.ndarray:
    """The encoded length of each row of a table of polylines and polygons:
    25 bytes (id, kind, value, edge count, part count), plus 32 a segment,
    or 4 a part, 4 a ring and 16 a vertex."""
    edges, parts, _, _ = _others_columns(table)
    rings = np.diff(np.searchsorted(table.ring_start, table.start))
    return _OTHER_ROW + np.where(parts > 0, 4 * parts + 4 * rings + 16 * edges, 32 * edges)


def encode_block(data: engine.Dataset) -> bytes:
    """One column block (layout in the module docstring) of a dataset whose
    points and ``probes`` are each in id order."""
    t = data.probes
    cols = [(data.ids, "<u8"), (data.values, "<f8"), (data.xy, "<f8")]
    if len(t):  # an empty others section is no bytes
        edges, parts, rings, vertices = _others_columns(t)
        if np.any(vertices < 3):
            raise DataError("a polygon ring of fewer than 3 vertices cannot be stored")
        poly = t.kinds[t.rank] == RecordTable.POLYGON
        cols += [(t.ids, "<u8"), (t.values, "<f8"), (t.kinds, "u1"),
                 *((c, "<u4") for c in (edges, parts, rings, vertices)),
                 (np.compress(poly, t.edges[:, :2], axis=0), "<f8"), (t.edges[~poly], "<f8")]
    return b"".join([_BLOCK_HEAD.pack(len(data.ids), len(t)),
                     *(c.astype(dtype, copy=False).tobytes() for c, dtype in cols)])


def decode_block(block) -> engine.Dataset:
    """The ``engine.Dataset`` of one column block."""
    return engine.Dataset.from_arrays(*_block_columns(block))


def _block_columns(block) -> tuple:
    """(ids, xy, values, table) of one column block, every column read by
    ``np.frombuffer``, the points' in place and the others' straight into a
    ``RecordTable``; a block no ingest writes raises ``CorruptionError``."""
    off = 0

    def column(dtype, count):
        nonlocal off
        size = count * np.dtype(dtype).itemsize
        if off + size > len(block):
            raise CorruptionError(f"record block of {len(block)} bytes overrun by its columns")
        off += size
        return np.frombuffer(block, dtype=dtype, count=count, offset=off - size)

    def check(ok, what):
        if not ok:
            raise CorruptionError(f"record block with {what}")

    n, m = (int(v) for v in column("<u4", 2))
    ids, values, xy = column("<u8", n), column("<f8", n), column("<f8", 2 * n)
    if not m and off == len(block):  # a point block
        return ids.astype(np.int64), xy, values, None
    oids, ovalues, kinds = column("<u8", m), column("<f8", m), column("u1", m)
    edges, parts = (column("<u4", m).astype(np.int64) for _ in range(2))
    poly = kinds == RecordTable.POLYGON
    check(np.all(poly | (kinds == RecordTable.POLYLINE)), "an unknown kind code")
    check(np.all((parts > 0) == poly) and np.all(edges > 0), "a record of no part or edge")
    rings = column("<u4", int(parts.sum())).astype(np.int64)
    vertices = column("<u4", int(rings.sum())).astype(np.int64)
    check(np.all(rings > 0) and np.all(vertices >= 3), "a ring of fewer than 3 vertices")
    nv = 2 * int(vertices.sum())
    coords = column("<f8", nv + 4 * int(edges[~poly].sum()))
    if off != len(block):
        raise CorruptionError(f"record block holds {len(block)} bytes, its rows {off}")
    check(np.isfinite(coords).all(), "a non-finite coordinate")
    # A polyline is one part of one ring, its segments.
    part_of = np.repeat(np.arange(m), np.where(poly, parts, 1))
    all_rings = np.ones(len(part_of), dtype=np.int64)
    all_rings[poly[part_of]] = rings
    ring_poly = poly[np.repeat(part_of, all_rings)]
    lengths = np.empty(len(ring_poly), dtype=np.int64)
    lengths[ring_poly], lengths[~ring_poly] = vertices, edges[~poly]
    table = RecordTable.from_columns(oids.astype(np.int64), kinds.astype(np.int8),
                                     ovalues.astype(np.float64), np.where(poly, parts, 1),
                                     all_rings, lengths, coords[:nv].reshape(-1, 2),
                                     coords[nv:].reshape(-1, 4))
    check(np.array_equal(np.diff(table.start), edges), "an edge count off its vertex counts")
    return ids.astype(np.int64), xy, values, table


def _serialize_layers(layers: LayerIndex) -> bytes:
    out = [struct.pack("<I", len(layers.layers))]
    for layer in layers.layers:
        out.append(struct.pack("<I", len(layer)))
        out.append(np.array(sorted(layer), dtype="<u8").tobytes())
    return b"".join(out)


def _deserialize_layers(buf: bytes) -> LayerIndex:
    (nl,) = struct.unpack_from("<I", buf, 0)
    off = 4
    layers = []
    for _ in range(nl):
        (n,) = struct.unpack_from("<I", buf, off)
        off += 4
        ids = np.frombuffer(buf, dtype="<u8", count=n, offset=off)
        off += n * 8
        layers.append(ids.tolist())
    return LayerIndex(layers=layers)


# ---------------------------------------------------------------------------
# Grid index structures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridCell:
    """One grid cell: its tile, the convex hull of its members, their
    number, and ``byte_size``, the length of its ``cells.bin`` region (the
    bytes a load reads), which starts ``offset`` bytes past the cell table
    and has the CRC-32 ``crc``. ``build_grid_index`` gives an upper bound
    of the size and no offset."""

    zoom: int
    x: int
    y: int
    hull: PolygonGeom
    count: int
    byte_size: int
    offset: int = 0
    crc: int = 0

    @property
    def key(self) -> tuple:
        return (self.zoom, self.x, self.y)

    def label(self) -> str:
        return f"{self.zoom}/{self.x}/{self.y}"


@dataclass
class GridIndex:
    zoom: int
    cells: list
    _hulls: RecordTable | None = field(default=None, init=False, repr=False, compare=False)

    def hulls(self) -> RecordTable:
        """The cell hulls as a table of polygon records, record id = cell
        ordinal, built on first use: every filter of the index reads it."""
        if self._hulls is None:
            self._hulls = RecordTable([GeometryRecord(i, "polygon", [c.hull])
                                       for i, c in enumerate(self.cells)])
        return self._hulls


@dataclass
class DatasetCatalog:
    name: str
    kind: str
    crs: str
    count: int
    directory: Path
    version: int = FORMAT_VERSION
    zoom: int | None = None
    byte_budget: int | None = None
    checksums: dict = field(default_factory=dict)

    def verify(self):
        for fname, want in self.checksums.items():
            path = self.directory / fname
            if not path.exists():
                raise CorruptionError(f"{self.name}: missing file {fname}")
            got = hashlib.sha256(path.read_bytes()).hexdigest()
            if got != want:
                raise CorruptionError(f"{self.name}: checksum mismatch for {fname}")


def _cell_hull(xy: np.ndarray) -> PolygonGeom:
    """The convex hull of a cell's coordinates; for a degenerate set, their
    box padded by a thousandth of its side."""
    try:
        return convex_hull(xy)
    except DegenerateGeometryError:
        lo, hi = xy.min(axis=0), xy.max(axis=0)
        # At least a billionth of the coordinates' magnitude, as in
        # ``engine._bounds_union``: far from the origin a pad below the
        # spacing of doubles would leave the box degenerate.
        mag = max(np.abs(np.concatenate([lo, hi])).max(), 1.0)
        pad = (hi - lo).max() * 1e-3 + mag * 1e-9 + 1e-12
        (x0, y0), (x1, y1) = lo - pad, hi + pad
        return polygon_from_rings([[(x0, y0), (x1, y0), (x1, y1), (x0, y1)]])


def _cell_data(data: engine.Dataset, members: np.ndarray) -> engine.Dataset:
    """The rows ``members`` of ``data``, ascending ordinals that number its
    points and then its ``probes``, as a dataset of column gathers."""
    n = len(data.ids)
    k = int(np.searchsorted(members, n))
    rows = members[:k]
    return engine.Dataset.from_arrays(data.ids[rows], data.xy[rows], data.values[rows],
                                      data.probes.take(members[k:] - n) if k < len(members)
                                      else None)


def build_grid_index(data: engine.Dataset, byte_budget: int, config: Config = DEFAULT,
                     kind: str = "polygon") -> tuple:
    """Assign a dataset's rows, by centroid, to power-of-two tiles over the
    dataset extent at the minimal zoom where every cell's region fits the
    byte budget; polygon datasets additionally raise the zoom until the
    median polygon spans >= 2 pixels at the default query resolution.

    A cell is sized, with no layer index built, as its column block plus,
    in a polygon store, an upper bound of its layer slice: 4 bytes and 12
    per member, as a cell has at most one layer per member (4 bytes of
    length and 8 of id each). That bound is each cell's ``byte_size``.

    Rows are placed by their ``xy``, or the centroids and boxes of the
    ``probes`` table, and sized by their encoded lengths.

    Returns (GridIndex, {cell key: member ordinals}), the ordinals (as
    ``_cell_data`` takes them) an ascending index array per cell.
    """
    n, table = len(data.ids), data.probes
    if not len(data):
        raise DataError("cannot index an empty dataset")
    row_bytes = np.append(np.full(n, _POINT_ROW), _row_lengths(table)).astype(np.int64)
    big = int(row_bytes.argmax())
    if row_bytes[big] >= byte_budget:
        rid = data.ids[big] if big < n else table.ids[big - n]
        raise DataError(f"object {rid} ({row_bytes[big]} bytes) exceeds the "
                        f"cell byte budget {byte_budget}")
    head = _BLOCK_HEAD.size
    if kind == "polygon":  # the layer slice bound
        head += 4
        row_bytes += 12
    boxes = table.boxes
    x0, y0 = np.concatenate([data.xy, boxes[:, :2]]).min(axis=0)
    x1, y1 = np.concatenate([data.xy, boxes[:, 2:]]).max(axis=0)
    side = max(x1 - x0, y1 - y0)
    if side <= 0:
        side = max(abs(x0), abs(y0), 1.0) * 1e-6
    cents = np.concatenate([data.xy, table_centroids(table)])

    median_span = None
    if kind == "polygon":
        spans = np.maximum(boxes[:, 2] - boxes[:, 0], boxes[:, 3] - boxes[:, 1])
        median_span = float(np.median(np.concatenate([np.zeros(n), spans])))

    for zoom in range(0, MAX_ZOOM + 1):
        tiles = 1 << zoom
        tile = side / tiles
        tx = np.minimum(((cents[:, 0] - x0) / tile).astype(np.int64), tiles - 1)
        ty = np.minimum(((cents[:, 1] - y0) / tile).astype(np.int64), tiles - 1)
        codes, cell_of = np.unique(tx * tiles + ty, return_inverse=True)
        sizes = head + np.bincount(cell_of, weights=row_bytes).astype(np.int64)
        if sizes.max() > byte_budget:
            continue
        if median_span is not None and zoom < MAX_ZOOM:
            # sub-pixel polygons devolve to full exact tests; shrink cells
            # until the median polygon spans >= 2 query pixels
            px = tile / config.resolution
            if median_span < 2 * px and len(codes) < len(data):
                continue
        order = np.argsort(cell_of, kind="stable")
        bounds = np.cumsum(np.bincount(cell_of))[:-1]
        groups, cells = {}, []
        for code, size, members in zip(codes.tolist(), sizes.tolist(),
                                       np.split(order, bounds)):
            key = (zoom, *divmod(code, tiles))
            groups[key] = members
            cell = _cell_data(data, members)
            hull = _cell_hull(np.concatenate([cell.xy, cell.probes.edges.reshape(-1, 2)]))
            cells.append(GridCell(zoom=zoom, x=key[1], y=key[2], hull=hull,
                                  count=len(members), byte_size=size))
        return GridIndex(zoom=zoom, cells=cells), groups
    raise DataError("no zoom level satisfies the byte budget")


# ---------------------------------------------------------------------------
# On-disk dataset store
# ---------------------------------------------------------------------------

def _meta_text(cat: DatasetCatalog) -> str:
    lines = [f"name={cat.name}", f"kind={cat.kind}", f"crs={cat.crs}",
             f"count={cat.count}", f"format={MAGIC.decode()}",
             f"version={cat.version}"]
    if cat.zoom is not None:
        lines.append(f"zoom={cat.zoom}")
    if cat.byte_budget is not None:
        lines.append(f"byte_budget={cat.byte_budget}")
    for fname in sorted(cat.checksums):
        lines.append(f"sha256.{fname}={cat.checksums[fname]}")
    return "\n".join(lines) + "\n"


def _parse_meta(text: str, directory: Path) -> DatasetCatalog:
    kv = {}
    for line in text.splitlines():
        key, _, val = line.partition("=")
        kv[key] = val
    if kv.get("format") != MAGIC.decode():
        raise CorruptionError(f"bad catalog magic in {directory}")
    if kv.get("version") != str(FORMAT_VERSION):
        raise CorruptionError(f"{directory}: catalog format version {kv.get('version')}, "
                              f"this reader needs {FORMAT_VERSION}; ingest the data again")
    cat = DatasetCatalog(name=kv["name"], kind=kv["kind"], crs=kv.get("crs", ""),
                         count=int(kv["count"]), directory=directory)
    if "zoom" in kv:
        cat.zoom = int(kv["zoom"])
    if "byte_budget" in kv:
        cat.byte_budget = int(kv["byte_budget"])
    cat.checksums = {k[len("sha256."):]: v for k, v in kv.items()
                     if k.startswith("sha256.")}
    return cat


def ingest(records, name: str, data_dir, kind: str | None = None,
           crs: str = "planar") -> DatasetCatalog:
    """Write records.bin + catalog.meta for a new dataset of records or an
    ``engine.Dataset``, taken once as columns and put in id order."""
    data = records if isinstance(records, engine.Dataset) else engine.Dataset(records)
    try:
        table = data.probes
        ids = np.sort(np.concatenate([data.ids, table.ids]))
    except OverflowError:
        raise DataError("a record id does not fit a signed 64-bit id") from None
    if not len(ids):
        raise DataError("cannot ingest an empty dataset")
    if ids[0] < 0:
        raise DataError(f"record id must be unsigned, got {ids[0]}")
    if (ids[1:] == ids[:-1]).any():
        raise DataError("duplicate record ids in dataset")
    if np.any(table.ids[1:] < table.ids[:-1]):
        table = table.take(np.argsort(table.ids, kind="stable"))
    data = engine.Dataset.from_arrays(data.ids, data.xy, data.values, table)
    kinds = {RecordTable.KIND_NAMES[k] for k in set(table.kinds.tolist())}
    kinds |= {"point"} if len(data.ids) else set()
    kind = kind or (kinds.pop() if len(kinds) == 1 else "mixed")
    directory = Path(data_dir) / name
    directory.mkdir(parents=True, exist_ok=True)
    blob = _file_head(len(data)) + encode_block(data)
    (directory / "records.bin").write_bytes(blob)
    cat = DatasetCatalog(name=name, kind=kind, crs=crs, count=len(data),
                         directory=directory)
    cat.checksums["records.bin"] = hashlib.sha256(blob).hexdigest()
    (directory / "catalog.meta").write_text(_meta_text(cat))
    return cat


def _file_head(count: int) -> bytes:
    return MAGIC + _FILE_HEAD.pack(FORMAT_VERSION, count)


def _read_head(blob: bytes, what: str) -> int:
    """Item count of a binary file whose magic and version are checked."""
    if blob[:len(MAGIC)] != MAGIC or len(blob) < _HEAD_SIZE:
        raise CorruptionError(f"{what}: bad magic")
    version, count = _FILE_HEAD.unpack_from(blob, len(MAGIC))
    if version != FORMAT_VERSION:
        raise CorruptionError(f"{what}: format version {version}, this reader needs "
                              f"{FORMAT_VERSION}; ingest the data again")
    return count


def read_dataset(cat: DatasetCatalog) -> engine.Dataset:
    """The ``engine.Dataset`` of a store's ``records.bin``: its point
    columns read in place, points and others each in id order as ingested."""
    blob = (cat.directory / "records.bin").read_bytes()
    count = _read_head(blob, f"{cat.name}/records.bin")
    data = decode_block(memoryview(blob)[_HEAD_SIZE:])
    if len(data) != count:
        raise CorruptionError(f"{cat.name}/records.bin: {count} records announced, "
                              f"{len(data)} stored")
    return data


def hull_wkt(poly: PolygonGeom) -> str:
    ring = poly.rings[0]
    coords = ", ".join(f"{float(x)!r} {float(y)!r}" for x, y in ring)
    first = ring[0]
    return f"POLYGON (({coords}, {float(first[0])!r} {float(first[1])!r}))"


def build_indexes(cat: DatasetCatalog, byte_budget: int | None = None,
                  config: Config = DEFAULT) -> GridIndex:
    """Cell a dataset's ``records.bin`` under the byte budget and persist
    ``cells.bin`` and ``hulls.wkt`` (layout in the module docstring). Each
    cell of a polygon store gets its layer index, built once here; the
    returned index's cells carry their regions' sizes, offsets and CRCs."""
    byte_budget = byte_budget or config.byte_budget
    data = read_dataset(cat)
    index, groups = build_grid_index(data, byte_budget, config, cat.kind)
    rows, regions, hull_lines, cells = [], [], [], []
    offset = 0
    for cell in index.cells:
        members = _cell_data(data, groups[cell.key])
        block = encode_block(members)
        lslice = (_serialize_layers(build_layer_index(members.probes))
                  if cat.kind == "polygon" else b"")
        region = block + lslice
        crc = zlib.crc32(region)
        cells.append(replace(cell, byte_size=len(region), offset=offset, crc=crc))
        rows.append(_CELL_ROW.pack(cell.zoom, cell.x, cell.y, cell.count, offset,
                                   len(block), len(lslice), crc))
        regions.append(region)
        hull_lines.append(f"{cell.zoom}/{cell.x}/{cell.y}\t{hull_wkt(cell.hull)}")
        offset += len(region)

    d = cat.directory
    cells_blob = _file_head(len(cells)) + b"".join(rows) + b"".join(regions)
    hulls_text = "\n".join(hull_lines) + "\n"
    (d / "cells.bin").write_bytes(cells_blob)
    (d / "hulls.wkt").write_text(hulls_text)
    cat.zoom = index.zoom
    cat.byte_budget = byte_budget
    cat.checksums["cells.bin"] = hashlib.sha256(cells_blob).hexdigest()
    cat.checksums["hulls.wkt"] = hashlib.sha256(hulls_text.encode()).hexdigest()
    (d / "catalog.meta").write_text(_meta_text(cat))
    index.cells = cells
    return index


class CellData(engine.Dataset):
    """One loaded cell, an ``engine.Dataset`` whose point columns are read
    in place from its block (no point record is built for them), plus
    ``layer_slice``, the layer slice of its region (empty outside polygon
    stores), decoded into ``layers`` on first use (only joins read it), and
    ``byte_size``, its region's length: the bytes the load read."""

    layer_slice: memoryview
    byte_size: int

    @cached_property
    def layers(self) -> LayerIndex:
        return _deserialize_layers(self.layer_slice)


class DatasetStore:
    """Read-only view of an indexed dataset with an LRU cell cache.

    ``bytes_transferred`` adds the region length of every cell load, the
    bytes actually read; cache hits add nothing. The cache holds
    cache_factor x byte_budget bytes of regions.
    """

    def __init__(self, data_dir, name: str, config: Config = DEFAULT):
        directory = Path(data_dir) / name
        meta = directory / "catalog.meta"
        if not meta.exists():
            raise DataError(f"no dataset named {name!r} under {data_dir}")
        self.catalog = _parse_meta(meta.read_text(), directory)
        self.catalog.verify()
        self.config = config
        self.bytes_transferred = 0
        self._cache: OrderedDict = OrderedDict()
        self._cache_bytes = 0
        self._table: dict = {}
        self._index: GridIndex | None = None

    @property
    def cache_capacity(self) -> int:
        budget = self.catalog.byte_budget or self.config.byte_budget
        return self.config.cache_factor * budget

    def grid_index(self) -> GridIndex:
        if self._index is not None:
            return self._index
        d = self.catalog.directory
        what = f"{self.catalog.name}/cells.bin"
        blob = (d / "cells.bin").read_bytes()
        ncells = _read_head(blob, what)
        base = _HEAD_SIZE + ncells * _CELL_ROW.size
        if len(blob) < base:
            raise CorruptionError(f"{what}: truncated cell table")
        hull_map = {}
        for line in (d / "hulls.wkt").read_text().splitlines():
            key, _, wkt = line.partition("\t")
            z, x, y = (int(v) for v in key.split("/"))
            _, parts = parse_wkt(wkt)
            hull_map[(z, x, y)] = parts[0]
        cells = []
        zoom = 0
        for z, x, y, n, off, blen, slen, crc in _CELL_ROW.iter_unpack(blob[_HEAD_SIZE:base]):
            if base + off + blen + slen > len(blob):
                raise CorruptionError(f"{what}: cell {z}/{x}/{y} ends past the file")
            cell = GridCell(zoom=z, x=x, y=y, hull=hull_map[(z, x, y)], count=n,
                            byte_size=blen + slen, offset=off, crc=crc)
            cells.append(cell)
            self._table[cell.key] = (base + off, blen + slen, blen, crc)
            zoom = z
        self._index = GridIndex(zoom=zoom, cells=cells)
        return self._index

    def load_cell(self, cell: GridCell) -> CellData:
        """The cell's region, read at once and CRC-checked: its block,
        decoded, and its layer slice; served from cache when resident."""
        self.grid_index()
        key = cell.key
        if key not in self._table:
            raise DataError(f"no such cell {key}")
        if key in self._cache:
            self._cache.move_to_end(key)
            return self._cache[key]
        start, size, blen, crc = self._table[key]
        label = f"{self.catalog.name} cell {cell.label()}"
        with instrument.phase("io"):
            region = memoryview(_read_checked(self.catalog.directory / "cells.bin", start,
                                              size, crc, f"{label} region"))
        data = CellData.from_arrays(*_block_columns(region[:blen]))
        data.layer_slice, data.byte_size = region[blen:], size
        if len(data) != cell.count:
            raise CorruptionError(f"{label}: {cell.count} rows announced, {len(data)} stored")
        self.bytes_transferred += size
        self._cache[key] = data
        self._cache_bytes += size
        while self._cache_bytes > self.cache_capacity and len(self._cache) > 1:
            _, old = self._cache.popitem(last=False)
            self._cache_bytes -= old.byte_size
        return data


def _read_checked(path: Path, offset: int, length: int, crc: int, what: str) -> bytes:
    """``length`` bytes at ``offset``, CRC-checked, in one unbuffered read:
    a buffered one reads whole pages around them."""
    with open(path, "rb", buffering=0) as f:
        f.seek(offset)
        blob = f.read(length)
    if len(blob) != length:
        raise CorruptionError(f"{what}: truncated")
    if zlib.crc32(blob) != crc:
        raise CorruptionError(f"{what}: CRC mismatch")
    return blob


# ---------------------------------------------------------------------------
# Index filtering (exact kernels over the cell hulls, no canvas)
# ---------------------------------------------------------------------------

def _meeting(a: RecordTable, b: RecordTable) -> tuple:
    """(i, j) of every intersecting pair of records of ranks i in table a
    and j in table b, a-major, by one ``records_intersect`` call over all
    pairs."""
    i, j = np.divmod(np.arange(len(a) * len(b)), max(len(b), 1))
    hit = records_intersect(a, b, i, j)
    return i[hit], j[hit]


def filter_select(index: GridIndex, constraint) -> list:
    """Cells whose hull intersects the constraint, or a polygon of a
    ``RecordTable`` of them, in grid order (never excludes a cell
    containing a true result: hulls contain their members)."""
    table = (constraint if isinstance(constraint, RecordTable)
             else RecordTable([engine._as_constraint_record(constraint)]))
    return [index.cells[k] for k in np.unique(_meeting(table, index.hulls())[1])]


def filter_join(index_a: GridIndex, index_b: GridIndex) -> list:
    """Hull-intersecting (A cell, B cell) pairs, A-cell-major."""
    i, j = _meeting(index_a.hulls(), index_b.hulls())
    return [(index_a.cells[p], index_b.cells[q]) for p, q in zip(i, j)]


def filter_distance(index: GridIndex, source: GeometryRecord, r: float) -> list:
    """Cells whose hull lies within r of the source, by the exact distance
    to every hull in one ``polygon_distances`` call."""
    d = polygon_distances(source, index.hulls())
    return [index.cells[k] for k in np.flatnonzero(d <= r)]


# ---------------------------------------------------------------------------
# Out-of-core query execution
# ---------------------------------------------------------------------------

def ooc_select(store: DatasetStore, constraint, resolution: int | None = None,
               config: Config = DEFAULT) -> engine.SelectionResult:
    """``engine.select`` over the cells whose hull meets the constraint."""
    matchers = engine._constraint_matchers(constraint, resolution or config.resolution)
    kept = filter_select(store.grid_index(), constraint)
    return engine._selection(matchers, (store.load_cell(c) for c in kept))


def plan_ooc_join(store_a: DatasetStore, store_b: DatasetStore) -> tuple:
    """The layer-index plan of ``ooc_join``, made from both grids' hulls
    with no cell loaded.

    Its steps are the hull-filtered (A cell, B cell) pairs, A-cell-major,
    so that each A cell's layers render once for all its B cells; an A
    cell's B cells start with the one the previous A cell ended on, when it
    has it. The estimate is ``optimizer.simulate_transfer`` of the steps,
    an upper bound of the bytes the join reads: it loads each A cell once
    and skips the B cells none of the cell's polygons meets.

    Returns (None, estimate, PlanChoice, steps); ``steps`` maps each step
    label to its (A cell, B cell). The first slot is always None and keeps
    the tuple's shape: ``perfbench/tracer.py`` reads its first three
    entries as two estimates and the choice, and takes the second estimate
    for the layer index.
    """
    if store_a.catalog.kind != "polygon":
        raise DataError("ooc_join: D1 must be a polygon dataset")
    index_a = store_a.grid_index()
    index_b = store_b.grid_index()
    sizes = {("A", c.key): c.byte_size for c in index_a.cells}
    sizes.update({("B", c.key): c.byte_size for c in index_b.cells})
    groups: dict = {}
    for ca, cb in filter_join(index_a, index_b):
        groups.setdefault(ca.key, (ca, []))[1].append(cb)
    steps: dict = {}
    layer_steps = []
    last = None
    for ca, b_cells in groups.values():
        keys = [cb.key for cb in b_cells]
        if last in keys:
            b_cells.insert(0, b_cells.pop(keys.index(last)))
        last = b_cells[-1].key
        for cb in b_cells:
            label = f"pair:{ca.label()}x{cb.label()}"
            steps[label] = (ca, cb)
            layer_steps.append((label, frozenset({("A", ca.key), ("B", cb.key)})))
    estimate, plan = optimizer.choose_join_strategy(layer_steps, sizes)
    return None, estimate, plan, steps


def ooc_join(store_a: DatasetStore, store_b: DatasetStore,
             resolution: int | None = None, config: Config = DEFAULT,
             explain: list | None = None):
    """Out-of-core join by the layer index, in the plan's load order
    (``plan_ooc_join``). Each A cell of the plan is loaded once, and keeps
    the B cells its plan pairs it with that some polygon of the cell meets,
    by one exact test of its polygons against their hulls: a B polygon lies
    inside its cell's hull, so a dropped B cell holds no pair. An A cell
    that keeps none renders nothing; otherwise its layers are rendered once
    and its kept B cells streamed past them, so only one A cell's canvases
    are alive at a time. ``explain`` receives the plan, its estimate and
    one ``load:`` line per pair that loaded, in load order."""
    _, estimate, plan, steps = plan_ooc_join(store_a, store_b)
    resolution = resolution or config.resolution
    index_b = store_b.grid_index()
    ordinal = {c.key: k for k, c in enumerate(index_b.cells)}
    pairs, loaded = [], []
    for _, labels in groupby(plan.load_order, key=lambda label: steps[label][0].key):
        labels = list(labels)
        data = store_a.load_cell(steps[labels[0]][0])
        b_cells = [steps[label][1] for label in labels]
        _, met = _meeting(data.probes, index_b.hulls().take([ordinal[cb.key] for cb in b_cells]))
        kept = np.unique(met).tolist()
        if not kept:
            continue
        loaded += [labels[k] for k in kept]
        pairs.append(engine._joined(engine._layer_matchers(data.probes, data.layers, resolution),
                                    (store_b.load_cell(b_cells[k]) for k in kept)))
    if explain is not None:
        explain.extend(optimizer.explain_lines(replace(plan, load_order=tuple(loaded)),
                                               estimate))
    return engine._join_result(*engine._stacked(pairs))


def ooc_distance_select(store: DatasetStore, source: GeometryRecord, r: float,
                        resolution: int | None = None,
                        config: Config = DEFAULT) -> engine.SelectionResult:
    """``engine.distance_select`` over the cells whose hull lies within r of
    the source."""
    matchers = engine._source_matchers(source, r, resolution or config.resolution)
    kept = filter_distance(store.grid_index(), source, r)
    return engine._selection(matchers, (store.load_cell(c) for c in kept))


def ooc_distance_join(d1_records, store_b: DatasetStore, radii,
                      resolution: int | None = None,
                      config: Config = DEFAULT) -> engine.JoinResult:
    """Type-2 distance join of in-memory sources against a stored dataset:
    the sources' buffers are rendered once, layer by layer, and each cell
    whose hull lies within some source's radius is loaded once and streamed
    past them."""
    d1 = engine._dataset(d1_records)
    table, rad = engine._source_table(d1), engine._radii(radii, d1)
    matchers = engine._buffer_matchers(table, rad, resolution or config.resolution)
    index = store_b.grid_index()
    keys = {c.key for rec, r in zip(table.records, rad.tolist())
            for c in filter_distance(index, rec, r)}
    kept = [cell for cell in index.cells if cell.key in keys]
    return engine._join_result(*engine._joined(matchers, (store_b.load_cell(c) for c in kept)))


def ooc_aggregate(constraints, store: DatasetStore, mode: str = "count",
                  resolution: int | None = None,
                  config: Config = DEFAULT) -> engine.AggregationResult:
    """``engine.aggregate`` over the cells whose hull meets some constraint:
    the constraints' layer index is built and each layer rendered once, and
    the cells partition the data, so one pass over them counts exactly."""
    constraints = engine._polygon_dataset(constraints,
                                          "aggregation constraints must be polygons").probes
    matchers = engine._aggregation_matchers(constraints, mode, None,
                                            resolution or config.resolution)
    kept = filter_select(store.grid_index(), constraints)
    return engine._aggregate(matchers, (store.load_cell(c) for c in kept), mode)


def ooc_count_within(store: DatasetStore, center: Point2, r: float) -> int:
    """Exact count of stored points within r of center: the in-memory slab
    count (``engine._count_within``) over the points of each cell
    ``filter_distance`` keeps, with no canvas."""
    index = store.grid_index()
    return sum(engine._count_within(store.load_cell(index.cells[k]), center, r)
               for k in np.flatnonzero(_hull_distances(index, center) <= r))


def _hull_distances(index: GridIndex, center: Point2) -> np.ndarray:
    """Exact distance from center to every cell hull, as ``filter_distance``
    compares them with r."""
    return polygon_distances(GeometryRecord(0, "point", center), index.hulls())


def _knn_store_index(store: DatasetStore, k: int) -> GridIndex:
    """The grid index of a store that can answer k neighbours: a point
    dataset of at least k points."""
    index = store.grid_index()
    if store.catalog.kind != "point":
        raise DataError("out-of-core kNN needs a point dataset")
    engine._check_k(k, sum(c.count for c in index.cells))
    return index


def _ooc_nearest(store: DatasetStore, index: GridIndex, centers, k: int) -> list:
    """Per center, its k nearest stored points, ranked as ``engine`` ranks
    them, by one best-first walk over the cells shared by all centers.

    The (center, cell) pairs are taken by ascending hull distance. Each
    center keeps its k best (id, distance); a pair whose cell is not yet
    loaded and whose hull lies within its center's current k-th distance
    loads the cell, and every center whose k-th distance reaches that hull
    ranks the cell's points. A hull lies no nearer than any point it holds,
    so the walk stops at the first pair farther than every k-th distance,
    and a cell is loaded once, only when some center's answer can hold one
    of its points (Hjaltason & Samet, "Distance Browsing in Spatial
    Databases", ACM TODS 1999)."""
    n = len(index.cells)
    hull_d = np.array([_hull_distances(index, c) for c in centers]).reshape(len(centers), n)
    best = [(np.empty(0, np.int64), np.empty(0))] * len(centers)
    kth = np.full(len(centers), np.inf)
    loaded = np.zeros(n, dtype=bool)
    for i, j in zip(*np.unravel_index(np.argsort(hull_d, axis=None, kind="stable"),
                                      hull_d.shape)):
        if hull_d[i, j] > kth.max():
            break
        if loaded[j] or hull_d[i, j] > kth[i]:
            continue
        loaded[j] = True
        pts = store.load_cell(index.cells[j])
        for c in np.flatnonzero(hull_d[:, j] <= kth):
            d = np.hypot(pts.xy[:, 0] - centers[c].x, pts.xy[:, 1] - centers[c].y)
            # Only points that can enter the k best are ranked: those within
            # the k-th distance, or the cell's k nearest (ties kept) while
            # fewer than k are known.
            cut = kth[c]
            if cut == np.inf and len(d) > k:
                cut = np.partition(d, k - 1)[k - 1]
            keep = d <= cut
            ids, dist = best[c]
            best[c] = ids, dist = engine._ranked(np.concatenate([ids, pts.ids[keep]]),
                                                 np.concatenate([dist, d[keep]]), k)
            if len(ids) == k:
                kth[c] = dist[-1]
    return [list(zip(ids.tolist(), dist.tolist())) for ids, dist in best]


def ooc_knn_select(store: DatasetStore, p: Point2, k: int, *,
                   config: Config = DEFAULT) -> list:
    """``engine.knn_select`` over a stored point dataset: the best-first
    cell walk with one center, no canvas; ``config`` is not read."""
    index = _knn_store_index(store, k)
    if not isinstance(p, Point2):
        p = Point2(float(p[0]), float(p[1]))
    return _ooc_nearest(store, index, [p], k)[0]


def ooc_knn_join(d1_records, store_b: DatasetStore, k: int, *,
                 config: Config = DEFAULT) -> list:
    """``engine.knn_join`` of in-memory points against a stored point
    dataset: one best-first cell walk shared by all D1 points, so each cell
    it reaches is loaded once."""
    left = engine._point_dataset(d1_records)
    index = _knn_store_index(store_b, k)
    order = np.argsort(left.ids, kind="stable")
    found = _ooc_nearest(store_b, index, [Point2(x, y) for x, y in left.xy[order].tolist()], k)
    return [(i, [j for j, _ in nb]) for i, nb in zip(left.ids[order].tolist(), found)]
