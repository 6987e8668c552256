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
load order instead and renders each A-side canvas once: every layer of an
A cell, or one A polygon, with its B cells streamed past it. kNN renders
no canvas: it walks the cells best-first by hull distance and ranks the
points of each cell it reaches, loaded once, by exact (distance, id).

A dataset directory holds four files: ``catalog.meta`` (text key-value),
``records.bin`` (the ingested records), ``cells.bin`` (the grid cells) and
``hulls.wkt`` (each cell's convex hull). Binary files are little-endian and
start with the magic ``SPDC1``, a ``<H`` format version and a ``<I``
count. A store whose catalog or binary files name another version than
``FORMAT_VERSION`` is refused with ``CorruptionError``.

Records are stored in column blocks: ``records.bin`` holds one block for
the whole dataset.

- header ``<II``: point rows n, other rows m;
- point section: ``ids`` n x ``<u8``, ``values`` n x ``<f8`` (NaN where a
  point has no value) and ``xy`` n x 2 ``<f8``, each contiguous;
- others section: the m polyline and polygon records, each length-prefixed
  in the per-record encoding of ``serialize_record``; a polygon holds its
  rings only.

Both sections are in ascending id order. ``cells.bin`` holds a table of
one ``_CELL_ROW`` per cell (zoom, x, y, rows, region offset, block length,
slice length, CRC-32), then one region per cell: the cell's column block
followed by its layer slice. Only polygon stores write a slice (the
layer index ``ooc_join`` renders its A side by); a cell of any other store
is its block alone. A region is exactly what ``load_cell`` reads, with one
read and one CRC check, and its length is the cell's ``byte_size``. A cell
loads as a ``CellData``, an ``engine.Dataset`` whose point columns are the
block's point section read in place with ``np.frombuffer``, with no record
built for them; every query reads it as it reads an in-memory dataset.

``records.bin`` stays beside ``cells.bin`` although the cells hold the same
records: it is the only source ``build_indexes`` reads, so a store can be
re-celled under another byte budget without the original records.

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
    Segment,
    convex_hull,
    parse_wkt,
    polygon_distances,
    polygon_from_rings,
    records_intersect,
)

MAGIC = b"SPDC1"
FORMAT_VERSION = 4
MAX_ZOOM = 20

_KIND_CODE = {"polyline": 1, "polygon": 2}
_KIND_NAME = {v: k for k, v in _KIND_CODE.items()}
_FILE_HEAD = struct.Struct("<HI")  # format version, item count (after MAGIC)
_HEAD_SIZE = len(MAGIC) + _FILE_HEAD.size
_BLOCK_HEAD = struct.Struct("<II")  # point rows, other rows
_POINT_ROW = 32  # id, value, x, y
# zoom, x, y, rows, region offset, block length, slice length, region CRC
_CELL_ROW = struct.Struct("<BIIIQQQI")


# ---------------------------------------------------------------------------
# Record serialization
# ---------------------------------------------------------------------------

def serialize_record(rec: GeometryRecord) -> bytes:
    """Length-prefixed encoding of one polyline or polygon record (points
    go to a block's point section)."""
    out = [struct.pack("<QBd", rec.id, _KIND_CODE[rec.kind],
                       np.nan if rec.value is None else rec.value)]
    if rec.kind == "polyline":
        out.append(struct.pack("<I", len(rec.geometry)))
        for s in rec.geometry:
            out.append(struct.pack("<4d", s.a.x, s.a.y, s.b.x, s.b.y))
    else:
        out.append(struct.pack("<I", len(rec.geometry)))
        for part in rec.geometry:
            out.append(struct.pack("<I", len(part.rings)))
            for ring in part.rings:
                out.append(struct.pack("<I", len(ring)))
                out.append(np.ascontiguousarray(ring, dtype="<f8").tobytes())
    blob = b"".join(out)
    return struct.pack("<I", len(blob)) + blob


def deserialize_record(buf: bytes, off: int) -> tuple:
    (length,) = struct.unpack_from("<I", buf, off)
    off += 4
    end = off + length
    rid, kind_code, value = struct.unpack_from("<QBd", buf, off)
    off += struct.calcsize("<QBd")
    value = None if np.isnan(value) else float(value)
    kind = _KIND_NAME[kind_code]
    if kind == "polyline":
        (nseg,) = struct.unpack_from("<I", buf, off)
        off += 4
        segs = []
        for _ in range(nseg):
            ax, ay, bx, by = struct.unpack_from("<4d", buf, off)
            off += 32
            segs.append(Segment(Point2(ax, ay), Point2(bx, by)))
        return GeometryRecord(rid, "polyline", segs, value), end
    (nparts,) = struct.unpack_from("<I", buf, off)
    off += 4
    parts = []
    for _ in range(nparts):
        (nrings,) = struct.unpack_from("<I", buf, off)
        off += 4
        rings = []
        for _ in range(nrings):
            (nv,) = struct.unpack_from("<I", buf, off)
            off += 4
            ring = np.frombuffer(buf, dtype="<f8", count=nv * 2, offset=off)
            off += nv * 16
            rings.append(ring.reshape(nv, 2).copy())
        parts.append(PolygonGeom(rings=rings))
    return GeometryRecord(rid, "polygon", parts, value), end


def encode_block(records) -> bytes:
    """One column block of records given in id order (layout in the module
    docstring), its point section the columns of ``engine.Dataset``."""
    data = engine.Dataset(records)
    return b"".join([_BLOCK_HEAD.pack(len(data.ids), len(data.others)),
                     data.ids.astype("<u8").tobytes(), data.values.astype("<f8").tobytes(),
                     data.xy.astype("<f8").tobytes(), *map(serialize_record, data.others)])


def decode_block(block) -> engine.Dataset:
    """The ``engine.Dataset`` of one column block."""
    return engine.Dataset.from_arrays(*_block_columns(block))


def _block_columns(block) -> tuple:
    """(ids, xy, values, others) of one column block: the point columns
    read in place with ``np.frombuffer``, the other records decoded one by
    one."""
    try:
        n, m = _BLOCK_HEAD.unpack_from(block, 0)
        off = _BLOCK_HEAD.size
        ids = np.frombuffer(block, dtype="<u8", count=n, offset=off)
        values = np.frombuffer(block, dtype="<f8", count=n, offset=off + 8 * n)
        xy = np.frombuffer(block, dtype="<f8", count=2 * n, offset=off + 16 * n)
        off += _POINT_ROW * n
        others = []
        for _ in range(m):
            rec, off = deserialize_record(block, off)
            others.append(rec)
    except (struct.error, ValueError, KeyError) as exc:
        raise CorruptionError(f"undecodable record block: {exc}") from exc
    if off != len(block):
        raise CorruptionError(f"record block holds {len(block)} bytes, its rows {off}")
    return ids.astype(np.int64), xy, values, others


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
    extent: tuple
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


def _hull_of_records(records) -> PolygonGeom:
    pts = []
    for rec in records:
        if rec.kind == "point":
            pts.append((rec.geometry.x, rec.geometry.y))
        elif rec.kind == "polyline":
            for s in rec.geometry:
                pts.extend([(s.a.x, s.a.y), (s.b.x, s.b.y)])
        else:
            for part in rec.geometry:
                for ring in part.rings:
                    pts.extend(map(tuple, ring))
    try:
        return convex_hull(pts)
    except DegenerateGeometryError:
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        # At least a billionth of the coordinates' magnitude, as in
        # ``engine._bounds_union``: far from the origin a pad below the
        # spacing of doubles would leave the box degenerate.
        mag = max(abs(min(xs)), abs(max(xs)), abs(min(ys)), abs(max(ys)), 1.0)
        pad = max(max(xs) - min(xs), max(ys) - min(ys)) * 1e-3 + mag * 1e-9 + 1e-12
        return polygon_from_rings([[(min(xs) - pad, min(ys) - pad),
                                    (max(xs) + pad, min(ys) - pad),
                                    (max(xs) + pad, max(ys) + pad),
                                    (min(xs) - pad, max(ys) + pad)]])


def build_grid_index(records, byte_budget: int, config: Config = DEFAULT,
                     kind: str = "polygon") -> tuple:
    """Assign records, by centroid, to power-of-two tiles over the dataset
    extent at the minimal zoom where every cell's region fits the byte
    budget; polygon datasets additionally raise the zoom until the median
    polygon spans >= 2 pixels at the default query resolution.

    A cell is sized, with no layer index built, as its column block plus,
    in a polygon store, an upper bound of its layer slice: 4 bytes and 12
    per member, as a cell has at most one layer per member (4 bytes of
    length and 8 of id each). That bound is each cell's ``byte_size``.

    Returns (GridIndex, {cell key: [records in id order]}).
    """
    records = sorted(records, key=lambda r: r.id)
    if not records:
        raise DataError("cannot index an empty dataset")
    row_bytes = np.array([_POINT_ROW if rec.kind == "point" else len(serialize_record(rec))
                          for rec in records])
    big = int(row_bytes.argmax())
    if row_bytes[big] >= byte_budget:
        raise DataError(f"object {records[big].id} ({row_bytes[big]} bytes) exceeds the "
                        f"cell byte budget {byte_budget}")
    head = _BLOCK_HEAD.size
    if kind == "polygon":  # the layer slice bound
        head += 4
        row_bytes += 12
    boxes = np.array([rec.bbox() for rec in records])
    x0, y0 = boxes[:, 0].min(), boxes[:, 1].min()
    x1, y1 = boxes[:, 2].max(), boxes[:, 3].max()
    side = max(x1 - x0, y1 - y0)
    if side <= 0:
        side = max(abs(x0), abs(y0), 1.0) * 1e-6
    cents = np.array([rec.centroid() for rec in records])

    median_span = None
    if kind == "polygon":
        spans = np.array([max(b[2] - b[0], b[3] - b[1]) for b in boxes])
        median_span = float(np.median(spans))

    for zoom in range(0, MAX_ZOOM + 1):
        n = 1 << zoom
        tile = side / n
        tx = np.minimum(((cents[:, 0] - x0) / tile).astype(np.int64), n - 1)
        ty = np.minimum(((cents[:, 1] - y0) / tile).astype(np.int64), n - 1)
        codes, cell_of = np.unique(tx * n + ty, return_inverse=True)
        sizes = head + np.bincount(cell_of, weights=row_bytes).astype(np.int64)
        if sizes.max() > byte_budget:
            continue
        if median_span is not None and zoom < MAX_ZOOM:
            # sub-pixel polygons devolve to full exact tests; shrink cells
            # until the median polygon spans >= 2 query pixels
            px = tile / config.resolution
            if median_span < 2 * px and len(codes) < len(records):
                continue
        order = np.argsort(cell_of, kind="stable")
        bounds = np.cumsum(np.bincount(cell_of))[:-1]
        groups, cells = {}, []
        for code, size, members in zip(codes.tolist(), sizes.tolist(),
                                       np.split(order, bounds)):
            key = (zoom, *divmod(code, n))
            groups[key] = [records[i] for i in members]
            cells.append(GridCell(zoom=zoom, x=key[1], y=key[2],
                                  hull=_hull_of_records(groups[key]),
                                  count=len(members), byte_size=size))
        return GridIndex(zoom=zoom, cells=cells, extent=(x0, y0, x1, y1)), groups
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
    """Write records.bin + catalog.meta for a new dataset."""
    records = sorted(records, key=lambda r: r.id)
    if not records:
        raise DataError("cannot ingest an empty dataset")
    ids = [r.id for r in records]
    if len(set(ids)) != len(ids):
        raise DataError("duplicate record ids in dataset")
    if ids[-1] >= 1 << 63:
        raise DataError(f"record id {ids[-1]} does not fit a signed 64-bit id")
    kinds = {r.kind for r in records}
    kind = kind or (kinds.pop() if len(kinds) == 1 else "mixed")
    directory = Path(data_dir) / name
    directory.mkdir(parents=True, exist_ok=True)
    blob = _file_head(len(records)) + encode_block(records)
    (directory / "records.bin").write_bytes(blob)
    cat = DatasetCatalog(name=name, kind=kind, crs=crs, count=len(records),
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


def read_records(cat: DatasetCatalog) -> list:
    blob = (cat.directory / "records.bin").read_bytes()
    count = _read_head(blob, f"{cat.name}/records.bin")
    data = decode_block(memoryview(blob)[_HEAD_SIZE:])
    if len(data) != count:
        raise CorruptionError(f"{cat.name}/records.bin: {count} records announced, "
                              f"{len(data)} stored")
    return sorted(data.records, key=lambda r: r.id)


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
    records = read_records(cat)
    index, groups = build_grid_index(records, byte_budget, config, cat.kind)
    rows, regions, hull_lines, cells = [], [], [], []
    offset = 0
    for cell in index.cells:
        members = groups[cell.key]
        block = encode_block(members)
        lslice = _serialize_layers(build_layer_index(members)) if cat.kind == "polygon" else b""
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
        boxes = np.array([c.hull.bbox() for c in cells])
        self._index = GridIndex(zoom=zoom, cells=cells,
                                extent=(boxes[:, 0].min(), boxes[:, 1].min(),
                                        boxes[:, 2].max(), boxes[:, 3].max()))
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
    """Cells whose hull intersects the constraint (never excludes a cell
    containing a true result: hulls contain their members)."""
    _, j = _meeting(RecordTable([engine._as_constraint_record(constraint)]), index.hulls())
    return [index.cells[k] for k in j]


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


def plan_ooc_join(store_a: DatasetStore, store_b: DatasetStore,
                  force_strategy: str | None = None) -> tuple:
    """Filter both grids, build the two load sequences, and let the
    optimizer pick the one with fewer estimated transfer bytes, or take
    ``force_strategy``.

    Layer-index steps are the filtered (A cell, B cell) pairs, A-cell-major,
    and run in that order, so each A cell's layers render once for all its
    B cells; an A cell's B cells start with the one the previous A cell
    ended on, when it has it. Naive-loop steps are one per A polygon that
    meets a B hull (the exact kernel over each filtered A cell's polygons
    and its B hulls), with its A cell and those B cells as footprint.

    Returns (naive estimate, layer estimate, PlanChoice, steps); ``steps``
    maps each step label of either sequence to its (A cell, [B cells]).
    """
    if store_a.catalog.kind != "polygon":
        raise DataError("ooc_join: D1 must be a polygon dataset")
    index_a = store_a.grid_index()
    index_b = store_b.grid_index()
    sizes = {("A", c.key): c.byte_size for c in index_a.cells}
    sizes.update({("B", c.key): c.byte_size for c in index_b.cells})
    ordinal = {c.key: k for k, c in enumerate(index_b.cells)}
    groups: dict = {}
    for ca, cb in filter_join(index_a, index_b):
        groups.setdefault(ca.key, (ca, []))[1].append(cb)
    steps: dict = {}
    layer_steps, naive_steps = [], []
    last = None
    for ca, b_cells in groups.values():
        keys = [cb.key for cb in b_cells]
        if last in keys:
            b_cells.insert(0, b_cells.pop(keys.index(last)))
        last = b_cells[-1].key
        for cb in b_cells:
            label = f"pair:{ca.label()}x{cb.label()}"
            steps[label] = (ca, [cb])
            layer_steps.append((label, frozenset({("A", ca.key), ("B", cb.key)})))
        polys = store_a.load_cell(ca).others
        hulls = index_b.hulls().take([ordinal[cb.key] for cb in b_cells])
        per_poly: dict = {}
        for p, h in zip(*_meeting(RecordTable(polys), hulls)):
            per_poly.setdefault(polys[p].id, []).append(b_cells[h])
        for rid in sorted(per_poly):
            label = f"poly:{rid}"
            steps[label] = (ca, per_poly[rid])
            naive_steps.append((label, frozenset({("A", ca.key)}
                                                 | {("B", c.key) for c in per_poly[rid]})))
    est_naive, est_layer, plan = optimizer.choose_join_strategy(
        naive_steps, layer_steps, sizes, force_strategy)
    return est_naive, est_layer, plan, steps


def ooc_join(store_a: DatasetStore, store_b: DatasetStore,
             resolution: int | None = None, config: Config = DEFAULT,
             force_strategy: str | None = None, explain: list | None = None):
    """Out-of-core join: filter cell pairs, choose the naive-loop or
    layer-index refinement by transfer estimate, and run the plan's load
    order. A step loads its A cell unless the step before had the same one,
    then streams its B cells past the A side's canvases: with the layer
    index, those of every layer of the A cell, rendered once per A cell
    (only one A cell's canvases are alive at a time); with the naive loop,
    the step's one A polygon."""
    est_naive, est_layer, plan, steps = plan_ooc_join(store_a, store_b, force_strategy)
    if explain is not None:
        explain.extend(optimizer.explain_lines(plan, est_naive, est_layer))
    resolution = resolution or config.resolution
    pairs = []
    key = None
    for label in plan.load_order:
        ca, b_cells = steps[label]
        if ca.key != key:
            key, matchers = ca.key, None
            data = store_a.load_cell(ca)
        if plan.join_strategy == optimizer.NAIVE_LOOP:
            layers = LayerIndex([[int(label.split(":", 1)[1])]])
            matchers = engine._layer_matchers(data.others, layers, resolution)
        elif matchers is None:
            matchers = list(engine._layer_matchers(data.others, data.layers, resolution))
        pairs.append(engine._joined(matchers, (store_b.load_cell(cb) for cb in b_cells)))
    return engine._join_result(*engine._stacked(pairs))


def ooc_distance_select(store: DatasetStore, source: GeometryRecord, r: float,
                        resolution: int | None = None,
                        config: Config = DEFAULT) -> engine.SelectionResult:
    """``engine.distance_select`` over the cells whose hull lies within r of
    the source."""
    matchers = engine._source_matchers(source, r, resolution or config.resolution)
    kept = filter_distance(store.grid_index(), source, r)
    return engine._selection(matchers, (store.load_cell(c) for c in kept))


def _reached(index: GridIndex, kept) -> list:
    """The cells of the lists ``kept``, each once, in grid order."""
    keys = {cell.key for cells in kept for cell in cells}
    return [cell for cell in index.cells if cell.key in keys]


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
    kept = _reached(index, [filter_distance(index, rec, r)
                            for rec, r in zip(table.records, rad.tolist())])
    return engine._join_result(*engine._joined(matchers, (store_b.load_cell(c) for c in kept)))


def ooc_aggregate(constraints, store: DatasetStore, mode: str = "count",
                  resolution: int | None = None,
                  config: Config = DEFAULT) -> engine.AggregationResult:
    """``engine.aggregate`` over the cells whose hull meets some constraint:
    the constraints' layer index is built and each layer rendered once, and
    the cells partition the data, so one pass over them counts exactly."""
    constraints = list(constraints)
    matchers = engine._aggregation_matchers(constraints, mode, None,
                                            resolution or config.resolution)
    index = store.grid_index()
    kept = _reached(index, [filter_select(index, cons) for cons in constraints])
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
