"""Dataset catalog, clustered grid index with convex-hull cell bounds, cell
serialization, and out-of-core query execution.

A dataset directory holds ``catalog.meta`` (text key-value), ``records.bin``
(the ingested records), ``cells.bin`` (grid-cell blocks), ``bindex.bin`` and
``layers.bin`` (per-cell canvas indexes), and ``hulls.wkt``. Binary files are
little-endian and start with the magic ``SPDC1``, a ``<H`` format version
and a ``<I`` count. A store whose catalog or ``cells.bin`` names another
version than ``FORMAT_VERSION`` is refused with ``CorruptionError``.

Records are stored in column blocks (format version 3): ``records.bin``
holds one block for the whole dataset and ``cells.bin`` one per grid cell.

- header ``<II``: point rows n, other rows m;
- point section: ``ids`` n x ``<u8``, ``values`` n x ``<f8`` (NaN where a
  point has no value) and ``xy`` n x 2 ``<f8``, each contiguous;
- others section: the m polyline and polygon records, each length-prefixed
  in the per-record encoding of ``serialize_record``; a polygon holds its
  rings only (version 2 also held triangles, and is refused).

Both sections are in ascending id order. A cell load reads the point
section with ``np.frombuffer`` into an ``engine.PreparedPoints`` and builds
no record for it; queries take the loaded ``CellData`` as a dataset.

Integrity: opening a ``DatasetStore`` checks every file against the SHA-256
in its catalog, and ``load_cell`` checks each cell block and its
``layers.bin`` slice against the CRC-32s in the cell's ``cells.bin`` table
row. ``bindex.bin`` (each cell's boundary index, one row per point,
segment or ring edge) is still written and
counted in ``GridCell.byte_size``, but no reader opens it.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import engine, instrument, optimizer
from .canvas_index import LayerIndex, build_layer_index
from .config import DEFAULT, Config
from .errors import CorruptionError, DataError
from .geometry import (
    GeometryRecord,
    Point2,
    PolygonGeom,
    Segment,
    convex_hull,
    edge_table,
    geometry_distance,
    parse_wkt,
    polygon_from_rings,
)

MAGIC = b"SPDC1"
FORMAT_VERSION = 3
MAX_ZOOM = 20

_KIND_CODE = {"polyline": 1, "polygon": 2}
_KIND_NAME = {v: k for k, v in _KIND_CODE.items()}
_FILE_HEAD = struct.Struct("<HI")  # format version, item count (after MAGIC)
_HEAD_SIZE = len(MAGIC) + _FILE_HEAD.size
_BLOCK_HEAD = struct.Struct("<II")  # point rows, other rows
_POINT_ROW = 32  # id, value, x, y
# zoom, x, y, rows, block offset, length, CRC, bindex offset, length,
# layers offset, length, CRC
_CELL_ROW = struct.Struct("<BIIIQQIQQQQI")
# object id, kind, six coordinates (NaN-padded), radius, edge ordinal, -1
# (a triangle ordinal before format version 3)
_BINDEX_ROW = struct.Struct("<QB6ddIi")


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
    """One column block of records in id order (layout in the module
    docstring)."""
    pts, others = engine._split_kinds(records)
    cols = engine.PreparedPoints(pts)
    return b"".join([_BLOCK_HEAD.pack(len(pts), len(others)),
                     cols.ids.astype("<u8").tobytes(), cols.values.astype("<f8").tobytes(),
                     cols.xy.astype("<f8").tobytes(), *map(serialize_record, others)])


def decode_block(block) -> tuple:
    """(PreparedPoints, other records) of one column block. The point
    columns are read in place with ``np.frombuffer``; the others are
    decoded record by record."""
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
    points = engine.PreparedPoints.from_arrays(ids.astype(np.int64), xy, values)
    return points, others


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


def _serialize_bindex_rows(bindex) -> bytes:
    rows = zip(bindex.obj_ids.tolist(), bindex.kinds.tolist(), bindex.coords.tolist(),
               bindex.aux_r.tolist(), bindex.edge_ordinals.tolist())
    return struct.pack("<I", len(bindex)) + b"".join(
        _BINDEX_ROW.pack(oid, kind, *c, np.nan, np.nan, r, e, -1) for oid, kind, c, r, e in rows)


# ---------------------------------------------------------------------------
# Grid index structures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridCell:
    zoom: int
    x: int
    y: int
    hull: PolygonGeom
    count: int
    byte_size: int
    offset: int = 0
    length: int = 0
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
    _hulls: list | None = field(default=None, init=False, repr=False, compare=False)
    _hull_layers: LayerIndex | None = field(default=None, init=False, repr=False,
                                            compare=False)

    def cell_by_key(self, key) -> GridCell:
        for c in self.cells:
            if c.key == key:
                return c
        raise DataError(f"no such cell {key}")

    def hull_records(self) -> list:
        """Cell hulls as a polygon dataset; record id = cell ordinal. Built
        once, so the records' derived arrays are cached across queries."""
        if self._hulls is None:
            self._hulls = [GeometryRecord(i, "polygon", [c.hull])
                           for i, c in enumerate(self.cells)]
        return self._hulls

    def hull_layers(self) -> LayerIndex:
        """Layer index over ``hull_records``, built on first use."""
        if self._hull_layers is None:
            self._hull_layers = build_layer_index(self.hull_records())
        return self._hull_layers


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
    except Exception:
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        pad = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9) * 1e-3 + 1e-12
        return polygon_from_rings([[(min(xs) - pad, min(ys) - pad),
                                    (max(xs) + pad, min(ys) - pad),
                                    (max(xs) + pad, max(ys) + pad),
                                    (min(xs) - pad, max(ys) + pad)]])


def _point_layering(records) -> LayerIndex:
    """Points are disjoint iff distinct; coincident duplicates go to
    separate layers (k-th duplicate to layer k)."""
    seen: dict = {}
    layers: list = []
    for rec in sorted(records, key=lambda r: r.id):
        key = (rec.geometry.x, rec.geometry.y)
        depth = seen.get(key, 0)
        seen[key] = depth + 1
        while len(layers) <= depth:
            layers.append([])
        layers[depth].append(rec.id)
    return LayerIndex(layers=[sorted(l) for l in layers])


def build_grid_index(records, byte_budget: int, config: Config = DEFAULT,
                     kind: str = "polygon") -> tuple:
    """Assign records to power-of-two tiles over the dataset extent at the
    minimal zoom where every cell block (records + canvas index slices) fits
    the byte budget; polygon datasets additionally raise the zoom until the
    median polygon spans >= 2 pixels at the default query resolution.

    Returns (GridIndex, {cell key: [records]}, {cell key: serialized sizes}).
    """
    records = sorted(records, key=lambda r: r.id)
    if not records:
        raise DataError("cannot index an empty dataset")
    row_bytes = {rec.id: _POINT_ROW if rec.kind == "point" else len(serialize_record(rec))
                 for rec in records}
    big_id = max(row_bytes, key=row_bytes.get)
    if row_bytes[big_id] >= byte_budget:
        raise DataError(f"object {big_id} ({row_bytes[big_id]} bytes) exceeds the "
                        f"cell byte budget {byte_budget}")
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
        tile = side / (1 << zoom)
        tx = np.minimum(((cents[:, 0] - x0) / tile).astype(int), (1 << zoom) - 1)
        ty = np.minimum(((cents[:, 1] - y0) / tile).astype(int), (1 << zoom) - 1)
        groups: dict = {}
        for rec, cx, cy in zip(records, tx, ty):
            groups.setdefault((zoom, int(cx), int(cy)), []).append(rec)
        sizes = {}
        ok = True
        for key, members in groups.items():
            block = _BLOCK_HEAD.size + sum(row_bytes[m.id] for m in members)
            bindex_bytes = 4 + _BINDEX_ROW.size * sum(
                1 if m.kind == "point" else len(edge_table(m)[0]) for m in members)
            if kind == "point":
                layer_bytes = len(_serialize_layers(_point_layering(members)))
            else:
                layer_bytes = len(_serialize_layers(build_layer_index(members)))
            total = block + bindex_bytes + layer_bytes
            sizes[key] = (block, bindex_bytes, layer_bytes)
            if total > byte_budget:
                ok = False
                break
        if not ok:
            continue
        if median_span is not None and zoom < MAX_ZOOM:
            # sub-pixel polygons devolve to full exact tests; shrink cells
            # until the median polygon spans >= 2 query pixels
            px = tile / config.resolution
            if median_span < 2 * px and len(groups) < len(records):
                continue
        cells = []
        for key in sorted(groups):
            members = groups[key]
            hull = _hull_of_records(members)
            cells.append(GridCell(zoom=key[0], x=key[1], y=key[2], hull=hull,
                                  count=len(members),
                                  byte_size=sum(sizes[key])))
        index = GridIndex(zoom=zoom, cells=cells, extent=(x0, y0, x1, y1))
        return index, {k: groups[k] for k in sorted(groups)}, sizes
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
    points, others = decode_block(memoryview(blob)[_HEAD_SIZE:])
    if len(points) + len(others) != count:
        raise CorruptionError(f"{cat.name}/records.bin: {count} records announced, "
                              f"{len(points) + len(others)} stored")
    return sorted(points.records + others, key=lambda r: r.id)


def hull_wkt(poly: PolygonGeom) -> str:
    ring = poly.rings[0]
    coords = ", ".join(f"{float(x)!r} {float(y)!r}" for x, y in ring)
    first = ring[0]
    return f"POLYGON (({coords}, {float(first[0])!r} {float(first[1])!r}))"


def build_indexes(cat: DatasetCatalog, byte_budget: int | None = None,
                  config: Config = DEFAULT) -> GridIndex:
    """Build and persist the grid, boundary, and layer indexes for a
    dataset: cells.bin, bindex.bin, layers.bin, hulls.wkt."""
    from .canvas_index import build_boundary_index_direct
    byte_budget = byte_budget or config.byte_budget
    records = read_records(cat)
    index, groups, _sizes = build_grid_index(records, byte_budget, config, cat.kind)

    cell_dir = []
    blocks = []
    bindex_parts = []
    layer_parts = []
    hull_lines = []
    offset = 0
    boffset = 0
    loffset = 0
    cells = []
    for cell in index.cells:
        members = groups[cell.key]
        block = encode_block(members)
        crc = zlib.crc32(block)
        bslice = _serialize_bindex_rows(build_boundary_index_direct(members))
        if cat.kind == "point":
            lslice = _serialize_layers(_point_layering(members))
        else:
            lslice = _serialize_layers(build_layer_index(members))
        cells.append(GridCell(zoom=cell.zoom, x=cell.x, y=cell.y, hull=cell.hull,
                              count=cell.count,
                              byte_size=len(block) + len(bslice) + len(lslice),
                              offset=offset, length=len(block), crc=crc))
        cell_dir.append(_CELL_ROW.pack(cell.zoom, cell.x, cell.y, cell.count, offset,
                                       len(block), crc, boffset, len(bslice), loffset,
                                       len(lslice), zlib.crc32(lslice)))
        blocks.append(block)
        bindex_parts.append(bslice)
        layer_parts.append(lslice)
        hull_lines.append(f"{cell.zoom}/{cell.x}/{cell.y}\t{hull_wkt(cell.hull)}")
        offset += len(block)
        boffset += len(bslice)
        loffset += len(lslice)

    d = cat.directory
    cells_blob = _file_head(len(cells)) + b"".join(cell_dir) + b"".join(blocks)
    bindex_blob = _file_head(len(cells)) + b"".join(bindex_parts)
    layers_blob = _file_head(len(cells)) + b"".join(layer_parts)
    hulls_text = "\n".join(hull_lines) + "\n"
    (d / "cells.bin").write_bytes(cells_blob)
    (d / "bindex.bin").write_bytes(bindex_blob)
    (d / "layers.bin").write_bytes(layers_blob)
    (d / "hulls.wkt").write_text(hulls_text)
    cat.zoom = index.zoom
    cat.byte_budget = byte_budget
    cat.checksums["cells.bin"] = hashlib.sha256(cells_blob).hexdigest()
    cat.checksums["bindex.bin"] = hashlib.sha256(bindex_blob).hexdigest()
    cat.checksums["layers.bin"] = hashlib.sha256(layers_blob).hexdigest()
    cat.checksums["hulls.wkt"] = hashlib.sha256(hulls_text.encode()).hexdigest()
    (d / "catalog.meta").write_text(_meta_text(cat))
    index.cells = cells
    return index


@dataclass
class CellData(engine.SplitDataset):
    """One loaded cell, which queries take as a dataset: ``points``, its
    point section as columns read in place from the block (no record is
    built for them), ``others``, its decoded polyline and polygon records,
    ``layer_slice``, its CRC-checked ``layers.bin`` slice, decoded into
    ``layers`` on first use (only joins read it), and ``byte_size``, the
    bytes a load counts (block, boundary-index and layer slices)."""

    layer_slice: bytes
    byte_size: int
    _layers: LayerIndex | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def layers(self) -> LayerIndex:
        if self._layers is None:
            self._layers = _deserialize_layers(self.layer_slice)
        return self._layers


class DatasetStore:
    """Read-only view of an indexed dataset with an LRU cell cache.

    ``bytes_transferred`` counts block bytes actually read; cache hits add
    nothing (the cache holds cache_factor x byte_budget bytes).
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
        for z, x, y, n, coff, clen, crc, _, bl, lo, ll, lcrc in _CELL_ROW.iter_unpack(
                blob[_HEAD_SIZE:base]):
            if base + coff + clen > len(blob):
                raise CorruptionError(f"{what}: cell {z}/{x}/{y} ends past the file")
            cell = GridCell(zoom=z, x=x, y=y, hull=hull_map[(z, x, y)], count=n,
                            byte_size=clen + bl + ll, offset=coff, length=clen, crc=crc)
            cells.append(cell)
            self._table[cell.key] = (base + coff, clen, crc, _HEAD_SIZE + lo, ll, lcrc)
            zoom = z
        boxes = np.array([c.hull.bbox() for c in cells])
        self._index = GridIndex(zoom=zoom, cells=cells,
                                extent=(boxes[:, 0].min(), boxes[:, 1].min(),
                                        boxes[:, 2].max(), boxes[:, 3].max()))
        return self._index

    def load_cell(self, cell: GridCell) -> CellData:
        """The cell's block, decoded, plus its layer index slice, both
        CRC-checked; served from cache when resident."""
        self.grid_index()
        key = cell.key
        if key not in self._table:
            raise DataError(f"no such cell {key}")
        if key in self._cache:
            self._cache.move_to_end(key)
            return self._cache[key]
        coff, clen, crc, loff, llen, lcrc = self._table[key]
        d = self.catalog.directory
        label = f"{self.catalog.name} cell {cell.label()}"
        with instrument.phase("io"):
            block = _read_checked(d / "cells.bin", coff, clen, crc, f"{label} block")
            lblob = _read_checked(d / "layers.bin", loff, llen, lcrc, f"{label} layers slice")
        points, others = decode_block(block)
        if len(points) + len(others) != cell.count:
            raise CorruptionError(f"{label}: {cell.count} rows announced, "
                                  f"{len(points) + len(others)} stored")
        data = CellData(points=points, others=others, layer_slice=lblob,
                        byte_size=cell.byte_size)
        self.bytes_transferred += cell.byte_size
        self._cache[key] = data
        self._cache_bytes += cell.byte_size
        while self._cache_bytes > self.cache_capacity and len(self._cache) > 1:
            _, old = self._cache.popitem(last=False)
            self._cache_bytes -= old.byte_size
        return data


def _read_checked(path: Path, offset: int, length: int, crc: int, what: str) -> bytes:
    with open(path, "rb") as f:
        f.seek(offset)
        blob = f.read(length)
    if len(blob) != length:
        raise CorruptionError(f"{what}: truncated")
    if zlib.crc32(blob) != crc:
        raise CorruptionError(f"{what}: CRC mismatch")
    return blob


# ---------------------------------------------------------------------------
# Index filtering (reuses the engine over hull polygons)
# ---------------------------------------------------------------------------

def filter_select(index: GridIndex, constraint, resolution: int | None = None,
                  config: Config = DEFAULT) -> list:
    """Cells whose hull intersects the constraint (never excludes a cell
    containing a true result: hulls contain their members)."""
    hulls = index.hull_records()
    got = engine.select(hulls, constraint, resolution=resolution, config=config)
    return [index.cells[i] for i in got.ids]


def filter_join(index_a: GridIndex, index_b: GridIndex,
                resolution: int | None = None, config: Config = DEFAULT) -> list:
    """Hull-intersecting cell pairs via the polygon-polygon join."""
    got = engine.join(index_a.hull_records(), index_b.hull_records(),
                      resolution=resolution, config=config,
                      d1_layers=index_a.hull_layers(), d2_layers=index_b.hull_layers())
    return [(index_a.cells[i], index_b.cells[j]) for i, j in got.pairs]


def filter_distance(index: GridIndex, source: GeometryRecord, r: float) -> list:
    """Cells whose hull lies within r of the source, by the exact distance
    to each of the few hulls."""
    return [index.cells[hull.id] for hull in index.hull_records()
            if geometry_distance(source, hull) <= r]


# ---------------------------------------------------------------------------
# Out-of-core query execution
# ---------------------------------------------------------------------------

def ooc_select(store: DatasetStore, constraint, resolution: int | None = None,
               config: Config = DEFAULT) -> engine.SelectionResult:
    index = store.grid_index()
    ids: list = []
    for cell in filter_select(index, constraint, resolution, config):
        ids.extend(engine.select(store.load_cell(cell), constraint,
                                 resolution=resolution, config=config).ids)
    return engine.SelectionResult(tuple(ids))


def plan_ooc_join(store_a: DatasetStore, store_b: DatasetStore,
                  resolution: int | None = None, config: Config = DEFAULT):
    """Filter both grids, build the naive and layer-strategy load sequences,
    and let the optimizer pick by estimated transfer bytes."""
    if store_a.catalog.kind != "polygon":
        raise DataError("ooc_join: D1 must be a polygon dataset")
    index_a = store_a.grid_index()
    index_b = store_b.grid_index()
    pairs = filter_join(index_a, index_b, resolution, config)
    sizes: dict = {}
    for cell in index_a.cells:
        sizes[("A", cell.key)] = cell.byte_size
    for cell in index_b.cells:
        sizes[("B", cell.key)] = cell.byte_size

    layer_steps = [(f"pair:{ca.label()}x{cb.label()}",
                    frozenset({("A", ca.key), ("B", cb.key)}))
                   for ca, cb in pairs]

    b_cells_of_a: dict = {ca.key: [] for ca, _ in pairs}
    for ca, cb in pairs:
        b_cells_of_a[ca.key].append(cb)
    naive_steps = []
    poly_filters: dict = {}
    hull_b = index_b.hull_records()
    ordinal_b = {i: cell for i, cell in enumerate(index_b.cells)}
    for ca_key, b_cells in sorted(b_cells_of_a.items()):
        ca = index_a.cell_by_key(ca_key)
        data = store_a.load_cell(ca)
        matched = engine.join(data.others, hull_b, resolution=resolution,
                              config=config, d1_layers=data.layers,
                              d2_layers=index_b.hull_layers())
        per_poly: dict = {}
        for rid, hid in matched.pairs:
            per_poly.setdefault(rid, []).append(ordinal_b[hid])
        for rid in sorted(per_poly):
            fp = frozenset({("A", ca_key)} | {("B", c.key) for c in per_poly[rid]})
            naive_steps.append((f"poly:{rid}", fp))
            poly_filters[rid] = (ca, per_poly[rid])
    est_naive, est_layer, plan = optimizer.choose_join_strategy(
        naive_steps, layer_steps, sizes)
    return est_naive, est_layer, plan, pairs, poly_filters


def ooc_join(store_a: DatasetStore, store_b: DatasetStore,
             resolution: int | None = None, config: Config = DEFAULT,
             force_strategy: str | None = None, explain: list | None = None):
    """Out-of-core join: filter cell pairs, choose the naive-loop or
    layer-index refinement by transfer estimate, execute it cell by cell."""
    est_naive, est_layer, plan, pairs, poly_filters = plan_ooc_join(
        store_a, store_b, resolution, config)
    strategy = force_strategy or plan.join_strategy
    if explain is not None:
        explain.extend(optimizer.explain_lines(
            optimizer.PlanChoice(strategy, plan.load_order), est_naive, est_layer))
    out = []
    if strategy == optimizer.NAIVE_LOOP:
        steps = [(f"poly:{rid}", None) for rid in sorted(poly_filters)]
        for label, _ in steps:
            rid = int(label.split(":", 1)[1])
            ca, b_cells = poly_filters[rid]
            rec = next(rec for rec in store_a.load_cell(ca).others if rec.id == rid)
            for cb in b_cells:
                got = engine.select(store_b.load_cell(cb), rec, resolution=resolution,
                                    config=config)
                out.extend((rid, int(i)) for i in got.ids)
    else:
        ordered = optimizer.order_join(
            [(f"{i}", frozenset({("A", ca.key), ("B", cb.key)}))
             for i, (ca, cb) in enumerate(pairs)])
        for label, _ in ordered:
            ca, cb = pairs[int(label)]
            da = store_a.load_cell(ca)
            db = store_b.load_cell(cb)
            got = engine.join(da.others, db, resolution=resolution,
                              config=config, d1_layers=da.layers, d2_layers=db.layers)
            out.extend(got.pairs)
    return engine.JoinResult(tuple(out))


def ooc_distance_select(store: DatasetStore, source: GeometryRecord, r: float,
                        resolution: int | None = None,
                        config: Config = DEFAULT) -> engine.SelectionResult:
    index = store.grid_index()
    ids: list = []
    for cell in filter_distance(index, source, r):
        ids.extend(engine.distance_select(store.load_cell(cell), source, r,
                                          resolution=resolution, config=config).ids)
    return engine.SelectionResult(tuple(ids))


def ooc_distance_join(d1_records, store_b: DatasetStore, radii,
                      resolution: int | None = None,
                      config: Config = DEFAULT) -> engine.JoinResult:
    """Type-2 distance join of in-memory sources against a stored dataset:
    per source, refine only the cells whose hull lies within its radius."""
    index = store_b.grid_index()
    if np.isscalar(radii):
        radii = [float(radii)] * len(d1_records)
    out = []
    for rec, r in zip(d1_records, radii):
        for cell in filter_distance(index, rec, r):
            got = engine.distance_join([rec], store_b.load_cell(cell), [r],
                                       resolution=resolution, config=config)
            out.extend(got.pairs)
    return engine.JoinResult(tuple(out))


def ooc_aggregate(constraints, store: DatasetStore, mode: str = "count",
                  resolution: int | None = None,
                  config: Config = DEFAULT) -> engine.AggregationResult:
    """Aggregate stored data per constraint; cells partition the data so
    per-cell rows add up exactly."""
    index = store.grid_index()
    counts: dict = {}
    sums: dict = {}
    cells = set()
    for cons in constraints:
        for cell in filter_select(index, cons, resolution, config):
            cells.add(cell.key)
    layers = (build_layer_index(constraints, resolution=engine.count_resolution(config))
              if cells else None)
    for key in sorted(cells):
        cell = index.cell_by_key(key)
        rows = engine.aggregate(constraints, store.load_cell(cell), mode,
                                resolution=resolution, config=config,
                                layer_index=layers).rows
        for cid, n, s in rows:
            counts[cid] = counts.get(cid, 0) + n
            if mode == "sum":
                sums[cid] = sums.get(cid, 0.0) + (s or 0.0)
    rows = tuple((cid, counts[cid], sums.get(cid) if mode == "sum" else None)
                 for cid in sorted(counts))
    return engine.AggregationResult(rows)


def ooc_count_within(store: DatasetStore, center: Point2, r: float,
                     resolution: int | None = None, config: Config = DEFAULT) -> int:
    src = GeometryRecord(0, "point", center)
    index = store.grid_index()
    total = 0
    res = engine.count_resolution(config)
    for cell in filter_distance(index, src, r):
        total += len(engine.distance_select(store.load_cell(cell), src, r,
                                            resolution=res, config=config).ids)
    return total


def ooc_knn_select(store: DatasetStore, p: Point2, k: int,
                   cfg: engine.KnnConfig | None = None,
                   resolution: int | None = None,
                   config: Config = DEFAULT) -> list:
    """kNN over a stored point dataset: the radius ladder counts through the
    filter, then one out-of-core distance selection ranks the points it
    matches by (distance, id) from the loaded cells' columns."""
    import math
    cfg = cfg or engine.KnnConfig(alpha=config.alpha,
                                  radius_floor=config.knn_radius_floor,
                                  circle_cap=config.circle_cap)
    index = store.grid_index()
    if store.catalog.kind != "point":
        raise DataError("ooc_knn_select needs a point dataset")
    if not isinstance(p, Point2):
        p = Point2(float(p[0]), float(p[1]))
    total = sum(c.count for c in index.cells)
    if k <= 0:
        raise DataError("k must be positive")
    if k > total:
        raise DataError(f"k={k} exceeds dataset size {total}")
    x0, y0, x1, y1 = index.extent
    r_max = max(math.hypot(p.x - cx, p.y - cy)
                for cx, cy in ((x0, y0), (x1, y0), (x0, y1), (x1, y1)))
    if r_max <= 0:
        r_max = cfg.radius_floor
    radii = cfg.radii(r_max)
    lo, hi = 0, len(radii) - 1
    if ooc_count_within(store, p, radii[hi], resolution, config) >= k:
        lo = hi
    else:
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if ooc_count_within(store, p, radii[mid], resolution, config) >= k:
                lo = mid
            else:
                hi = mid
    r = radii[lo]
    src = GeometryRecord(0, "point", p)
    ids, dists = [], []
    for cell in filter_distance(index, src, r):
        data = store.load_cell(cell)
        got = np.array(engine.distance_select(data, src, r, resolution=resolution,
                                              config=config).ids, dtype=np.int64)
        xy = data.points.xy[np.searchsorted(data.points.ids, got)]
        ids.append(got)
        dists.append(np.hypot(xy[:, 0] - p.x, xy[:, 1] - p.y))
    ids, dists = np.concatenate(ids), np.concatenate(dists)
    order = np.lexsort((ids, dists))[:k]
    return [(int(ids[i]), float(dists[i])) for i in order]


def ooc_knn_join(d1_records, store_b: DatasetStore, k: int,
                 cfg: engine.KnnConfig | None = None,
                 resolution: int | None = None, config: Config = DEFAULT) -> list:
    out = []
    for rec in sorted(d1_records, key=lambda rec: rec.id):
        neigh = ooc_knn_select(store_b, rec.geometry, k, cfg, resolution, config)
        out.append((rec.id, [rid for rid, _ in neigh]))
    return out
