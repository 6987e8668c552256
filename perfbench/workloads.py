"""The benchmark workloads.

Each workload makes its inputs from the seed, performs the program's own
set-up (``setup``, timed as ``setup_s``), and lists a fixed sequence of
queries. A query's ``run`` is the timed call into the program; ``norm``
turns its result into plain lists and ``expect`` computes the oracle's
answer in the same form, both outside the timed region. The program's
functions are always looked up on their module at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import itertools
import shutil
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import gen
from rasterquery import canvas_index, engine, geometry, oracle, storage
from rasterquery.config import Config
from rasterquery.geometry import Point2, point_record

FAMILIES = ("select", "join", "distance_select", "distance_join", "knn_select",
            "knn_join", "aggregate")


@dataclass
class Query:
    family: str
    label: str
    run: Callable[[], object]
    norm: Callable[[object], object]
    expect: Callable[[], object]


def ids_of(result) -> list:
    return list(result.ids)


def pairs_of(result) -> list:
    return [list(p) for p in result.pairs]


def rows_of(result) -> list:
    return [list(r) for r in result.rows]


def as_lists(result) -> list:
    return [list(r) for r in result]


def interleave(per_family: dict) -> list:
    """Round-robin over families, so every family recurs through a pass."""
    lists = [per_family[f] for f in FAMILIES]
    out = []
    for i in range(max(len(q) for q in lists)):
        out.extend(q[i] for q in lists if i < len(q))
    return out


def dense_centre(r, centres) -> Point2:
    """A point near a randomly chosen cluster centre."""
    c = centres[int(r.integers(len(centres)))] + r.normal(0.0, 0.01, 2)
    return Point2(float(c[0]), float(c[1]))


def sparse_centre(r) -> Point2:
    """A point in a corner band of the unit square, away from every cluster
    (cluster centres lie in [0.2, 0.8] with sigma <= 0.04)."""
    x, y = r.uniform(0.02, 0.1, 2)
    if r.integers(2):
        x = 1.0 - x
    if r.integers(2):
        y = 1.0 - y
    return Point2(float(x), float(y))


def random_points(r, n: int) -> list:
    return [point_record(i, x, y, float(v)) for i, ((x, y), v)
            in enumerate(zip(r.uniform(0.0, 1.0, (n, 2)).tolist(), r.uniform(0.0, 10.0, n)))]


def select_wkt(r, vertex_counts, radius: float, centres=None) -> list:
    """(vertex count, WKT) star constraints, at ``centres`` when given,
    else uniform in [0.3, 0.7]^2."""
    if centres is None:
        centres = r.uniform(0.3, 0.7, (len(vertex_counts), 2))
    return [(n, gen.ring_wkt(gen.star_ring(r, c, radius, n)))
            for n, c in zip(vertex_counts, centres)]


def user_bytes(records) -> int:
    """Coordinate payload a user hands over: 16 bytes per vertex (two
    doubles) plus 8 per value."""
    total = 0
    for rec in records:
        if rec.kind == "point":
            n = 1
        elif rec.kind == "polyline":
            n = len(rec.geometry) + 1
        else:
            n = sum(len(ring) for part in rec.geometry for ring in part.rings)
        total += 16 * n + (8 if rec.value is not None else 0)
    return total


class Workload:
    name = ""
    config = Config()
    environment: dict = {}
    user_bytes = 0

    def reset(self):
        """Undo the previous set-up's side effects (outside the timing)."""

    def stored_bytes(self) -> int:
        return 0

    # -- query builders shared by the in-memory workloads ------------------

    def q_select(self, n, wkt, dataset) -> Query:
        cfg, cands = self.config, self.cands

        def run():
            _, geom = geometry.parse_wkt(wkt)
            return engine.select(dataset, geom, config=cfg)
        return Query("select", f"select {n} vertices", run, ids_of,
                     lambda: checks.expect_select(cands, geometry.parse_wkt(wkt)[1]))

    def q_distance_select(self, src, rad, dataset) -> Query:
        cfg, cands = self.config, self.cands
        return Query("distance_select", f"distance_select {src.kind} r={rad}",
                     lambda: engine.distance_select(dataset, src, rad, config=cfg), ids_of,
                     lambda: checks.expect_distance_select(cands, src, rad))

    def q_knn_select(self, where, p, k, prepared, cands) -> Query:
        cfg = self.config
        return Query("knn_select", f"knn_select k={k} {where}",
                     lambda: engine.knn_select(prepared, p, k, config=cfg), as_lists,
                     lambda: checks.expect_knn_select(cands, p, k))

    def q_knn_join(self, left, k, prepared, cands) -> Query:
        cfg = self.config
        return Query("knn_join", f"knn_join {len(left)} left k={k}",
                     lambda: engine.knn_join(left, prepared, k, config=cfg), as_lists,
                     lambda: checks.expect_knn_join(left, cands, k))


class PointsInMem(Workload):
    """About 200k points, half uniform and half clustered, queried in memory."""

    name = "points_inmem"
    config = Config(resolution=1024)

    def __init__(self, seed: int, work_dir: Path):
        r = gen.rng(seed)
        self.points, centres = gen.mixed_points(r, 200_000)
        self.cands = checks.Candidates(self.points)
        self.hoods = gen.neighbourhoods(r, 10, radius_frac=0.25)
        # Two 8 x 8 lattices 0.15 cells apart: they overlap each other
        # but not themselves, so the zones form two layers in every seed,
        # and each layer spans the whole square.
        self.zones = (gen.lattice_polygons(r, 8, 0, radius_frac=0.2)
                      + gen.lattice_polygons(r, 8, 64, (0.15, 0.15), radius_frac=0.2))
        # Placements alternate between sparse and dense areas in a fixed
        # pattern, and the middle query shape is the most common one, so
        # each family's median falls on the same kind of query every seed.
        dense, sparse = (lambda: dense_centre(r, centres)), (lambda: sparse_centre(r))
        select_plan = ((16, sparse), (32, dense), (64, sparse), (64, dense), (64, sparse),
                       (128, dense), (256, sparse))
        self.select_wkt = select_wkt(r, [n for n, _ in select_plan], 0.05,
                                     [astuple(place()) for _, place in select_plan])
        dsel_plan = ((0.02, sparse), (0.04, sparse), (0.04, dense), (0.04, sparse), (0.08, sparse))
        self.dsel = [(point_record(0, *astuple(place())), rad) for rad, place in dsel_plan]
        # Sources at least 0.0156 apart, so their r = 0.005 buffers are
        # disjoint and the on-the-fly layer index has one layer.
        self.djoin_sources = gen.lattice_points(r, 32)
        self.knn = [(where, place(), k) for k in (1, 10, 100)
                    for where, place in (("dense", dense), ("sparse", sparse))]
        # Lattice left points: their kNN buffers are disjoint, one layer.
        self.knn_left = gen.lattice_points(r, 6)

    def setup(self, span):
        with span("engine.PreparedPoints"):
            self.prepared = engine.PreparedPoints(self.points)
        self.hood_layers = canvas_index.build_layer_index(self.hoods)
        self.zone_layers = canvas_index.build_layer_index(self.zones)

    def queries(self) -> list:
        cfg, pts, prep, cands = self.config, self.points, self.prepared, self.cands
        fam = {f: [] for f in FAMILIES}
        fam["select"] = [self.q_select(n, wkt, prep) for n, wkt in self.select_wkt]
        zones, zl = self.zones, self.zone_layers
        fam["join"] = [Query(
            "join", f"join {len(zones)} zones in {zl.layer_count} layers x {len(pts)} points",
            lambda: engine.join(zones, pts, config=cfg, d1_layers=zl), pairs_of,
            lambda: checks.expect_join(zones, cands))]
        fam["distance_select"] = [self.q_distance_select(s, rad, pts) for s, rad in self.dsel]
        srcs, rj = self.djoin_sources, 0.005
        fam["distance_join"] = [Query(
            "distance_join", f"distance_join {len(srcs)} point sources r={rj}",
            lambda: engine.distance_join(srcs, pts, rj, config=cfg), pairs_of,
            lambda: checks.expect_distance_join(srcs, [rj] * len(srcs), cands))]
        fam["knn_select"] = [self.q_knn_select(w, p, k, prep, cands) for w, p, k in self.knn]
        fam["knn_join"] = [self.q_knn_join(self.knn_left, 10, prep, cands)]
        hoods, layers = self.hoods, self.hood_layers
        oracle_rows = []

        def expect(mode):
            if not oracle_rows:  # count and sum share one oracle pass
                oracle_rows.extend(checks.expect_aggregate(hoods, cands, "sum"))
            return [[c, n, s if mode == "sum" else None] for c, n, s in oracle_rows]
        fam["aggregate"] = [Query(
            "aggregate", f"aggregate {mode} over {len(hoods)} neighbourhoods",
            lambda m=mode: engine.aggregate(hoods, pts, m, config=cfg, layer_index=layers),
            rows_of, lambda m=mode: expect(m)) for mode in ("count", "sum")]
        return interleave(fam)


class PolygonsInMem(Workload):
    """Poly-poly join with prebuilt layers, selections over small polygons and
    polylines, polygon-source distance queries, aggregation through join."""

    name = "polygons_inmem"
    config = Config(resolution=1024)

    def __init__(self, seed: int, work_dir: Path):
        r = gen.rng(seed)
        # Three overlapping lattices per side: three layers for every seed.
        self.a = gen.layered_polygons(r, 10, 3, start_id=0)
        self.b = gen.layered_polygons(r, 10, 3, start_id=1000, shift=0.5 / 3)
        self.small = gen.polygons(r, 2000, 0.006, start_id=0)
        self.lines = gen.polylines(r, 1000, start_id=2000)
        self.shapes = self.small + self.lines
        self.cands = checks.Candidates(self.shapes)
        self.small_cands = checks.Candidates(self.small)
        self.sites = random_points(r, 2000)
        self.site_cands = checks.Candidates(self.sites)
        self.hoods = gen.neighbourhoods(r, 10)
        self.select_wkt = select_wkt(r, (8, 16) * 4, 0.15)
        # Sources with a fixed vertex count: canvas work per source is fixed.
        self.dsel = [(gen.star_polygon(r, 0, r.uniform(0.2, 0.8, 2), 0.04, 8), rad)
                     for rad in (0.02, 0.03) * 2]
        # The first lattice of A leaves gaps of at least 0.01 between its
        # polygons and every radius is below 0.005: one distance layer.
        self.djoin_radii = r.uniform(0.002, 0.0045, 100).tolist()
        self.knn = [("uniform", Point2(*map(float, r.uniform(0.1, 0.9, 2))), k)
                    for k in (5, 50) * 2]
        # Left points at least 0.16 apart and k = 3 (kNN radius below 0.08
        # among 2k sites): disjoint buffers, one distance layer every seed.
        self.knn_left = gen.lattice_points(r, 5, jitter=0.1)

    def setup(self, span):
        self.a_layers = canvas_index.build_layer_index(self.a)
        self.b_layers = canvas_index.build_layer_index(self.b)
        self.hood_layers = canvas_index.build_layer_index(self.hoods)
        with span("engine.PreparedPoints"):
            self.prepared = engine.PreparedPoints(self.sites)

    def queries(self) -> list:
        cfg, prep = self.config, self.prepared
        fam = {f: [] for f in FAMILIES}
        a, b, la, lb = self.a, self.b, self.a_layers, self.b_layers
        fam["join"] = [Query(
            "join", f"join {len(a)}x{len(b)} polygons",
            lambda: engine.join(a, b, config=cfg, d1_layers=la, d2_layers=lb), pairs_of,
            lambda: oracle.oracle_join(a, b))]
        fam["select"] = [self.q_select(n, wkt, self.shapes) for n, wkt in self.select_wkt]
        fam["distance_select"] = [self.q_distance_select(s, rad, self.shapes)
                                  for s, rad in self.dsel]
        srcs, radii = self.a[:100], self.djoin_radii
        sites, site_cands = self.sites, self.site_cands
        fam["distance_join"] = [Query(
            "distance_join", f"distance_join {len(srcs)} polygon sources, per-source radii",
            lambda: engine.distance_join(srcs, sites, radii, config=cfg), pairs_of,
            lambda: checks.expect_distance_join(srcs, radii, site_cands))]
        fam["knn_select"] = [self.q_knn_select(w, p, k, prep, site_cands) for w, p, k in self.knn]
        fam["knn_join"] = [self.q_knn_join(self.knn_left, 3, prep, site_cands)]
        hoods, hl, small, small_cands = self.hoods, self.hood_layers, self.small, self.small_cands
        fam["aggregate"] = [Query(
            "aggregate", f"aggregate count of {len(small)} polygons per neighbourhood",
            lambda: engine.aggregate(hoods, small, "count", config=cfg, layer_index=hl), rows_of,
            lambda: checks.expect_aggregate(hoods, small_cands, "count"))]
        return interleave(fam)


class OocGrid(Workload):
    """A 50k-point store and two polygon stores, each several times its
    cell cache, queried through the ``ooc_*`` functions."""

    name = "ooc_grid"
    # Cells are small, so 512 px per side resolves them; cache_factor 1
    # keeps the cache to one byte budget. Polygon store A gets 4 cells and
    # B 16: with equal grids the optimizer's two transfer estimates for
    # ooc_join come within 1% and some seeds flip strategy (and double
    # the join time); with these the layer-index plan wins by 25-40%.
    config = Config(resolution=512, byte_budget=1 << 20, cache_factor=1)
    budget_a, budget_b = 80 * 1024, 32 * 1024
    environment = {"poly_a_byte_budget": budget_a, "poly_b_byte_budget": budget_b}

    def __init__(self, seed: int, work_dir: Path):
        r = gen.rng(seed)
        self.work_dir = work_dir
        self.points = random_points(r, 50_000)
        self.cands = checks.Candidates(self.points)
        # Two overlapping lattices per store: two layers in every seed.
        self.a = gen.layered_polygons(r, 10, 2, start_id=0, radius_frac=0.4)
        self.b = gen.layered_polygons(r, 10, 2, start_id=1000, shift=0.25, radius_frac=0.4)
        self.user_bytes = user_bytes(self.points) + user_bytes(self.a) + user_bytes(self.b)
        # The point store's grid is 4 x 4 cells of side 1/4. Queries sit at
        # a cell centre (one cell) or at an inner cell corner (four cells),
        # two centres to each corner, visiting cells in a fixed order; only
        # a small jitter is seeded. Every seed then loads the same cells in
        # the same order, so cache hits repeat, and each family's median is
        # a one-cell query.
        centre_cells = itertools.cycle([((5 * k) % 16 % 4, (5 * k) % 16 // 4) for k in range(16)])
        corner_cells = itertools.cycle([(2, 2), (1, 3), (3, 1), (1, 1), (3, 3), (2, 1), (1, 2),
                                        (3, 2), (2, 3)])

        def centre():
            return tuple((np.array(next(centre_cells)) + 0.5) / 4 + r.uniform(-0.01, 0.01, 2))

        def corner():
            return tuple(np.array(next(corner_cells)) / 4 + r.uniform(-0.01, 0.01, 2))
        pattern = (centre, centre, corner)
        self.select_wkt = select_wkt(r, [n for n in (16, 32, 64) for _ in pattern], 0.08,
                                     [place() for _ in range(3) for place in pattern])
        self.dsel = [(point_record(0, *place()), rad)
                     for rad in (0.02, 0.05) for place in pattern * 2]
        self.djoin_sources = [point_record(i, *pattern[i % 3]()) for i in range(10)]
        self.knn = [(Point2(*place()), k) for k in (1, 10, 100) for place in pattern]
        self.knn_left = [point_record(i, *pattern[i % 3]()) for i in range(6)]
        # Four neighbourhoods around each of three fixed inner corners.
        self.hood_sets = [[gen.star_polygon(r, i, np.array(hub) + 0.06 * np.array(d), 0.05, 8)
                           for i, d in enumerate(((-1, -1), (1, -1), (-1, 1), (1, 1)))]
                          for hub in ((0.5, 0.5), (0.25, 0.75), (0.75, 0.25))]

    def reset(self):
        self.stores = None
        shutil.rmtree(self.work_dir / "stores", ignore_errors=True)

    def stored_bytes(self) -> int:
        return sum(f.stat().st_size for f in (self.work_dir / "stores").rglob("*") if f.is_file())

    def setup(self, span):
        d = self.work_dir / "stores"
        cfg = self.config
        for name, recs, budget in (("points", self.points, cfg.byte_budget),
                                   ("poly_a", self.a, self.budget_a),
                                   ("poly_b", self.b, self.budget_b)):
            cat = storage.ingest(recs, name, d)
            storage.build_indexes(cat, byte_budget=budget, config=cfg)
        self.stores = {name: storage.DatasetStore(d, name, cfg)
                       for name in ("points", "poly_a", "poly_b")}
        for store in self.stores.values():
            store.grid_index()

    def queries(self) -> list:
        cfg, cands = self.config, self.cands
        sp, sa, sb = self.stores["points"], self.stores["poly_a"], self.stores["poly_b"]
        fam = {f: [] for f in FAMILIES}
        for n, wkt in self.select_wkt:
            def run(wkt=wkt):
                _, geom = geometry.parse_wkt(wkt)
                return storage.ooc_select(sp, geom, config=cfg)
            fam["select"].append(Query(
                "select", f"ooc_select {n} vertices", run, ids_of,
                lambda wkt=wkt: checks.expect_select(cands, geometry.parse_wkt(wkt)[1])))
        a, b = self.a, self.b
        fam["join"] = [Query("join", f"ooc_join {len(a)}x{len(b)} polygons",
                             lambda: storage.ooc_join(sa, sb, config=cfg), pairs_of,
                             lambda: oracle.oracle_join(a, b))]
        fam["distance_select"] = [Query(
            "distance_select", f"ooc_distance_select r={rad}",
            lambda s=src, rr=rad: storage.ooc_distance_select(sp, s, rr, config=cfg), ids_of,
            lambda s=src, rr=rad: checks.expect_distance_select(cands, s, rr))
            for src, rad in self.dsel]
        srcs, rj = self.djoin_sources, 0.01
        fam["distance_join"] = [Query(
            "distance_join", f"ooc_distance_join {len(srcs)} point sources r={rj}",
            lambda: storage.ooc_distance_join(srcs, sp, rj, config=cfg), pairs_of,
            lambda: checks.expect_distance_join(srcs, [rj] * len(srcs), cands))]
        fam["knn_select"] = [Query(
            "knn_select", f"ooc_knn_select k={k}",
            lambda p=p, k=k: storage.ooc_knn_select(sp, p, k, config=cfg), as_lists,
            lambda p=p, k=k: checks.expect_knn_select(cands, p, k))
            for p, k in self.knn]
        left = self.knn_left
        fam["knn_join"] = [Query(
            "knn_join", f"ooc_knn_join {len(left)} left k=10",
            lambda: storage.ooc_knn_join(left, sp, 10, config=cfg), as_lists,
            lambda: checks.expect_knn_join(left, cands, 10))]
        fam["aggregate"] = [Query(
            "aggregate", f"ooc_aggregate sum over {len(hoods)} neighbourhoods at a cell corner",
            lambda h=hoods: storage.ooc_aggregate(h, sp, "sum", config=cfg), rows_of,
            lambda h=hoods: checks.expect_aggregate(h, cands, "sum"))
            for hoods in self.hood_sets]
        return interleave(fam)


WORKLOADS = {w.name: w for w in (PointsInMem, PolygonsInMem, OocGrid)}
