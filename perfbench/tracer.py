"""Outside-in tracing of rasterquery's layers.

The tracer replaces public functions of each module with wrappers that
record a span (name, start, end, parent span, query id) and count work at
the same boundary. It patches the binding the caller actually looks up:
``engine`` imports ``build_boundary_index_direct``, ``build_layer_index``
and the Map functions by name, so those are patched in ``engine``;
``render_geometry_canvas`` is imported at call time, so it is patched in
``canvas``; ``boundary_test`` and ``exact_intersects`` are module globals of
``canvas_index``. ``remove()`` restores every original binding.

A span's self time is its duration minus the time its child spans cover.
Calls on one thread nest, so children never overlap and that cover is the
sum of their durations.
"""

from __future__ import annotations

import contextlib
import functools
import time
import types
from collections import defaultdict

from rasterquery import canvas, canvas_index, engine, geometry, optimizer, storage

LAYERS = ("geometry", "canvas", "canvas_index", "engine", "operators", "optimizer", "storage")

_PROC_IO = "/proc/self/io"


def no_span(_name):
    return contextlib.nullcontext()


def read_rchar() -> int:
    """Bytes this process has read through read() so far (0 when the
    kernel does not expose /proc/self/io)."""
    try:
        with open(_PROC_IO, "rb") as f:
            for line in f.read().splitlines():
                if line.startswith(b"rchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


# ---------------------------------------------------------------------------
# Counting hooks: each runs after the wrapped call returns
# ---------------------------------------------------------------------------

def _count(name):
    def after(t, args, kwargs, result, state):
        t.counts[name] += 1
    return after


def _canvas_made(t, args, kwargs, result, state):
    vp = result.viewport
    t.counts["canvas.canvases"] += 1
    t.counts["canvas.pixels"] += vp.width_px * vp.height_px
    t.counts["canvas.boundary_pixels"] += sum(
        len(result.plane(name).bp_flat) for name in canvas.PLANES if result.has_plane(name))


def _boundary_index_made(t, args, kwargs, result, state):
    t.counts["canvas_index.boundary_entries"] += len(result)


def _layers_made(t, args, kwargs, result, state):
    t.counts["canvas_index.layers"] += result.layer_count


def _boundary_tested(t, args, kwargs, result, state):
    t.counts["canvas_index.boundary_tests"] += 1
    t.counts["canvas_index.boundary_test_hits"] += bool(result)


def _points_matched(t, args, kwargs, result, state):
    t.counts["engine.points_classified"] += len(result)


def _map_output(t, args, kwargs, result, state):
    t.counts["operators.map_entries"] += len(result)


def _before_load(t, args, kwargs):
    return read_rchar(), args[0].bytes_transferred


def _cell_loaded(t, args, kwargs, result, state):
    rchar0, counted0 = state
    counted = args[0].bytes_transferred - counted0
    t.counts["storage.cell_loads"] += 1
    t.counts["storage.cache_hits"] += counted == 0
    t.counts["storage.bytes_counted"] += counted
    t.counts["storage.bytes_read"] += max(read_rchar() - rchar0 - t.rchar_probe, 0)


def _plan_chosen(t, args, kwargs, result, state):
    est_naive, est_layer, plan = result[:3]
    chosen = est_layer if plan.join_strategy == optimizer.LAYER_INDEX else est_naive
    t.plan_estimate = chosen.bytes


def _before_ooc_join(t, args, kwargs):
    t.plan_estimate = None
    return args[0].bytes_transferred + args[1].bytes_transferred


def _ooc_joined(t, args, kwargs, result, state):
    if t.plan_estimate is not None:
        t.counts["optimizer.estimated_bytes"] += t.plan_estimate
        t.counts["optimizer.measured_bytes"] += (
            args[0].bytes_transferred + args[1].bytes_transferred - state)


def _target(owner, attr, layer, after=None, before=None):
    """(owner, attribute, span name, after hook, before hook). Owners are
    modules or classes; a class method's span name carries the class."""
    prefix = f"{layer}.{owner.__name__}." if isinstance(owner, type) else f"{layer}."
    return owner, attr, prefix + attr, after, before


_exact = _count("geometry.exact_tests")
_ENGINE_QUERIES = ("select", "join", "distance_select", "distance_join", "aggregate",
                   "knn_select", "knn_join")
_STORAGE_CALLS = ("ingest", "build_indexes", "build_grid_index", "filter_select",
                  "filter_join", "filter_distance", "ooc_select",
                  "ooc_distance_select", "ooc_distance_join", "ooc_aggregate",
                  "ooc_count_within", "ooc_knn_select", "ooc_knn_join")
TARGETS = [
    _target(geometry, "parse_wkt", "geometry"),
    _target(geometry, "triangulate", "geometry"),
    _target(geometry, "exact_intersects", "geometry", _exact),
    _target(canvas_index, "exact_intersects", "geometry", _exact),
    _target(geometry, "pairwise_intersects", "geometry", _exact),
    _target(canvas_index, "pairwise_intersects", "geometry", _exact),
    _target(canvas, "render_geometry_canvas", "canvas", _canvas_made),
    _target(canvas.DistanceCanvasBuilder, "add_source", "canvas"),
    _target(canvas.DistanceCanvasBuilder, "finalize", "canvas", _canvas_made),
    _target(engine, "build_boundary_index_direct", "canvas_index", _boundary_index_made),
    _target(canvas_index, "build_boundary_index_direct", "canvas_index", _boundary_index_made),
    _target(canvas_index.BoundaryIndex, "for_distance_sources", "canvas_index",
            _boundary_index_made),
    _target(engine, "build_layer_index", "canvas_index", _layers_made),
    _target(storage, "build_layer_index", "canvas_index", _layers_made),
    _target(canvas_index, "build_layer_index", "canvas_index", _layers_made),
    _target(engine, "build_distance_layer_index", "canvas_index", _layers_made),
    _target(canvas_index, "boundary_test", "canvas_index", _boundary_tested),
    _target(canvas_index, "object_prims_touching_square", "canvas_index",
            _count("canvas_index.escalations")),
    *[_target(engine, name, "engine") for name in _ENGINE_QUERIES],
    _target(engine, "match_points", "engine", _points_matched),
    _target(engine, "match_record", "engine", _count("engine.probes_rasterized")),
    _target(engine, "map_one_pass", "operators"),
    _target(engine, "compact", "operators", _map_output),
    _target(engine, "map_two_pass", "operators", _map_output),
    _target(engine, "estimate_nmax", "optimizer"),
    _target(engine, "choose_map_impl", "optimizer"),
    _target(optimizer, "choose_join_strategy", "optimizer"),
    _target(optimizer, "order_join", "optimizer"),
    _target(optimizer, "simulate_transfer", "optimizer"),
    *[_target(storage, name, "storage") for name in _STORAGE_CALLS],
    _target(storage, "plan_ooc_join", "storage", _plan_chosen),
    _target(storage, "ooc_join", "storage", _ooc_joined, _before_ooc_join),
    _target(storage.DatasetStore, "load_cell", "storage", _cell_loaded, _before_load),
    _target(storage.DatasetStore, "grid_index", "storage"),
]


class Tracer:
    """Span and counter recorder; ``install()`` patches, ``remove()`` restores."""

    def __init__(self):
        self.spans: list = []
        self.counts = defaultdict(float)
        self.qid = None
        self.plan_estimate = None
        self._stack: list = []
        self._saved: list = []
        first = read_rchar()
        self.rchar_probe = read_rchar() - first

    # -- recording -------------------------------------------------------

    def wrap(self, name, fn, after=None, before=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(self, args, kwargs) if before else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.qid]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result, state)
            return result
        return traced

    @contextlib.contextmanager
    def span(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.qid]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    # -- patching --------------------------------------------------------

    def install(self):
        with_defaults = [v for v in vars(canvas_index).values()
                         if isinstance(v, types.FunctionType) and v.__defaults__]
        originals = {}
        for owner, attr, name, after, before in TARGETS:
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            traced = self.wrap(name, fn, after, before)
            originals[fn] = traced
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, staticmethod(traced) if isinstance(raw, staticmethod) else traced)
        # build_layer_index(..., overlap=pairwise_intersects) captured the
        # original at definition time; point such defaults at the wrapper.
        for fn in with_defaults:
            defaults = fn.__defaults__
            if any(callable(d) and d in originals for d in defaults):
                self._saved.append((fn, "__defaults__", defaults))
                fn.__defaults__ = tuple(originals.get(d, d) if callable(d) else d
                                        for d in defaults)

    def remove(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def take(self):
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans = []
        self.counts = defaultdict(float)
        return spans, counts


# ---------------------------------------------------------------------------
# Span analysis
# ---------------------------------------------------------------------------

class SpanTable:
    """Durations, self times and ancestry over one list of spans."""

    def __init__(self, spans):
        self.spans = spans
        self.dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += self.dur[i]
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    @staticmethod
    def layer(name: str) -> str:
        return name.split(".", 1)[0]

    def self_by_layer(self) -> dict:
        out = defaultdict(float)
        for s, st in zip(self.spans, self.self_time):
            out[self.layer(s[0])] += st
        return out

    def self_by_query(self) -> dict:
        """Query id -> layer -> self time."""
        out: dict = defaultdict(lambda: defaultdict(float))
        for s, st in zip(self.spans, self.self_time):
            out[s[4]][self.layer(s[0])] += st
        return out

    def inclusive(self, names) -> float:
        """Summed duration of spans named in ``names`` that have no
        ancestor named in ``names`` (so nested calls count once)."""
        names = set(names)
        total = 0.0
        for i, s in enumerate(self.spans):
            if s[0] not in names:
                continue
            p = s[3]
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][3]
            if p < 0:
                total += self.dur[i]
        return total


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(table: SpanTable, counts, passes: int) -> dict:
    """Per-layer metrics per pass over the workload's query list."""
    ms = 1000.0 / passes
    per = 1.0 / passes
    self_layer = table.self_by_layer()
    c = counts
    return {
        "geometry.parse_ms": table.inclusive({"geometry.parse_wkt"}) * ms,
        "geometry.triangulate_ms": table.inclusive({"geometry.triangulate"}) * ms,
        "geometry.exact_tests": c["geometry.exact_tests"] * per,
        "geometry.self_ms": self_layer["geometry"] * ms,
        "canvas.render_ms": self_layer["canvas"] * ms,
        "canvas.canvases": c["canvas.canvases"] * per,
        "canvas.pixels": c["canvas.pixels"] * per,
        "canvas.boundary_pixel_ratio": ratio(c["canvas.boundary_pixels"], c["canvas.pixels"]),
        "canvas_index.boundary_index_ms": table.inclusive({
            "canvas_index.build_boundary_index_direct",
            "canvas_index.BoundaryIndex.for_distance_sources"}) * ms,
        "canvas_index.boundary_entries": c["canvas_index.boundary_entries"] * per,
        "canvas_index.layer_index_ms": table.inclusive({
            "canvas_index.build_layer_index",
            "canvas_index.build_distance_layer_index"}) * ms,
        "canvas_index.layers": c["canvas_index.layers"] * per,
        "canvas_index.boundary_tests": c["canvas_index.boundary_tests"] * per,
        "canvas_index.boundary_test_hit_ratio": ratio(c["canvas_index.boundary_test_hits"],
                                                      c["canvas_index.boundary_tests"]),
        "canvas_index.escalations": c["canvas_index.escalations"] * per,
        "canvas_index.self_ms": self_layer["canvas_index"] * ms,
        "engine.match_points_ms": table.inclusive({"engine.match_points"}) * ms,
        "engine.points_classified": c["engine.points_classified"] * per,
        "engine.match_record_ms": table.inclusive({"engine.match_record"}) * ms,
        "engine.probes_rasterized": c["engine.probes_rasterized"] * per,
        "engine.self_ms": self_layer["engine"] * ms,
        "operators.map_ms": self_layer["operators"] * ms,
        "operators.map_entries": c["operators.map_entries"] * per,
        "optimizer.plan_ms": self_layer["optimizer"] * ms,
        "optimizer.estimate_error_ratio": ratio(c["optimizer.estimated_bytes"],
                                                c["optimizer.measured_bytes"]),
        "storage.load_cell_ms": table.inclusive({"storage.DatasetStore.load_cell"}) * ms,
        "storage.cell_loads": c["storage.cell_loads"] * per,
        "storage.cache_hit_ratio": ratio(c["storage.cache_hits"], c["storage.cell_loads"]),
        "storage.bytes_counted_kb": c["storage.bytes_counted"] / 1024.0 * per,
        "storage.bytes_read_kb": c["storage.bytes_read"] / 1024.0 * per,
        "storage.filter_ms": table.inclusive({"storage.filter_select", "storage.filter_join",
                                              "storage.filter_distance"}) * ms,
        "storage.self_ms": self_layer["storage"] * ms,
    }


def setup_metrics(table: SpanTable) -> dict:
    """Per-layer self time of one traced set-up, plus its index builds."""
    self_layer = table.self_by_layer()
    out = {f"setup.{layer}.self_ms": self_layer[layer] * 1000.0 for layer in LAYERS}
    out["setup.canvas_index.layer_index_ms"] = table.inclusive(
        {"canvas_index.build_layer_index"}) * 1000.0
    out["storage.ingest_s"] = table.inclusive({"storage.ingest"})
    out["storage.build_indexes_s"] = table.inclusive({"storage.build_indexes"})
    return out
