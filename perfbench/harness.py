"""Benchmark harness: runs one workload, checks it, and prints the metrics
named in BENCHMARK.json. Started through ``run.py``, which pins the thread
environment and puts this checkout's ``src/`` first on the import path.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
# Time of calibrate() when the machine runs at the reference speed.
REFERENCE_S = 0.0018


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        sys.exit(f"perfbench: cannot read BENCHMARK.json: {exc}")


def ms(seconds: float) -> float:
    return seconds * 1000.0


def calibrate() -> float:
    """Seconds taken by a fixed piece of interpreter work.

    Shared hosts change speed by half again within seconds (on a 2-vCPU
    Xeon VM a fixed loop took 19 to 32 ms from one second to the next), and
    a run can sit in a slow stretch throughout. Timing this kernel on either side
    of each measured call gives the speed at that moment, and every
    reported time is scaled to the reference speed: ``wall * REFERENCE_S /
    kernel``. Of the kernels tried, pure interpreter work tracked query
    latency best (correlation 0.78, against 0.45 for streaming a large
    numpy array). The fastest of three runs ignores a one-off preemption.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(20000):
            total += (i * 7919) % 1009
        best = min(best, time.perf_counter() - t0)
    return best


class Clock:
    """Wall time of a call plus the same time scaled to reference speed,
    from the kernel timed just before and just after it."""

    def __init__(self):
        self._last = None

    def measure(self, fn):
        before = self._last if self._last is not None else calibrate()
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self.wall = time.perf_counter() - t0
            self._last = calibrate()
            self.scaled = self.wall * REFERENCE_S * 2.0 / (before + self._last)


# ---------------------------------------------------------------------------
# Running queries
# ---------------------------------------------------------------------------

class Ledger:
    """Outcome and latency of every execution of every query in the list."""

    def __init__(self, queries):
        self.queries = queries
        self.clock = Clock()
        self.first: dict = {}
        self.errors: dict = defaultdict(list)
        self.unstable: set = set()
        self.count: dict = defaultdict(int)
        self.wall: dict = defaultdict(list)
        self.scaled: dict = defaultdict(list)

    def run(self, i: int, around=contextlib.nullcontext):
        """Execute query i once; ``around`` wraps the timed call (the
        tracer's root span and the program's own timing collector)."""
        def call():
            with around():
                return self.queries[i].run()
        try:
            result, error = self.clock.measure(call), None
        except Exception as exc:  # a failed query is counted, the loop goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        self.count[i] += 1
        if error is not None:
            self.errors[i].append(error)
        elif i not in self.first:
            self.first[i] = result
        elif result != self.first[i]:
            self.unstable.add(i)
        return self.clock.wall, self.clock.scaled

    def run_pass(self):
        """One pass over the list, recording every latency."""
        for i in range(len(self.queries)):
            wall, scaled = self.run(i)
            self.wall[i].append(wall)
            self.scaled[i].append(scaled)

    def verify(self) -> dict:
        """Query index -> None when correct, else the reason it failed. Each
        distinct query is checked against the oracle once."""
        out = {}
        for i, q in enumerate(self.queries):
            if not self.count[i]:
                continue
            if self.errors.get(i):
                out[i] = self.errors[i][0]
            elif i in self.unstable:
                out[i] = "results differ between executions"
            else:
                got, want = q.norm(self.first[i]), q.expect()
                out[i] = None if checks.same(got, want) else "disagrees with oracle"
        return out

    def failed_executions(self, verdicts) -> int:
        return sum(self.count[i] for i, v in verdicts.items() if v is not None)

    def by_family(self, lat) -> dict:
        out = defaultdict(list)
        for i, values in lat.items():
            out[self.queries[i].family].extend(values)
        return out


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def plain_run(w, seconds: float) -> tuple:
    clock = Clock()
    setup_wall, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        w.reset()
        clock.measure(lambda: w.setup(tracer.no_span))
        setup_wall.append(clock.wall)
        setup_scaled.append(clock.scaled)
    ledger = Ledger(w.queries())
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        ledger.run_pass()
        passes += 1
    elapsed = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t0 = time.perf_counter()
    verdicts = ledger.verify()
    defects = checks.run_known_defects()
    check_s = time.perf_counter() - t0

    failed = ledger.failed_executions(verdicts)
    executions = sum(ledger.count.values())
    scaled = ledger.by_family(ledger.scaled)
    every = [v for values in scaled.values() for v in values]
    failed_ops = sum(v is not None for v in verdicts.values()) + sum(
        v is not None for v in defects.values())
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "queries_per_s": (executions - failed) / sum(every),
        "query_p90_ms": ms(percentile(every, 90)),
        "failed_ops_ratio": failed_ops / (len(verdicts) + len(defects)),
        "peak_rss_mb": peak_rss_mb,
    }
    for family, values in scaled.items():
        metrics[f"{family}_p50_ms"] = ms(statistics.median(values))
    wall = ledger.by_family(ledger.wall)
    notes = [f"{passes} passes, {executions} queries in {elapsed:.2f} s "
             f"(closed loop, 1 client); oracle check {check_s:.1f} s"]
    notes.append("wall time, unscaled: setup_s " + " ".join(f"{t:.4f}" for t in setup_wall)
                 + f"; queries_per_s {executions / sum(map(sum, wall.values())):.4f}")
    notes += [f"wall {family}_p50_ms {ms(statistics.median(values)):.4f} (n={len(values)})"
              for family, values in wall.items()]
    notes += [f"FAILED {ledger.queries[i].label}: {v}" for i, v in verdicts.items() if v]
    notes += [f"known defect {name}: {v or 'agrees with the oracle'}"
              for name, v in defects.items()]
    return metrics, executions, failed, notes, {}


def traced_run(w, seconds: float) -> tuple:
    from rasterquery import instrument

    t = tracer.Tracer()
    w.reset()
    t.qid = "setup"
    t.install()
    try:
        with t.span("bench.setup"):
            w.setup(t.span)
    finally:
        t.remove()
    setup_spans, _ = t.take()
    stored = w.stored_bytes()

    ledger = Ledger(w.queries())
    # An untimed first pass fills the program's lazy per-record caches, so
    # the untraced and traced passes that follow both run warm.
    for i in range(len(ledger.queries)):
        ledger.run(i)
    traced = defaultdict(list)
    records = []
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        ledger.run_pass()
        t.install()
        try:
            for i, q in enumerate(ledger.queries):
                t.qid = f"{passes}:{i}"
                cols = []

                @contextlib.contextmanager
                def around(q=q, cols=cols):
                    with t.span(f"bench.{q.family}"), instrument.collect() as col:
                        yield
                    cols.append(col.report().columns())
                wall, scaled = ledger.run(i, around)
                traced[q.family].append(scaled)
                records.append({"qid": t.qid, "family": q.family, "label": q.label,
                                "wall_ms": ms(wall),
                                "timing_report": cols[0] if cols else None})
        finally:
            t.remove()
        passes += 1
    spans, counts = t.take()
    verdicts = ledger.verify()

    table = tracer.SpanTable(spans)
    metrics = tracer.layer_metrics(table, counts, passes)
    metrics.update(tracer.setup_metrics(tracer.SpanTable(setup_spans)))
    metrics["storage.bytes_stored_per_user_byte"] = tracer.ratio(stored, w.user_bytes)
    by_query = table.self_by_query()
    worst = 0.0
    for rec in records:
        layers = by_query.get(rec["qid"], {})
        rec["self_ms"] = {layer: ms(v) for layer, v in sorted(layers.items())}
        worst = max(worst, abs(ms(sum(layers.values())) - rec["wall_ms"]) / rec["wall_ms"])
    metrics["trace.self_sum_error_pct"] = 100.0 * worst
    reports = [r["timing_report"] for r in records if r["timing_report"]]
    for col in ("io_ms", "raster_ms", "polygon_processing_ms", "cpu_ms", "total_ms"):
        metrics[f"instrument.{col}"] = sum(rep[col] for rep in reports) / passes
    untraced = ledger.by_family(ledger.scaled)
    for family, values in traced.items():
        metrics[f"trace.overhead.{family}_ms"] = ms(
            statistics.median(values) - statistics.median(untraced[family]))

    notes = [f"{passes} untraced + {passes} traced passes, {len(spans)} spans"]
    notes += [f"FAILED {ledger.queries[i].label}: {v}" for i, v in verdicts.items() if v]
    dump = {"queries": records, "setup_spans": setup_spans, "spans": spans}
    return metrics, sum(ledger.count.values()), ledger.failed_executions(verdicts), notes, dump


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def environment(args, w) -> dict:
    cfg = w.config
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "clients": 1, "loop": "closed",
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "platform": platform.platform(),
        "resolution": cfg.resolution, "byte_budget": cfg.byte_budget,
        "cache_factor": cfg.cache_factor, "setup_repeats": SETUP_REPEATS,
        "threads": {var: val for var, val in sorted(os.environ.items())
                    if var.endswith("_THREADS")},
    }
    env.update(w.environment)
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    # The program logs a warning on each on-demand layer-index build; keep
    # stderr readable without changing what the program does.
    logging.getLogger("rasterquery").addHandler(logging.NullHandler())

    run_dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, run_dir)
        mode = traced_run if args.trace else plain_run
        metrics, attempted, failed, notes, dump = mode(w, args.seconds)
        env = environment(args, w)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        sys.exit(f"perfbench: workload produced no value for {missing}")
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / f"{stem}.json").write_text(json.dumps(
        {"env": env, "metrics": out, "notes": notes, **dump}, separators=(",", ":")))
    print(f"workload {args.workload} seed {args.seed}: " + notes[0])
    for name, m in out.items():
        print(f"  {name:<42} {m['value']:>14.4f} {m['unit']}")
    for line in notes[1:]:
        print("  " + line)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0
