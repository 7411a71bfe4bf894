"""The three live-path workloads and their measurement sessions.

Each workload generates all of its inputs from the seed in ``__init__``
(before any set-up timer starts), builds the program's objects in
:meth:`build` (the timed set-up), and measures one window in
:meth:`session`.  A session is untraced unless it is given a
:class:`~measure.Spans` log; only then are the program's layers wrapped
from outside (store and executor proxies, timed gates and admit hooks).
Requests and events are drawn from numpy arrays at send time, so no pool
of pre-built request objects sits on the heap while timing.

* ``serve_cold`` — 32 closed-loop clients, every request a distinct
  signature: the whole serve miss path on every request; ingest, QoD,
  appends, compaction, cache hits and the pool stay idle.
* ``live_mixed`` — an open-loop 1,500 events/s gated sensor stream with
  both admit hooks beside 8 think-time clients over a skewed signature
  pool: writes run beside reads, below saturation of the shared
  interpreter.
* ``batch_pooled`` — one caller sending 256-query batches through a warm
  process pool: the only workload where ``repro.parallel`` carries the
  work.

Busy times of in-process layers are the calling thread's CPU time inside
the wrapped call, so time spent waiting for the interpreter lock held by
the other thread is not charged to the layer; calls that wait on pool
workers (``batch_pooled``'s store calls and ``parallel.map``) are charged
wall time.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from measure import (
    GcMonitor,
    Samples,
    Slices,
    Spans,
    children_cpu_s,
    cpu_delta_s,
    involuntary_switches,
    pct,
    ratio,
    rss_parts_mb,
    span,
    timed,
)
from repro.core import BBox, Point
from repro.ingest import (
    DuplicateGate,
    IngestEngine,
    IngestEvent,
    PartitionedStoreSink,
    RangeGate,
    corrupt_stream,
    field_stream,
)
from repro.parallel import get_executor, shutdown_all
from repro.qod import QodConfig, QodRegistry, compose_admit_hooks, point_weights, qod_ingest_hook
from repro.querying import PartitionedStore, kd_partition, skewed_points
from repro.serve import (
    EpochRegistry,
    KnnQueryRequest,
    QueryService,
    RangeQueryRequest,
    ingest_epoch_hook,
)

REGION = BBox(0.0, 0.0, 1000.0, 1000.0)
N_PARTITIONS = 64
N_HOTSPOTS = 5
RADIUS = (5.0, 30.0)
K = 8
#: Closed-loop warm-up before every measured window (caches, allocator,
#: arena leases and pool attachments settle here).
WARMUP_S = 2.0
#: Set-up is timed twice per untraced run, before and after the measured
#: window, each time for at least SETUP_REPS builds and SETUP_BUDGET_S
#: seconds (at most SETUP_MAX_REPS builds); ``setup_s`` is the mean of all
#: of them.  The machine's speed wanders by up to 1.8x over seconds, so a
#: build's time depends on the moment it ran: the mean over two spread-out
#: groups moves in proportion to the time spent slow, where the median or
#: the fastest build jumps between readings (see README.md).
SETUP_REPS = 3
SETUP_BUDGET_S = 3.0
SETUP_MAX_REPS = 24
#: Slice length of the serving windows; rates are medians over slices.
SLICE_S = 1.0
#: Batches per slice of the ``batch_pooled`` window.
SLICE_BATCHES = 8

RANGE, KNN, KNN_WEIGHTED = 0, 1, 2


@dataclass
class Outcome:
    """What one measured session saw."""

    attempted: int = 0
    failed: int = 0
    #: False once any answer or accounting check failed.
    correct: bool = True
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    #: Peak RSS parts read when the window closed, before any answer check
    #: (see :func:`measure.rss_parts_mb`).
    rss: dict[str, object] = field(default_factory=dict)

    def fail(self, n: int, why: str, wrong: bool = False) -> None:
        """Count ``n`` failed operations; ``wrong`` marks a failed check."""
        if n:
            self.failed += n
            self.problems.append(why)
            self.correct = self.correct and not wrong

    def rates(self, slices: Slices) -> None:
        self.metrics["throughput_per_s"] = slices.throughput()
        self.metrics["cpu_ms_per_kop"] = slices.cpu_ms_per_kop()

    def latency(self, lat: np.ndarray, slices: Slices) -> None:
        """p50 as a median of slice medians; whole-window p90; p99 only
        from at least 1000 samples (else left out)."""
        self.metrics["latency_p50_ms"] = slices.median_latency(lat) * 1e3
        self.metrics["latency_p90_ms"] = pct(lat, 90) * 1e3
        if lat.size >= 1000:
            self.metrics["latency_p99_ms"] = pct(lat, 99) * 1e3
        self.counts["latency_samples"] = int(lat.size)

    def per(self, name: str, total: float, count: float, scale: float) -> None:
        """Per-layer ``total / count`` in the unit ``scale`` converts to."""
        self.layers[name] = ratio(total, count) * scale


def _request_columns(rng: np.random.Generator, n: int, kind_p: list[float]):
    """Seeded request arrays: kind, center x/y, radius."""
    kind = rng.choice(len(kind_p), size=n, p=kind_p).astype(np.int8)
    xy = rng.uniform(REGION.min_x, REGION.max_x, size=(n, 2))
    radius = rng.uniform(*RADIUS, size=n)
    return kind, xy, radius


def _request(kind: int, x: float, y: float, radius: float):
    center = Point(x, y)
    if kind == RANGE:
        return RangeQueryRequest(center, radius)
    return KnnQueryRequest(center, K, weighted=kind == KNN_WEIGHTED)


def _build_store(points: list[Point]) -> PartitionedStore:
    return PartitionedStore(points, kd_partition(points, REGION, N_PARTITIONS))


class StoreProxy:
    """Traced-run stand-in for a :class:`PartitionedStore`.

    Logs a span around every call into the store's public query, routing,
    append, compaction and weight entry points and forwards everything
    else.  With ``submits`` (center -> submit times of in-flight serve
    requests) it also logs each request's queue wait: the time from
    submit to the start of the store call that carries it.
    """

    def __init__(self, store: PartitionedStore, spans: Spans, submits=None) -> None:
        self._store = store
        self._spans = spans
        self.submits = submits

    def __getattr__(self, name: str):
        return getattr(self._store, name)

    def _carry(self, centers) -> None:
        if self.submits is None:
            return
        start = time.perf_counter()
        for c in centers:
            key = (c.x, c.y)
            pending = self.submits.get(key)
            if pending:
                self._spans.add("serve.queue_wait", pending.pop(0), start)
                if not pending:
                    del self.submits[key]

    def _call(self, name: str, n: int, fn, *args, **kwargs):
        with self._spans.time(name, n):
            return fn(*args, **kwargs)

    def range_query_many(self, centers, radii, **kw):
        self._carry(centers)
        return self._call("store.range", len(centers), self._store.range_query_many, centers, radii, **kw)

    def knn_many(self, centers, k, **kw):
        self._carry(centers)
        name = "store.knn_weighted" if kw.get("weighted") else "store.knn"
        return self._call(name, len(centers), self._store.knn_many, centers, k, **kw)

    def range_partition_sets(self, centers, radii):
        return self._call("store.depsets", len(centers), self._store.range_partition_sets, centers, radii)

    def knn_partition_sets(self, centers, hits, k=None, **kw):
        return self._call(
            "store.depsets", len(centers), self._store.knn_partition_sets, centers, hits, k, **kw
        )

    def append(self, point):
        return self._call("store.append", 1, self._store.append, point)

    def compact(self, *args, **kw):
        return self._call("store.compact", 1, self._store.compact, *args, **kw)

    def set_quality_weights(self, weights):
        return self._call("store.weights", 1, self._store.set_quality_weights, weights)


class ExecutorProxy:
    """Traced-run stand-in for a pool lease: logs each ``map_ordered``."""

    def __init__(self, executor, spans: Spans) -> None:
        self._executor = executor
        self.map_ordered = timed(spans, "parallel.map", executor.map_ordered, lambda fn, p: len(p))

    def __getattr__(self, name: str):
        return getattr(self._executor, name)


def _store_counters(store) -> tuple[int, int]:
    return store.partitions_touched, store.queries_run


#: Per-layer metrics each workload's traced run must produce, beside
#: ``trace.overhead_frac``; the per-layer names of ``BENCHMARK.json`` a
#: workload does not list do not apply to it and are reported as 0.
PROC_LAYERS = (
    "proc.gc.pause_ms_total",
    "proc.gc.pause_max_ms",
    "proc.gc.gen2_collections",
    "proc.ctx_switches.involuntary",
)
SERVE_LAYERS = (
    "serve.requests_per_kernel_call",
    "serve.queue_wait_p50_ms",
    "serve.queue_wait_p99_ms",
    "serve.self_ms_per_query",
    "serve.loop_busy_frac",
    "serve.cache.hit_rate",
    "serve.cache.stale_rate",
    "serve.shed",
    "store.range.busy_ms_per_query",
    "store.knn.busy_ms_per_query",
    "store.depsets.busy_ms_per_query",
    "store.partitions_per_query",
)
#: Serving layers that only the live workload exercises.
LIVE_SERVE_LAYERS = (
    "serve.compactions",
    "store.knn_weighted.busy_ms_per_query",
    "store.compact.calls",
    "store.compact.busy_ms_max",
    "store.weights.busy_ms_per_install",
)
INGEST_LAYERS = (
    "store.append.busy_us_per_event",
    "store.delta_fraction_max",
    "ingest.offer.busy_us_per_event",
    "ingest.queue_wait_p50_ms",
    "ingest.queue_wait_p99_ms",
    "ingest.gates.busy_us_per_event",
    "ingest.gates.admit_ratio",
    "ingest.sink.busy_us_per_event",
    "ingest.backlog_max",
    "ingest.gen_late_p99_ms",
    "epochs.bump.busy_us_per_event",
    "epochs.bumps_per_event",
    "qod.update.busy_us_per_event",
    "qod.weights.busy_ms_per_pass",
)
BATCH_LAYERS = (
    "store.range.busy_ms_per_query",
    "store.knn.busy_ms_per_query",
    "store.partitions_per_query",
    "parallel.map.busy_ms_per_batch",
    "parallel.tasks_per_batch",
    "parallel.speedup_vs_serial",
    "parallel.worker_cpu_ms_per_batch",
)
#: Latency and freshness metrics of the untraced window, reported per-layer.
SERVE_TAILS = ("latency_p50_ms", "latency_p90_ms", "latency_p99_ms")
LIVE_TAILS = SERVE_TAILS + ("freshness_p50_ms", "freshness_p99_ms")
BATCH_TAILS = ("latency_p50_ms", "latency_p90_ms")

#: Traced spans that must log at least one call in the measured window, so
#: a wrapper that stops firing fails the run instead of reading 0.
SERVE_SPANS = ("store.range", "store.knn", "store.depsets", "serve.queue_wait")
LIVE_SPANS = SERVE_SPANS + (
    "store.knn_weighted",
    "store.append",
    "store.weights",
    "ingest.offer",
    "ingest.gates",
    "ingest.sink",
    "epochs.bump",
    "qod.update",
    "qod.weights",
)
BATCH_SPANS = ("store.range", "store.knn", "parallel.map")


def _proc_layers(out: Outcome, gcmon: GcMonitor, nivcsw0: int) -> None:
    pauses = gcmon.pauses.values()
    out.layers["proc.gc.pause_ms_total"] = float(pauses.sum()) * 1e3
    out.layers["proc.gc.pause_max_ms"] = float(pauses.max()) * 1e3 if pauses.size else 0.0
    out.layers["proc.gc.gen2_collections"] = float(gcmon.gen2)
    out.layers["proc.ctx_switches.involuntary"] = float(involuntary_switches() - nivcsw0)


# -- serving workloads ---------------------------------------------------------


class _RunState:
    """Mutable state shared by one session's coroutines (loop thread only)."""

    def __init__(self) -> None:
        self.stop = False
        self.measuring = False
        self.exhausted = False
        self.sent = 0
        self.errors = 0
        self.shed = 0
        self.last_error = ""
        self.lat = Samples(1 << 16)
        self.checks: list[tuple[int, tuple[int, ...]]] = []
        self.slices = Slices()
        self.rss: dict[str, object] = {}

    def _counters(self, svc: QueryService) -> dict[str, float]:
        c = dict(svc.stats.as_dict())
        c["cache.hits"] = svc.cache.hits
        c["cache.lookups"] = svc.cache.hits + svc.cache.misses
        c["cache.stale"] = svc.cache.stale_evictions
        c["store.touched"], c["store.queries"] = _store_counters(svc.store)
        c["loop_cpu"] = time.thread_time()
        return c

    def begin(self, svc: QueryService, extra_ops: int) -> None:
        self.nivcsw0 = involuntary_switches()
        self.c0 = self._counters(svc)
        self.measuring = True
        self.slices.mark(0, extra_ops, 0)

    def end(self, svc: QueryService, extra_ops: int) -> None:
        self.slices.mark(self.lat.n, self.lat.n + extra_ops, self.lat.n)
        self.measuring = False
        self.c1 = self._counters(svc)

    def delta(self, name: str) -> float:
        return self.c1[name] - self.c0[name]


class _ServeWorkload:
    """Shared closed-loop client driver for the two serving workloads."""

    name = ""
    n_clients = 0
    think_s = 0.0

    def __init__(self) -> None:
        self.world = None

    def _pick(self, n: int) -> int:
        """Index into the request columns of the n-th request sent (-1: none left)."""
        raise NotImplementedError

    async def _drive(self, svc, seconds: float, spans: Spans | None, extra_ops=None, side=()):
        """Run the clients through warm-up and one sliced window.

        ``extra_ops()`` counts non-query operations done so far (ingested
        events); ``side`` holds coroutine functions run beside the clients
        (the ingest generator and weight installer), each given the run
        state.  Returns the run state once every task has stopped.
        """
        st = _RunState()
        extra = extra_ops or (lambda: 0)
        submits = svc.store.submits if spans is not None else None
        kind, xy, radius = self.kind, self.xy, self.radius

        async def client() -> None:
            while not st.stop:
                i = self._pick(st.sent)
                st.sent += 1
                if i < 0:
                    st.exhausted = True
                    return
                x, y = float(xy[i, 0]), float(xy[i, 1])
                req = _request(int(kind[i]), x, y, float(radius[i]))
                t0 = time.perf_counter()
                if submits is not None:
                    submits.setdefault((x, y), []).append(t0)
                try:
                    resp = await svc.submit(req)
                except Exception as exc:  # counted; a failed service stays failed
                    st.errors += 1
                    st.last_error = repr(exc)
                    return
                t1 = time.perf_counter()
                if submits is not None and resp.cached:
                    pending = submits.get((x, y))
                    if pending and t0 in pending:
                        pending.remove(t0)
                        if not pending:
                            del submits[(x, y)]
                if st.measuring:
                    st.lat.add(t1 - t0)
                    if not resp.ok:
                        st.shed += 1
                    elif self.check_mask[i] and len(st.checks) < 4096:
                        st.checks.append((i, resp.results))
                if self.think_s:
                    await asyncio.sleep(self.think_s)

        tasks = [asyncio.create_task(client()) for _ in range(self.n_clients)]
        tasks += [asyncio.create_task(fn(st)) for fn in side]
        await asyncio.sleep(WARMUP_S)
        st.begin(svc, extra())
        n_slices = max(1, round(seconds / SLICE_S))
        for k in range(1, n_slices):
            await asyncio.sleep(max(0.0, st.slices.start + seconds * k / n_slices - time.perf_counter()))
            st.slices.mark(st.lat.n, st.lat.n + extra(), st.lat.n)
        await asyncio.sleep(max(0.0, st.slices.start + seconds - time.perf_counter()))
        st.end(svc, extra())
        if spans is not None:
            spans.window = (st.slices.start, st.slices.end)
        st.stop = True
        await asyncio.gather(*tasks)
        st.rss = rss_parts_mb()
        return st

    def _outcome(self, st: _RunState) -> Outcome:
        out = Outcome(rss=st.rss)
        out.rates(st.slices)
        out.latency(st.lat.values(), st.slices)
        out.attempted = st.lat.n + st.errors
        out.fail(st.shed, f"{st.shed} requests shed")
        out.fail(st.errors, f"{st.errors} requests raised (last: {st.last_error})")
        if st.exhausted:
            out.fail(1, "request columns ran out before the window closed")
        return out


def _serve_layers(out: Outcome, st: _RunState, spans: Spans) -> None:
    """Per-layer serve and store numbers of one traced serving window."""
    queries = st.lat.n
    out.per("serve.requests_per_kernel_call", st.delta("served"), st.delta("kernel_calls"), 1)
    waits = spans.durations("serve.queue_wait")
    out.layers["serve.queue_wait_p50_ms"] = pct(waits, 50) * 1e3
    out.layers["serve.queue_wait_p99_ms"] = pct(waits, 99) * 1e3
    loop_cpu = st.delta("loop_cpu")
    elsewhere = sum(
        spans.cpu(op)
        for op in (
            "store.range",
            "store.knn",
            "store.knn_weighted",
            "store.depsets",
            "store.compact",
            "store.weights",
            "ingest.offer",
            "qod.weights",
        )
    )
    out.per("serve.self_ms_per_query", max(loop_cpu - elsewhere, 0.0), queries, 1e3)
    wall, _, _, _ = st.slices.totals()
    out.per("serve.loop_busy_frac", loop_cpu, wall, 1)
    out.per("serve.cache.hit_rate", st.delta("cache.hits"), st.delta("cache.lookups"), 1)
    out.per("serve.cache.stale_rate", st.delta("cache.stale"), st.delta("cache.lookups"), 1)
    out.layers["serve.shed"] = st.delta("shed")
    out.layers["serve.compactions"] = st.delta("compactions")
    for op in ("range", "knn", "knn_weighted", "depsets"):
        name = f"store.{op}"
        out.per(f"{name}.busy_ms_per_query", spans.cpu(name), spans.items(name), 1e3)
    out.per("store.partitions_per_query", st.delta("store.touched"), st.delta("store.queries"), 1)
    out.layers["store.compact.calls"] = float(spans.calls("store.compact"))
    out.layers["store.compact.busy_ms_max"] = spans.max_duration("store.compact") * 1e3
    out.per("store.weights.busy_ms_per_install", spans.cpu("store.weights"), spans.calls("store.weights"), 1e3)


class ServeCold(_ServeWorkload):
    """Distinct-signature closed loop over a static 100k-point store."""

    name = "serve_cold"
    layers = SERVE_LAYERS + PROC_LAYERS + SERVE_TAILS
    spans = SERVE_SPANS
    n_points = 100_000
    n_clients = 32

    def __init__(self, seed: int, max_seconds: float) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.points = skewed_points(rng, self.n_points, REGION, n_hotspots=N_HOTSPOTS)
        # Two sessions (a traced run) at several times the expected rate;
        # running out is reported as a failure, never wrapped around.
        cap = int(12_000 * (WARMUP_S + max_seconds) * 2)
        self.kind, self.xy, self.radius = _request_columns(rng, cap, [2 / 3, 1 / 3, 0.0])
        self.check_mask = rng.random(cap) < 1 / 64
        self.base = 0

    def _pick(self, n: int) -> int:
        i = self.base + n
        return i if i < self.kind.shape[0] else -1

    async def build(self, spans: Spans | None = None) -> None:
        store = _build_store(self.points)
        target = StoreProxy(store, spans, {}) if spans is not None else store
        svc = QueryService(target, policy="block")
        await svc.start()
        self.world = (store, svc)

    async def teardown(self) -> None:
        if self.world is not None:
            await self.world[1].stop()
            self.world = None

    async def session(self, seconds: float, spans: Spans | None) -> Outcome:
        store, svc = self.world
        with GcMonitor() as gcmon:
            st = await self._drive(svc, seconds, spans)
        # A later session draws fresh requests: no signature repeats.
        self.base += st.sent
        await self.teardown()
        out = self._outcome(st)
        if spans is not None:
            _serve_layers(out, st, spans)
            _proc_layers(out, gcmon, st.nivcsw0)
        wrong = 0
        for i, results in st.checks:
            center = Point(float(self.xy[i, 0]), float(self.xy[i, 1]))
            if self.kind[i] == RANGE:
                direct = store.range_query(center, float(self.radius[i]))
            else:
                direct = store.knn(center, K)
            wrong += tuple(direct) != results
        out.counts["answers_checked"] = len(st.checks)
        out.fail(wrong, f"{wrong} of {len(st.checks)} checked answers differ from the store", wrong=True)
        if not st.checks:
            out.fail(1, "no answers were checked", wrong=True)
        return out


class _TimedSink(PartitionedStoreSink):
    """Store sink that records admit-to-queryable freshness.

    ``event.arrival_time`` carries the generator's scheduled send instant
    (``perf_counter`` seconds), so the time from it to the return of the
    store write is the event's freshness.  The sensor of every written
    point is logged so QoD weights can be mapped onto point ids: the
    sink is the store's only appender, so write ``k`` is point
    ``n_base + k``.
    """

    def __init__(self, store, capacity: int, sensor_index: dict[str, int], spans: Spans | None):
        super().__init__(store)
        self.sched = np.empty(capacity)
        self.fresh = np.empty(capacity)
        self.sensor = np.empty(capacity, dtype=np.int32)
        self.logged = 0
        self._index = sensor_index
        self._spans = spans

    def write(self, event: IngestEvent) -> None:
        with span(self._spans, "ingest.sink"):
            super().write(event)
        done = time.perf_counter()
        k = self.logged
        self.sched[k] = event.arrival_time
        self.fresh[k] = done - event.arrival_time
        self.sensor[k] = self._index[event.sensor_id]
        self.logged = k + 1


class _FirstGate:
    """Traced-run wrapper for the first gate of each sensor's chain.

    With one shard, events enter the first gate in offer order, so the
    k-th entry belongs to the k-th offered event: entry minus offer time
    is that event's ingest queue wait.
    """

    def __init__(self, gate, spans: Spans, entries: Samples) -> None:
        self._gate = gate
        self._entries = entries
        self.offer = timed(spans, "ingest.gates", self._enter)
        self.flush = gate.flush

    def _enter(self, event):
        self._entries.add(time.perf_counter())
        return self._gate.offer(event)


def _traced_gate(gate, spans: Spans):
    gate.offer = timed(spans, "ingest.gates", gate.offer)
    return gate


class LiveMixed(_ServeWorkload):
    """Open-loop gated ingest beside think-time clients on one loop."""

    name = "live_mixed"
    layers = SERVE_LAYERS + LIVE_SERVE_LAYERS + INGEST_LAYERS + PROC_LAYERS + LIVE_TAILS
    spans = LIVE_SPANS
    n_points = 50_000
    n_clients = 8
    # 20 ms of think time keeps the process near half a core: at 5 ms
    # (about 0.75 core) the two threads contended for the interpreter
    # lock and ten-run spreads of p50 latency reached 0.30.
    think_s = 0.020
    n_sensors = 200
    event_rate = 1500.0
    n_signatures = 2000
    weights_period_s = 1.0
    value_bounds = (-10.0, 50.0)

    def __init__(self, seed: int, max_seconds: float) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.points = skewed_points(rng, self.n_points, REGION, n_hotspots=N_HOTSPOTS)
        self.kind, self.xy, self.radius = _request_columns(
            rng, self.n_signatures, [2 / 3, 2 / 9, 1 / 9]
        )
        popularity = 1.0 / np.arange(1, self.n_signatures + 1)
        self.picks = rng.choice(
            self.n_signatures,
            size=int(2_000 * (WARMUP_S + max_seconds)),
            p=popularity / popularity.sum(),
        )
        # The store moves under answers served in the window, so none is
        # checked there; _verify_served checks the service after the drain.
        self.check_mask = np.zeros(self.n_signatures, dtype=bool)
        self._events(rng, int(self.event_rate * (WARMUP_S + max_seconds) * 1.1) + 1000)
        self.verify_xy = rng.uniform(REGION.min_x, REGION.max_x, size=(96, 2))
        self.verify_radius = rng.uniform(*RADIUS, size=96)

    def _events(self, rng: np.random.Generator, n_events: int) -> None:
        """The corrupted sensor stream, kept as columns, not event objects."""
        t_end = float(math.ceil(n_events / self.n_sensors)) + 1.0
        _, series = field_stream(rng, self.n_sensors, REGION, 0.0, t_end, 1.0)
        events = corrupt_stream(
            series, rng, duplicate_rate=0.02, spike_rate=0.02, spike_magnitude=40.0
        )
        self.sensor_names = sorted({e.sensor_id for e in events})
        self.sensor_index = {name: i for i, name in enumerate(self.sensor_names)}
        self.ev_sensor = np.fromiter(
            (self.sensor_index[e.sensor_id] for e in events), np.int32, len(events)
        )
        self.ev_cols = np.array([(e.x, e.y, e.t, e.value) for e in events])

    def _pick(self, n: int) -> int:
        return int(self.picks[n % self.picks.shape[0]])

    async def build(self, spans: Spans | None = None) -> None:
        store = _build_store(self.points)
        gate_entries = Samples(1 << 16)
        target = StoreProxy(store, spans, {}) if spans is not None else store
        epochs = EpochRegistry(store.partition_boxes)
        qod = QodRegistry(QodConfig(value_bounds=self.value_bounds, expected_interval=1.0))
        epoch_hook = ingest_epoch_hook(epochs)
        qod_hook = qod_ingest_hook(qod)
        lo, hi = self.value_bounds
        if spans is None:
            gates = [lambda: RangeGate(lo, hi), lambda: DuplicateGate(1.0, 0.5)]
        else:
            epoch_hook = timed(spans, "epochs.bump", epoch_hook)
            qod_hook = timed(spans, "qod.update", qod_hook)
            gates = [
                lambda: _FirstGate(RangeGate(lo, hi), spans, gate_entries),
                lambda: _traced_gate(DuplicateGate(1.0, 0.5), spans),
            ]
        sink = _TimedSink(target, self.ev_cols.shape[0], self.sensor_index, spans)
        engine = IngestEngine(
            n_shards=1,
            gate_factories=gates,
            on_admit=compose_admit_hooks(epoch_hook, qod_hook),
            store=sink,
        )
        svc = QueryService(target, policy="block", epochs=epochs)
        await svc.start()
        self.world = (store, svc, engine, sink, epochs, qod, gate_entries)

    async def teardown(self) -> None:
        if self.world is not None:
            _, svc, engine, *_ = self.world
            engine.close()
            await svc.stop()
            self.world = None

    async def session(self, seconds: float, spans: Spans | None) -> Outcome:
        store, svc, engine, sink, epochs, qod, gate_entries = self.world
        traced = spans is not None
        offer_at = Samples(1 << 16)
        gen_late = Samples(1 << 16)
        gen = {"offered": 0, "backlog_max": 0, "delta_max": 0.0}
        names = self.sensor_names
        cols, sensor = self.ev_cols, self.ev_sensor
        base_sources = [""] * len(self.points)

        async def generator(st: _RunState) -> None:
            # Open loop: event i is due at origin + i / rate whatever the
            # system does, and goes out at the first tick after that.
            origin = time.perf_counter()
            i = 0
            while not st.stop:
                due = min(int((time.perf_counter() - origin) * self.event_rate) + 1, cols.shape[0])
                while i < due:
                    sched = origin + i / self.event_rate
                    x, y, t, v = cols[i]
                    event = IngestEvent(names[sensor[i]], float(x), float(y), float(t), float(v), sched)
                    start = time.perf_counter()
                    with span(spans, "ingest.offer"):
                        engine.offer(event)
                    if traced:
                        offer_at.add(start)
                    if st.measuring:
                        gen_late.add(start - sched)
                    i += 1
                gen["offered"] = i
                if traced and st.measuring:
                    backlog = i - sum(engine.processed_per_shard())
                    gen["backlog_max"] = max(gen["backlog_max"], backlog)
                    gen["delta_max"] = max(gen["delta_max"], store.max_delta_fraction())
                if i >= cols.shape[0]:
                    st.exhausted = True
                    return
                await asyncio.sleep(0.001)

        def reweigh() -> None:
            """Install QoD weights for every point written so far."""
            with span(spans, "qod.weights"):
                weights = qod.weights()
                n = sink.logged
                sources = base_sources + [names[j] for j in sink.sensor[:n]]
                vector = point_weights(sources, weights)
            svc.store.set_quality_weights(vector)

        async def weigher(st: _RunState) -> None:
            # On the loop thread a coroutine always runs between kernel
            # batches, so installs never overlap a query batch.
            while not st.stop:
                await asyncio.sleep(self.weights_period_s)
                if st.stop:
                    return
                reweigh()

        with GcMonitor() as gcmon:
            st = await self._drive(
                svc, seconds, spans, lambda: gen["offered"], side=(generator, weigher)
            )
        final = engine.close()
        served, served_cached, served_wrong = await self._verify_served(svc, store, reweigh)
        await self.teardown()

        out = self._outcome(st)
        _, _, queries, ops = st.slices.totals()
        out.attempted += ops - queries
        w0, w1 = st.slices.start, st.slices.end
        n_written = sink.logged
        in_window = (sink.sched[:n_written] >= w0) & (sink.sched[:n_written] <= w1)
        fresh = sink.fresh[:n_written][in_window]
        out.metrics["freshness_p50_ms"] = pct(fresh, 50) * 1e3
        out.metrics["freshness_p99_ms"] = pct(fresh, 99) * 1e3
        out.counts["freshness_samples"] = int(fresh.size)
        out.counts["events_offered"] = int(ops - queries)

        if traced:
            _serve_layers(out, st, spans)
            _proc_layers(out, gcmon, st.nivcsw0)
            out.per("store.append.busy_us_per_event", spans.cpu("store.append"), spans.calls("store.append"), 1e6)
            out.layers["store.delta_fraction_max"] = gen["delta_max"]
            out.per("ingest.offer.busy_us_per_event", spans.cpu("ingest.offer"), spans.calls("ingest.offer"), 1e6)
            n_wait = min(offer_at.n, gate_entries.n)
            offers = offer_at.values()[:n_wait]
            entered = (offers >= w0) & (offers <= w1)
            waits = (gate_entries.values()[:n_wait] - offers)[entered]
            out.layers["ingest.queue_wait_p50_ms"] = pct(waits, 50) * 1e3
            out.layers["ingest.queue_wait_p99_ms"] = pct(waits, 99) * 1e3
            out.per("ingest.gates.busy_us_per_event", spans.cpu("ingest.gates"), int(entered.sum()), 1e6)
            out.per("ingest.gates.admit_ratio", final.admitted, final.offered, 1)
            out.per("ingest.sink.busy_us_per_event", spans.cpu("ingest.sink"), spans.calls("ingest.sink"), 1e6)
            out.layers["ingest.backlog_max"] = float(gen["backlog_max"])
            out.layers["ingest.gen_late_p99_ms"] = pct(gen_late.values(), 99) * 1e3
            out.per("epochs.bump.busy_us_per_event", spans.cpu("epochs.bump"), spans.calls("epochs.bump"), 1e6)
            out.per("epochs.bumps_per_event", epochs.total_bumps, final.admitted, 1)
            out.per("qod.update.busy_us_per_event", spans.cpu("qod.update"), spans.calls("qod.update"), 1e6)
            out.per("qod.weights.busy_ms_per_pass", spans.cpu("qod.weights"), spans.calls("qod.weights"), 1e3)

        # Drained: every offered event is accounted for and landed once.
        unaccounted = final.offered - final.accounted()
        out.fail(unaccounted, f"{unaccounted} offered events unprocessed after the drain", wrong=True)
        out.fail(gen["offered"] - final.offered, "events offered but not counted by the engine", wrong=True)
        out.fail(abs(sink.written - final.admitted), "sink writes differ from admitted events", wrong=True)
        if not final.conserved():
            out.fail(1, "ingest conservation violated", wrong=True)
        out.attempted += served
        out.counts["served_checked"] = served
        out.counts["served_checked_cached"] = served_cached
        out.fail(
            served_wrong,
            f"{served_wrong} of {served} answers served after the drain differ from store.rebuilt()",
            wrong=True,
        )
        return out

    async def _verify_served(self, svc: QueryService, store: PartitionedStore, reweigh) -> tuple[int, int, int]:
        """Check the service's answers once ingest has drained.

        Asks every signature of the pool (a cache hit wherever an entry
        from the window survived the last writes) and the sampled requests
        (range, kNN and weighted kNN: cache misses), then installs weights
        for every written point with ``reweigh()`` and asks them all again
        (hits, except weighted kNN, whose entries the new weights retire).
        Every answer is compared with a from-scratch rebuild carrying the
        weights installed at the time, so a stale cache entry shows as a
        mismatch.  Returns (answers checked, of them cache hits, mismatches).
        """
        kind = np.concatenate([self.kind, np.repeat([RANGE, KNN, KNN_WEIGHTED], len(self.verify_xy))])
        xy = np.concatenate([self.xy, np.tile(self.verify_xy, (3, 1))])
        radius = np.concatenate([self.radius, np.tile(self.verify_radius, 3)])
        centers = [Point(float(x), float(y)) for x, y in xy]
        requests = [_request(int(kind[i]), c.x, c.y, float(radius[i])) for i, c in enumerate(centers)]
        rebuilt = store.rebuilt()
        checked = cached = wrong = 0
        for round_ in range(2):
            if round_:
                reweigh()
            rebuilt.set_quality_weights(store.quality_weights())
            expected: list[tuple[int, ...]] = [()] * len(centers)
            for k in (RANGE, KNN, KNN_WEIGHTED):
                idx = np.flatnonzero(kind == k)
                batch = [centers[i] for i in idx]
                if k == RANGE:
                    hits = rebuilt.range_query_many(batch, radius[idx])
                else:
                    hits = rebuilt.knn_many(batch, K, weighted=k == KNN_WEIGHTED)
                for i, h in zip(idx, hits):
                    expected[i] = tuple(h)
            responses = await asyncio.gather(*(svc.submit(req) for req in requests))
            for resp, ref in zip(responses, expected):
                checked += 1
                cached += resp.cached
                wrong += not resp.ok or resp.results != ref
        return checked, cached, wrong


# -- batch workload ------------------------------------------------------------


def _pack(hits: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """A batch's answers as (lengths, concatenated ids) arrays, so checked
    batches are kept as two buffers instead of lists of int objects."""
    lengths = np.fromiter(map(len, hits), np.int64, len(hits))
    ids = np.fromiter(itertools.chain.from_iterable(hits), np.int64, int(lengths.sum()))
    return lengths, ids


class BatchPooled:
    """256-query batches through one warm process pool, no serving layer."""

    name = "batch_pooled"
    layers = BATCH_LAYERS + PROC_LAYERS + BATCH_TAILS
    spans = BATCH_SPANS
    n_points = 200_000
    batch = 256
    # Odd, so the checked batches alternate between range and kNN.
    check_every = 7

    def __init__(self, seed: int, max_seconds: float) -> None:
        rng = np.random.default_rng(seed)
        self.points = skewed_points(rng, self.n_points, REGION, n_hotspots=N_HOTSPOTS)
        n_batches = int(40 * (WARMUP_S + max_seconds))
        self.xy = rng.uniform(REGION.min_x, REGION.max_x, size=(n_batches, self.batch, 2))
        self.radius = rng.uniform(*RADIUS, size=(n_batches, self.batch))
        self.workers = len(os.sched_getaffinity(0))
        self.world = None

    async def build(self, spans: Spans | None = None) -> None:
        # A cold pool every time: set-up includes the pool's spawn and
        # prewarm round-trip.
        shutdown_all()
        store = _build_store(self.points)
        executor = get_executor(self.workers)
        self.world = (store, executor)

    async def teardown(self) -> None:
        if self.world is not None:
            self.world[1].close()
            self.world = None
        shutdown_all()

    def _run(self, store, executor, b: int):
        """Batch ``b``: range queries on even ``b``, kNN on odd."""
        j = b % self.xy.shape[0]
        if b % 2 == 0:
            return store.range_query_many(self.xy[j], self.radius[j], executor=executor)
        return store.knn_many(self.xy[j], K, executor=executor)

    async def session(self, seconds: float, spans: Spans | None) -> Outcome:
        store, lease = self.world
        traced = spans is not None
        target = StoreProxy(store, spans) if traced else store
        executor = ExecutorProxy(lease, spans) if traced else lease
        b = 0
        warm_end = time.perf_counter() + WARMUP_S
        while time.perf_counter() < warm_end:
            self._run(target, executor, b)
            b += 1
        first = b
        lat = Samples(1024)
        checks = []
        slices = Slices()
        with GcMonitor() as gcmon:
            nivcsw0 = involuntary_switches()
            store0 = _store_counters(store)
            children0 = children_cpu_s()
            slices.mark(0, 0, 0)
            t0 = slices.start
            while t0 < slices.start + seconds or (b - first) % SLICE_BATCHES:
                hits = self._run(target, executor, b)
                t1 = time.perf_counter()
                lat.add(t1 - t0)
                if (b - first) % self.check_every == 0:
                    checks.append((b, _pack(hits)))
                b += 1
                if (b - first) % SLICE_BATCHES == 0:
                    done = (b - first) * self.batch
                    slices.mark(done, done, lat.n)
                t0 = time.perf_counter()
            store1 = _store_counters(store)
            worker_cpu = cpu_delta_s(children0, children_cpu_s())
        n_batches = b - first
        out = Outcome(rss=rss_parts_mb())
        out.attempted = n_batches * self.batch
        out.rates(slices)
        out.latency(lat.values(), slices)
        out.counts["batches"] = n_batches

        if traced:
            spans.window = (slices.start, slices.end)
            for op in ("range", "knn"):
                name = f"store.{op}"
                out.per(f"{name}.busy_ms_per_query", spans.busy(name), spans.items(name), 1e3)
            out.per("store.partitions_per_query", store1[0] - store0[0], store1[1] - store0[1], 1)
            maps = spans.calls("parallel.map")
            out.per("parallel.map.busy_ms_per_batch", spans.busy("parallel.map"), maps, 1e3)
            out.per("parallel.tasks_per_batch", spans.items("parallel.map"), maps, 1)
            out.per("parallel.worker_cpu_ms_per_batch", worker_cpu, n_batches, 1e3)
            # Serial base on the same batches, capped at half a window.
            serial = []
            budget_end = time.perf_counter() + seconds / 2
            for k in range(first, b):
                if time.perf_counter() > budget_end:
                    break
                s0 = time.perf_counter()
                self._run(store, None, k)
                serial.append(time.perf_counter() - s0)
            pooled = float(lat.values()[: len(serial)].sum())
            out.per("parallel.speedup_vs_serial", sum(serial), pooled, 1)
            _proc_layers(out, gcmon, nivcsw0)

        wrong = 0
        for k, packed in checks:
            serial = _pack(self._run(store, None, k))
            wrong += not all(np.array_equal(a, b) for a, b in zip(packed, serial))
        out.counts["batches_checked"] = len(checks)
        out.fail(wrong, f"{wrong} of {len(checks)} pooled batches differ from serial", wrong=True)
        if not checks:
            out.fail(1, "no batches were checked", wrong=True)
        return out


WORKLOADS = {w.name: w for w in (ServeCold, LiveMixed, BatchPooled)}


async def measure_setup(workload) -> list[float]:
    """Time :meth:`build` at least :data:`SETUP_REPS` times and for at least
    :data:`SETUP_BUDGET_S` seconds; keeps the last world."""
    times = []
    budget_end = time.perf_counter() + SETUP_BUDGET_S
    while len(times) < SETUP_REPS or (
        time.perf_counter() < budget_end and len(times) < SETUP_MAX_REPS
    ):
        await workload.teardown()
        gc.collect()
        start = time.perf_counter()
        await workload.build()
        times.append(time.perf_counter() - start)
    return times
