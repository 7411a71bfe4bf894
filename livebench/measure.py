"""Measurement primitives shared by the live-path workloads.

Everything here is the benchmark's own instrument, not part of the
program under test:

* :class:`Samples` — a growable float64 buffer, so per-request timings
  live in numpy memory instead of as Python objects on the heap that
  every full collection scans;
* :class:`Spans` — per-operation start/end/item-count logs recorded by
  the traced run's wrappers and proxies, kept in memory and written out
  as one ``.npz`` when the run ends;
* process readers — CPU and peak RSS of this process plus its live child
  processes (pool workers), read from ``/proc``, and a ``gc.callbacks``
  pause monitor.
"""

from __future__ import annotations

import contextlib
import gc
import os
import resource
import time
from pathlib import Path

import numpy as np

_TICKS = os.sysconf("SC_CLK_TCK")


class Samples:
    """Append-only float64 buffer with amortised doubling growth."""

    __slots__ = ("_buf", "n")

    def __init__(self, capacity: int = 4096) -> None:
        self._buf = np.empty(max(16, capacity), dtype=np.float64)
        self.n = 0

    def add(self, value: float) -> None:
        if self.n == self._buf.shape[0]:
            grown = np.empty(2 * self._buf.shape[0], dtype=np.float64)
            grown[: self.n] = self._buf
            self._buf = grown
        self._buf[self.n] = value
        self.n += 1

    def values(self) -> np.ndarray:
        return self._buf[: self.n]


class Slices:
    """Readings at the boundaries of equal slices of the measured window.

    Rates and costs are reported as the median over slices, so a few
    seconds in which other work on the machine slowed the process move
    the result less than they would move a whole-window average.
    """

    def __init__(self) -> None:
        self._rows: list[tuple[float, float, int, int, int]] = []

    def mark(self, queries: int, ops: int, samples: int) -> None:
        """Record the clock, process+children CPU, the work done so far and
        how many latency samples were taken so far."""
        cpu = time.process_time() + sum(children_cpu_s().values())
        self._rows.append((time.perf_counter(), cpu, queries, ops, samples))

    @property
    def start(self) -> float:
        return self._rows[0][0]

    @property
    def end(self) -> float:
        return self._rows[-1][0]

    def _deltas(self) -> np.ndarray:
        return np.diff(np.array(self._rows), axis=0)

    def throughput(self) -> float:
        """Median over slices of queries answered per second."""
        d = self._deltas()
        return float(np.median(d[:, 2] / d[:, 0]))

    def cpu_ms_per_kop(self) -> float:
        """Median over slices of CPU milliseconds per 1000 operations."""
        d = self._deltas()
        return float(np.median(d[:, 1] * 1e3 / (d[:, 3] / 1e3)))

    def median_latency(self, latencies: np.ndarray) -> float:
        """Median over slices of each slice's median latency.

        ``latencies`` holds the window's samples in completion order, as
        counted by the ``samples`` column of :meth:`mark`.
        """
        bounds = [row[4] for row in self._rows]
        medians = [np.median(latencies[a:b]) for a, b in zip(bounds, bounds[1:]) if b > a]
        return float(np.median(medians)) if medians else 0.0

    def totals(self) -> tuple[float, float, int, int]:
        """Whole-window (wall, cpu, queries, ops)."""
        first, last = self._rows[0], self._rows[-1]
        return tuple(b - a for a, b in zip(first[:4], last[:4]))


def pct(values: np.ndarray, q: float) -> float:
    """Percentile ``q`` (0-100) of ``values``; 0.0 for an empty sample."""
    return float(np.percentile(values, q)) if values.size else 0.0


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when the layer did no work."""
    return float(num) / float(den) if den else 0.0


class Spans:
    """In-memory span log: start, end, item count and thread CPU per call.

    Each operation name is recorded from exactly one thread (store queries
    from the event loop, appends and hooks from the ingest shard thread),
    so the per-operation buffers need no lock.  Aggregates count only the
    spans that start inside :attr:`window`, the measured interval; the
    written log keeps every span, warm-up included.
    """

    def __init__(self) -> None:
        self._ops: dict[str, tuple[Samples, Samples, Samples, Samples]] = {}
        self.window = (float("-inf"), float("inf"))

    def add(self, name: str, start: float, end: float, items: int = 1, cpu: float = 0.0) -> None:
        """Log one call; ``cpu`` is the calling thread's CPU time inside it."""
        op = self._ops.get(name)
        if op is None:
            op = self._ops[name] = (Samples(), Samples(), Samples(), Samples())
        for buf, value in zip(op, (start, end, items, cpu)):
            buf.add(value)

    def time(self, name: str, items: int = 1) -> "_Span":
        """``with spans.time(name, n):`` logs the block as one span of ``n``
        items, with the calling thread's CPU time inside it."""
        return _Span(self, name, items)

    def _columns(self, name: str) -> tuple[np.ndarray, ...]:
        op = self._ops.get(name)
        if op is None:
            return (np.empty(0),) * 4
        starts = op[0].values()
        keep = (starts >= self.window[0]) & (starts <= self.window[1])
        return tuple(buf.values()[keep] for buf in op)

    def calls(self, name: str) -> int:
        return int(self._columns(name)[0].size)

    def busy(self, name: str) -> float:
        """Wall seconds spent inside ``name``."""
        starts, ends, _, _ = self._columns(name)
        return float((ends - starts).sum())

    def cpu(self, name: str) -> float:
        """Calling-thread CPU seconds spent inside ``name`` (where recorded)."""
        return float(self._columns(name)[3].sum())

    def items(self, name: str) -> float:
        return float(self._columns(name)[2].sum())

    def durations(self, name: str) -> np.ndarray:
        starts, ends, _, _ = self._columns(name)
        return ends - starts

    def max_duration(self, name: str) -> float:
        starts, ends, _, _ = self._columns(name)
        return float((ends - starts).max()) if starts.size else 0.0

    def write(self, path: Path) -> None:
        """Dump every span as ``<op>.start/.end/.items/.cpu`` arrays."""
        arrays = {"window": np.array(self.window)}
        for name, op in self._ops.items():
            for field, buf in zip(("start", "end", "items", "cpu"), op):
                arrays[f"{name}.{field}"] = buf.values()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, **arrays)


class _Span:
    """Context manager that logs one span; see :meth:`Spans.time`."""

    __slots__ = ("_spans", "_name", "_items", "_cpu", "start")

    def __init__(self, spans: Spans, name: str, items: int) -> None:
        self._spans = spans
        self._name = name
        self._items = items

    def __enter__(self) -> "_Span":
        self._cpu = time.thread_time()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        end = time.perf_counter()
        self._spans.add(self._name, self.start, end, self._items, time.thread_time() - self._cpu)


#: Stands in for a span where nothing is traced (an untraced run).
NO_SPAN = contextlib.nullcontext()


def span(spans: Spans | None, name: str, items: int = 1):
    """``spans.time(name, items)``, or :data:`NO_SPAN` when ``spans`` is None."""
    return NO_SPAN if spans is None else spans.time(name, items)


def timed(spans: Spans, name: str, fn, items=None):
    """Wrap ``fn`` so every call logs a span under ``name``.

    ``items(*args, **kwargs)`` gives the call's work count (queries in a
    batch, tasks in a map); it defaults to 1.
    """

    def wrapper(*args, **kwargs):
        with spans.time(name, items(*args, **kwargs) if items is not None else 1):
            return fn(*args, **kwargs)

    return wrapper


# -- process readers -----------------------------------------------------------


def child_pids() -> list[int]:
    """Live child processes of this one (pool workers, resource tracker)."""
    me = os.getpid()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, ...
        fields = stat[stat.rfind(")") + 2 :].split()
        if int(fields[1]) == me:
            out.append(int(entry))
    return out


def _child_cpu_s(pid: int) -> float:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    fields = stat[stat.rfind(")") + 2 :].split()
    # utime and stime are fields 14 and 15 of the full line (1-based).
    return (int(fields[11]) + int(fields[12])) / _TICKS


def children_cpu_s() -> dict[int, float]:
    """user+sys CPU seconds of each live child, keyed by pid."""
    return {pid: _child_cpu_s(pid) for pid in child_pids()}


def cpu_delta_s(before: dict[int, float], after: dict[int, float]) -> float:
    """Child CPU spent between two :func:`children_cpu_s` readings."""
    return sum(v - before.get(pid, 0.0) for pid, v in after.items())


def steal_s() -> float:
    """Machine-wide CPU time stolen by the hypervisor so far (``/proc/stat``)."""
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    return int(fields[8]) / _TICKS if len(fields) > 8 else 0.0


def rss_parts_mb() -> dict[str, object]:
    """Peak RSS of this process and of each live child, in MB."""
    children = []
    for pid in child_pids():
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    children.append(float(line.split()[1]) / 1024.0)
                    break
        except OSError:
            continue
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"self": own, "children": children}


def involuntary_switches() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_nivcsw


class GcMonitor:
    """Collector pauses seen through ``gc.callbacks`` while installed."""

    def __init__(self) -> None:
        self.pauses = Samples(256)
        self.gen2 = 0
        self._start = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.pauses.add(time.perf_counter() - self._start)
            if info.get("generation") == 2:
                self.gen2 += 1

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info: object) -> None:
        gc.callbacks.remove(self._callback)
