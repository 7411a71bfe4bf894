#!/usr/bin/env python3
"""Live-path benchmark: one named workload per process.

Run from the repository root::

    python3 livebench/run.py --workload serve_cold --seed 1 --seconds 15 --trace 0

``--trace 0`` builds the program's objects several times before and
after the measured window (``setup_s`` is their mean), warms up, measures
one window and prints every end-to-end metric of ``BENCHMARK.json``.
``--trace 1`` measures an untraced window and then a traced one on a
fresh build, wrapping each layer's public entry points from outside, and
prints every per-layer metric, ``trace.overhead_frac``, and the latency
and freshness metrics moved out of the end-to-end set.  A per-layer
metric the workload does not exercise reads 0 and is named in the
provenance; one it should produce but did not, or a wrapper that logged
no call in the window, stops the run.  Spans of the traced window are
written to ``livebench/out/``.

Stdout carries a provenance line, a readable table, and as its last line
the result object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 1 when an answer was wrong or an operation failed.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"program source not found: {ROOT / 'src' / 'repro'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import measure  # noqa: E402
import workloads  # noqa: E402  (imports the program; fails without src/)

def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _git_sha() -> str | None:
    """HEAD of the checkout, read without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _speed_probe_ms() -> dict[str, float]:
    """Best-of-3 timings of a fixed interpreter loop and a fixed numpy sort."""
    data = np.random.default_rng(0).random(200_000)
    loop, sort = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i
        t1 = time.perf_counter()
        np.sort(data)
        t2 = time.perf_counter()
        loop.append(t1 - t0)
        sort.append(t2 - t1)
    return {"python_loop_ms": min(loop) * 1e3, "numpy_sort_ms": min(sort) * 1e3}


async def _measure(workload, seconds: float, trace: bool) -> tuple[workloads.Outcome, dict]:
    if not trace:
        before = await workloads.measure_setup(workload)
        out = await workload.session(seconds, None)
        out.metrics["peak_rss_mb"] = out.rss["self"] + sum(out.rss["children"])
        after = await workloads.measure_setup(workload)
        await workload.teardown()
        out.metrics["setup_s"] = sum(before + after) / len(before + after)
        # Latency and freshness are per-layer metrics (see README.md); the
        # untraced window's values are still recorded beside the results.
        demoted = {name: out.metrics.pop(name) for name in workload.layers if name in out.metrics}
        return out, {
            "setup_reps_s": {"before": before, "after": after},
            "demoted_metrics": demoted,
            "peak_rss_parts_mb": out.rss,
        }
    await workload.build()
    base = await workload.session(seconds, None)
    await workload.teardown()
    spans = measure.Spans()
    await workload.build(spans)
    traced = await workload.session(seconds, spans)
    await workload.teardown()
    silent = [op for op in workload.spans if spans.calls(op) == 0]
    if silent:
        raise SystemExit(f"traced wrappers logged no call in the window: {silent}")
    for name in workload.layers:
        if name in base.metrics:
            traced.layers[name] = base.metrics[name]
    traced.layers["trace.overhead_frac"] = 1.0 - measure.ratio(
        traced.metrics["throughput_per_s"], base.metrics["throughput_per_s"]
    )
    traced.attempted += base.attempted
    traced.failed += base.failed
    traced.correct = traced.correct and base.correct
    traced.problems += base.problems
    path = HERE / "out" / f"spans-{workload.name}-seed{workload.seed}.npz"
    spans.write(path)
    return traced, {"untraced": base.metrics, "spans": str(path.relative_to(ROOT))}


def _reap_children() -> list[int]:
    """Stop the worker pools and multiprocessing's resource tracker."""
    from multiprocessing import resource_tracker

    from repro.parallel import shutdown_all

    shutdown_all()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    deadline = time.monotonic() + 10.0
    while measure.child_pids() and time.monotonic() < deadline:
        time.sleep(0.05)
    return measure.child_pids()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its pool workers (see _reap_children).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec = _spec()
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    # The program sees only the generated inputs: no REPRO_* tuning leaks in.
    pinned = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in pinned:
        del os.environ[key]

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "loadavg_start": os.getloadavg(),
        "speed_probe": _speed_probe_ms(),
        "unset_env": pinned,
    }
    steal0 = measure.steal_s()
    t0 = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    workload.seed = args.seed
    provenance["input_generation_s"] = time.perf_counter() - t0
    gc.collect()
    try:
        out, extra = asyncio.run(_measure(workload, args.seconds, bool(args.trace)))
    finally:
        leftover = _reap_children()
    provenance.update(extra)
    provenance["counts"] = out.counts
    provenance["loadavg_end"] = os.getloadavg()
    provenance["machine_steal_s"] = measure.steal_s() - steal0

    values = out.layers if args.trace else out.metrics
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise SystemExit(f"measured metrics missing from BENCHMARK.json: {unknown}")
    expected = set(workload.layers) | {"trace.overhead_frac"} if args.trace else set(units)
    missing = sorted(expected - set(values))
    if missing:
        raise SystemExit(f"metrics the {args.workload} workload should produce are missing: {missing}")
    # Per-layer names that do not apply to this workload read 0.
    values = {name: values[name] for name in expected}
    provenance["not_applicable"] = sorted(set(units) - expected)
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in units.items()}
    if leftover:
        out.fail(len(leftover), f"child processes still running: {leftover}")

    print(json.dumps({"provenance": provenance}))
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.4f} {m['unit']}")
    for problem in out.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": out.correct,
                "attempted": int(out.attempted),
                "failed": int(out.failed),
                "metrics": metrics,
            }
        )
    )
    return 0 if out.correct and not out.failed else 1


if __name__ == "__main__":
    sys.exit(main())
