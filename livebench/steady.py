#!/usr/bin/env python3
"""Steadiness and compare mode for ``livebench/run.py``.

Run one workload N times, each with another seed, and print every
metric's median, quartiles and spread (interquartile distance as a share
of the median) next to its bound from ``BENCHMARK.json``::

    python3 livebench/steady.py run --workload live_mixed --runs 10 --out a.json

Compare two such sets of runs: for every end-to-end metric, how far the
second median moved from the first, against its bound::

    python3 livebench/steady.py compare a.json b.json          # regression check
    python3 livebench/steady.py compare --agree a.json b.json  # same code twice

Quartiles are ``statistics.quantiles(values, n=4)``.  A spread above a
third of the bound is flagged ``WIDE``, above the bound ``NOISY``, for
every metric with a bound, ``setup_s`` included.  ``compare`` flags a
median that moved by more than the bound in the worse direction
(``WORSE``) or the better one (``BETTER``); it fails on ``WORSE``, on
``BETTER`` too with ``--agree``, and on any run in either set that was
incorrect or had failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _metric_specs(trace: int) -> dict[str, dict]:
    spec = _spec()
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) of ``values``."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def run_many(workload: str, runs: int, seed0: int, seconds: float, trace: int) -> list[dict]:
    results = []
    for seed in range(seed0, seed0 + runs):
        proc = subprocess.run(
            [
                sys.executable,
                str(HERE / "run.py"),
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", str(trace),
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=900,
        )
        # Exit code 1 with a result: a run with wrong answers or failed
        # operations, kept and flagged.  Anything else has no result.
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
            raise SystemExit(f"seed {seed} exited {proc.returncode} without a result:\n{proc.stderr}")
        result = json.loads(lines[-1])
        provenance = json.loads(lines[0])["provenance"]
        results.append({"seed": seed, "result": result, "provenance": provenance})
        flag = "" if result["correct"] and not result["failed"] else "  FAILED"
        print(f"seed {seed}: attempted={result['attempted']} failed={result['failed']}{flag}",
              file=sys.stderr)
    return results


def summarize(doc: dict) -> list[str]:
    """Per-metric median/quartiles/spread lines for one set of runs."""
    specs = _metric_specs(doc["trace"])
    lines = [f"{doc['workload']} ({len(doc['runs'])} runs, trace={doc['trace']})",
             f"  {'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}"]
    for name, spec in specs.items():
        values = [r["result"]["metrics"][name]["value"] for r in doc["runs"]]
        med, q1, q3, sp = spread(values)
        bound = spec.get("bound")
        flag = ""
        if bound is not None:
            flag = "NOISY" if sp > bound else ("WIDE" if sp > bound / 3 else "")
        lines.append(
            f"  {name:<36} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {sp:>8.4f} "
            f"{'' if bound is None else bound:>6} {flag}"
        )
    # Metrics moved out of the end-to-end set, recorded beside results.
    demoted = [r["provenance"].get("demoted_metrics") for r in doc["runs"]]
    if all(demoted):
        for name in demoted[0]:
            values = [t[name] for t in demoted]
            if min(values) > 0:
                med, q1, q3, sp = spread(values)
                lines.append(
                    f"  {name + ' (per-layer)':<36} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {sp:>8.4f}"
                )
    failed = sum(r["result"]["failed"] for r in doc["runs"])
    incorrect = sum(not r["result"]["correct"] for r in doc["runs"])
    lines.append(f"  failed operations: {failed}; incorrect runs: {incorrect}")
    return lines


def compare(a: dict, b: dict, agree: bool = False) -> tuple[list[str], bool]:
    """Second set's medians against the first's, against each metric's bound.

    ``worse by`` is the relative change in the metric's worse direction
    (negative: better).  Without ``agree`` only ``WORSE`` fails; with it,
    any move beyond the bound does.  Incorrect runs and failed operations
    in either set fail the comparison.
    """
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        raise SystemExit("compare needs two sets of the same workload and trace mode")
    specs = _metric_specs(0)
    ok = True
    lines = [f"{a['workload']}: {len(a['runs'])} runs vs {len(b['runs'])} runs",
             f"  {'metric':<36} {'median A':>12} {'median B':>12} {'worse by':>9} {'bound':>6}"]
    for name, spec in specs.items():
        med_a = spread([r["result"]["metrics"][name]["value"] for r in a["runs"]])[0]
        med_b = spread([r["result"]["metrics"][name]["value"] for r in b["runs"]])[0]
        change = (med_b - med_a) / med_a
        worse = change if spec["better"] == "lower" else -change
        verdict = "WORSE" if worse > spec["bound"] else ("BETTER" if -worse > spec["bound"] else "ok")
        ok = ok and verdict != "WORSE" and not (agree and verdict == "BETTER")
        lines.append(
            f"  {name:<36} {med_a:>12.4f} {med_b:>12.4f} {worse:>+9.4f} {spec['bound']:>6} {verdict}"
        )
    for label, doc in (("A", a), ("B", b)):
        bad = [r["seed"] for r in doc["runs"] if not r["result"]["correct"] or r["result"]["failed"]]
        if bad:
            ok = False
            lines.append(f"  set {label}: runs with wrong answers or failed operations, seeds {bad}")
    return lines, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run one workload N times and summarize")
    run.add_argument("--workload", required=True)
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--seed0", type=int, default=1)
    run.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", type=Path, required=True)
    summary = sub.add_parser("summary", help="summarize a saved set of runs")
    summary.add_argument("runs", type=Path)
    cmp = sub.add_parser("compare", help="compare two saved sets of runs")
    cmp.add_argument("a", type=Path)
    cmp.add_argument("b", type=Path)
    cmp.add_argument("--agree", action="store_true",
                     help="the sets ran the same code: fail on a move either way")
    args = parser.parse_args(argv)

    if args.cmd == "run":
        seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
        doc = {
            "workload": args.workload,
            "trace": args.trace,
            "seconds": seconds,
            "runs": run_many(args.workload, args.runs, args.seed0, seconds, args.trace),
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
        print("\n".join(summarize(doc)))
        return 0
    if args.cmd == "summary":
        print("\n".join(summarize(json.loads(args.runs.read_text()))))
        return 0
    lines, ok = compare(json.loads(args.a.read_text()), json.loads(args.b.read_text()), args.agree)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
