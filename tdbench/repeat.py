"""Repeat benchmark runs and report medians and quartiles.

    python3 tdbench/repeat.py                         # every workload once
    python3 tdbench/repeat.py --runs 10 --workload city-td-soft

Run from the repository root.  Each run is its own process (run.py), one
after another, with seeds --seed, --seed+1, ...  For every metric the
report gives the median, the quartiles of statistics.quantiles(n=4) and
the spread (q3 - q1) / median, next to the operations attempted and
failed and whether every run's checks passed.  The raw results are
written to tdbench/out/repeat.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
from run import WORKLOADS  # noqa: E402

SECONDS = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                          cwd=BENCH_DIR.parent)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="repeatable; default: every workload")
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first run")
    ap.add_argument("--seconds", type=float, default=SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    report = {}
    all_correct = True
    for workload in args.workload or WORKLOADS:
        results = []
        for i in range(args.runs):
            res = run_once(workload, args.seed + i, args.seconds, args.trace)
            results.append(res)
            print(f"  {workload} seed {args.seed + i}: correct {res['correct']} "
                  f"attempted {res['attempted']} failed {res['failed']} "
                  f"wall {res['wall_s']:.1f} s", flush=True)
        correct = all(r["correct"] for r in results)
        all_correct &= correct
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"{workload}: {args.runs} runs, correct {correct}, "
              f"attempted {attempted}, failed {failed}")
        print(f"  {'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
        rows = {}
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                          "spread": spread, "values": values}
            print(f"  {name:36s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} {first['unit']}")
        report[workload] = {"correct": correct, "attempted": attempted, "failed": failed,
                            "wall_s": [r["wall_s"] for r in results],
                            "seeds": [args.seed + i for i in range(args.runs)],
                            "metrics": rows}
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / "repeat.json").write_text(json.dumps(report, indent=1))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
