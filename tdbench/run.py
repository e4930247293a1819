"""Run one benchmark workload against the tdroute sources of this checkout.

    python3 tdbench/run.py --workload planted-const --seed 1 --seconds 20 --trace 0

Run from the repository root.  The workload's inputs are built from the
seed (set-up, timed several times), then whole rounds of the workload's
program calls repeat in a closed loop, one call after another in this one
process, until --seconds have passed.  The first round's outputs are
checked independently and every later round must reproduce them exactly.

--trace 0 prints the end-to-end metrics; --trace 1 wraps the layers'
public functions, prints the per-layer metrics (per one set-up plus one
round) and writes the spans to tdbench/out/.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOADS = ("planted-const", "city-td", "city-td-soft", "kernels")
SETUP_REPEATS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_tdroute():
    """tdroute from this checkout's sources, never an installed copy."""
    if not (SRC / "tdroute" / "__init__.py").is_file():
        sys.exit(f"error: no tdroute sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tdroute
    if Path(tdroute.__file__).resolve().parent != (SRC / "tdroute").resolve():
        sys.exit(f"error: imported tdroute from {tdroute.__file__}, not {SRC}")
    return tdroute


def main(argv=None):
    args = parse_args(argv)
    tdroute = import_tdroute()
    from workloads import make_workloads

    wl = make_workloads(tdroute)[args.workload]
    tracer = None
    if args.trace:
        import layertrace as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.on = True
        tracer.set_phase("setup")

    def on_error(what, exc):
        print(f"operation failed: {what}", file=sys.stderr)
        traceback.print_exception(exc, file=sys.stderr)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = wl.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)

    rounds = []        # the measured rounds: untraced, or traced with --trace 1
    untraced = []      # with --trace 1, rounds without wrappers, alternating
    if tracer is not None:
        tracer.set_phase("run")
    loop_start = time.perf_counter()
    while not rounds or time.perf_counter() - loop_start < args.seconds:
        if tracer is not None:
            # an untraced round next to each traced one, for the overhead
            tracer.on = False
            tracer.uninstall()
            untraced.append(wl.run_round(inputs, on_error))
            tracing.install(tracer)
            tracer.on = True
        rounds.append(wl.run_round(inputs, on_error))
    # the workload's own peak, before the checks allocate their oracles
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.on = False
        tracer.set_phase("check")

    def timed(key, fn, *fn_args):
        t0 = time.perf_counter()
        result = fn(*fn_args)
        if tracer is not None:
            tracer.count(key, time.perf_counter() - t0)
        return result

    first = rounds[0]
    all_rounds = rounds + untraced
    problems = wl.check(inputs, first.outputs, timed)
    for i, r in enumerate(all_rounds[1:], 1):
        if r.fingerprint != first.fingerprint:
            problems.append(f"round {i} did not reproduce the first round's outputs")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    attempted = sum(r.attempted for r in all_rounds)
    failed = sum(r.failed for r in all_rounds)
    route_cost, vehicles = wl.summary(first.outputs)
    OUT.mkdir(exist_ok=True)
    for i, sol in enumerate(wl.solutions(first.outputs)):
        tdroute.bench_io.write_solution(sol, OUT / f"{args.workload}-s{args.seed}-{i}.sol")

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_s": (best_round(rounds), "s"),
            "route_cost": (route_cost, "USD"),
            "vehicles": (vehicles, "count"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        divisors = {"setup": SETUP_REPEATS, "run": len(rounds), "check": 1}
        overhead_s = best_round(rounds) - best_round(untraced)
        metrics = tracing.layer_metrics(tracer, divisors, overhead_s)
        tracer.dump(OUT / f"trace-{args.workload}-s{args.seed}.npz")

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"attempted {attempted}  failed {failed}  correct {not problems}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def best_round(rounds):
    """A round's time with each call at its fastest over the rounds.

    Every call does the same work in every round (the outputs are checked
    to be identical), so a slower reading of one call comes from the
    machine: on a shared machine other processes slow calls by a third or
    more, in spells of seconds to minutes.  The per-call minimum removes
    the short spells, which a median of two or three round totals keeps.
    """
    return sum(min(per_call) for per_call in zip(*(r.times for r in rounds)))


if __name__ == "__main__":
    sys.exit(main())
