"""Command-line interface.

Subcommands: solve, validate, generate-td, flatten, evaluate, bench.
Exit codes: 0 success, 1 infeasible solution / violations reported,
2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

from ..solver import SolverConfig, solve, validate
from .evaluate import evaluate_under
from .native import ParseError, read_instance, read_solution, write_instance, write_solution
from .solomon import parse_lilim, parse_solomon
from .tdgen import flatten, generate_td


def _load_instance(path):
    text = open(path).read(512)
    if text.startswith("TDROUTE-INSTANCE"):
        return read_instance(path)
    first = text.splitlines()[0].split() if text.splitlines() else []
    if len(first) >= 2 and all(tok.lstrip("-").isdigit() for tok in first[:2]):
        return parse_lilim(path)
    return parse_solomon(path)


def _brackets(spec):
    if not spec:
        return ()
    out = []
    for part in spec.split(","):
        minutes, dollars = part.split(":")
        out.append((float(minutes), float(dollars)))
    return tuple(out)


def _config(args):
    return SolverConfig(
        seed=args.seed, iterations=args.iterations, time_limit=args.time_limit,
        soft_brackets=_brackets(getattr(args, "soft_windows", None)))


def _cmd_solve(args):
    inst = _load_instance(args.instance)
    sol = solve(inst, _config(args))
    write_solution(sol, args.output)
    rep = validate(sol, inst)
    print(f"{inst.name}: {sol.n_vehicles} tours, cost {sol.total_cost:.2f}, "
          f"unserved {len(sol.unserved)}")
    if not rep.feasible:
        print(rep, file=sys.stderr)
        return 1
    return 0


def _cmd_validate(args):
    inst = _load_instance(args.instance)
    sol = read_solution(args.solution, inst)
    rep = validate(sol, inst)
    print(rep)
    return 0 if rep.feasible else 1


def _cmd_generate_td(args):
    inst = _load_instance(args.base)
    rng = np.random.default_rng(args.seed)
    td = generate_td(inst, rng=rng, regenerate_windows=args.regenerate_windows)
    write_instance(td, args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_flatten(args):
    inst = read_instance(args.instance)
    out = flatten(inst, args.mode)
    write_instance(out, args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_evaluate(args):
    inst = read_instance(args.td_instance)
    sol = read_solution(args.solution, inst)
    rep = evaluate_under(inst, sol)
    print(rep)
    if args.histogram_csv:
        with open(args.histogram_csv, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["bucket", "count"])
            for k, v in rep.buckets.items():
                w.writerow([k, v])
    return 0 if rep.n_late == 0 else 1


def _cmd_bench(args):
    paths = sorted(Path(args.directory).glob("*.txt"))
    if not paths:
        print(f"no instances in {args.directory}", file=sys.stderr)
        return 2
    rows = []
    for path in paths:
        try:
            inst = _load_instance(str(path))
        except ParseError as e:
            print(f"{path.name}: {e}", file=sys.stderr)
            return 2
        t0 = time.monotonic()
        sol = solve(inst, _config(args))
        dt = time.monotonic() - t0
        rep = validate(sol, inst)
        status = "ok" if rep.feasible else "INFEASIBLE"
        rows.append((path.stem, sol.n_vehicles, sol.total_cost, dt))
        print(f"{path.stem}: tours={sol.n_vehicles} cost={sol.total_cost:.2f} "
              f"time={dt:.1f}s {status}")
    if args.report:
        with open(args.report, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["instance", "tours", "cost", "time_s"])
            for name, tours, cost, dt in rows:
                w.writerow([name, tours, f"{cost:.2f}", f"{dt:.2f}"])
    return 0


def _add_solver_args(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterations", type=int, default=SolverConfig.iterations,
                   help="random-walk moves (default %(default)s)")
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--soft-windows", default=None,
                   help="penalty brackets, e.g. '15:1,10:2,5:4'")


def main(argv=None):
    ap = argparse.ArgumentParser(prog="tdroute",
                                 description="vehicle routing with time-dependent travel times")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance")
    p.add_argument("instance")
    _add_solver_args(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("validate", help="validate a solution file")
    p.add_argument("instance")
    p.add_argument("solution")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("generate-td", help="add speed profiles to a constant instance")
    p.add_argument("base")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--regenerate-windows", action="store_true")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_generate_td)

    p = sub.add_parser("flatten", help="replace TD arcs by constants")
    p.add_argument("instance")
    p.add_argument("--mode", choices=["worst", "average", "mixed"], required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_flatten)

    p = sub.add_parser("evaluate", help="evaluate a solution under a TD instance")
    p.add_argument("td_instance")
    p.add_argument("solution")
    p.add_argument("--histogram-csv", default=None)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("bench", help="solve every instance in a directory")
    p.add_argument("directory")
    _add_solver_args(p)
    p.add_argument("--report", help="CSV output path")
    p.set_defaults(func=_cmd_bench)

    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
