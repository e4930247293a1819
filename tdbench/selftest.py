"""Self-test of the benchmark's checks: they must pass right outputs and
reject wrong ones, so a passing benchmark run means something.

    python3 tdbench/selftest.py

Run from the repository root; takes a few seconds.  Exit code 0 when every
right output passes and every planted fault is rejected.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
from run import import_tdroute  # noqa: E402

tdroute = import_tdroute()
from checks import (check_compose, check_plan, check_same_function,  # noqa: E402
                    check_schedule, check_simplified, plan_of)

HOUR = 3600.0
results = []


def expect(label, problems, should_fail):
    ok = bool(problems) == should_fail
    results.append(ok)
    verdict = "rejected" if problems else "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}"
          + (f" ({problems[0]})" if problems else ""))


def plans():
    bench_io, solver = tdroute.bench_io, tdroute.solver
    inst, _, _ = bench_io.make_planted_instance(12, seed=5, n_routes=2)
    sol = solver.solve(inst, solver.SolverConfig(seed=5, iterations=0))
    tours = plan_of(sol)
    expect("solved plan", check_plan(inst, tours, sol.unserved)[0], False)

    # the first stop of tour 0 now begins a minute after its window closes
    first = tours[0].stops[0]
    late_start = inst.arc(0, first.address).latest_departure(first.close) + 60.0
    pushed = [dataclasses.replace(tours[0], t0=late_start)] + tours[1:]
    expect("plan with a stop pushed past its window", check_plan(inst, pushed, sol.unserved)[0], True)

    overpriced = [dataclasses.replace(tours[0], cost=tours[0].cost + 1.0)] + tours[1:]
    expect("plan with a misreported tour cost", check_plan(inst, overpriced, sol.unserved)[0], True)

    dropped = [dataclasses.replace(tours[0], stops=tours[0].stops[1:])] + tours[1:]
    expect("plan that skips an item", check_plan(inst, dropped, sol.unserved)[0], True)


def atfs():
    plf, bench_io, scheduler = tdroute.plf, tdroute.bench_io, tdroute.scheduler
    prof = bench_io.DEFAULT_PROFILES[2]
    horizon = (15 * HOUR, 21 * HOUR)
    a = bench_io.td_arc(900.0, prof, horizon, eps=0)
    b = bench_io.td_arc(600.0, prof, horizon, eps=0)
    f = plf.compose(a, b)
    expect("compose result", check_compose(a, b, f), False)
    vs = list(f.vs)
    mid = len(vs) // 2
    vs[mid] += 5.0
    wrong = plf.Atf(list(zip(f.ts, vs)))
    expect("compose result with one breakpoint 5 s late", check_compose(a, b, wrong), True)
    expect("store range against a wrong fold", check_same_function(f, wrong, "range"), True)

    eps = plf.default_epsilon(a)
    g = plf.polish(plf.simplify(a, eps), a, eps)
    expect("simplified ATF", check_simplified(a, g, eps), False)
    low = plf.Atf(list(zip(g.ts, [v - 2 * eps if i == g.b // 2 else v
                                  for i, v in enumerate(g.vs)])))
    expect("simplified ATF dipping below f", check_simplified(a, low, eps), True)

    model = scheduler.CostModel(c_ot=scheduler.PLCost.linear(20.0))
    sched = scheduler.optimal_start(f, model)
    rate = 20.0 / 3600.0
    expect("optimal start", check_schedule(f, rate, sched), False)
    slow_t0 = max(f.ts, key=lambda t: float(f.eval(t)) - t)
    worse = dataclasses.replace(sched, t0=slow_t0,
                                total_cost=rate * (f.eval(slow_t0) - slow_t0))
    expect("start at the slowest departure", check_schedule(f, rate, worse), True)


if __name__ == "__main__":
    plans()
    atfs()
    print(f"{sum(results)}/{len(results)} expectations met")
    sys.exit(0 if all(results) else 1)
