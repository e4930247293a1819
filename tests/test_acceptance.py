"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Criterion 5 needs the classic 100-customer
benchmark files in data/solomon/ (they are public but not redistributed
here); without them it reports exactly why it cannot run and fails.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from tdroute.plf import EmptyDomain, compose, compose_chain, min2, min_n
from tdroute.scheduler import CostModel, PLCost, optimal_start, total_cost
from tdroute.touratf import SegmentStore
from tdroute.bench_io import (BEST_KNOWN_SOLOMON_100, evaluate_under, flatten,
                              generate_td, make_benchmark_instance,
                              parse_solomon, write_solution)
from tdroute.solver import SolverConfig, solve, validate
from oracles import (corridor_min_breakpoints, fold_compose, rand_atf,
                     rand_chain, rand_chain_action, rand_pl, rand_stepcost,
                     same_function)

DATA_DIR = Path(__file__).resolve().parent.parent / "data" / "solomon"
SOFT_BRACKETS = ((15, 1.0), (10, 2.0), (5, 4.0))
TD_SEEDS = (11, 12, 13, 14, 15)


def _report(n, ok, detail):
    print(f"\n[ACCEPTANCE] criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


# -- criterion 1: PL algebra oracle suite -----------------------------------


def test_criterion_1_pl_algebra_oracles():
    rng = np.random.default_rng(10)
    t0 = time.monotonic()
    samples = 10_000

    for _ in range(1000):  # compose
        a1, a2 = rand_atf(rng), rand_atf(rng, t0=float(rng.uniform(-2, 8)))
        try:
            c = compose(a1, a2)
        except EmptyDomain:
            assert a1.vs[0] > a2.t_max
            continue
        assert c.b <= a1.b + a2.b - 1
        xs = np.concatenate([np.array(c.ts),
                             np.linspace(a1.t_min - 1, c.t_max, samples)])
        want = a2.eval_many(a1.eval_many(xs), strict=False)
        assert np.max(np.abs(c.eval_many(xs) - want)) <= 1e-9

    for _ in range(1000):  # min2
        a1, a2 = rand_atf(rng), rand_atf(rng)
        m = min2(a1, a2)
        assert m.b <= max(2 * (a1.b + a2.b) - 3, 1)
        xs = np.concatenate([np.array(m.ts),
                             np.linspace(min(a1.t_min, a2.t_min) - 1, m.t_max, samples)])
        want = np.minimum(a1.eval_many(xs, strict=False),
                          a2.eval_many(xs, strict=False))
        assert np.max(np.abs(m.eval_many(xs) - want)) <= 1e-9

    for _ in range(1000):  # compose_chain vs left fold
        k = int(rng.integers(1, 7))
        atfs = [rand_atf(rng, b_max=5, span=30.0) for _ in range(k)]
        try:
            bal = compose_chain(atfs)
        except EmptyDomain:
            with pytest.raises(EmptyDomain):
                fold_compose(atfs)
            continue
        fold = fold_compose(atfs)
        assert bal.b <= 1 + sum(a.b - 1 for a in atfs)
        xs = np.concatenate([np.array(bal.ts), np.array(fold.ts),
                             np.linspace(bal.t_min - 1, bal.t_max, samples)])
        xs = np.minimum(xs, bal.t_max)
        assert np.max(np.abs(bal.eval_many(xs) - fold.eval_many(xs))) <= 1e-9

    for _ in range(1000):  # min_n vs pointwise oracle
        n = int(rng.integers(1, 65))
        fs = [rand_pl(rng, nseg=int(rng.integers(2, 11))) for _ in range(n)]
        m = min_n(fs)
        xs = np.concatenate([np.array(m.xs), np.linspace(0, 10, samples)])
        want = np.min(np.vstack([f.eval_many(xs) for f in fs]), axis=0)
        assert np.max(np.abs(m.eval_many(xs) - want)) <= 1e-9

    wall = time.monotonic() - t0
    assert wall < 30.0, f"oracle suite took {wall:.1f}s"
    _report(1, True, f"4x1000 randomized oracle cases, bounds held, {wall:.1f}s")


# -- criterion 2: simplify optimality ----------------------------------------


def test_criterion_2_simplify_optimality():
    from tdroute.plf import simplify
    rng = np.random.default_rng(20)
    checked = 0
    while checked < 200:
        f = rand_atf(rng, b_max=6)
        span = f.vs[-1] - f.vs[0]
        if span <= 1e-9:
            continue
        eps = 0.1 * span + 1e-6
        g = simplify(f, eps)
        assert g.b == corridor_min_breakpoints(f, eps), "not minimal"
        checked += 1

    for _ in range(1000):
        f = rand_atf(rng, b_max=50, span=80.0)
        span = f.vs[-1] - f.vs[0]
        eps = max(1e-6, float(rng.choice([0.02, 0.1, 0.5])) * max(span, 0.1))
        g = simplify(f, eps)
        # monotone as produced: no repair pass ran or is needed
        assert all(b - a >= -1e-12 for a, b in zip(g.vs, g.vs[1:]))
        xs = np.linspace(f.t_min - 1, f.t_max, 2000)
        gv, fv = g.eval_many(xs), f.eval_many(xs)
        assert np.all(gv >= fv - 1e-8) and np.all(gv <= fv + eps + 1e-8)
    _report(2, True, "200 exhaustive-minimal counts + 1000 sandwich/monotone cases")


# -- criterion 3: segment store budgets --------------------------------------


def test_criterion_3_store_budgets():
    rng = np.random.default_rng(30)
    k = 2
    query_counts = {16: 4000, 64: 3000, 256: 2000, 1024: 1000}
    build_ratios = []
    for n, n_queries in query_counts.items():
        acts = rand_chain(rng, n, b_max=2)
        store = SegmentStore(acts, k=k)
        build_ratios.append(store.compose_count / (n * math.log2(n)))
        prefix_folds = {}
        for _ in range(n_queries):
            i = int(rng.integers(0, n))
            j = int(rng.integers(i + 1, n + 1))
            before = store.compose_count
            got = store.query(i, j)
            used = store.compose_count - before
            budget = (k - 1) if (i == 0 or j == n) else (2 * k - 1)
            assert used <= budget, (n, i, j, used)
            key = (i, j)
            if key not in prefix_folds:
                prefix_folds[key] = fold_compose(acts[i:j])
            assert same_function(got, prefix_folds[key])
        for _ in range(50):
            i = int(rng.integers(1, n))
            j = int(rng.integers(i, n))
            pieces = [rand_chain_action(rng, frac=i / n) for _ in range(4)]
            before = store.compose_count
            try:
                got = store.eval_insertion(i, j, *pieces)
            except EmptyDomain:
                got = None
            assert store.compose_count - before <= 4 * k + 3
            spliced = (acts[:i - 1] + pieces[:2]
                       + (acts[i:j - 1] + [pieces[2]] if j > i else [])
                       + [pieces[3]] + acts[j:])
            try:
                want = fold_compose(spliced)
            except EmptyDomain:
                want = None
            assert (got is None) == (want is None)
            if got is not None:
                assert same_function(got, want)
    assert max(build_ratios) <= 3.0, build_ratios
    _report(3, True,
            f"10^4 queries within 2k-1 (k-1 at ends), insertions within 4k+3, "
            f"build/(n log n) <= {max(build_ratios):.2f}")


# -- criterion 4: scheduler oracle -------------------------------------------


def test_criterion_4_scheduler_oracle():
    rng = np.random.default_rng(40)
    for _ in range(1000):
        a = rand_atf(rng, b_max=8, span=100.0, dur_max=20.0)
        a = a.with_cost(rand_stepcost(rng, a.t_min, a.t_max))
        nb = int(rng.integers(0, 4))
        xs = np.unique(np.concatenate([[0.0], np.sort(rng.uniform(1, 60, nb))]))
        ys = np.cumsum(np.concatenate([[rng.uniform(0, 5)],
                                       rng.uniform(0, 3, len(xs) - 1)]))
        from tdroute.plf import StepCost
        pieces = sorted((float(rng.uniform(0, 140)), float(rng.uniform(0, 1.0)))
                        for _ in range(int(rng.integers(0, 4))))
        model = CostModel(c_ot=PLCost(list(zip(xs, ys)),
                                      final_slope=float(rng.uniform(0, 2))),
                          c_wt=StepCost(float(rng.uniform(0, 0.5)), pieces))
        r = optimal_start(a, model)
        grid = np.linspace(a.t_min, a.t_max, 2000)
        costs = np.array([total_cost(a, model, float(t)) for t in grid])
        assert r.total_cost <= costs.min() + 1e-7
        before = grid[grid < r.t0 - 1e-9]
        if before.size:
            cb = np.array([total_cost(a, model, float(t)) for t in before])
            assert np.all(cb > r.total_cost - 1e-9), "not the least minimizer"
    _report(4, True, "1000 cases within 1e-7 of grid+event brute force, least t0")


# -- criterion 5: Solomon desk-scale quality ---------------------------------


def test_criterion_5_solomon_quality():
    available = {}
    if DATA_DIR.is_dir():
        for path in sorted(DATA_DIR.glob("*.txt")):
            name = path.stem.upper()
            if name in BEST_KNOWN_SOLOMON_100:
                available[name] = path
    if len(available) < 10:
        _report(5, False, "requires the public Solomon 100-customer files")
        pytest.fail(
            "Criterion 5 needs at least 10 of the classic Solomon 100-customer "
            f"instance files in {DATA_DIR} (found {len(available)}). They are "
            "published benchmark data and are not redistributed with this "
            "repository, and this environment has no network access to fetch "
            "them. Drop files named like R101.txt there and rerun; the gate "
            "(feasible, vehicles <= best-known + 2, distance <= 1.15 x "
            "best-known, <= 120 s each) then runs against the table in "
            "bench_io/bestknown.py. The same gate passes on planted-reference "
            "instances in test_solver_quality.py.")
    rows = []
    for name, path in list(available.items())[:10]:
        inst = parse_solomon(str(path))
        bk_vehicles, bk_distance = BEST_KNOWN_SOLOMON_100[name]
        t0 = time.monotonic()
        sol = solve(inst, SolverConfig(seed=1, time_limit=110.0))
        wall = time.monotonic() - t0
        rep = validate(sol, inst)
        distance = sum(t.schedule.cost_departure for t in sol.tours)
        assert rep.feasible, f"{name}: {rep}"
        assert not sol.unserved, f"{name}: unserved items"
        assert wall <= 120.0, f"{name}: {wall:.0f}s"
        assert sol.n_vehicles <= bk_vehicles + 2, f"{name}: {sol.n_vehicles} vs {bk_vehicles}"
        assert distance <= 1.15 * bk_distance, f"{name}: {distance:.1f} vs {bk_distance}"
        rows.append(name)
    _report(5, True, f"10 instances within +2 vehicles / 1.15x distance: {rows}")


# -- criteria 6 and 7: time dependence and soft windows ----------------------


@pytest.fixture(scope="module")
def td_plans():
    plans = []
    for seed in TD_SEEDS:
        base = make_benchmark_instance(200, seed=seed)
        td = generate_td(base, rng=np.random.default_rng(seed))
        cfg = SolverConfig(seed=1, iterations=8)
        sol_td = solve(td, cfg)
        assert validate(sol_td, td).feasible
        plans.append((seed, td, sol_td))
    return plans


def test_criterion_6_time_dependence_direction(td_plans):
    late_td = []
    late_worst = []
    worst_gt = 0
    late_avg = 0
    for seed, td, sol_td in td_plans:
        cfg = SolverConfig(seed=1, iterations=8)
        sol_w = solve(flatten(td, "worst"), cfg)
        sol_a = solve(flatten(td, "average"), cfg)
        ev_td = evaluate_under(td, sol_td)
        ev_w = evaluate_under(td, sol_w)
        ev_a = evaluate_under(td, sol_a)
        late_td.append(ev_td.n_late)
        late_worst.append(ev_w.n_late)
        if ev_w.cost > ev_td.cost:
            worst_gt += 1
        if ev_a.n_late >= 1:
            late_avg += 1
    assert all(x == 0 for x in late_td), f"TD plans late: {late_td}"
    assert all(x == 0 for x in late_worst), f"worst plans late: {late_worst}"
    assert worst_gt >= 4, f"worst cost strictly above TD on only {worst_gt}/5"
    assert late_avg >= 4, f"average planning late on only {late_avg}/5"
    _report(6, True,
            f"TD and worst-case plans 0 late; worst costlier on {worst_gt}/5; "
            f"average late on {late_avg}/5")


def test_criterion_7_soft_windows(td_plans):
    tight0 = tight1 = 0
    cost0 = cost1 = 0.0
    for seed, td, sol_plain in td_plans:
        sol_soft = solve(td, SolverConfig(seed=1, iterations=8,
                                          soft_brackets=SOFT_BRACKETS))
        ev_plain = evaluate_under(td, sol_plain)
        ev_soft = evaluate_under(td, sol_soft)
        assert ev_soft.n_late == 0
        tight0 += ev_plain.buckets["[0,5)"]
        tight1 += ev_soft.buckets["[0,5)"]
        cost0 += ev_plain.cost
        cost1 += ev_soft.cost
    assert tight1 <= 0.5 * tight0, f"[0,5) slack count {tight0} -> {tight1}"
    assert cost1 <= 1.05 * cost0, f"true cost {cost0:.0f} -> {cost1:.0f}"
    _report(7, True,
            f"[0,5)-slack deliveries {tight0} -> {tight1}; "
            f"true cost {100 * (cost1 - cost0) / cost0:+.2f}%")


# -- criterion 8: determinism -------------------------------------------------


def test_criterion_8_determinism(tmp_path):
    instances = [make_benchmark_instance(30, seed=3)]
    td = generate_td(instances[0], rng=np.random.default_rng(3))
    instances.append(td)
    from tdroute.bench_io import make_planted_instance
    instances.append(make_planted_instance(40, seed=4)[0])
    for idx, inst in enumerate(instances):
        files = []
        for run in (0, 1):
            sol = solve(inst, SolverConfig(seed=7, iterations=5))
            p = tmp_path / f"det_{idx}_{run}.sol"
            write_solution(sol, str(p))
            files.append(p.read_bytes())
        assert files[0] == files[1], f"instance {idx} not byte-identical"
    _report(8, True, "seed 7, 1 worker: byte-identical solution files x3 instances")
