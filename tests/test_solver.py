"""Solver: validation, insertion pricing, seeds, regret, moves, determinism."""

import dataclasses
import random
import struct

import numpy as np
import pytest

from tdroute.bench_io import generate_td, make_benchmark_instance, serialize_solution
from tdroute.plf import Atf, EmptyDomain, StepCost
from tdroute.solver import (Infeasible, Instance, Item, SolverConfig, Solution,
                            Tour, Vehicle, apply_insertion, cheapest_insertion,
                            compute_friends, random_walk, regret_construct,
                            relocate_pass, select_seeds, solve,
                            validate)
from tdroute.scheduler import CostModel
from tdroute.solver import engine
from tdroute.solver.insertion import best_insertion
from tdroute.solver.model import build_action

RNG = np.random.default_rng(1337)


def grid_instance(n_customers, seed=0, n_vehicles=6, capacity=100.0,
                  due=2000.0, pdp=False, fixed=1000.0):
    """Euclidean instance with random windows; distance doubles as cost."""
    rng = np.random.default_rng(seed)
    n = n_customers + 1
    xy = rng.uniform(0, 100, size=(n, 2))
    xy[0] = (50.0, 50.0)
    matrix = [[Atf.constant_travel(float(np.hypot(*(xy[p] - xy[q]))), -10.0,
                                   due * 4, cost=StepCost(float(np.hypot(*(xy[p] - xy[q])))))
               for q in range(n)] for p in range(n)]
    items = []
    for i in range(1, n):
        mid = float(rng.uniform(100, due - 400))
        w = float(rng.uniform(80, 250))
        if pdp and i % 2 == 0:
            j = i - 1  # pair pickup at the previous address
            items.append(Item(
                id=i, pickup_address=j, pickup_open=0.0, pickup_close=due,
                pickup_duration=5.0, delivery_address=i, delivery_open=max(0.0, mid - w),
                delivery_close=mid + w, delivery_duration=10.0,
                demand=float(rng.integers(1, 15)), penalty=1e6, depot_pickup=False))
        else:
            items.append(Item(
                id=i, pickup_address=0, pickup_open=0.0, pickup_close=due,
                pickup_duration=0.0, delivery_address=i, delivery_open=max(0.0, mid - w),
                delivery_close=mid + w, delivery_duration=10.0,
                demand=float(rng.integers(1, 15)), penalty=1e6, depot_pickup=True))
    vehicles = [Vehicle(id=v, start_address=0, end_address=0, avail_lo=0.0,
                        avail_hi=due, fixed_cost=fixed, capacity=capacity)
                for v in range(n_vehicles)]
    return Instance(f"grid{n_customers}", matrix, items, vehicles,
                    horizon=(0.0, due))


class TestValidate:
    def test_empty_solution_zero_items(self):
        inst = grid_instance(0)
        inst.items = []
        inst.item_by_id = {}
        sol = Solution(inst)
        rep = validate(sol, inst)
        assert rep.feasible and rep.computed_cost == 0.0

    def test_single_item_direct_tour(self):
        inst = grid_instance(3, seed=1)
        item = inst.items[0]
        tour = Tour(inst, inst.vehicles[0], item.stops())
        sol = Solution(inst, [tour], {it.id for it in inst.items[1:]})
        rep = validate(sol, inst)
        assert rep.feasible

    def test_late_delivery_reported(self):
        inst = grid_instance(2, seed=2)
        # shrink a window so the stop cannot be on time from the depot
        from dataclasses import replace
        bad = replace(inst.items[0], delivery_open=0.0, delivery_close=1.0)
        inst.items[0] = bad
        inst.item_by_id[bad.id] = bad
        stop = bad.stops()[0]
        tour = Tour.__new__(Tour)
        # build via a feasible window, then swap in the violating stop list
        good = Tour(inst, inst.vehicles[0], inst.items[1].stops())
        good.stops = [stop]
        sol = Solution(inst, [good], {inst.items[1].id})
        rep = validate(sol, inst)
        assert not rep.feasible
        assert any("late" in v or "empty feasible window" in v for v in rep.violations)


class TestVehicleCostModel:
    def test_cost_model_is_hourly_rate_built_once(self):
        veh = Vehicle(id=0, start_address=0, end_address=0, avail_lo=0.0,
                      avail_hi=1000.0, time_cost_per_hour=37.5)
        model, want = veh.cost_model, CostModel.hourly(37.5)
        assert (model.c_ot.xs, model.c_ot.ys, model.c_ot.final_slope) == (
            want.c_ot.xs, want.c_ot.ys, want.c_ot.final_slope)
        assert (model.c_wt.init, model.c_wt.ts, model.c_wt.cs) == (
            want.c_wt.init, want.c_wt.ts, want.c_wt.cs)
        assert veh.cost_model is model
        # the cached model is not a field: equality and hashing are unchanged
        twin = dataclasses.replace(veh)
        assert twin == veh and hash(twin) == hash(veh)


class TestCheapestInsertion:
    def test_empty_tour_cost(self):
        inst = grid_instance(4, seed=3)
        veh = inst.vehicles[0]
        tour = Tour(inst, veh, [])
        item = inst.items[0]
        plan = cheapest_insertion(inst, tour, item)
        d = inst.arc_dist_cost(0, item.delivery_address)
        assert plan.delta_cost == pytest.approx(2 * d)

    def test_accepted_insertions_validate(self):
        inst = grid_instance(10, seed=4)
        veh = inst.vehicles[0]
        tour = Tour(inst, veh, [])
        placed = []
        for item in inst.items:
            try:
                plan = cheapest_insertion(inst, tour, item)
            except Infeasible:
                continue
            apply_insertion(tour, item, plan)
            placed.append(item.id)
        sol = Solution(inst, [tour], {it.id for it in inst.items
                                      if it.id not in placed})
        assert validate(sol, inst).feasible

    def test_pruned_equals_exhaustive(self):
        inst = grid_instance(12, seed=5, pdp=True)
        veh = inst.vehicles[0]
        tour = Tour(inst, veh, [])
        for item in inst.items[:6]:
            try:
                plan = cheapest_insertion(inst, tour, item)
                apply_insertion(tour, item, plan)
            except Infeasible:
                pass
        for item in inst.items[6:]:
            try:
                pruned = cheapest_insertion(inst, tour, item, prune=True)
            except Infeasible:
                with pytest.raises(Infeasible):
                    cheapest_insertion(inst, tour, item, prune=False)
                continue
            full = cheapest_insertion(inst, tour, item, prune=False)
            assert pruned.delta_cost == pytest.approx(full.delta_cost, abs=1e-9)

    def test_delta_matches_applied_cost(self):
        inst = grid_instance(8, seed=6)
        veh = inst.vehicles[0]
        tour = Tour(inst, veh, [])
        for item in inst.items:
            try:
                plan = cheapest_insertion(inst, tour, item)
            except Infeasible:
                continue
            before = tour.schedule.total_cost
            apply_insertion(tour, item, plan)
            measured = tour.schedule.total_cost - before
            assert measured == pytest.approx(plan.delta_cost, abs=1e-6)


class TestInsertSingle:
    def test_failed_insert_leaves_a_fresh_tour(self):
        """Random single-stop inserts into a long tour: after each one that
        raises EmptyDomain the tour equals a fresh Tour over its old stops,
        down to every range the store can answer."""
        inst = grid_instance(24, seed=70, n_vehicles=2, capacity=1000.0)
        sol = regret_construct(inst, random.Random(0))
        base = max(sol.tours, key=lambda t: len(t.stops))
        outside = [it.stops()[0] for it in inst.items if it.id not in base.item_ids]
        rng = random.Random(71)
        failures = 0
        for _ in range(60):
            tour = Tour(inst, base.vehicle, base.stops)
            for _ in range(3):
                before = list(tour.stops)
                try:
                    tour.insert_single(rng.randrange(len(tour.stops) + 1),
                                       rng.choice(outside))
                except EmptyDomain:
                    failures += 1
                    assert tour.stops == before
                    fresh = Tour(inst, tour.vehicle, before)
                    assert tour.schedule.total_cost == fresh.schedule.total_cost
                    assert tour.schedule.t0 == fresh.schedule.t0
                    assert (tour.eat, tour.lst, tour.loads, tour.max_load) == (
                        fresh.eat, fresh.lst, fresh.loads, fresh.max_load)
                    n = fresh.store.n
                    assert tour.store.n == n
                    for i in range(n):
                        for j in range(i + 1, n + 1):
                            assert _same_atf(tour.store.query(i, j), fresh.store.query(i, j))
        assert failures >= 10


class TestSeedsAndFriends:
    def test_no_friends_selects_all(self):
        inst = grid_instance(3, seed=7, n_vehicles=3)
        inst._friends = {it.id: set() for it in inst.items}
        seeds = select_seeds(inst)
        assert len(seeds) == 3

    def test_all_mutual_friends_selects_one(self):
        inst = grid_instance(3, seed=8, n_vehicles=3)
        ids = [it.id for it in inst.items]
        inst._friends = {i: set(ids) - {i} for i in ids}
        assert len(select_seeds(inst)) == 1

    def test_importance_monotone(self):
        from dataclasses import replace
        inst = grid_instance(5, seed=9, n_vehicles=5)
        seeds0 = {it.id for it in select_seeds(inst)}
        target = sorted(seeds0)[0]
        boosted = [replace(it, penalty=it.penalty * 10) if it.id == target else it
                   for it in inst.items]
        inst2 = Instance(inst.name, inst.matrix, boosted, inst.vehicles,
                         horizon=inst.horizon)
        inst2._friends = compute_friends(inst)
        assert target in {it.id for it in select_seeds(inst2)}


class TestRegretConstruct:
    def test_single_tour_order_is_cheapest_first(self):
        inst = grid_instance(5, seed=10, n_vehicles=1)
        import random
        sol = regret_construct(inst, random.Random(0))
        assert validate(sol, inst).feasible

    def test_result_validates(self):
        import random
        for seed in (0, 1, 2):
            inst = grid_instance(20, seed=20 + seed)
            sol = regret_construct(inst, random.Random(seed))
            assert validate(sol, inst).feasible

    def test_symmetric_assignment_under_capacity(self):
        # two identical items, capacity forces one per tour
        due = 2000.0
        matrix = [[Atf.constant_travel(0.0 if p == q else 10.0, -10.0, due * 2,
                                       cost=StepCost(0.0 if p == q else 10.0))
                   for q in range(2)] for p in range(2)]
        items = [Item(id=i, pickup_address=0, pickup_open=0, pickup_close=due,
                      pickup_duration=0, delivery_address=1, delivery_open=0,
                      delivery_close=due, delivery_duration=10, demand=1.0,
                      penalty=1e6, depot_pickup=True) for i in (1, 2)]
        vehicles = [Vehicle(id=v, start_address=0, end_address=0, avail_lo=0,
                            avail_hi=due, fixed_cost=100.0, capacity=1.0)
                    for v in (0, 1)]
        inst = Instance("two", matrix, items, vehicles, horizon=(0, due))
        import random
        sol = regret_construct(inst, random.Random(0))
        assert validate(sol, inst).feasible
        assert sorted(len(t.item_ids) for t in sol.tours if t.stops) == [1, 1]

    def test_regret_definition_small(self):
        """The selected item maximizes mean-minus-best insertion cost,
        cross-checked by exhaustive enumeration on a <=3-tour state."""
        inst = grid_instance(9, seed=33, n_vehicles=3)
        seeds = select_seeds(inst)
        sol = Solution(inst)
        free = sol.free_vehicles()
        for s in seeds:
            veh = free.pop(0)
            t = Tour(inst, veh, [])
            apply_insertion(t, s, cheapest_insertion(inst, t, s))
            sol.tours.append(t)
        pool = [it for it in inst.items if it.id not in {s.id for s in seeds}]
        from tdroute.solver.construct import (NO_VEHICLE_COST,
                                              new_tour_cost,
                                              select_next_by_regret)
        # exhaustive enumeration of every item's regret
        free = sol.free_vehicles()
        best_key = None
        for item in sorted(pool, key=lambda it: it.id):
            nt = None
            if free:
                nt, _ = new_tour_cost(inst, free[0], item)
            sentinel = nt if nt is not None else NO_VEHICLE_COST
            costs = []
            feasible_costs = []
            for t in sol.tours:
                try:
                    p = cheapest_insertion(inst, t, item)
                    costs.append(p.delta_cost)
                    feasible_costs.append(p.delta_cost)
                except Infeasible:
                    costs.append(sentinel)
            if nt is not None:
                costs.append(nt)
                feasible_costs.append(nt)
            if not feasible_costs:
                continue
            regret = sum(costs) / len(costs) - min(feasible_costs)
            key = (-regret, min(feasible_costs), item.id)
            if best_key is None or key < best_key:
                best_key = key
        picked, _, _ = select_next_by_regret(inst, sol, pool)
        assert picked.id == best_key[2]


class TestRandomWalk:
    def test_zero_budget_unchanged(self):
        inst = grid_instance(10, seed=50)
        import random
        sol = regret_construct(inst, random.Random(0))
        before = sol.total_cost
        out = random_walk(inst, sol, random.Random(1), 0)
        assert out.total_cost == pytest.approx(before)

    def test_zero_time_limit_returns_incoming_solution(self):
        inst = grid_instance(25, seed=51)
        sol = regret_construct(inst, random.Random(0))
        state, cost = sol.clone_state(), sol.total_cost
        out = random_walk(inst, sol, random.Random(1), 50, time_limit=0.0)
        assert out.clone_state() == state
        assert out.total_cost == cost

    def test_never_worse_and_validates(self):
        inst = grid_instance(25, seed=51)
        import random
        sol = regret_construct(inst, random.Random(0))
        before = sol.total_cost
        out = random_walk(inst, sol, random.Random(1), 15)
        assert out.total_cost <= before + 1e-6
        assert validate(out, inst).feasible


class TestSolve:
    def test_construction_only_equals_regret(self):
        inst = grid_instance(12, seed=60)
        sol = solve(inst, SolverConfig(seed=4, iterations=0))
        import random
        ref = regret_construct(
            inst, random.Random(10007 * 4 + 13),
            improve_hook=lambda s: relocate_pass(inst, s))
        relocate_pass(inst, ref)
        assert sol.total_cost == pytest.approx(ref.total_cost, abs=1e-9)

    def test_zero_time_limit_is_construction_alone(self):
        """Relocations obey the deadline: with no time at all, solve()
        returns regret construction without its relocations."""
        inst = grid_instance(30, seed=64)
        sol = solve(inst, SolverConfig(seed=3, iterations=10, time_limit=0.0))
        ref = regret_construct(inst, random.Random(10007 * 3 + 13))
        ref.drop_empty_tours()
        assert serialize_solution(sol) == serialize_solution(ref)
        assert validate(sol, inst).feasible

    def test_solve_not_worse_than_construction(self):
        inst = grid_instance(20, seed=61)
        c = solve(inst, SolverConfig(seed=5, iterations=0))
        s = solve(inst, SolverConfig(seed=5, iterations=10))
        assert s.total_cost <= c.total_cost + 1e-6

    def test_deterministic(self):
        inst = grid_instance(20, seed=62, pdp=True)
        a = solve(inst, SolverConfig(seed=6, iterations=10))
        b = solve(inst, SolverConfig(seed=6, iterations=10))
        assert a.total_cost == b.total_cost
        assert ([[(s.item_id, s.kind) for s in t.stops] for t in a.tours]
                == [[(s.item_id, s.kind) for s in t.stops] for t in b.tours])

    def test_pdp_instances_validate(self):
        inst = grid_instance(14, seed=63, pdp=True)
        sol = solve(inst, SolverConfig(seed=7, iterations=5))
        assert validate(sol, inst).feasible


def _same_atf(a, b):
    return (a.ts == b.ts and a.vs == b.vs and a.cost.init == b.cost.init
            and a.cost.ts == b.cost.ts and a.cost.cs == b.cost.cs)


class TestActionMemo:
    """Memoised action ATFs equal the uncached builder's."""

    def test_memo_matches_builder_on_td_city_tours(self):
        inst = generate_td(make_benchmark_instance(8, seed=11),
                           rng=np.random.default_rng(11))
        sol = regret_construct(inst, random.Random(3))
        tour = max(sol.tours, key=lambda t: len(t.stops))
        veh = tour.vehicle
        # vehicles sharing the memo that differ in one field each: a short
        # day cuts many actions' domains, a late start clamps early arrivals;
        # with the end at the first stop's address (and a short day, so that
        # the return deadline binds) the empty tour's START differs from the
        # one-stop tour's only in that deadline
        short = dataclasses.replace(veh, avail_hi=veh.avail_lo + 2.5 * 3600.0)
        vehicles = (veh, short,
                    dataclasses.replace(veh, avail_lo=veh.avail_lo + 3 * 3600.0),
                    dataclasses.replace(short, end_address=tour.stops[0].address),
                    dataclasses.replace(veh, start_address=tour.stops[-1].address))
        # a stop at the depot makes "next address" equal the end address
        # without being the last stop; a second stop at an address already
        # served differs from the first only in its window
        at_depot = dataclasses.replace(tour.stops[1], address=veh.end_address)
        wider = dataclasses.replace(tour.stops[1], open=tour.stops[1].open - 600.0,
                                    close=tour.stops[1].close + 600.0)
        extra = [s for t in sol.tours if t is not tour for s in t.stops][:3]
        extra += [at_depot, wider]
        stop_lists = [tour.stops, tour.stops[:1], []]
        for pos in range(len(tour.stops) + 1):
            for s in extra:
                stop_lists.append(tour.stops[:pos] + [s] + tour.stops[pos:])
        cases = [(v, stops, idx, br)
                 for br in ((), ((15, 1.0), (10, 2.0), (5, 4.0)))
                 for v in vehicles
                 for stops in stop_lists
                 for idx in range(-1, len(stops))]
        memo = {}
        for v, stops, idx, br in cases:
            try:
                memo[id(stops), id(v), idx, br] = inst.action(v, stops, idx, br)
            except EmptyDomain:
                pass
        assert inst._actions
        checked = 0
        for v, stops, idx, br in cases:
            key = (id(stops), id(v), idx, br)
            try:
                fresh = build_action(inst, v, stops, idx, br)
            except EmptyDomain:
                assert key not in memo
                continue
            assert _same_atf(memo[key], fresh)
            assert _same_atf(inst.action(v, stops, idx, br), fresh)
            checked += 1
        assert checked > len(cases) // 2

    def test_solve_empties_memo(self):
        inst = grid_instance(12, seed=64)
        solve(inst, SolverConfig(seed=2, iterations=3))
        assert inst._actions == {}
        assert inst._prices == {} and inst._contents == {}

    def test_solve_empties_memo_when_it_raises(self, monkeypatch):
        inst = grid_instance(12, seed=64)

        def broken_walk(*args, **kwargs):
            raise RuntimeError("walk failed")

        monkeypatch.setattr(engine, "random_walk", broken_walk)
        with pytest.raises(RuntimeError):
            solve(inst, SolverConfig(seed=2, iterations=3))
        assert inst._actions == {}
        assert inst._prices == {} and inst._contents == {}


SOFT = ((15, 1.0), (10, 2.0), (5, 4.0))


def _mixed_td_instance(n_customers, seed):
    """A time-dependent city instance whose even items are picked up at
    the previous customer instead of the depot."""
    base = generate_td(make_benchmark_instance(n_customers, seed=seed),
                       rng=np.random.default_rng(seed))
    items = [it if it.id % 2 else
             dataclasses.replace(it, depot_pickup=False, pickup_address=it.id - 1,
                                 pickup_duration=60.0)
             for it in base.items]
    return Instance(base.name + "_mixed", base.matrix, items, base.vehicles,
                    horizon=base.horizon, depot=base.depot)


def _same_price(a, b):
    """Equal positions and bit-for-bit equal deltas (None: infeasible)."""
    if a is None or b is None:
        return a is b
    if isinstance(a, tuple):
        return a[:2] == b[:2] and _same_price(a[2], b[2])
    return struct.pack("<d", a) == struct.pack("<d", b)


def _audit_memo(monkeypatch):
    """Run the memo's users with every hit re-priced on the live tour.

    First regret construction, relocation and a walk, without and then
    with brackets, on instances whose memo is never emptied in between.
    Then a tour grown by insert_single next to a fresh build of its stops,
    with every pickup-delivery item priced on both: the grown store's
    block layout gives this instance's item 20 a delta a few ulps away
    from the fresh store's.  Returns the hits of depot-pickup and of
    pickup-delivery items, and the keys whose hit was wrong.
    """
    real = Instance.price
    hits = {True: 0, False: 0}
    wrong = []

    def audited(self, key, pricer):
        if key in self._prices:
            hits[self.items[key % len(self.items)].depot_pickup] += 1
            if not _same_price(self._prices[key], pricer()):
                wrong.append(key)
        return real(self, key, pricer)

    monkeypatch.setattr(Instance, "price", audited)
    for seed in (3, 4):
        inst = _mixed_td_instance(12, seed)
        for brackets in ((), SOFT):
            rng = random.Random(seed)
            sol = regret_construct(inst, rng, brackets=brackets,
                                   improve_hook=lambda s: relocate_pass(inst, s))
            relocate_pass(inst, sol)
            random_walk(inst, sol, rng, 12, brackets)

    inst = _mixed_td_instance(20, 50)
    grown = Tour(inst, inst.vehicles[0], [])
    for item in inst.items:
        if item.depot_pickup:
            plan = best_insertion(inst, grown, item)
            if plan is not None:
                apply_insertion(grown, item, plan)
    assert not grown.store.from_scratch
    fresh = Tour(inst, grown.vehicle, grown.stops)
    for tour in (grown, fresh):
        for item in inst.items:
            if not item.depot_pickup:
                best_insertion(inst, tour, item)
    return hits, wrong


class TestPriceMemo:
    """Memoised insertion and removal prices equal uncached ones."""

    def test_every_hit_equals_a_fresh_price(self, monkeypatch):
        hits, wrong = _audit_memo(monkeypatch)
        assert hits[True] > 0 and hits[False] > 0
        assert wrong == []

    @pytest.mark.parametrize("mutant", ["brackets", "provenance"])
    def test_audit_catches_an_unsound_key(self, monkeypatch, mutant):
        if mutant == "brackets":
            # content ids interned without the brackets
            real = Instance.content_id
            monkeypatch.setattr(Instance, "content_id",
                                lambda self, vehicle, stops, _: real(self, vehicle, stops, ()))
        else:
            # pickup-delivery prices keyed by content whatever the layout
            def key(tour, item):
                inst = tour.instance
                cid = inst.content_id(tour.vehicle, tour.stops, tour.brackets)
                return cid * len(inst.items) + inst.item_slot[item.id]

            monkeypatch.setattr(Tour, "price_key", key)
        _, wrong = _audit_memo(monkeypatch)
        assert wrong
