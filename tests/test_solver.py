"""Solver: validation, insertion pricing, seeds, regret, moves, determinism."""

import collections
import dataclasses
import math
import random
import struct
import time
from functools import partial

import numpy as np
import pytest

from tdroute.bench_io import (generate_td, make_benchmark_instance, make_planted_instance,
                              serialize_solution)
from tdroute.plf import Atf, EmptyDomain, StepCost
from tdroute.solver import (Infeasible, Instance, Item, SolverConfig, Solution,
                            Tour, Vehicle, apply_insertion, cheapest_insertion,
                            random_walk, regret_construct,
                            relocate_pass, select_seeds, solve,
                            validate)
from tdroute.scheduler import CostModel
from tdroute.solver import construct, engine, insertion, localsearch
from tdroute.solver.insertion import (InsertionPlan, best_insertion, cheapest_by_floor,
                                      insertion_floor, insertion_floors)
from tdroute.solver.model import build_action, schedule_tour
from oracles import (bits, brute_insertion, cost_bits, mutant,
                     pair_prices_reference, relocate_pass_reference,
                     select_seeds_reference, set_stops_reference)

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

    def test_a_preloaded_load_leaves_at_its_delivery(self):
        """Capacity 10: preloaded item 1 (demand 10) is delivered at
        address 1, then pickup-delivery item 2 (demand 5) rides from
        address 1 to 2.  The vehicle is empty when it picks item 2 up."""
        matrix = [[Atf.constant_travel(abs(p - q) * 60.0, -10.0, 8000.0,
                                       cost=StepCost(abs(p - q)))
                   for q in range(3)] for p in range(3)]
        items = [Item(id=1, pickup_address=0, pickup_open=0.0, pickup_close=4000.0,
                      pickup_duration=0.0, delivery_address=1, delivery_open=0.0,
                      delivery_close=4000.0, delivery_duration=10.0, demand=10.0,
                      depot_pickup=True),
                 Item(id=2, pickup_address=1, pickup_open=0.0, pickup_close=4000.0,
                      pickup_duration=10.0, delivery_address=2, delivery_open=0.0,
                      delivery_close=4000.0, delivery_duration=10.0, demand=5.0)]
        veh = Vehicle(id=0, start_address=0, end_address=0, avail_lo=0.0,
                      avail_hi=4000.0, capacity=10.0)
        inst = Instance("preload", matrix, items, [veh], horizon=(0.0, 4000.0))
        tour = Tour(inst, veh, items[0].stops())
        assert tour.loads == [10.0, 0.0]
        apply_insertion(tour, items[1], cheapest_insertion(inst, tour, items[1]))
        assert [s.kind + str(s.item_id) for s in tour.stops] == ["D1", "P2", "D2"]
        assert tour.loads == [10.0, 0.0, 5.0, 0.0]
        assert validate(Solution(inst, [tour]), inst).feasible

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
        down to every prefix and suffix fold of its store."""
        inst = grid_instance(24, seed=70, n_vehicles=2, capacity=1000.0)
        self._check_failed_inserts(inst, rounds=60)

    def test_failed_insert_leaves_a_fresh_tour_mixed(self):
        """The same on an instance with pickup-and-delivery items."""
        inst = _mixed_td_instance(16, 70)
        self._check_failed_inserts(inst, rounds=30)

    @staticmethod
    def _check_failed_inserts(inst, rounds):
        sol = regret_construct(inst)
        base = max(sol.tours, key=lambda t: len(t.stops))
        outside = [it.stops()[0] for it in inst.items
                   if it.depot_pickup and it.id not in base.item_ids]
        rng = random.Random(71)
        failures = 0
        for _ in range(rounds):
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
                    assert tour.loads == fresh.loads
                    assert tour.store.n == fresh.store.n
                    for got, want in zip(tour.store.pre[1:] + tour.store.suf[:-1],
                                         fresh.store.pre[1:] + fresh.store.suf[:-1]):
                        assert _same_atf(got, want)
        assert failures >= 10


class TestSeedsAndFriends:
    def test_no_friends_selects_all(self, monkeypatch):
        inst = grid_instance(3, seed=7, n_vehicles=3)
        monkeypatch.setattr(construct, "FRIEND_RATIO", -1.0)
        seeds = select_seeds(inst)
        assert len(seeds) == 3

    def test_all_mutual_friends_selects_one(self, monkeypatch):
        inst = grid_instance(3, seed=8, n_vehicles=3)
        monkeypatch.setattr(construct, "FRIEND_RATIO", float("inf"))
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
        assert target in {it.id for it in select_seeds(inst2)}


    def test_seeds_equal_the_friend_graph_greedy(self):
        """Checking each ranked item against the chosen seeds alone picks
        the seeds of the greedy over the whole friend graph, on planted
        and time-dependent city instances and their pickup-delivery twins."""
        bases = [make_planted_instance(100, seed=s)[0] for s in (1, 2, 3)]
        bases += [generate_td(make_benchmark_instance(30, seed=s),
                              rng=np.random.default_rng(s)) for s in (11, 12, 13)]
        for inst in bases + [_mixed(b) for b in bases]:
            want = [it.id for it in select_seeds_reference(inst)]
            assert [it.id for it in select_seeds(inst)] == want, inst.name
            assert len(want) > 1


class TestRegretConstruct:
    def test_single_tour_order_is_cheapest_first(self):
        inst = grid_instance(5, seed=10, n_vehicles=1)
        sol = regret_construct(inst)
        assert validate(sol, inst).feasible

    def test_result_validates(self):
        for seed in (0, 1, 2):
            inst = grid_instance(20, seed=20 + seed)
            sol = regret_construct(inst)
            assert validate(sol, inst).feasible

    def test_new_tour_priced_on_the_vehicle_it_opens(self):
        """Depot 0 and customers 1-3, 10 s from the depot and 1 s apart;
        every vehicle carries one item, and vehicle 2's day ends at 15 s,
        before any round trip (25 s) is done.  Once vehicles 0 and 1 have
        a tour, item 3's new-tour price must be vehicle 2's, which is
        none: the item stays unserved instead of opening a tour priced
        for vehicle 1."""
        def travel(p, q):
            return 0.0 if p == q else 10.0 if 0 in (p, q) else 1.0

        matrix = [[Atf.constant_travel(travel(p, q), -10.0, 4000.0,
                                       cost=StepCost(travel(p, q)))
                   for q in range(4)] for p in range(4)]
        items = [Item(id=i, pickup_address=0, pickup_open=0.0, pickup_close=100.0,
                      pickup_duration=0.0, delivery_address=i, delivery_open=0.0,
                      delivery_close=100.0, delivery_duration=5.0, demand=1.0,
                      depot_pickup=True) for i in (1, 2, 3)]
        vehicles = [Vehicle(id=v, start_address=0, end_address=0, avail_lo=0.0,
                            avail_hi=hi, fixed_cost=100.0, capacity=1.0)
                    for v, hi in ((0, 1000.0), (1, 1000.0), (2, 15.0))]
        inst = Instance("three", matrix, items, vehicles)
        sol = solve(inst, SolverConfig(seed=0, iterations=0))
        assert sorted(i for t in sol.tours for i in t.item_ids) == [1, 2]
        assert sol.unserved == {3}
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
        sol = regret_construct(inst)
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
                nt, _ = new_tour_cost(sol, free[0], item)
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
        sol = regret_construct(inst)
        before = sol.total_cost
        out = random_walk(inst, sol, random.Random(1), 0)
        assert out.total_cost == pytest.approx(before)

    def test_zero_time_limit_returns_incoming_solution(self):
        inst = grid_instance(25, seed=51)
        sol = regret_construct(inst)
        state, cost = sol.clone_state(), sol.total_cost
        out = random_walk(inst, sol, random.Random(1), 50, deadline=time.monotonic())
        assert out.clone_state() == state
        assert out.total_cost == cost

    def test_never_worse_and_validates(self):
        inst = grid_instance(25, seed=51)
        sol = regret_construct(inst)
        before = sol.total_cost
        out = random_walk(inst, sol, random.Random(1), 15)
        assert out.total_cost <= before + 1e-6
        assert validate(out, inst).feasible


class TestSolve:
    def test_construction_only_equals_regret(self):
        inst = grid_instance(12, seed=60)
        sol = solve(inst, SolverConfig(seed=4, iterations=0))
        ref = regret_construct(
            inst, improve_hook=lambda s: relocate_pass(inst, s))
        relocate_pass(inst, ref)
        assert sol.total_cost == pytest.approx(ref.total_cost, abs=1e-9)

    def test_zero_time_limit_is_construction_alone(self):
        """Relocations obey the deadline: with no time at all, solve()
        returns regret construction without its relocations."""
        inst = grid_instance(30, seed=64)
        sol = solve(inst, SolverConfig(seed=3, iterations=10, time_limit=0.0))
        ref = regret_construct(inst)
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
        sol = regret_construct(inst)
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

    def test_solve_empties_memo(self, monkeypatch):
        """Every memo a solve fills, the relocation bounds and the floors'
        instance arrays included, is empty once it returns."""
        inst = grid_instance(12, seed=64)
        filled = []
        real = Instance.clear_memos

        def recording(self):
            filled.append((len(self._bounds), self._floor_tables is not None))
            real(self)

        monkeypatch.setattr(Instance, "clear_memos", recording)
        solve(inst, SolverConfig(seed=2, iterations=3))
        assert filled[0][0] > 0 and filled[0][1]
        assert inst._actions == {}
        assert inst._prices == {} and inst._contents == {}
        assert inst._bounds == {} and inst._floor_tables is None

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
    return _mixed(generate_td(make_benchmark_instance(n_customers, seed=seed),
                              rng=np.random.default_rng(seed)))


def _mixed(base):
    """The instance with its even items picked up at the previous
    customer instead of the depot."""
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
    Then a tour grown by insert_single and a fresh build of its stops,
    which share a content key, must price every pickup-delivery item bit
    for bit alike: prices read only what the stop list determines.
    Returns the hits of depot-pickup and of pickup-delivery items, and the
    keys whose hit was wrong.
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
            sol = regret_construct(inst, Solution(inst, brackets=brackets),
                                   improve_hook=lambda s: relocate_pass(inst, s))
            relocate_pass(inst, sol)
            random_walk(inst, sol, rng, 12)

    inst = _mixed_td_instance(20, 50)
    grown = Tour(inst, inst.vehicles[0], [])
    for item in inst.items:
        if item.depot_pickup:
            plan = best_insertion(inst, grown, item)
            if plan is not None:
                apply_insertion(grown, item, plan)
    fresh = Tour(inst, grown.vehicle, grown.stops)
    assert grown.price_key(inst.items[0]) == fresh.price_key(inst.items[0])
    for item in inst.items:
        if not item.depot_pickup:
            prices = []
            for tour in (grown, fresh):
                try:
                    prices.append(cheapest_insertion(inst, tour, item))
                except Infeasible:
                    prices.append(None)
            if not _same_price(*prices):
                wrong.append(fresh.price_key(item))
    return hits, wrong


class TestSoftWindows:
    def test_penalty_charged_at_service_start(self):
        """Item 1 of grid_instance(4, seed=3) with its window narrowed to its
        last 120 s: a one-item tour arrives at 31 s and waits for the
        window, so service starts inside the last 5 minutes and pays $4,
        not the $1 of its arrival time."""
        base = grid_instance(4, seed=3)
        items = [dataclasses.replace(it, delivery_open=it.delivery_close - 120.0)
                 if it.id == 1 else it for it in base.items]
        inst = Instance(base.name, base.matrix, items, base.vehicles, horizon=base.horizon)
        stop = inst.item_by_id[1].stops()[0]
        hard = Tour(inst, inst.vehicles[0], [stop])
        soft = Tour(inst, inst.vehicles[0], [stop], SOFT)
        assert soft.schedule.t0 == hard.schedule.t0
        assert soft.schedule.total_cost - hard.schedule.total_cost == pytest.approx(4.0)
        # the validator rebuilds the tour from its actions and agrees
        assert validate(Solution(inst, [soft], unserved=[2, 3, 4]), inst).feasible


    @staticmethod
    def _city8():
        """city8 seed 1 after generate_td at seed 1."""
        return generate_td(make_benchmark_instance(8, seed=1),
                           rng=np.random.default_rng(1))

    def test_new_tour_price_pays_the_brackets(self):
        """Opening a tour for an item costs the vehicle's fixed cost plus
        the bracketed one-item tour, as every tour the solve opens pays
        its brackets."""
        inst = self._city8()
        sol = Solution(inst, brackets=SOFT)
        veh = inst.vehicles[0]
        for item in inst.items:
            price, _ = construct.new_tour_cost(sol, veh, item)
            tour = Tour(inst, veh, item.stops(), SOFT)
            assert price == pytest.approx(veh.fixed_cost + tour.schedule.total_cost,
                                          rel=1e-12), item.id

    def test_list_brackets_plan_like_tuples(self):
        inst = self._city8()
        plans = [serialize_solution(solve(inst, SolverConfig(
            seed=1, iterations=3, soft_brackets=brackets)))
            for brackets in (SOFT, [[15, 1], [10, 2], [5, 4]])]
        assert plans[0] == plans[1]

    def test_misordered_brackets_raise_before_any_tour(self, monkeypatch):
        built = []
        real = Tour.__init__

        def counted(self, *args):
            built.append(args)
            real(self, *args)

        monkeypatch.setattr(Tour, "__init__", counted)
        with pytest.raises(ValueError, match="strictly decrease"):
            solve(self._city8(), SolverConfig(soft_brackets=((10, 1), (15, 2))))
        assert built == []


class TestPriceMemo:
    """Memoised insertion and removal prices equal uncached ones."""

    def test_every_hit_equals_a_fresh_price(self, monkeypatch):
        hits, wrong = _audit_memo(monkeypatch)
        assert hits[True] > 0 and hits[False] > 0
        assert wrong == []

    def test_vehicles_differing_in_id_alone_share_content_ids(self):
        """A price reads no vehicle id, so twins share their prices."""
        inst = grid_instance(3, seed=7, n_vehicles=2)
        veh = inst.vehicles[0]
        stops = inst.items[0].stops()
        cid = inst.content_id(veh, stops, ())
        assert inst.content_id(dataclasses.replace(veh, id=veh.id + 100), stops, ()) == cid
        dearer = dataclasses.replace(veh, fixed_cost=veh.fixed_cost + 1.0)
        assert inst.content_id(dearer, stops, ()) != cid

    @pytest.mark.parametrize("mutant", ["brackets"])
    def test_audit_catches_an_unsound_key(self, monkeypatch, mutant):
        # content ids interned without the brackets
        real = Instance.content_id
        monkeypatch.setattr(Instance, "content_id",
                            lambda self, vehicle, stops, _: real(self, vehicle, stops, ()))
        _, wrong = _audit_memo(monkeypatch)
        assert wrong


def _pd_pricing_cases(sizes_seeds):
    """(tour, item) for every pickup-delivery item outside a tour: the
    tours of regret solves of mixed instances, without and with brackets,
    plus the sub-tours that keep the first 2/3 and 1/3 of their items."""
    cases = []
    for n, seed in sizes_seeds:
        inst = _mixed_td_instance(n, seed)
        for brackets in ((), SOFT):
            sol = regret_construct(inst, Solution(inst, brackets=brackets))
            for tour in sol.tours:
                ids = tour.item_ids
                tours = [tour]
                for keep in (2 * len(ids) // 3, len(ids) // 3):
                    stops = [s for s in tour.stops if s.item_id in ids[:keep]]
                    try:
                        tours.append(Tour(inst, tour.vehicle, stops, brackets))
                    except EmptyDomain:
                        pass
                cases += [(t, item) for t in tours for item in inst.items
                          if not item.depot_pickup and item.id not in t.item_ids]
    return cases


def _sweep_disagreements(cases, price=cheapest_insertion):
    """The cases where ``price`` disagrees with the three-branch reference
    over a k = 2 store: in feasibility, by more than 1e-9 in the delta, or
    in a position that is not a tie within 1e-9 at the reference."""
    bad = []
    for tour, item in cases:
        ref = pair_prices_reference(tour, item)
        try:
            plan = price(tour.instance, tour, item)
        except Infeasible:
            plan = None
        if plan is None or not ref:
            if plan is not None or ref:
                bad.append((tour.stops, item.id, plan, ref))
            continue
        best = min(ref.values())
        pos = (plan.pickup_pos, plan.delivery_pos)
        if (abs(plan.delta_cost - best) > 1e-9 or pos not in ref
                or ref[pos] - best > 1e-9):
            bad.append((tour.stops, item.id, plan, best))
    return bad


class TestPairSweep:
    """Pickup-delivery prices from the fold sweep equal the three-branch
    prices over a k = 2 store."""

    def test_sweep_matches_the_k2_reference(self):
        cases = _pd_pricing_cases([(24, s) for s in (11, 12, 13, 14, 15)])
        assert len(cases) >= 1000
        assert _sweep_disagreements(cases) == []

    def test_a_head_that_never_grows_fails(self):
        stuck = mutant(cheapest_insertion,
                       "head = act if head is None else compose(head, act)",
                       "head = act if head is None else head")
        cases = _pd_pricing_cases([(16, 11)])
        assert _sweep_disagreements(cases, stuck)


class TestWindowScreen:
    """The window screen never discards a feasible position."""

    @pytest.mark.parametrize("brackets", [(), SOFT], ids=["hard", "soft"])
    @pytest.mark.parametrize("td", [False, True], ids=["const", "td"])
    def test_exhaustive_scan_equals_brute_force(self, td, brackets):
        """Tours grown by seeded cheapest insertions on mixed instances:
        for every item outside a tour, the unpruned scan's delta equals,
        within 1e-9, the least delta over fresh tours at every position
        or position pair, and it raises Infeasible exactly when no fresh
        tour exists."""
        checked = collections.Counter()
        for seed in (11, 12, 13):
            base = make_benchmark_instance(24, seed=seed)
            if td:
                base = generate_td(base, rng=np.random.default_rng(seed))
            inst = _mixed(base)
            rng = random.Random(seed)
            # tours filled to several lengths, so that some items outside
            # them fit and some do not
            for veh, n_tried in zip(inst.vehicles, (12, 16, 20)):
                tour = Tour(inst, veh, [], brackets)
                for item in rng.sample(inst.items, n_tried):
                    plan = best_insertion(inst, tour, item)
                    if plan is not None:
                        apply_insertion(tour, item, plan)
                for item in inst.items:
                    if item.id in tour.item_ids:
                        continue
                    want = brute_insertion(inst, tour, item)
                    try:
                        got = cheapest_insertion(inst, tour, item, prune=False).delta_cost
                    except Infeasible:
                        got = None
                    if want is None or got is None:
                        assert got is want, (tour.stops, item.id, got, want)
                    else:
                        assert abs(got - want) <= 1e-9, (tour.stops, item.id, got, want)
                    checked[item.depot_pickup, want is not None] += 1
        # (depot pickup, feasible): each of the four kinds of case occurs
        assert len(checked) == 4 and min(checked.values()) >= 2, checked


def _stepped(base):
    """The instance with a stepped cost on every arc: a dollar per 100 s
    of its least travel time, a quarter of that from 16:00 to 19:00."""
    def stepped(a):
        c = a.travel_bounds().lo / 100.0
        return Atf(ts=list(a.ts), vs=list(a.vs),
                   cost=StepCost(c, [(16 * 3600.0, 0.25 * c), (19 * 3600.0, c)]))
    matrix = [[stepped(a) for a in row] for row in base.matrix]
    return Instance(base.name + "_stepped", matrix, base.items, base.vehicles,
                    horizon=base.horizon, depot=base.depot)


def _bracketed_tours(kinds, seeds, n_customers=24):
    """(instance, tour) over city instances of each kind ("const", "td",
    "stepped": time-dependent arcs with stepped costs) under SOFT
    brackets, with tours grown by seeded cheapest insertions to several
    lengths."""
    out = []
    for kind in kinds:
        for seed in seeds:
            inst = make_benchmark_instance(n_customers, seed=seed)
            if kind != "const":
                inst = generate_td(inst, rng=np.random.default_rng(seed))
            if kind == "stepped":
                inst = _stepped(inst)
            rng = random.Random(seed)
            for veh, n_tried in zip(inst.vehicles, (8, 12, 16)):
                tour = Tour(inst, veh, [], SOFT)
                for item in rng.sample(inst.items, n_tried):
                    plan = best_insertion(inst, tour, item)
                    if plan is not None:
                        apply_insertion(tour, item, plan)
                out.append((inst, tour))
    return out


def _floor_screen_disagreements(cases, monkeypatch):
    """Compare ``prune=True`` with ``prune=False`` on every depot-pickup
    item outside each tour: the cases whose plans differ (in positions
    or in any bit of the delta), the number of pairs, and the positions
    each priced (``eval_single_insertion`` calls)."""
    calls = collections.Counter()
    real = insertion.eval_single_insertion

    def counted(*args):
        calls["priced"] += 1
        return real(*args)

    monkeypatch.setattr(insertion, "eval_single_insertion", counted)
    bad, pairs, priced = [], 0, {}
    for inst, tour in cases:
        for item in inst.items:
            if item.id in tour.item_ids:
                continue
            plans = []
            for prune in (True, False):
                before = calls["priced"]
                try:
                    plans.append(cheapest_insertion(inst, tour, item, prune=prune))
                except Infeasible:
                    plans.append(None)
                priced[prune] = priced.get(prune, 0) + calls["priced"] - before
            pairs += 1
            if plans[0] != plans[1] or (plans[0] is not None and not _same_price(
                    plans[0].delta_cost, plans[1].delta_cost)):
                bad.append((tour.stops, item.id, *plans))
    return bad, pairs, priced


class TestFloorScreen:
    """Under soft-window brackets a depot-pickup item is priced cheapest
    floor first, and returns exactly what the exhaustive scan returns."""

    def test_pruned_plan_equals_the_exhaustive_one(self, monkeypatch):
        cases = _bracketed_tours(("const", "td", "stepped"), range(11, 15))
        bad, pairs, priced = _floor_screen_disagreements(cases, monkeypatch)
        assert pairs >= 300
        assert bad == []
        assert priced[True] < priced[False]

    def test_a_raised_floor_is_caught(self, monkeypatch):
        raised = mutant(insertion_floor, "+ _least(inst.arc(stop.address, nxt_addr).cost))",
                        "+ _least(inst.arc(stop.address, nxt_addr).cost) + 1.0)")
        monkeypatch.setattr(insertion, "insertion_floor", raised)
        cases = _bracketed_tours(("const", "td", "stepped"), range(11, 15))
        bad, _, _ = _floor_screen_disagreements(cases, monkeypatch)
        assert bad

    @pytest.mark.parametrize("kind", ["const", "td", "stepped"])
    def test_floor_is_a_lower_bound(self, kind):
        """At every position where a fresh tour exists, the floor is at
        most the brute-force delta plus the screen's margin."""
        checked = 0
        for inst, tour in _bracketed_tours((kind,), (11, 12)):
            base = tour.schedule.total_cost
            margin = 1e-9 * (1.0 + abs(base))
            stops = tour.stops
            for item in inst.items:
                if item.id in tour.item_ids:
                    continue
                d = item.stops()[0]
                for p in range(len(stops) + 1):
                    try:
                        fresh = Tour(inst, tour.vehicle, stops[:p] + [d] + stops[p:], SOFT)
                    except EmptyDomain:
                        continue
                    delta = fresh.schedule.total_cost - base
                    assert insertion_floor(tour, p, d) <= delta + margin, (stops, item.id, p)
                    checked += 1
        assert checked >= 300

    def test_near_ties_pick_the_sequential_winner(self):
        """Seeded position lists with some positions infeasible and deltas
        in two clusters of near-ties chained 1e-12 apart, one at 5 and one
        just above 5 + margin, plus far ones; floors at or below the deltas,
        some tight.  The floor-ordered pick is the one the sequential rule
        makes over every position, also when it prices only some."""
        margin = 6e-9
        skipped = 0
        for seed in range(300):
            rng = random.Random(seed)
            deltas = []
            for _ in range(rng.randint(1, 14)):
                r = rng.random()
                step = rng.randint(-3, 3) * rng.choice((0.5e-12, 0.9e-12, 1e-12))
                if r < 0.15:
                    deltas.append(None)
                elif r < 0.55:
                    deltas.append(5.0 + step)
                elif r < 0.9:
                    deltas.append(5.0 + 1e-8 + step)
                else:
                    deltas.append(5.0 + rng.uniform(1e-8, 3.0))
            floors = [(rng.uniform(-5.0, 0.0) if d is None
                       else d - rng.choice((0.0, 0.0, 1e-13, 1e-10, rng.uniform(0.0, 3.0))), p)
                      for p, d in enumerate(deltas)]
            seq = None
            for p, d in enumerate(deltas):
                if d is not None and (seq is None or d < seq[1] - 1e-12):
                    seq = (p, d)
            priced = []

            def price(p):
                priced.append(p)
                return deltas[p]

            assert cheapest_by_floor(floors, price, margin) == seq, seed
            skipped += len(priced) < len(deltas)
        assert skipped >= 100


def _kind_instance(kind, seed):
    """(instance, brackets) of one kind: a planted instance with constant
    arcs ("planted"), a time-dependent city ("td"), the same under SOFT
    brackets ("soft"), its mixed pickup-and-delivery twin ("pd"), and the
    city with vehicles whose capacity and duration cap bind ("capped")."""
    if kind == "planted":
        return make_planted_instance(30, seed=seed)[0], ()
    base = generate_td(make_benchmark_instance(24, seed=seed),
                       rng=np.random.default_rng(seed))
    if kind == "pd":
        return _mixed(base), ()
    if kind == "capped":
        vehicles = [dataclasses.replace(v, capacity=6.0, max_duration=4500.0)
                    for v in base.vehicles]
        return Instance(base.name + "_capped", base.matrix, base.items, vehicles,
                        horizon=base.horizon, depot=base.depot), ()
    return base, (SOFT if kind == "soft" else ())


RELOCATION_KINDS = ("planted", "td", "soft", "pd", "capped")


def _grown_tours(kind, seed):
    """(instance, tour) pairs: tours of the kind's instance grown by seeded
    cheapest insertions to several lengths."""
    inst, brackets = _kind_instance(kind, seed)
    rng = random.Random(seed)
    out = []
    for veh, n_tried in zip(inst.vehicles, (6, 10, 14)):
        tour = Tour(inst, veh, [], brackets)
        for item in rng.sample(inst.items, n_tried):
            plan = best_insertion(inst, tour, item)
            if plan is not None:
                apply_insertion(tour, item, plan)
        out.append((inst, tour))
    return out


def _relocation_bound_violations(cases):
    """Check ``insertion_floors`` and ``removal_bound`` against the
    exhaustive prices on each tour: every depot-pickup item outside it
    (its floor at most the ``prune=False`` delta plus the margin, and
    +inf only when that raises Infeasible) and every depot-pickup item in
    it (the bound at least its removal's saving minus the margin); a
    pickup-and-delivery item's floor is -inf and its bound +inf.  Returns
    the violations and how many of each case were checked."""
    bad, checked = [], collections.Counter()
    for inst, tour in cases:
        floors = insertion_floors(tour)
        margin = 1e-9 * (1.0 + abs(tour.schedule.total_cost))
        for item in inst.items:
            floor = floors[inst.item_slot[item.id]]
            if item.id in tour.item_ids:
                bound = insertion.removal_bound(tour, item)
                if not item.depot_pickup:
                    checked["pd"] += 1
                    if bound != math.inf:
                        bad.append(("pd bound", tour.stops, item.id, bound))
                    continue
                delta = localsearch._removal_delta(tour, item)
                if delta is not None:
                    checked["removal"] += 1
                    if -delta > bound + margin:
                        bad.append(("removal", tour.stops, item.id, -delta, bound))
                continue
            if not item.depot_pickup:
                checked["pd"] += 1
                if floor != -math.inf:
                    bad.append(("pd floor", tour.stops, item.id, floor))
                continue
            try:
                delta = cheapest_insertion(inst, tour, item, prune=False).delta_cost
            except Infeasible:
                checked["infeasible", bool(floor == math.inf)] += 1
                continue
            checked["insertion"] += 1
            if not floor <= delta + margin:
                bad.append(("insertion", tour.stops, item.id, delta, floor))
    return bad, checked


def _bound_cases():
    return [case for kind in RELOCATION_KINDS for seed in (21, 22)
            for case in _grown_tours(kind, seed)]


class TestRelocationBounds:
    """The floors and bounds that relocation skips moves by are sound."""

    def test_floors_and_removal_bounds_hold(self):
        bad, checked = _relocation_bound_violations(_bound_cases())
        assert bad == []
        assert checked["insertion"] >= 200 and checked["removal"] >= 150, checked
        assert checked["pd"] >= 60, checked
        # infeasible items, with and without an infinite floor
        assert checked["infeasible", True] >= 100, checked
        assert checked["infeasible", False] >= 100, checked

    @pytest.mark.parametrize("target,old,new", [
        ("_insertion_floors", "+ t.least[np.ix_(t.addr, nxt)].T)",
         "+ t.least[np.ix_(t.addr, nxt)].T + 1.0)"),
        ("removal_bound", "return tour.schedule.total_cost - (",
         "return tour.schedule.total_cost - 1.0 - ("),
    ], ids=["floor-raised", "bound-lowered"])
    def test_a_dollar_off_is_caught(self, monkeypatch, target, old, new):
        monkeypatch.setattr(insertion, target, mutant(getattr(insertion, target), old, new))
        bad, _ = _relocation_bound_violations(_bound_cases())
        assert bad

    def test_floors_are_the_scalar_floors(self, monkeypatch):
        """An item's floor on a tour is at most the least ``insertion_floor``
        over the positions that the window screen passes, and equal to it
        bit for bit unless the loosened screen passes more."""
        passed = []

        def unpriceable(tour, pos, stop):
            passed.append(pos)
            raise EmptyDomain("every screened position is recorded, none priced")

        monkeypatch.setattr(insertion, "eval_single_insertion", unpriceable)
        equal = 0
        for inst, tour in _grown_tours("soft", 21) + _grown_tours("capped", 21):
            floors = insertion_floors(tour)
            for item in inst.items:
                if item.id in tour.item_ids or not item.depot_pickup:
                    continue
                passed.clear()
                with pytest.raises(Infeasible):
                    cheapest_insertion(inst, tour, item, prune=False)
                d = item.stops()[0]
                scalar = min((insertion_floor(tour, p, d) for p in passed), default=math.inf)
                floor = floors[inst.item_slot[item.id]]
                assert floor <= scalar
                equal += bool(floor == scalar)
        assert equal >= 100


def _relocation_case(kind, seed, walked):
    """A fresh instance of the kind and a regret construction on it; after
    a walk move when walked: a seeded run torn out of a seeded tour and
    reinserted by regret."""
    inst, brackets = _kind_instance(kind, seed)
    sol = regret_construct(inst, Solution(inst, brackets=brackets))
    if walked:
        rng = random.Random(seed)
        tour = sol.tours[rng.randrange(len(sol.tours))]
        runs = localsearch._item_runs(tour)
        ids = runs[rng.randrange(len(runs))][2]
        tour.set_stops([s for s in tour.stops if s.item_id not in ids])
        sol.drop_empty_tours()
        regret_construct(inst, sol, items=[inst.item_by_id[i] for i in ids])
    return inst, sol


class TestRelocationScreen:
    def test_pass_equals_the_exhaustive_pass(self, monkeypatch):
        """On seeded solutions of every kind, after construction and after a
        walk move, ``relocate_pass`` leaves the same stop lists and
        unserved items and returns the same as pricing every move, and it
        calls ``cheapest_insertion`` fewer times."""
        calls = collections.Counter()
        real = insertion.cheapest_insertion

        def counted(*args, **kwargs):
            calls["now"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(insertion, "cheapest_insertion", counted)
        gained = 0
        for kind in RELOCATION_KINDS:
            for seed in (31, 32):
                for walked in (False, True):
                    out = {}
                    for name, relocate in (("reference", relocate_pass_reference),
                                           ("screened", relocate_pass)):
                        inst, sol = _relocation_case(kind, seed, walked)
                        before = calls["now"]
                        got = relocate(inst, sol)
                        calls[name] += calls["now"] - before
                        out[name] = (got, [(t.vehicle.id, t.stops) for t in sol.tours],
                                     sol.unserved)
                    assert out["screened"] == out["reference"], (kind, seed, walked)
                    gained += out["screened"][0]
        assert gained >= 8
        assert calls["screened"] < calls["reference"], calls


def _validated_cost(inst, tour):
    """The tour's schedule cost as ``validate`` recomputes it."""
    others = {it.id for it in inst.items} - set(tour.item_ids)
    rep = validate(Solution(inst, [tour], others), inst)
    assert rep.feasible, str(rep)
    return (rep.computed_cost - tour.vehicle.fixed_cost
            - sum(inst.item_by_id[i].penalty for i in others))


class TestFromScratch:
    """Every price a solve makes equals a rebuild from scratch."""

    @pytest.mark.parametrize("brackets", [(), SOFT], ids=["hard", "soft"])
    def test_priced_moves_equal_rebuilt_tours(self, monkeypatch, brackets):
        """Each priced single insertion, pair insertion and removal of a
        mixed solve: its delta equals the cost of a Tour built over the new
        stop list minus the tour's, and the same difference of the costs
        validate() recomputes, within 1e-6; infeasible prices are
        infeasible rebuilds."""
        priced = []   # (vehicle, old stops, old cost, new stops, delta or None)

        def record(tour, new_stops, atf):
            sched = None if atf is None else schedule_tour(tour.vehicle, atf)
            priced.append((tour.vehicle, list(tour.stops), tour.schedule.total_cost,
                           new_stops, None if sched is None else
                           sched.total_cost - tour.schedule.total_cost))

        def recording(fn, new_stops_of):
            def wrapped(tour, *args):
                try:
                    atf = fn(tour, *args)
                except EmptyDomain:
                    record(tour, new_stops_of(tour, *args), None)
                    raise
                record(tour, new_stops_of(tour, *args), atf)
                return atf
            return wrapped

        monkeypatch.setattr(insertion, "eval_single_insertion", recording(
            insertion.eval_single_insertion,
            lambda tour, pos, stop: tour.stops[:pos] + [stop] + tour.stops[pos:]))
        monkeypatch.setattr(insertion, "eval_pair_insertion", recording(
            insertion.eval_pair_insertion, lambda tour, head, q, hyp: hyp))
        real_removal = localsearch._removal_delta

        def removal(tour, item):
            delta = real_removal(tour, item)
            new_stops = [s for s in tour.stops if s.item_id != item.id]
            if new_stops:
                priced.append((tour.vehicle, list(tour.stops), tour.schedule.total_cost,
                               new_stops, delta))
            return delta

        monkeypatch.setattr(localsearch, "_removal_delta", removal)
        # relocation prices only the removals that can pay; so that the
        # sample holds every removal it could price, each pass first
        # prices the removal of every item its solution serves
        real_relocate = localsearch.relocate_pass

        def pricing_every_removal(instance, solution, *args, **kwargs):
            for tour in solution.tours:
                for item_id in tour.item_ids:
                    localsearch._removal_gain(instance, tour, instance.item_by_id[item_id])
            return real_relocate(instance, solution, *args, **kwargs)

        monkeypatch.setattr(localsearch, "relocate_pass", pricing_every_removal)
        monkeypatch.setattr(engine, "relocate_pass", pricing_every_removal)
        inst = _mixed_td_instance(10, 7)
        solve(inst, SolverConfig(seed=2, iterations=4, soft_brackets=brackets))

        checked = {1: 0, 2: 0, -1: 0, -2: 0}
        for veh, old, old_cost, new, delta in priced:
            try:
                fresh = Tour(inst, veh, new, brackets)
            except EmptyDomain:
                assert delta is None
                continue
            assert delta is not None
            assert delta == pytest.approx(fresh.schedule.total_cost - old_cost, abs=1e-6)
            # validate() skips an empty tour; its cost is the bare depot round trip
            base = _validated_cost(inst, Tour(inst, veh, old, brackets)) if old else old_cost
            assert delta == pytest.approx(_validated_cost(inst, fresh) - base, abs=1e-6)
            checked[len(new) - len(old)] += 1
        # feasible one-stop and two-stop insertions and removals
        assert min(checked.values()) >= 20, checked


def _tour_state(tour):
    """Bytes of everything a tour derives from its stop list: every
    prefix and suffix fold, the schedule and the loads."""
    st = tour.store
    folds = st.pre[1:] + st.suf[:-1]
    return (tuple(tour.stops),
            [bits(*a.ts) + bits(*a.vs) + cost_bits(a.cost) for a in folds],
            bits(*dataclasses.astuple(tour.schedule)),
            bits(*tour.loads))


class TestTourEdits:
    """``Tour.set_stops`` refolds its store over the changed actions only,
    and reads as a tour built afresh."""

    @pytest.mark.parametrize("brackets", [(), SOFT], ids=["hard", "soft"])
    def test_seeded_edits_equal_fresh_tours(self, brackets):
        """Seeded single insertions, pickup-delivery insertions, removals
        and tear-outs on the tours of a mixed TD construction: after each
        edit that succeeds the tour is bit for bit ``Tour(inst, veh,
        stops, brackets)``; after each that raises EmptyDomain the stop
        list is infeasible and the tour is bit for bit what it was."""
        inst = _mixed_td_instance(16, 70)
        sol = regret_construct(inst, Solution(inst, brackets=brackets))
        rng = random.Random(71)
        done = collections.Counter()
        for tour in sol.tours:
            for _ in range(40):
                stops = tour.stops
                m = len(stops)
                outside = [it for it in inst.items if it.id not in tour.item_ids]
                kind = rng.choice(("single", "pair", "remove", "tear"))
                if kind == "single":
                    item = rng.choice([it for it in outside if it.depot_pickup])
                    pos = rng.randrange(m + 1)
                    new = stops[:pos] + item.stops() + stops[pos:]
                    edit = partial(tour.insert_single, pos, item.stops()[0])
                elif kind == "pair":
                    item = rng.choice([it for it in outside if not it.depot_pickup])
                    p = rng.randrange(m + 1)
                    q = rng.randrange(p, m + 1)
                    pick, drop = item.stops()
                    new = stops[:p] + [pick] + stops[p:q] + [drop] + stops[q:]
                    edit = partial(apply_insertion, tour, item, InsertionPlan(p, q, 0.0))
                else:
                    if not m:
                        continue
                    runs = localsearch._item_runs(tour)
                    ids = (runs[rng.randrange(len(runs))][2] if kind == "tear"
                           else (rng.choice(tour.item_ids),))
                    new = [s for s in stops if s.item_id not in ids]
                    edit = partial(tour.set_stops, new)
                before = _tour_state(tour)
                try:
                    edit()
                except EmptyDomain:
                    done[kind, False] += 1
                    assert _tour_state(tour) == before
                    with pytest.raises(EmptyDomain):
                        Tour(inst, tour.vehicle, new, brackets)
                    continue
                done[kind, True] += 1
                assert tour.stops == new
                assert _tour_state(tour) == _tour_state(
                    Tour(inst, tour.vehicle, new, brackets))
        for kind in ("single", "pair", "remove", "tear"):
            assert done[kind, True] >= 5, done
        assert done["single", False] >= 5 and done["pair", False] >= 5, done

    def test_solves_equal_from_scratch_edits(self, monkeypatch):
        """Mixed TD solves, brackets off and on, write the same plans byte
        for byte when every edit rebuilds the tour from scratch."""
        def plans():
            out = []
            for seed in (11, 12):
                inst = _mixed_td_instance(14, seed)
                for brackets in ((), SOFT):
                    out.append(serialize_solution(solve(inst, SolverConfig(
                        seed=1, iterations=4, soft_brackets=brackets))))
            return out

        want = plans()
        calls = []

        def counted(tour, stops):
            calls.append(len(stops))
            set_stops_reference(tour, stops)

        monkeypatch.setattr(Tour, "set_stops", counted)
        assert plans() == want
        assert len(calls) > 100
