"""Seed selection and average-regret construction."""

from __future__ import annotations

import itertools

from ..plf import EmptyDomain
from .insertion import apply_insertion, best_insertion
from .model import Solution

NO_VEHICLE_COST = 1e6
FRIEND_RATIO = 0.75


def _single_item_lb(instance, vehicle, item):
    """Travel lower bound of serving the item alone."""
    lo = instance.lo_travel
    if item.depot_pickup:
        return (lo(vehicle.start_address, item.delivery_address)
                + lo(item.delivery_address, vehicle.end_address))
    return (lo(vehicle.start_address, item.pickup_address)
            + lo(item.pickup_address, item.delivery_address)
            + lo(item.delivery_address, vehicle.end_address))


_PAIR_ORDERS = [seq for seq in itertools.permutations("AaBb")
                if seq.index("A") < seq.index("a") and seq.index("B") < seq.index("b")]


def _pair_lb(instance, vehicle, i1, i2):
    """Travel lower bound of serving both items in one tour."""
    lo = instance.lo_travel
    addr = {
        "A": vehicle.start_address if i1.depot_pickup else i1.pickup_address,
        "a": i1.delivery_address,
        "B": vehicle.start_address if i2.depot_pickup else i2.pickup_address,
        "b": i2.delivery_address,
    }
    best = None
    for order in _PAIR_ORDERS:
        seq = [vehicle.start_address] + [addr[c] for c in order] + [vehicle.end_address]
        tot = sum(lo(seq[i], seq[i + 1]) for i in range(len(seq) - 1))
        if best is None or tot < best:
            best = tot
    return best


def select_seeds(instance):
    """Greedy maximal set of important, pairwise non-friend items.

    Items are ranked by importance, their penalty plus the travel lower
    bound of serving them alone (``_single_item_lb``): hard-to-handle
    items seed their own tours.  Two items are friends when the bound of
    serving both in one tour (``_pair_lb``) is at most ``FRIEND_RATIO`` of
    the sum of their single bounds.  Each ranked item is checked only
    against the seeds chosen so far, at most one per vehicle, so no
    friend graph over all pairs is built.  The order of a pair does not
    matter: swapping the items maps the precedence-feasible orders onto
    the same address sequences, so the bound and the ratio are equal
    bit for bit.
    """
    if not instance.vehicles:
        return []
    veh = instance.vehicles[0]
    single = {it.id: _single_item_lb(instance, veh, it) for it in instance.items}

    def friends(a, b):
        denom = single[a.id] + single[b.id]
        return denom > 1e-9 and _pair_lb(instance, veh, a, b) / denom <= FRIEND_RATIO

    ranked = sorted(instance.items, key=lambda it: (-(it.penalty + single[it.id]), it.id))
    seeds = []
    for it in ranked:
        if len(seeds) >= len(instance.vehicles):
            break
        if not any(friends(seed, it) for seed in seeds):
            seeds.append(it)
    return seeds


def new_tour_cost(solution, vehicle, item):
    """Cost of opening a fresh tour of the solution for the item alone,
    under the solution's brackets, or None."""
    try:
        tour = solution.new_tour(vehicle)
    except EmptyDomain:
        return None, None
    plan = best_insertion(solution.instance, tour, item)
    if plan is None:
        return None, None
    return vehicle.fixed_cost + plan.delta_cost + tour.schedule.total_cost, plan


def regret_construct(instance, solution=None, items=None, improve_hook=None):
    """Insert items by maximum average regret into the solution (a fresh
    one without brackets when None); every tour opened is the solution's
    ``new_tour``, so it pays the solution's brackets.

    With ``items`` None the construction starts from scratch: a seed tour
    per ``select_seeds`` item, then every item neither served nor
    unserved.  Otherwise only the given items are inserted.

    The regret of an item is the mean of its insertion cost over all open
    tours (an infeasible tour contributes the cost of a fresh tour, or a
    large constant when no vehicle is left) minus its cheapest insertion
    cost.
    """
    if solution is None:
        solution = Solution(instance)
    if items is None:
        free = solution.free_vehicles()
        for seed in select_seeds(instance):
            if not free:
                break
            tour = solution.new_tour(free.pop(0))
            plan = best_insertion(instance, tour, seed)
            if plan is None:
                solution.unserved.add(seed.id)
                continue
            apply_insertion(tour, seed, plan)
            solution.tours.append(tour)
        served = {i for t in solution.tours for i in t.item_ids}
        pool = [it for it in instance.items if it.id not in served
                and it.id not in solution.unserved]
    else:
        pool = list(items)

    nt_cache = {}
    inserted = 0
    while pool:
        best_pick = select_next_by_regret(instance, solution, pool, nt_cache)
        if best_pick is None:
            for item in pool:
                solution.unserved.add(item.id)
            break
        item, tour, plan = best_pick
        if tour is None:
            tour = solution.new_tour(solution.free_vehicles()[0])
            solution.tours.append(tour)
        apply_insertion(tour, item, plan)
        pool = [it for it in pool if it.id != item.id]
        inserted += 1
        if improve_hook is not None and inserted % 25 == 0:
            improve_hook(solution)
    return solution


def select_next_by_regret(instance, solution, pool, nt_cache=None):
    """The unserved item of maximum average regret and its best insertion.

    Ties go to the lower best insertion cost, then the smaller item id.
    Returns (item, tour-or-None-for-new, plan) or None when nothing fits.
    """
    nt_cache = nt_cache if nt_cache is not None else {}
    best_pick = None
    free = solution.free_vehicles()
    for item in sorted(pool, key=lambda it: it.id):
        plans = [(t, best_insertion(instance, t, item)) for t in solution.tours]
        if free:
            # keyed by vehicle content too: the first free vehicle changes
            # as tours open, and one that differs in its id alone prices alike
            key = (free[0].content, item.id)
            if key not in nt_cache:
                nt_cache[key] = new_tour_cost(solution, free[0], item)
            nt_cost, nt_plan = nt_cache[key]
        else:
            nt_cost, nt_plan = None, None
        sentinel = nt_cost if nt_cost is not None else NO_VEHICLE_COST
        costs = [p.delta_cost if p is not None else sentinel for _, p in plans]
        options = [(c, t, p) for c, (t, p) in zip(costs, plans) if p is not None]
        if nt_cost is not None:
            options.append((nt_cost, None, nt_plan))
        if not options:
            continue
        all_costs = costs + ([nt_cost] if nt_cost is not None else [])
        mean_cost = sum(all_costs) / len(all_costs)
        best_cost, best_tour, best_plan = min(options, key=lambda o: o[0])
        regret = mean_cost - best_cost
        key = (-regret, best_cost, item.id)
        if best_pick is None or key < best_pick[0]:
            best_pick = (key, item, best_tour, best_plan)
    if best_pick is None:
        return None
    return best_pick[1], best_pick[2], best_pick[3]
