"""Pricing item insertions into a tour.

Candidate positions are screened with travel-time lower bounds and the
tour's earliest/latest service-start arrays before any ATF is composed;
survivors are priced exactly through the tour's segment store plus a
rescheduling.  The window screen never discards a feasible position.
The cost screen (``prune``) is not a lower bound: its time term assumes
that a detour lengthens the tour, but waiting at a later window can
absorb the detour, so the pruned scan can return a dearer move than the
exhaustive one.
"""

from __future__ import annotations

from typing import NamedTuple

from ..plf import EmptyDomain
from .model import schedule_tour


class InsertionPlan(NamedTuple):
    pickup_pos: int | None  # None when the item is preloaded at the depot
    delivery_pos: int
    delta_cost: float


class Infeasible(Exception):
    """No position pair admits the item."""


def eval_single_insertion(tour, pos, stop):
    """Full-tour ATF with one stop inserted at element position pos."""
    hyp = tour.stops[:pos] + [stop] + tour.stops[pos:]
    inst, veh, br = tour.instance, tour.vehicle, tour.brackets
    mod = inst.action(veh, hyp, pos - 1, br)
    new = inst.action(veh, hyp, pos, br)
    return tour.store.eval_splice(pos + 1, pos + 1, [mod, new])


def eval_pair_insertion(tour, p, q, p_stop, d_stop):
    """Full-tour ATF with a pickup at p and its delivery at q >= p (both in
    original element coordinates)."""
    inst, veh, br = tour.instance, tour.vehicle, tour.brackets
    stops = tour.stops
    m = len(stops)
    hyp = stops[:p] + [p_stop] + stops[p:q] + [d_stop] + stops[q:]
    if q == p:
        repl = [inst.action(veh, hyp, p - 1, br),
                inst.action(veh, hyp, p, br),
                inst.action(veh, hyp, p + 1, br)]
        return tour.store.eval_splice(p + 1, p + 1, repl)
    if q <= m - 1:
        a_i = inst.action(veh, hyp, p - 1, br)
        a_p = inst.action(veh, hyp, p, br)
        a_j = inst.action(veh, hyp, q, br)
        a_d = inst.action(veh, hyp, q + 1, br)
        return tour.store.eval_insertion(p + 1, q + 1, a_i, a_p, a_j, a_d)
    # delivery appended at the tour end: splice the whole suffix
    repl = [inst.action(veh, hyp, p - 1, br),
            inst.action(veh, hyp, p, br)]
    if q > p + 1:
        repl.append(tour.store.query(p + 1, q))
    repl.append(inst.action(veh, hyp, q, br))
    repl.append(inst.action(veh, hyp, q + 1, br))
    return tour.store.eval_splice(p + 1, tour.store.n, repl)


def best_insertion(instance, tour, item):
    """``cheapest_insertion`` through the instance's price memo; None when
    the item fits nowhere in the tour."""
    def price():
        try:
            return cheapest_insertion(instance, tour, item)
        except Infeasible:
            return None

    return instance.price(tour.price_key(item), price)


def cheapest_insertion(instance, tour, item, prune=True):
    """Best insertion positions and exact cost delta, or raise Infeasible.

    Uses travel-time lower bounds and the tour's earliest/latest service
    windows to discard positions before composing anything; cost-based
    pruning is disabled while soft-window penalties are active (a detour
    can then reduce attached costs, so bounds would not be safe).

    Always prices afresh.  The solver calls it through ``best_insertion``,
    which memoises the plan on the instance for the rest of the solve
    under ``Tour.price_key``: the item id plus the tour's content id,
    interned from (vehicle, stops, brackets).  A pickup-delivery price
    also reads mid-range store queries, whose bits depend on the block
    layout ``insert_single`` leaves; it shares the content key only while
    the store is laid out as a fresh build, and is keyed by the tour
    revision otherwise.  Every hit is therefore bit for bit what this
    function returns on the live tour.
    """
    stops = tour.stops
    m = len(stops)
    veh = tour.vehicle
    rate = veh.time_cost_per_hour / 3600.0
    cost_prune = prune and not tour.brackets
    base_cost = tour.schedule.total_cost

    def prev_info(p):
        if p == 0:
            return veh.start_address, veh.avail_lo
        s = stops[p - 1]
        return s.address, tour.eat[p - 1] + s.duration

    def next_info(p):
        if p == m:
            return veh.end_address, tour.lst[m]
        return stops[p].address, tour.lst[p]

    best = None

    if item.depot_pickup:
        if tour.max_load + item.demand > veh.capacity + 1e-9:
            raise Infeasible(item.id)
        d = item.stops()[0]
        for p in range(m + 1):
            prev_addr, depart_lb = prev_info(p)
            arr_lb = depart_lb + instance.lo_travel(prev_addr, d.address)
            if arr_lb > d.close + 1e-9:
                break  # departures only get later further down the tour
            nxt_addr, latest_next = next_info(p)
            start_lb = max(arr_lb, d.open)
            if start_lb + d.duration + instance.lo_travel(d.address, nxt_addr) > latest_next + 1e-9:
                continue
            if cost_prune and best is not None:
                lb = (instance.arc_dist_cost(prev_addr, d.address)
                      + instance.arc_dist_cost(d.address, nxt_addr)
                      - instance.arc_dist_cost(prev_addr, nxt_addr))
                lb += rate * (instance.lo_travel(prev_addr, d.address) + d.duration
                              + instance.lo_travel(d.address, nxt_addr)
                              - instance.hi_travel(prev_addr, nxt_addr))
                if lb >= best.delta_cost - 1e-12:
                    continue
            try:
                atf = eval_single_insertion(tour, p, d)
            except EmptyDomain:
                continue
            sched = schedule_tour(veh, atf)
            if sched is None:
                continue
            delta = sched.total_cost - base_cost
            if best is None or delta < best.delta_cost - 1e-12:
                best = InsertionPlan(None, p, delta)
        if best is None:
            raise Infeasible(item.id)
        return best

    p_stop, d_stop = item.stops()
    for p in range(m + 1):
        prev_addr, depart_lb = prev_info(p)
        arr_p_lb = depart_lb + instance.lo_travel(prev_addr, p_stop.address)
        if arr_p_lb > p_stop.close + 1e-9:
            break
        start_p_lb = max(arr_p_lb, p_stop.open)
        run_max = tour.loads[p]
        for q in range(p, m + 1):
            run_max = max(run_max, tour.loads[q])
            if run_max + item.demand > veh.capacity + 1e-9:
                break
            if q == p:
                dep_d_lb = start_p_lb + p_stop.duration
                prev_d_addr = p_stop.address
            else:
                dep_d_lb = max(start_p_lb + p_stop.duration
                               + instance.lo_travel(p_stop.address, stops[p].address),
                               tour.eat[q - 1] + stops[q - 1].duration)
                prev_d_addr = stops[q - 1].address
            arr_d_lb = dep_d_lb + instance.lo_travel(prev_d_addr, d_stop.address)
            if arr_d_lb > d_stop.close + 1e-9:
                break
            nxt_addr, latest_next = next_info(q)
            start_d_lb = max(arr_d_lb, d_stop.open)
            if (start_d_lb + d_stop.duration
                    + instance.lo_travel(d_stop.address, nxt_addr)) > latest_next + 1e-9:
                continue
            try:
                atf = eval_pair_insertion(tour, p, q, p_stop, d_stop)
            except EmptyDomain:
                continue
            sched = schedule_tour(veh, atf)
            if sched is None:
                continue
            delta = sched.total_cost - base_cost
            if best is None or delta < best.delta_cost - 1e-12:
                best = InsertionPlan(p, q, delta)
    if best is None:
        raise Infeasible(item.id)
    return best


def apply_insertion(tour, item, plan):
    """Mutate the tour according to an InsertionPlan."""
    if item.depot_pickup:
        d = item.stops()[0]
        tour.insert_single(plan.delivery_pos, d)
        return
    p_stop, d_stop = item.stops()
    stops = tour.stops
    new = (stops[:plan.pickup_pos] + [p_stop]
           + stops[plan.pickup_pos:plan.delivery_pos] + [d_stop]
           + stops[plan.delivery_pos:])
    tour.set_stops(new)
