"""Pricing item insertions into a tour.

Candidate positions are screened with travel-time lower bounds and the
earliest and latest service starts that the tour store's prefix and
suffix folds hold, before any ATF is composed; survivors are priced
exactly from those folds plus a rescheduling.  The window screen never
discards a feasible position: each bound is exact for the prefix or
suffix it reads.

What the screen and the floors read of the folds is a bounds record
(``tour_bounds``), built once per tour content and kept beside the price
memo: per position, the addresses either side, the earliest departure
before and the latest start after, and the part of ``insertion_floor``
that does not depend on the item.  The window screen, ``insertion_floor``
and ``insertion_floors`` (every item's least floor over a tour, in one
array pass, which relocation reads) all read it, as does the
``removal_bound`` of an item the tour serves.

A depot-pickup item is also screened by cost (``prune``), in one of two
ways.  Under soft-window brackets each position gets a floor, a lower
bound on its delta (``insertion_floor``), and positions are priced
cheapest floor first until the next floor cannot beat the lowest price;
the result is bit for bit the exhaustive scan's.  Without brackets the
screen is an estimate, not a lower bound: its time term assumes that a
detour lengthens the tour, but waiting at a later window can absorb the
detour, so the pruned scan can return a dearer move than the
exhaustive one.
"""

from __future__ import annotations

import math
from operator import sub
from typing import NamedTuple

import numpy as np

from ..plf import EmptyDomain, compose
from .model import FAR_FUTURE, schedule_tour


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


def eval_pair_insertion(tour, head, q, hyp):
    """Full-tour ATF of hyp, the tour's stops with a pickup inserted and
    its delivery at hyp[q + 1], given the head: the composed actions of
    hyp up to the arrival at hyp[q], the stop before the delivery."""
    inst, veh, br = tour.instance, tour.vehicle, tour.brackets
    return tour.store.eval_splice(1, q + 1, [head, inst.action(veh, hyp, q, br),
                                             inst.action(veh, hyp, q + 1, br)])


def _least(cost):
    """The least value of a step cost."""
    return min((cost.init, *cost.cs))


def _fold_floor(rate, fold):
    """Rate times a fold's least travel time (least v - t over its
    breakpoints), plus its least step cost; 0 for no fold."""
    if fold is None:
        return 0.0
    return rate * min(map(sub, fold.vs, fold.ts)) + _least(fold.cost)


class TourBounds:
    """What the window screen and the cost floors read of one tour
    content, per element position p = 0..m of an m-stop tour.

    ``prev[p]`` and ``nxt[p]`` are the addresses before and after p;
    ``depart[p]`` is the earliest departure from prev (the vehicle's
    availability at the depot) and ``latest[p]`` the latest service start
    at nxt (its return deadline at the end depot).  ``pre_floor[p]`` and
    ``suf_floor[p]`` are ``_fold_floor`` of pre[p] and suf[p], and
    ``fold[p]`` is the item-free part of ``insertion_floor`` at p.
    ``floors`` is ``insertion_floors``, filled on first use.
    """

    __slots__ = ("prev", "nxt", "depart", "latest", "pre_floor", "suf_floor",
                 "fold", "floors")

    def __init__(self, tour):
        veh, stops = tour.vehicle, tour.stops
        m = len(stops)
        rate = veh.time_cost_per_hour / 3600.0
        pre, suf = tour.store.pre, tour.store.suf
        self.prev = [veh.start_address] + [s.address for s in stops]
        self.nxt = [s.address for s in stops] + [veh.end_address]
        self.depart = [veh.avail_lo] + [max(pre[i + 1].vs[0], s.open) + s.duration
                                        for i, s in enumerate(stops)]
        self.latest = [suf[p + 1].ts[-1] for p in range(m)] + [min(veh.avail_hi, FAR_FUTURE)]
        self.pre_floor = [_fold_floor(rate, f) for f in pre]
        self.suf_floor = [_fold_floor(rate, f) for f in suf]
        pen2 = 2.0 * _pen_min(tour)
        base = tour.schedule.total_cost
        prev_dur = [0.0] + [s.duration for s in stops]
        self.fold = [self.pre_floor[p] + self.suf_floor[p + 1] + rate * prev_dur[p]
                     + pen2 - base for p in range(m + 1)]
        self.floors = None


def tour_bounds(tour):
    """The tour's bounds record, built once per content and solve: the
    instance keeps it beside the price memo under the tour's content id,
    so retained tours hold nothing of it."""
    return tour.instance.bounds(tour, TourBounds)


def _pen_min(tour):
    """The least soft-window penalty of a stop: a penalty steps through 0
    and the bracket dollars."""
    return min((0.0, *(c for _, c in tour.brackets)))


def insertion_floor(tour, pos, stop):
    """A lower bound on the cost delta of inserting a depot-pickup stop at
    element position pos.

    The new tour is pre[pos] . mod . new . suf[pos + 1]: mod serves the
    stop before pos (the start depot serves nothing) and drives to the
    stop, new serves the stop and drives to the one after pos (or the end
    depot).  The vehicle's cost model is ``CostModel.hourly``: a start t0
    costs rate * (a(t0) - t0) plus the tour's step cost at t0, with no
    work-time rate.  Both terms add up over the four consecutive pieces,
    each read at the time the vehicle enters it, and each piece costs at
    least its least value: v - t is piecewise linear, so its least value
    is at a breakpoint, and a step cost is at least its least step.  mod
    takes at least the service of the stop before plus the least travel
    to the stop, and pays at least the arc's least cost plus a penalty;
    new likewise.  A penalty is at least ``_pen_min``.  A duration cap
    only removes starts.  Waiting only adds to a piece's v - t, so unlike
    the no-bracket estimate this bound holds however much waiting a detour
    absorbs.  The folds' part, the service before, both penalties and the
    old cost are the bounds record's ``fold``.
    """
    inst = tour.instance
    rec = tour_bounds(tour)
    rate = tour.vehicle.time_cost_per_hour / 3600.0
    prev_addr, nxt_addr = rec.prev[pos], rec.nxt[pos]
    return (rec.fold[pos]
            + rate * (inst.lo_travel(prev_addr, stop.address) + stop.duration
                      + inst.lo_travel(stop.address, nxt_addr))
            + _least(inst.arc(prev_addr, stop.address).cost)
            + _least(inst.arc(stop.address, nxt_addr).cost))


class _FloorTables(NamedTuple):
    """The instance arrays ``insertion_floors`` reads, built once per
    solve.  Items are in ``Instance.items`` order, and their fields are
    those of the delivery stop."""
    lo: np.ndarray       # least travel time, address by address (a view)
    least: np.ndarray    # least arc cost, address by address
    addr: np.ndarray
    open: np.ndarray
    close: np.ndarray
    duration: np.ndarray
    demand: np.ndarray
    pd: np.ndarray       # True for a pickup-and-delivery item


def _floor_tables(inst):
    items = inst.items
    return _FloorTables(
        inst.lo_matrix(),
        np.array([[_least(a.cost) for a in row] for row in inst.matrix]),
        np.array([it.delivery_address for it in items], dtype=np.intp),
        np.array([it.delivery_open for it in items]),
        np.array([it.delivery_close for it in items]),
        np.array([it.delivery_duration for it in items]),
        np.array([it.demand for it in items]),
        np.array([not it.depot_pickup for it in items], dtype=bool))


def insertion_floors(tour):
    """For every item of the instance, by item slot, a lower bound on the
    delta ``cheapest_insertion`` returns for it on this tour.

    A depot-pickup item's bound is its least ``insertion_floor`` over the
    positions that pass a loosened copy of the capacity and window
    screens: every position is tested, none ends the scan, and each test
    has 1e-6 of slack where the screen has 1e-9, so the positions kept
    are a superset of those the screen lets through, and the floors are
    the same float expressions as ``insertion_floor``'s.  The bound is
    +inf when no position passes, when ``cheapest_insertion`` raises
    ``Infeasible``.  A pickup-and-delivery item's bound is -inf.  One
    array pass over positions by items, memoised in the bounds record.
    """
    rec = tour_bounds(tour)
    if rec.floors is None:
        rec.floors = _insertion_floors(tour, rec)
    return rec.floors


def _insertion_floors(tour, rec):
    veh = tour.vehicle
    t = tour.instance.floor_tables(_floor_tables)
    rate = veh.time_cost_per_hour / 3600.0
    prev, nxt = np.array(rec.prev), np.array(rec.nxt)
    lo_in = t.lo[np.ix_(prev, t.addr)]       # position by item: prev -> item
    lo_out = t.lo[np.ix_(t.addr, nxt)].T     # item -> next
    arr = np.array(rec.depart)[:, None] + lo_in
    passes = ((np.array(tour.loads)[:, None] + t.demand <= veh.capacity + 1e-6)
              & (arr <= t.close + 1e-6)
              & (np.maximum(arr, t.open) + t.duration + lo_out
                 <= np.array(rec.latest)[:, None] + 1e-6))
    floor = (np.array(rec.fold)[:, None]
             + rate * (lo_in + t.duration + lo_out)
             + t.least[np.ix_(prev, t.addr)]
             + t.least[np.ix_(t.addr, nxt)].T)
    out = np.where(passes, floor, np.inf).min(axis=0)
    out[t.pd] = -np.inf
    return out


def removal_bound(tour, item):
    """An upper bound on what removing the item from the tour saves, that
    is on minus the delta that prices the removal; +inf for a
    pickup-and-delivery item.

    Removing the only stop saves the tour's cost, fixed cost included,
    exactly.  Otherwise, with the stop at position i, the tour becomes
    pre[i] . mod . suf[i + 2], where mod serves the stop before i and
    drives to the one after.  As in ``insertion_floor``, each piece costs
    at least its least value: the folds their ``_fold_floor``, and mod
    rate times the service before plus the least travel, plus the arc's
    least cost and a penalty.  The old cost minus that floor bounds the
    saving.
    """
    if not item.depot_pickup:
        return math.inf
    if len(tour.stops) == 1:
        return tour.cost
    inst = tour.instance
    rec = tour_bounds(tour)
    rate = tour.vehicle.time_cost_per_hour / 3600.0
    i = next(i for i, s in enumerate(tour.stops) if s.item_id == item.id)
    prev_addr, nxt_addr = rec.prev[i], rec.nxt[i + 1]
    prev_dur = tour.stops[i - 1].duration if i else 0.0
    return tour.schedule.total_cost - (
        rec.pre_floor[i]
        + rate * (prev_dur + inst.lo_travel(prev_addr, nxt_addr))
        + _least(inst.arc(prev_addr, nxt_addr).cost)
        + _pen_min(tour) + rec.suf_floor[i + 2])


def cheapest_by_floor(floors, price, margin):
    """The sequential rule's pick over positions priced cheapest floor
    first: (position, delta), or None when nothing is feasible.

    floors holds (floor, position) pairs, each floor a lower bound on the
    position's delta; price(position) is the delta, or None when
    infeasible.  Pricing stops at the first floor that is at least the
    lowest delta priced, L, plus margin.  The sequential rule (in
    position order, a delta wins if it is below the best so far by more
    than 1e-12) then runs over the priced positions alone.

    It picks what the rule picks over every position.  Drop one unpriced
    position, whose delta u is at least L + margin.  After L's position
    the best is within 1e-12 of L, so u there never wins.  Before it, the
    scans with and without u may hold different bests from u on; a step
    that moves one and not the other leaves it at most 1e-12 below the
    other, so over n positions both stay above u - n * 1e-12, and L
    displaces both, after which they agree.  A margin above
    (n + 1) * 1e-12, plus the floors' rounding, thus keeps the pick bit
    for bit; 1e-9 covers tours of hundreds of stops.
    """
    priced = []
    lowest = None
    for floor, pos in sorted(floors):
        if lowest is not None and floor >= lowest + margin:
            break
        delta = price(pos)
        if delta is not None:
            priced.append((pos, delta))
            if lowest is None or delta < lowest:
                lowest = delta
    best = None
    for pos, delta in sorted(priced):
        if best is None or delta < best[1] - 1e-12:
            best = (pos, delta)
    return best


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

    Uses travel-time lower bounds and the earliest and latest service
    starts read off the store's folds, through the tour's bounds record,
    to discard positions before composing anything: pre[i + 1] is the
    tour up to the arrival at stop i, so its first value is the earliest
    arrival there, and suf[i + 1] is the rest of the tour from that
    arrival, so its domain ends at the latest start.  With ``prune``, a depot-pickup item's positions are
    also screened by cost (see the module docstring).  Under soft-window
    brackets they are priced in the order of their ``insertion_floor``
    until a floor cannot beat the lowest price (``cheapest_by_floor``),
    which returns exactly what ``prune=False`` does.  Without brackets
    the screen is an estimate, not a lower bound: the pruned scan can
    return a dearer move than ``prune=False``.

    A pickup-delivery item is priced by a sweep per pickup position p.
    Its head composes the prefix fold before p with the action that
    leaves for the pickup, and grows by one of the tour's own actions per
    delivery position q; each price is the head, the two actions into and
    out of the delivery, and the suffix fold after q.  A head that
    composes to an empty domain ends the sweep for that p, since every
    later q extends it.

    Always prices afresh.  The solver calls it through ``best_insertion``,
    which memoises the plan on the instance for the rest of the solve
    under ``Tour.price_key``: the item id plus the tour's content id,
    interned from (vehicle, stops, brackets).  Folds and actions depend
    on the stop list alone, so every hit is bit for bit what this
    function returns on the live tour.
    """
    stops = tour.stops
    m = len(stops)
    veh = tour.vehicle
    rate = veh.time_cost_per_hour / 3600.0
    cost_prune = prune and not tour.brackets
    base_cost = tour.schedule.total_cost
    rec = tour_bounds(tour)
    prev_addrs, departs, nxt_addrs, latests = rec.prev, rec.depart, rec.nxt, rec.latest

    best = None

    if item.depot_pickup:
        d = item.stops()[0]
        floor_screen = prune and tour.brackets
        floors = []

        def price(p):
            try:
                atf = eval_single_insertion(tour, p, d)
            except EmptyDomain:
                return None
            sched = schedule_tour(veh, atf)
            return None if sched is None else sched.total_cost - base_cost

        for p in range(m + 1):
            if tour.loads[p] + item.demand > veh.capacity + 1e-9:
                break  # the item rides every leg up to its delivery
            prev_addr = prev_addrs[p]
            arr_lb = departs[p] + instance.lo_travel(prev_addr, d.address)
            if arr_lb > d.close + 1e-9:
                break  # departures only get later further down the tour
            nxt_addr = nxt_addrs[p]
            start_lb = max(arr_lb, d.open)
            if start_lb + d.duration + instance.lo_travel(d.address, nxt_addr) > latests[p] + 1e-9:
                continue
            if floor_screen:
                floors.append((insertion_floor(tour, p, d), p))
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
            delta = price(p)
            if delta is not None and (best is None or delta < best.delta_cost - 1e-12):
                best = InsertionPlan(None, p, delta)
        if floor_screen:
            pick = cheapest_by_floor(floors, price, 1e-9 * (1.0 + abs(base_cost)))
            if pick is not None:
                best = InsertionPlan(None, *pick)
        if best is None:
            raise Infeasible(item.id)
        return best

    p_stop, d_stop = item.stops()
    for p in range(m + 1):
        arr_p_lb = departs[p] + instance.lo_travel(prev_addrs[p], p_stop.address)
        if arr_p_lb > p_stop.close + 1e-9:
            break
        start_p_lb = max(arr_p_lb, p_stop.open)
        run_max = tour.loads[p]
        # the sweep's head composes the actions of with_p before action h
        # (h = -1 is START); it grows by the tour's own actions as q moves on
        with_p = stops[:p] + [p_stop] + stops[p:]
        head = tour.store.pre[p]
        h = p - 1
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
                               departs[q])
                prev_d_addr = stops[q - 1].address
            arr_d_lb = dep_d_lb + instance.lo_travel(prev_d_addr, d_stop.address)
            if arr_d_lb > d_stop.close + 1e-9:
                break
            start_d_lb = max(arr_d_lb, d_stop.open)
            if (start_d_lb + d_stop.duration
                    + instance.lo_travel(d_stop.address, nxt_addrs[q])) > latests[q] + 1e-9:
                continue
            try:
                while h < q:
                    act = instance.action(veh, with_p, h, tour.brackets)
                    head = act if head is None else compose(head, act)
                    h += 1
            except EmptyDomain:
                break  # every later delivery position extends this head
            try:
                atf = eval_pair_insertion(tour, head, q,
                                          with_p[:q + 1] + [d_stop] + with_p[q + 1:])
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
