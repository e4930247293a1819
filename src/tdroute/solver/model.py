"""Instance and solution model for pickup-and-delivery tours.

Times are seconds, costs dollars.  An instance supplies a full matrix of
arrival time functions between addresses; action ATFs (serve a stop, then
travel onward) are built from it on demand.  Preloaded items (picked up at
the vehicle's start depot before departure) carry only a delivery stop.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass
from functools import cached_property

from ..plf import Atf, EmptyDomain, OutOfDomain, ZERO_COST, compose
from ..scheduler import CostModel, optimal_start, soft_window_penalty
from ..touratf import SegmentStore

FAR_FUTURE = 5e8  # effectively "no deadline", yet numerically tame
_MISSING = object()
_PRICE_IDS = itertools.count()  # content and tour-revision ids, never reused


@dataclass(frozen=True)
class Stop:
    kind: str          # 'P' or 'D'
    item_id: int
    address: int
    open: float
    close: float
    duration: float
    demand_delta: float


@dataclass(frozen=True)
class Item:
    id: int
    pickup_address: int
    pickup_open: float
    pickup_close: float
    pickup_duration: float
    delivery_address: int
    delivery_open: float
    delivery_close: float
    delivery_duration: float
    demand: float = 0.0
    penalty: float = 1e6
    depot_pickup: bool = False

    def stops(self):
        out = []
        if not self.depot_pickup:
            out.append(Stop("P", self.id, self.pickup_address, self.pickup_open,
                            self.pickup_close, self.pickup_duration, self.demand))
        out.append(Stop("D", self.id, self.delivery_address, self.delivery_open,
                        self.delivery_close, self.delivery_duration,
                        -self.demand if not self.depot_pickup else 0.0))
        return out


@dataclass(frozen=True)
class Vehicle:
    id: int
    start_address: int
    end_address: int
    avail_lo: float
    avail_hi: float
    fixed_cost: float = 0.0
    time_cost_per_hour: float = 0.0
    max_duration: float = math.inf
    capacity: float = math.inf

    @cached_property
    def cost_model(self):
        """The vehicle's duration cost, built once per vehicle."""
        return CostModel.hourly(self.time_cost_per_hour)


class Instance:
    """Items, vehicles, and the address-pair ATF matrix.

    Action ATFs requested through ``action`` and move prices requested
    through ``price`` are memoised on the instance; ``solve`` empties both
    memos before it returns.
    """

    def __init__(self, name, matrix, items, vehicles, horizon=None, depot=0):
        self.name = name
        self.matrix = matrix          # matrix[p][q] -> Atf
        self.items = list(items)
        self.vehicles = list(vehicles)
        self.depot = depot
        if horizon is None:
            lo = min((v.avail_lo for v in vehicles), default=0.0)
            hi = max((v.avail_hi for v in vehicles), default=FAR_FUTURE)
            horizon = (lo, min(hi, FAR_FUTURE))
        self.horizon = horizon
        self.n_addresses = len(matrix)
        self._lo = None               # travel-time bounds, indexed p * n + q
        self._hi = None
        self._friends = None
        self._actions = {}            # action memo: recipe arguments -> Atf
        self._prices = {}             # price memo: Tour.price_key -> price
        self._contents = {}           # (vehicle, stops, brackets) -> content id
        self.item_by_id = {it.id: it for it in self.items}
        self.item_slot = {it.id: i for i, it in enumerate(self.items)}

    def arc(self, p, q):
        return self.matrix[p][q]

    def _fill_bounds(self):
        lo = array("d")
        hi = array("d")
        for row in self.matrix:
            for a in row:
                tb = a.travel_bounds()
                lo.append(tb.lo)
                hi.append(tb.hi)
        self._lo = lo
        self._hi = hi

    def lo_travel(self, p, q):
        if self._lo is None:
            self._fill_bounds()
        return self._lo[p * self.n_addresses + q]

    def hi_travel(self, p, q):
        if self._hi is None:
            self._fill_bounds()
        return self._hi[p * self.n_addresses + q]

    def arc_dist_cost(self, p, q):
        return self.matrix[p][q].cost.init

    def action(self, vehicle, stops, idx, brackets=()):
        """Memoised ``build_action``."""
        build, args = _action_recipe(vehicle, stops, idx, brackets)
        act = self._actions.get(args)
        if act is None:
            act = self._actions[args] = build(self, *args)
        return act

    def price(self, key, pricer):
        """Memoised ``pricer()`` under a ``Tour.price_key``."""
        prices = self._prices
        value = prices.get(key, _MISSING)
        if value is _MISSING:
            value = prices[key] = pricer()
        return value

    def content_id(self, vehicle, stops, brackets):
        """An id shared by every tour with this vehicle, stop list and
        brackets.  Ids come from one process-wide counter and are never
        handed out twice, so an id a tour still holds after
        ``clear_memos`` cannot name other content."""
        key = (vehicle, tuple(stops), brackets)
        cid = self._contents.get(key)
        if cid is None:
            cid = self._contents[key] = next(_PRICE_IDS)
        return cid

    def clear_memos(self):
        self._actions.clear()
        self._prices.clear()
        self._contents.clear()


def serve_atf(stop, brackets=()):
    """Wait for the window, serve, not yet traveling anywhere."""
    cost = soft_window_penalty(stop.close, brackets) if brackets else ZERO_COST
    if stop.close - stop.open <= 1e-9:
        return Atf(((stop.close, stop.close + stop.duration),), cost=cost)
    return Atf(((stop.open, stop.open + stop.duration),
                (stop.close, stop.close + stop.duration)), cost=cost)


def _end_clamp(avail_lo, end_cap):
    return Atf(((avail_lo - 1.0, avail_lo - 1.0), (end_cap, end_cap)))


def _start_action(instance, start_addr, first_addr, avail_lo, end_cap, empty):
    clamp = Atf(((avail_lo, avail_lo), (end_cap, end_cap)))
    act = compose(clamp, instance.arc(start_addr, first_addr))
    if empty:
        act = compose(act, _end_clamp(avail_lo, end_cap))
    return act


def _stop_action(instance, stop, nxt, brackets, end):
    act = compose(serve_atf(stop, brackets), instance.arc(stop.address, nxt))
    if end is not None:
        act = compose(act, _end_clamp(*end))
    return act


def _action_recipe(vehicle, stops, idx, brackets):
    """The builder of the action at position idx+1 and its arguments after
    the instance.  The arguments name everything the action depends on, so
    they double as its memo key."""
    end_cap = min(vehicle.avail_hi, FAR_FUTURE)
    if idx < 0:
        first = stops[0].address if stops else vehicle.end_address
        return _start_action, (vehicle.start_address, first, vehicle.avail_lo,
                               end_cap, not stops)
    s = stops[idx]
    if idx == len(stops) - 1:
        return _stop_action, (s, vehicle.end_address, brackets,
                              (vehicle.avail_lo, end_cap))
    return _stop_action, (s, stops[idx + 1].address, brackets, None)


def build_action(instance, vehicle, stops, idx, brackets=()):
    """The action ATF at position idx+1 of a stop list, built afresh.

    idx = -1 yields the START action, which departs the depot within the
    vehicle's availability and drives to the first stop; action idx+1
    serves stop idx and drives on; the last action also enforces the
    return deadline.
    """
    build, args = _action_recipe(vehicle, stops, idx, brackets)
    return build(instance, *args)


def build_actions(instance, vehicle, stops, brackets=()):
    """Action ATF list for a tour, START first, built afresh."""
    return [build_action(instance, vehicle, stops, idx, brackets)
            for idx in range(-1, len(stops))]


def schedule_tour(vehicle, atf):
    """The vehicle's optimal schedule over a tour ATF, or None."""
    max_dur = None if math.isinf(vehicle.max_duration) else vehicle.max_duration
    return optimal_start(atf, vehicle.cost_model, max_duration=max_dur)


class Tour:
    """A vehicle's stop sequence plus its composition store and schedule."""

    _uid = 0

    def __init__(self, instance, vehicle, stops, brackets=()):
        Tour._uid += 1
        self.uid = Tour._uid
        self.instance = instance
        self.vehicle = vehicle
        self.stops = list(stops)
        self.brackets = tuple(brackets)
        self._rebuild()

    # -- derived state ----------------------------------------------------

    def _rebuild(self):
        inst, veh = self.instance, self.vehicle
        actions = [inst.action(veh, self.stops, idx, self.brackets)
                   for idx in range(-1, len(self.stops))]
        store = SegmentStore(actions)
        schedule = schedule_tour(veh, store.full_atf())
        if schedule is None:
            raise EmptyDomain(f"tour of vehicle {veh.id} is infeasible")
        self.store = store
        self.schedule = schedule
        self._refresh_aux()
        self._new_revision()

    def _new_revision(self):
        """Forget the ids that named the previous stop list and store in
        the price memo; ``price_key`` assigns new ones on first use."""
        self._content_id = None
        self._revision_id = None

    def _refresh_aux(self):
        """Earliest/latest service starts and running loads, for pruning."""
        inst, veh = self.instance, self.vehicle
        stops = self.stops
        m = len(stops)
        eat = [0.0] * m
        t = veh.avail_lo
        prev = veh.start_address
        for i, s in enumerate(stops):
            try:
                arr = inst.arc(prev, s.address).eval(t)
            except OutOfDomain:
                break
            start = max(arr, s.open)
            eat[i] = start
            t = start + s.duration
            prev = s.address
        self.eat = eat
        lst = [0.0] * (m + 1)
        cap = min(veh.avail_hi, FAR_FUTURE)
        lst[m] = cap
        nxt = veh.end_address
        for i in range(m - 1, -1, -1):
            s = stops[i]
            dep = inst.arc(s.address, nxt).latest_departure(lst[i + 1])
            if dep is None:
                lst[i] = -math.inf
            else:
                lst[i] = min(s.close, dep - s.duration)
            nxt = s.address
        self.lst = lst
        preload = sum(inst.item_by_id[s.item_id].demand
                      for s in stops if s.kind == "D"
                      and inst.item_by_id[s.item_id].depot_pickup)
        loads = [preload]
        for s in stops:
            loads.append(loads[-1] + s.demand_delta)
        self.loads = loads
        self.max_load = max(loads) if loads else 0.0

    def price_key(self, item):
        """The price memo key of inserting the item into this tour, or of
        removing it when the tour serves it (one or the other, so a key
        names one price).

        Prices of depot-pickup items read the store's prefix and suffix
        folds only, and those depend on the stop list alone: such a key
        names the tour's content.  Pickup-delivery prices also read
        mid-range queries, whose bits depend on the block layout; they share
        the content key while the store is laid out as a fresh build would
        be, and are keyed by this tour revision otherwise.
        """
        inst = self.instance
        if item.depot_pickup or self.store.from_scratch:
            if self._content_id is None:
                self._content_id = inst.content_id(self.vehicle, self.stops, self.brackets)
            tour_id = self._content_id
        else:
            if self._revision_id is None:
                self._revision_id = next(_PRICE_IDS)
            tour_id = self._revision_id
        # one int per (tour id, item): a key tuple would take more memory
        # than many of the prices it keys
        return tour_id * len(inst.items) + inst.item_slot[item.id]

    @property
    def cost(self):
        return self.vehicle.fixed_cost + self.schedule.total_cost

    @property
    def item_ids(self):
        seen = []
        got = set()
        for s in self.stops:
            if s.item_id not in got:
                got.add(s.item_id)
                seen.append(s.item_id)
        return seen

    # -- mutation -----------------------------------------------------------

    def set_stops(self, stops):
        old = self.stops
        self.stops = list(stops)
        try:
            self._rebuild()
        except EmptyDomain:
            self.stops = old
            raise

    def insert_single(self, position, stop):
        """Insert one stop; the store absorbs it with incremental updates.

        All or nothing: on EmptyDomain the tour is rebuilt over its old
        stops before the exception propagates.
        """
        inst, veh = self.instance, self.vehicle
        old = self.stops
        new_stops = old[:position] + [stop] + old[position:]
        mod = inst.action(veh, new_stops, position - 1, self.brackets)
        new_act = inst.action(veh, new_stops, position, self.brackets)
        self.stops = new_stops
        try:
            self.store.update_action(position + 1, mod)
            self.store.insert_action(position + 2, new_act)
            sched = schedule_tour(veh, self.store.full_atf())
            if sched is None:
                raise EmptyDomain("insertion broke the schedule")
        except EmptyDomain:
            self.stops = old
            self._rebuild()
            raise
        self.schedule = sched
        self._refresh_aux()
        self._new_revision()


class Solution:
    """A set of tours plus the items nobody serves."""

    def __init__(self, instance, tours=(), unserved=()):
        self.instance = instance
        self.tours = list(tours)
        self.unserved = set(unserved)

    @property
    def total_cost(self):
        pen = sum(self.instance.item_by_id[i].penalty for i in self.unserved)
        return sum(t.cost for t in self.tours) + pen

    @property
    def n_vehicles(self):
        return sum(1 for t in self.tours if t.stops)

    def used_vehicle_ids(self):
        return {t.vehicle.id for t in self.tours}

    def free_vehicles(self):
        used = self.used_vehicle_ids()
        return [v for v in self.instance.vehicles if v.id not in used]

    def drop_empty_tours(self):
        self.tours = [t for t in self.tours if t.stops]

    def clone_state(self):
        """Cheap snapshot: stop lists per vehicle + unserved items."""
        return ([(t.vehicle.id, list(t.stops)) for t in self.tours],
                set(self.unserved))

    def restore_state(self, state, brackets=()):
        veh_by_id = {v.id: v for v in self.instance.vehicles}
        tours = []
        existing = {t.vehicle.id: t for t in self.tours}
        for vid, stops in state[0]:
            old = existing.get(vid)
            if old is not None and old.stops == stops:
                tours.append(old)
            else:
                tours.append(Tour(self.instance, veh_by_id[vid], stops, brackets))
        self.tours = tours
        self.unserved = set(state[1])
