"""Independent solution validation.

Rebuilds every tour from the instance with plain folds (no segment store),
recomputes the schedule, walks it arc by arc (``walk_schedule``, which
``evaluate_under`` drives too), and re-derives the total cost from
scratch.  Reports every violation instead of stopping at the
first one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from ..plf import EmptyDomain, compose
from .model import build_actions, schedule_tour

_TOL = 1e-6


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)
    computed_cost: float = 0.0
    reported_cost: float = 0.0

    @property
    def feasible(self):
        return not self.violations

    def add(self, msg):
        self.violations.append(msg)

    def __str__(self):
        if self.feasible:
            return f"feasible, cost {self.computed_cost:.2f}"
        return "infeasible:\n  " + "\n  ".join(self.violations)


def walk_schedule(instance, vehicle, stops, t0):
    """Drive the stops arc by arc from departure t0, waiting for each
    window to open: the service start at every stop, and the return time
    at the end depot."""
    starts = []
    t = t0
    prev = vehicle.start_address
    for s in stops:
        start = max(instance.arc(prev, s.address).eval(t), s.open)
        starts.append(start)
        t = start + s.duration
        prev = s.address
    return starts, instance.arc(prev, vehicle.end_address).eval(t)


def validate(solution, instance):
    """Re-check feasibility and cost of a solution from first principles.

    Tours are rebuilt under their own brackets.  The cost checked is
    the solution's ``reported_cost`` (a plan file's ``cost`` line) when it
    has one, else its own total."""
    rep = ValidationReport()
    seen = {}
    for ti, tour in enumerate(solution.tours):
        for s in tour.stops:
            seen.setdefault(s.item_id, []).append((ti, s.kind))
    for item in instance.items:
        events = seen.get(item.id, [])
        if item.id in solution.unserved:
            if events:
                rep.add(f"item {item.id} marked unserved but appears in a tour")
            continue
        want = ["D"] if item.depot_pickup else ["P", "D"]
        kinds = [k for _, k in events]
        tours_used = {t for t, _ in events}
        if sorted(kinds) != sorted(want):
            rep.add(f"item {item.id} has stops {kinds}, expected {want}")
            continue
        if len(tours_used) > 1:
            rep.add(f"item {item.id} split across tours {sorted(tours_used)}")
            continue
        if not item.depot_pickup:
            ti = events[0][0]
            order = [s.kind for s in solution.tours[ti].stops if s.item_id == item.id]
            if order != ["P", "D"]:
                rep.add(f"item {item.id} delivery precedes pickup")

    total = 0.0
    for ti, tour in enumerate(solution.tours):
        if not tour.stops:
            continue
        veh = tour.vehicle
        try:
            actions = build_actions(instance, veh, tour.stops, tour.brackets)
            atf = reduce(compose, actions)
        except EmptyDomain:
            rep.add(f"tour {ti} (vehicle {veh.id}) has an empty feasible window")
            continue
        sched = schedule_tour(veh, atf)
        if sched is None:
            rep.add(f"tour {ti} cannot satisfy the duration limit")
            continue
        t0 = sched.t0
        if t0 < veh.avail_lo - _TOL:
            rep.add(f"tour {ti} starts before the vehicle is available")
        starts, back = walk_schedule(instance, veh, tour.stops, t0)
        load = sum(instance.item_by_id[s.item_id].demand for s in tour.stops
                   if s.kind == "D" and instance.item_by_id[s.item_id].depot_pickup)
        if load > veh.capacity + _TOL:
            rep.add(f"tour {ti} over capacity before departure")
        for si, (s, start) in enumerate(zip(tour.stops, starts)):
            if start > s.close + _TOL:
                rep.add(f"tour {ti} stop {si} (item {s.item_id}) starts {start - s.close:.1f}s late")
            load += s.demand_delta
            if load > veh.capacity + _TOL:
                rep.add(f"tour {ti} over capacity after stop {si}")
        if back > veh.avail_hi + _TOL:
            rep.add(f"tour {ti} returns {back - veh.avail_hi:.1f}s past availability")
        if back - t0 > veh.max_duration + _TOL:
            rep.add(f"tour {ti} exceeds the duration limit")
        if abs(back - atf.eval(t0)) > 1e-5:
            rep.add(f"tour {ti} simulated return disagrees with its composed ATF")
        # preloaded items must be picked up within their pickup window
        for s in tour.stops:
            item = instance.item_by_id[s.item_id]
            if item.depot_pickup and s.kind == "D":
                if not (item.pickup_open - _TOL <= t0 <= item.pickup_close + _TOL):
                    rep.add(f"tour {ti} departs outside item {item.id}'s pickup window")
        total += veh.fixed_cost + sched.total_cost

    total += sum(instance.item_by_id[i].penalty for i in solution.unserved)
    rep.computed_cost = total
    rep.reported_cost = (solution.total_cost if solution.reported_cost is None
                         else solution.reported_cost)
    if abs(total - rep.reported_cost) > max(1e-6, 1e-9 * abs(total)):
        rep.add(f"reported cost {rep.reported_cost:.6f} != recomputed {total:.6f}")
    return rep
