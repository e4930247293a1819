"""Re-evaluating fixed tour sequences under other travel times.

A plan made with constant travel times may miss windows when driven under
time-dependent ones.  Tours keep their stop sequences, are rescheduled
under the evaluation instance, and every service start is compared against
its window: the report counts late starts, the worst delay, and a slack
histogram (how close the on-time starts run to their deadlines).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import reduce

from ..plf import EmptyDomain, compose
from ..scheduler import optimal_start
from ..solver.model import FAR_FUTURE, build_actions, schedule_tour
from ..solver.validate import walk_schedule

SLACK_BUCKETS = ("[10,15)", "[5,10)", "[0,5)", "late")


@dataclass
class EvalReport:
    cost: float
    n_late: int
    max_delay: float
    buckets: dict
    n_stops: int
    per_tour: list = field(default_factory=list)

    def __str__(self):
        b = self.buckets
        return (f"cost {self.cost:.2f}, late {self.n_late} "
                f"(max delay {self.max_delay:.0f}s), slack "
                f"[10,15)m: {b['[10,15)']}  [5,10)m: {b['[5,10)']}  "
                f"[0,5)m: {b['[0,5)']}")


def _slacks(instance, vehicle, stops, t0):
    """Seconds from each service start to its window's close (negative
    when late), and the return time, driving from departure t0."""
    starts, back = walk_schedule(instance, vehicle, stops, t0)
    return [s.close - start for s, start in zip(stops, starts)], back


def _true_cost(instance, veh, stops, t0, duration):
    """Fixed + duration + work-time + distance cost; penalties excluded."""
    model = veh.cost_model
    from ..scheduler import _wt_integral
    cost = veh.fixed_cost + model.c_ot.eval(max(duration, 0.0))
    cost += _wt_integral(model.c_wt, t0, t0 + duration)
    prev = veh.start_address
    for s in stops:
        cost += instance.arc_dist_cost(prev, s.address)
        prev = s.address
    cost += instance.arc_dist_cost(prev, veh.end_address)
    return cost


def evaluate_under(instance, solution):
    """Reschedule the solution's tour sequences under the given instance.

    Scheduling keeps whatever soft-window penalties the plan was built
    with (the driver follows the plan's intent), but the reported cost
    excludes them.  A tour that cannot meet every window any more falls
    back to the start minimizing (late stops, total delay, cost).
    """
    buckets = {k: 0 for k in SLACK_BUCKETS}
    n_late = 0
    max_delay = 0.0
    total = 0.0
    n_stops = 0
    per_tour = []
    for tour in solution.tours:
        if not tour.stops:
            continue
        veh = tour.vehicle
        stops = tour.stops
        try:
            strict = reduce(compose, build_actions(instance, veh, stops, tour.brackets))
            sched = schedule_tour(veh, strict)
        except EmptyDomain:
            sched = None
        if sched is not None:
            t0 = sched.t0
            cost = _true_cost(instance, veh, stops, t0, sched.duration)
            slacks, _ = _slacks(instance, veh, stops, t0)
        else:
            # the same actions with every deadline lifted: wait for window
            # openings, never refuse lateness
            relaxed = reduce(compose, build_actions(
                instance, replace(veh, avail_hi=FAR_FUTURE),
                [replace(s, close=FAR_FUTURE) for s in stops]))
            base = optimal_start(relaxed, veh.cost_model)
            cands = {base.t0}
            for t in relaxed.ts:
                if veh.avail_lo <= t <= relaxed.t_max:
                    cands.add(t)
            cands.add(veh.avail_lo)
            best = None
            for t0 in sorted(cands):
                slacks, back = _slacks(instance, veh, stops, t0)
                late = [x for x in slacks if x < -1e-6]
                delay = sum(-x for x in late)
                c = _true_cost(instance, veh, stops, t0, back - t0)
                key = (len(late), delay, c, t0)
                if best is None or key < best[0]:
                    best = (key, t0, slacks, c)
            _, t0, slacks, cost = best
        for slack in slacks:
            n_stops += 1
            if slack < -1e-6:
                buckets["late"] += 1
                n_late += 1
                max_delay = max(max_delay, -slack)
            elif slack < 300.0:
                buckets["[0,5)"] += 1
            elif slack < 600.0:
                buckets["[5,10)"] += 1
            elif slack < 900.0:
                buckets["[10,15)"] += 1
        total += cost
        per_tour.append((veh.id, t0, cost))
    total += sum(instance.item_by_id[i].penalty for i in solution.unserved
                 if i in instance.item_by_id)
    return EvalReport(cost=total, n_late=n_late, max_delay=max_delay,
                      buckets=buckets, n_stops=n_stops, per_tour=per_tour)
