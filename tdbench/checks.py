"""Output checks that do not trust the code under test.

Plans are re-driven stop by stop with ``np.interp`` over the instance's
arc breakpoints; ATF results are compared pointwise against ``np.interp``
and ``np.minimum`` of their inputs; schedules against a dense grid of
start times.  Every check returns a list of problems (empty when the
output is right), so a caller can report all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

T_TOL = 1e-6      # seconds: window and domain comparisons
V_TOL = 1e-5      # seconds: pointwise ATF values of order 1e5
COST_TOL = 1e-4   # dollars


# -- primitive evaluations -----------------------------------------------------


def step_eval(cost, t):
    """A StepCost at the times t: init before the first jump, cs[i] on
    (ts[i], ts[i+1]), and the smaller one-sided value at a jump."""
    t = np.asarray(t, dtype=float)
    levels = np.concatenate(([cost.init], np.asarray(cost.cs, dtype=float)))
    ts = np.asarray(cost.ts, dtype=float)
    if ts.size == 0:
        return np.full(t.shape, cost.init)
    right = levels[np.searchsorted(ts, t, side="right")]
    left = levels[np.searchsorted(ts, t, side="left")]
    return np.minimum(left, right)


def atf_values(a, t):
    """a(t) by linear interpolation; constant left of the first breakpoint."""
    return np.interp(t, a.ts, a.vs)


def sample_points(lo, hi, *breakpoint_lists, n=97):
    """Breakpoints inside [lo, hi], the midpoints between them, and a
    uniform grid."""
    if hi < lo:
        return np.array([hi])
    pts = [np.linspace(lo, hi, n)]
    for bps in breakpoint_lists:
        b = np.asarray(bps, dtype=float)
        pts.append(b[(b >= lo) & (b <= hi)])
    xs = np.unique(np.concatenate(pts))
    mids = 0.5 * (xs[1:] + xs[:-1])
    return np.unique(np.concatenate((xs, mids)))


def _close(got, want, atol):
    return np.abs(np.asarray(got) - np.asarray(want)) <= atol + 1e-12 * np.abs(want)


# -- ATF oracles -----------------------------------------------------------------


def latest_with_value_at_most(a, v):
    """Largest t in a's domain with a(t) <= v, or None (independent scan)."""
    vs = np.asarray(a.vs)
    ts = np.asarray(a.ts)
    if vs[0] > v + T_TOL:
        return None
    if vs[-1] <= v:
        return ts[-1]
    k = int(np.argmax(vs > v))
    return ts[k - 1] + (v - vs[k - 1]) * (ts[k] - ts[k - 1]) / (vs[k] - vs[k - 1])


def check_compose(a, b, f, label="compose"):
    """f must be t -> b(a(t)) on the departures whose a-arrival lies in b's
    domain, with cost(b)(a(t)) + cost(a)(t) where the costs are constant."""
    T = latest_with_value_at_most(a, b.ts[-1])
    if T is None:
        return [f"{label}: result for an empty domain"]
    problems = []
    if abs(f.ts[-1] - T) > 1e-6 * max(1.0, abs(T)):
        problems.append(f"{label}: domain ends at {f.ts[-1]!r}, expected {T!r}")
        T = min(T, f.ts[-1])
    lo = min(a.ts[0], f.ts[0]) - 1.0
    t = sample_points(lo, T, a.ts, f.ts)
    want = atf_values(b, atf_values(a, t))
    bad = ~_close(atf_values(f, t), want, V_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        problems.append(f"{label}: f({t[i]:.6f}) = {float(atf_values(f, t[i])):.6f}, "
                        f"expected {want[i]:.6f}")
    if not a.cost.ts and not b.cost.ts:
        want_cost = a.cost.init + b.cost.init
        got = step_eval(f.cost, t)
        if not np.all(_close(got, want_cost, COST_TOL)):
            problems.append(f"{label}: cost differs from {want_cost!r}")
    return problems


def check_min2(a, b, f, label="min2"):
    T = min(a.ts[-1], b.ts[-1])
    problems = []
    if abs(f.ts[-1] - T) > T_TOL:
        problems.append(f"{label}: domain ends at {f.ts[-1]!r}, expected {T!r}")
        T = min(T, f.ts[-1])
    t = sample_points(min(a.ts[0], b.ts[0]) - 1.0, T, a.ts, b.ts, f.ts)
    want = np.minimum(atf_values(a, t), atf_values(b, t))
    if not np.all(_close(atf_values(f, t), want, V_TOL)):
        problems.append(f"{label}: differs from the pointwise minimum")
    return problems


def check_min_n(atfs, f, label="min_n"):
    T = min(a.ts[-1] for a in atfs)
    problems = []
    if abs(f.ts[-1] - T) > T_TOL:
        problems.append(f"{label}: domain ends at {f.ts[-1]!r}, expected {T!r}")
        T = min(T, f.ts[-1])
    lo = min(a.ts[0] for a in atfs)
    t = sample_points(lo, T, f.ts, *[a.ts for a in atfs])
    want = np.minimum.reduce([atf_values(a, t) for a in atfs])
    if not np.all(_close(atf_values(f, t), want, V_TOL)):
        problems.append(f"{label}: differs from the pointwise minimum of {len(atfs)} functions")
    return problems


def check_simplified(f, g, eps, label="simplify"):
    """g must lie in [f, f + eps], be non-decreasing, end where f ends and
    keep no more breakpoints than f."""
    problems = []
    if g.b > f.b:
        problems.append(f"{label}: {g.b} breakpoints from {f.b}")
    if np.any(np.diff(g.vs) < -T_TOL):
        problems.append(f"{label}: result is not monotone")
    if abs(g.ts[-1] - f.ts[-1]) > T_TOL:
        problems.append(f"{label}: domain ends at {g.ts[-1]!r}, not {f.ts[-1]!r}")
    t = sample_points(f.ts[0], f.ts[-1], f.ts, g.ts)
    fv, gv = atf_values(f, t), atf_values(g, t)
    if np.any(gv < fv - V_TOL):
        problems.append(f"{label}: dips {np.max(fv - gv):.6g} below f")
    if np.any(gv > fv + eps + V_TOL):
        problems.append(f"{label}: rises {np.max(gv - fv):.6g} above f (eps {eps:.6g})")
    return problems


def check_same_function(f, g, label):
    """f and g must agree in domain end, values and attached cost."""
    problems = []
    if abs(f.ts[-1] - g.ts[-1]) > 1e-6 * max(1.0, abs(f.ts[-1])):
        problems.append(f"{label}: domain ends {f.ts[-1]!r} vs {g.ts[-1]!r}")
    T = min(f.ts[-1], g.ts[-1])
    t = sample_points(min(f.ts[0], g.ts[0]) - 1.0, T, f.ts, g.ts)
    if not np.all(_close(atf_values(f, t), atf_values(g, t), V_TOL)):
        problems.append(f"{label}: values differ")
    # jumps of the two costs that coincide up to rounding count as one
    jumps = []
    for x in np.unique(np.concatenate((f.cost.ts, g.cost.ts, [T]))):
        if not jumps or x - jumps[-1] > T_TOL * max(1.0, abs(x)):
            jumps.append(x)
    jumps = np.array(jumps)
    mids = np.concatenate(([jumps[0] - 1.0], 0.5 * (jumps[1:] + jumps[:-1])))
    mids = mids[mids <= T]
    if not np.all(_close(step_eval(f.cost, mids), step_eval(g.cost, mids), COST_TOL)):
        problems.append(f"{label}: attached costs differ")
    return problems


def fold(compose, atfs):
    """Left fold (((a1 . a2) . a3) ...) with the given compose."""
    return reduce(compose, atfs)


def schedule_cost(a, rate_per_s, t):
    """Departure cost plus linear duration cost of starting at t."""
    return step_eval(a.cost, t) + rate_per_s * (atf_values(a, t) - t)


def check_schedule(a, rate_per_s, sched, label="optimal_start", grid=4001):
    """sched must be feasible, priced right, and no worse than any start on
    a dense grid over the start window."""
    problems = []
    lo, hi = a.ts[0], a.ts[-1]
    if not (lo - T_TOL <= sched.t0 <= hi + T_TOL):
        return [f"{label}: start {sched.t0!r} outside [{lo!r}, {hi!r}]"]
    own = float(schedule_cost(a, rate_per_s, sched.t0))
    if abs(own - sched.total_cost) > COST_TOL + 1e-9 * abs(own):
        problems.append(f"{label}: cost {sched.total_cost:.6f} at its start, recomputed {own:.6f}")
    t = sample_points(lo, hi, a.ts, a.cost.ts, n=grid)
    best = float(np.min(schedule_cost(a, rate_per_s, t)))
    if best < sched.total_cost - COST_TOL - 1e-9 * abs(best):
        problems.append(f"{label}: a grid start costs {best:.6f} < {sched.total_cost:.6f}")
    return problems


# -- plans -----------------------------------------------------------------------


@dataclass
class TourPlan:
    """What a plan reports for one tour: who drives which stops, when the
    tour starts, and the cost the program priced it at."""

    vehicle: object
    stops: list
    t0: float
    cost: float


def plan_of(solution):
    return [TourPlan(t.vehicle, list(t.stops), t.schedule.t0, t.schedule.total_cost)
            for t in solution.tours if t.stops]


def _penalty_bounds(brackets, close, start):
    """Soft-window penalty of a service start, as (low, high): within T_TOL
    of a bracket boundary either neighbouring value is accepted."""
    lo = np.zeros(np.shape(start))
    hi = np.zeros(np.shape(start))
    for minutes, dollars in brackets:
        edge = close - 60.0 * minutes
        lo = np.where(start > edge + T_TOL, np.maximum(lo, dollars), lo)
        hi = np.where(start > edge - T_TOL, np.maximum(hi, dollars), hi)
    return lo, hi


def drive(instance, vehicle, stops, t0, brackets=()):
    """Drive a stop sequence from the start times t0 (an array).

    Returns (first_fault, cost_low, cost_high, distance): first_fault is -1
    for a feasible start, else the index of the first stop missed (its
    window or its arc's domain), len(stops) for a late return.  The cost
    is departure costs of every arc, soft-window penalties and the
    vehicle's hourly cost of the duration, without the fixed cost.
    """
    t0 = np.asarray(t0, dtype=float)
    t = t0.copy()
    fault = np.where(t0 >= vehicle.avail_lo - T_TOL, -1, 0)
    dist = np.zeros_like(t)
    pen_lo = np.zeros_like(t)
    pen_hi = np.zeros_like(t)
    prev = vehicle.start_address
    for k, s in enumerate(stops + [None]):
        nxt = vehicle.end_address if s is None else s.address
        arc = instance.arc(prev, nxt)
        ok = t <= arc.ts[-1] + T_TOL
        dist += step_eval(arc.cost, t)
        arrive = atf_values(arc, np.minimum(t, arc.ts[-1]))
        if s is None:
            t = arrive
            ok &= (t <= vehicle.avail_hi + T_TOL) & (t - t0 <= vehicle.max_duration + T_TOL)
            fault = np.where((fault < 0) & ~ok, k, fault)
            break
        start = np.maximum(arrive, s.open)
        ok &= start <= s.close + T_TOL
        fault = np.where((fault < 0) & ~ok, k, fault)
        if brackets:
            p_lo, p_hi = _penalty_bounds(brackets, s.close, start)
            pen_lo += p_lo
            pen_hi += p_hi
        t = start + s.duration
        prev = s.address
    cost = dist + vehicle.time_cost_per_hour / 3600.0 * (t - t0)
    return fault, cost + pen_lo, cost + pen_hi, dist


def check_plan(instance, tours, unserved, brackets=(), grid=401):
    """Independent check of a plan: every item served once, in one tour,
    within capacity; every service start inside its window; every vehicle
    back in time; each tour's cost as reported; no grid start cheaper.

    Returns (problems, route_cost, distance) with the recomputed figures.
    """
    problems = []
    served = {}
    for ti, tp in enumerate(tours):
        for s in tp.stops:
            served.setdefault(s.item_id, []).append((ti, s.kind))
    for item in instance.items:
        want = ["D"] if item.depot_pickup else ["P", "D"]
        got = served.get(item.id, [])
        if item.id in unserved or sorted(k for _, k in got) != want or len({ti for ti, _ in got}) != 1:
            problems.append(f"item {item.id} is not served exactly once in one tour: {got}")
    vehicles = [tp.vehicle.id for tp in tours]
    if len(set(vehicles)) != len(vehicles):
        problems.append("a vehicle drives two tours")
    route_cost = 0.0
    distance = 0.0
    for ti, tp in enumerate(tours):
        veh = tp.vehicle
        load = sum(instance.item_by_id[s.item_id].demand for s in tp.stops
                   if s.kind == "D" and instance.item_by_id[s.item_id].depot_pickup)
        for s in [None] + tp.stops:
            load += 0.0 if s is None else s.demand_delta
            if load > veh.capacity + 1e-9:
                problems.append(f"tour {ti}: over capacity")
                break
        for s in tp.stops:
            item = instance.item_by_id[s.item_id]
            if item.depot_pickup and not (item.pickup_open - T_TOL <= tp.t0 <= item.pickup_close + T_TOL):
                problems.append(f"tour {ti}: departs outside item {item.id}'s pickup window")
        fault, c_lo, c_hi, dist = drive(instance, veh, tp.stops, [tp.t0], brackets)
        if fault[0] >= 0:
            k = int(fault[0])
            where = "the return" if k == len(tp.stops) else f"stop {k} (item {tp.stops[k].item_id})"
            problems.append(f"tour {ti} (vehicle {veh.id}) started at {tp.t0:.3f} misses "
                            f"{where}")
            continue
        tol = COST_TOL + 1e-9 * abs(tp.cost)
        if not (c_lo[0] - tol <= tp.cost <= c_hi[0] + tol):
            problems.append(f"tour {ti}: reported cost {tp.cost:.6f}, recomputed "
                            f"{c_lo[0]:.6f}..{c_hi[0]:.6f}")
        upper = min(veh.avail_hi, max(s.close for s in tp.stops))
        starts = np.linspace(veh.avail_lo, max(veh.avail_lo, upper), grid)
        g_fault, g_lo, _, _ = drive(instance, veh, tp.stops, starts, brackets)
        g_ok = g_fault < 0
        if g_ok.any() and g_lo[g_ok].min() < tp.cost - tol:
            i = int(np.argmin(np.where(g_ok, g_lo, np.inf)))
            problems.append(f"tour {ti}: start {starts[i]:.3f} costs {g_lo[i]:.6f} < "
                            f"reported {tp.cost:.6f}")
        route_cost += tp.cost
        distance += float(dist[0])
    return problems, route_cost, distance
