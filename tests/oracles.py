"""Shared random generators and independent oracles for the test suite.

Oracles deliberately avoid the code paths they check: pointwise oracles
use only eval/np.interp, the corridor oracle enumerates grid polylines,
and the scheduling oracle brute-forces a dense grid.
"""

from bisect import bisect_right

import numpy as np

import inspect
import itertools
import math
import struct
import textwrap
import time

from tdroute.plf import EPS_T, Atf, EmptyDomain, StepCost, ZERO_COST, compose
from tdroute.plf.envelope import PiecewiseLinear
from tdroute.scheduler import ScheduleResult, ZERO_MODEL, _wt_integral, total_cost
from tdroute.solver import construct, localsearch
from tdroute.solver.insertion import apply_insertion, best_insertion
from tdroute.solver.model import FAR_FUTURE, Tour, build_actions, schedule_tour
from tdroute.touratf import FoldStore, SegmentStore


def rand_atf(rng, b_max=8, t0=0.0, span=10.0, flat_prob=0.3, dur_max=3.0):
    """Random valid ATF: monotone, FIFO, non-redundant."""
    b = int(rng.integers(1, b_max + 1))
    ts = np.unique(np.round(np.sort(rng.uniform(t0, t0 + span, size=b)), 6))
    vs = [float(ts[0] + rng.uniform(0.05, dur_max))]
    for i in range(1, len(ts)):
        step = 0.0 if rng.random() < flat_prob else float(rng.uniform(0, 1.8))
        vs.append(max(vs[-1] + step * (ts[i] - ts[i - 1]), float(ts[i])))
    return Atf(list(zip(ts, vs)))


def rand_costed_atf(rng, b_max=8, max_jumps=5):
    """Random ATF with a step cost whose jumps often sit exactly on one of
    its breakpoint times or values, or on a coarse grid, so that jumps meet
    breakpoints, preimages and each other; breakpoints are rounded to a few
    decimals, so flat segments and repeated values are common."""
    b = int(rng.integers(1, b_max + 1))
    t0 = float(rng.uniform(-5, 5))
    ts = np.unique(np.round(np.sort(rng.uniform(t0, t0 + 10.0, size=b)),
                            int(rng.integers(1, 7))))
    vs = [float(ts[0] + rng.uniform(0.0, 3.0))]
    for i in range(1, len(ts)):
        step = 0.0 if rng.random() < 0.3 else float(rng.uniform(0, 1.8))
        vs.append(max(vs[-1] + step * (ts[i] - ts[i - 1]), float(ts[i])))
    pieces = []
    for _ in range(int(rng.integers(0, max_jumps + 1))):
        r = rng.random()
        if r < 0.25:
            t = float(rng.choice(vs))
        elif r < 0.5:
            t = float(rng.choice(ts))
        else:
            t = float(np.round(rng.uniform(t0 - 2, t0 + 14), int(rng.integers(0, 4))))
        pieces.append((t, float(np.round(rng.uniform(0, 5), 1))))
    init = float(np.round(rng.uniform(0, 3), 1)) if rng.random() < 0.7 else 0.0
    return Atf(list(zip(ts, vs)), cost=StepCost(init, sorted(pieces)))


def rand_stepcost(rng, t0, t1, max_pieces=3):
    n = int(rng.integers(0, max_pieces + 1))
    pieces = sorted((float(rng.uniform(t0, t1)), float(rng.uniform(0, 5)))
                    for _ in range(n))
    return StepCost(float(rng.uniform(0, 3)), pieces)


def rand_chain_action(rng, frac, b_max=3, wait_span=2000.0):
    """Action usable inside arbitrarily long feasible chains."""
    b = int(rng.integers(1, b_max + 1))
    if b == 1:
        t = 4000.0 + wait_span * frac + float(rng.uniform(0, 25))
        return Atf(((t, t + rng.uniform(0, 1.0)),))
    base = 100.0 + 1500.0 * frac
    lo = base + float(rng.uniform(0, 10))
    ts = np.concatenate([np.sort(rng.uniform(lo, lo + 20, size=b - 1)),
                         [6e5 + rng.uniform(0, 2e4)]])
    ts = np.unique(ts)
    vs = [float(ts[0] + rng.uniform(0, 1.0))]
    for i in range(1, len(ts)):
        vs.append(max(vs[-1] + float(rng.uniform(0.2, 1.0)) * (ts[i] - ts[i - 1]),
                      float(ts[i])))
    return Atf(list(zip(ts, vs)))


def rand_chain(rng, n, b_max=3):
    span = max(2000.0, 45.0 * n)
    return [rand_chain_action(rng, i / max(n, 1), b_max, span) for i in range(n)]


def rand_pl(rng, nseg=10, x0=0.0, x1=10.0):
    xs = np.unique(np.concatenate([[x0], np.sort(rng.uniform(x0, x1, size=nseg - 1)), [x1]]))
    ys = rng.uniform(0, 10, size=len(xs))
    return PiecewiseLinear(list(zip(xs, ys)))


def fold_compose(atfs):
    out = atfs[0]
    for a in atfs[1:]:
        out = compose(out, a)
    return out


def same_function(a, b, tol=1e-9, samples=None):
    """Pointwise equality of two ATFs on their (shared) domain."""
    if abs(a.t_max - b.t_max) > 1e-6:
        return False
    pts = sorted(set(a.ts) | set(b.ts))
    xs = np.array([a.t_min - 1.0] + pts)
    if samples is not None:
        xs = np.concatenate([xs, np.linspace(xs[0], a.t_max, samples)])
    xs = np.minimum(xs, min(a.t_max, b.t_max))
    return bool(np.max(np.abs(a.eval_many(xs) - b.eval_many(xs))) <= tol)


def corridor_min_breakpoints(f, eps, t_density=8, y_density=17):
    """Exhaustive minimum breakpoint count over monotone polylines with
    vertices on a grid inside the corridor between f and f + eps.

    The grid contains every breakpoint abscissa, uniform refinements, and
    the corridor landmarks where f crosses a vertex level shifted by eps
    (the positions tangency-tight optima need).
    """
    fts = np.array(f.ts)
    fvs = np.array(f.vs)
    xs = [fts[0]]
    for i in range(len(fts) - 1):
        xs.extend(np.linspace(fts[i], fts[i + 1], t_density + 1)[1:])
    for v in fvs:
        for target in (v + eps, v - eps):
            if fvs[0] < target < fvs[-1]:
                j = int(np.searchsorted(fvs, target, side="left"))
                j = max(1, min(j, len(fvs) - 1))
                if fvs[j] > fvs[j - 1]:
                    xs.append(fts[j - 1] + (target - fvs[j - 1])
                              * (fts[j] - fts[j - 1]) / (fvs[j] - fvs[j - 1]))
    xs = np.unique(np.round(np.array(xs), 9))
    fx = np.interp(xs, fts, fvs)
    n_layers = len(xs)
    layers = [np.linspace(lo, lo + eps, y_density) for lo in fx]
    ceiling0 = fvs[0] + eps

    def successors(i, y_val):
        """Boolean masks per layer j > i of reachable grid points."""
        out = []
        for j in range(i + 1, n_layers):
            lam = (xs[i:j + 1] - xs[i]) / (xs[j] - xs[i])
            ys = layers[j]
            vals = y_val + lam[:, None] * (ys[None, :] - y_val)
            ok = ((vals >= fx[i:j + 1, None] - 1e-9)
                  & (vals <= fx[i:j + 1, None] + eps + 1e-9)).all(axis=0)
            ok &= ys >= y_val - 1e-12
            out.append(ok)
        return out

    frontier = set()
    for i in range(n_layers):
        for yi, y in enumerate(layers[i]):
            if fx[i] - 1e-9 <= y <= ceiling0 + 1e-9:
                frontier.add((i, yi))
    if any(i == n_layers - 1 for i, _ in frontier):
        return 1
    seen = set(frontier)
    count = 1
    while frontier:
        count += 1
        if count > 9:
            return 10 ** 9
        new = set()
        for (i, yi) in frontier:
            for dj, ok in enumerate(successors(i, layers[i][yi])):
                j = i + 1 + dj
                for yj in np.nonzero(ok)[0]:
                    st = (j, int(yj))
                    if st not in seen and st not in new:
                        new.add(st)
        if any(j == n_layers - 1 for j, _ in new):
            return count
        seen |= new
        frontier = new
    return 10 ** 9


def normalize_points_reference(pts):
    """The tuple-based breakpoint normaliser ``Atf`` used to run: merge
    coincident abscissae, clamp sub-1e-6 FIFO dips, drop redundant
    breakpoints.  Kept as the reference for the list-based one."""
    eps_t = eps_slope = 1e-9
    merged = []
    for t, v in pts:
        if merged and t < merged[-1][0] - eps_t:
            raise ValueError("breakpoints must be sorted by t")
        if merged and t - merged[-1][0] <= eps_t:
            merged[-1] = (t, v)
        else:
            merged.append((t, v))
    for i in range(1, len(merged)):
        t, v = merged[i]
        pv = merged[i - 1][1]
        if v < pv:
            if v < pv - 1e-6:
                raise ValueError(f"non-monotone values at t={t}: {v} < {pv}")
            merged[i] = (t, pv)
    out = [merged[0]]
    for i in range(1, len(merged) - 1):
        t0, v0 = out[-1]
        t1, v1 = merged[i]
        t2, v2 = merged[i + 1]
        s0 = (v1 - v0) / (t1 - t0)
        s1 = (v2 - v1) / (t2 - t1)
        if abs(s1 - s0) > eps_slope:
            out.append(merged[i])
    if len(merged) > 1:
        out.append(merged[-1])
    return out


def td_arc_reference(free_flow, profile, horizon, cost=None):
    """The per-arc exact builder ``td_arc`` used to run at eps=0: knots,
    covered distances and speed lookups recomputed for every arc.  Kept as
    the reference for the one that shares a clock per profile."""
    hour = 3600.0
    lo = horizon[0] - 2 * hour
    hi = horizon[1] + 12 * hour
    if free_flow <= 1e-12:
        return Atf.constant_travel(0.0, lo, hi, cost=cost)
    knots = [lo]
    h0 = profile.start_hour * hour
    for i in range(len(profile.multipliers) + 1):
        t = h0 + i * hour
        if lo < t < hi:
            knots.append(t)
    knots.append(hi)
    zs = [0.0]
    for i in range(1, len(knots)):
        mid = 0.5 * (knots[i - 1] + knots[i])
        zs.append(zs[-1] + profile.slope_at(mid) * (knots[i] - knots[i - 1]))

    def z_of(t):
        i = max(0, min(bisect_right(knots, t) - 1, len(knots) - 2))
        mid = 0.5 * (knots[i] + knots[i + 1])
        return zs[i] + profile.slope_at(mid) * (t - knots[i])

    def t_of(z):
        i = max(0, min(bisect_right(zs, z) - 1, len(zs) - 2))
        mid = 0.5 * (knots[i] + knots[i + 1])
        return knots[i] + (z - zs[i]) / profile.slope_at(mid)

    cands = set(knots)
    for zk in zs:
        t = t_of(zk - free_flow)
        if lo < t < hi:
            cands.add(t)
    return Atf([(t, t_of(z_of(t) + free_flow)) for t in sorted(cands)], cost=cost)


def compose_cost_reference(a1, a2, T):
    """The compose cost ``compose`` used to build: each preimage of a c2
    jump found by ``earliest_reach`` and ``latest_departure``, each piece
    valued by ``Atf.eval`` and ``StepCost.eval`` at its midpoint, the result
    checked by ``StepCost.__init__``.  Kept as the reference for the
    one-sweep builder."""
    c1, c2 = a1.cost, a2.cost
    if c2.is_zero():
        if c1.is_zero():
            return ZERO_COST
        return StepCost(c1.init, [(t, v) for t, v in zip(c1.ts, c1.cs) if t <= T + EPS_T])
    bounds = [d for d in c1.ts if d <= T + EPS_T]
    for u in c2.ts:
        if u <= a1.vs[0]:
            continue
        p = a1.earliest_reach(u)
        if p is None:
            continue
        q = a1.latest_departure(u)
        for x in (p, q):
            if x is not None and x != float("-inf") and x <= T + EPS_T:
                bounds.append(x)
    bounds = sorted(set(bounds))
    merged = []
    for x in bounds:
        if merged and x - merged[-1] <= EPS_T:
            continue
        merged.append(x)
    rep_left = (merged[0] if merged else min(a1.ts[0], T)) - 1.0
    init = c2.eval(a1.eval(min(rep_left, a1.ts[0]))) + c1.eval(min(rep_left, a1.ts[0]))
    pieces = []
    for i, bnd in enumerate(merged):
        right = merged[i + 1] if i + 1 < len(merged) else max(T, bnd + 1.0)
        mid = 0.5 * (bnd + right)
        if mid > T:
            mid = T
        pieces.append((bnd, c2.eval(a1.eval(mid)) + c1.eval(mid)))
    return StepCost(init, pieces)


def optimal_start_reference(a, model=ZERO_MODEL, max_duration=None):
    """The event-set ``optimal_start``: every event into a set, sorted, and
    each one costed by ``total_cost`` with bisects.  Kept as the reference
    for the merge scan."""
    t_lo, t_hi = a.t_min, a.t_max
    events = {t_lo, t_hi}
    for t in a.ts:
        if t_lo <= t <= t_hi:
            events.add(t)
    for t in a.cost.ts:
        if t_lo <= t <= t_hi:
            events.add(t)
    duration_levels = list(model.c_ot.xs[1:])
    if max_duration is not None:
        duration_levels.append(max_duration)
    if duration_levels and a.b > 1:
        durs = [v - t for t, v in zip(a.ts, a.vs)]
        for d in duration_levels:
            for i in range(a.b - 1):
                d0, d1 = durs[i], durs[i + 1]
                if (d0 - d) * (d1 - d) < 0:
                    lam = (d0 - d) / (d0 - d1)
                    events.add(a.ts[i] + lam * (a.ts[i + 1] - a.ts[i]))
                elif d0 == d:
                    events.add(a.ts[i])
    for w in model.c_wt.ts:
        if t_lo <= w <= t_hi:
            events.add(w)
        p = a.earliest_reach(w)
        if p is not None and p != float("-inf") and t_lo <= p <= t_hi:
            events.add(p)
        q = a.latest_departure(w)
        if q is not None and t_lo <= q <= t_hi:
            events.add(q)
    best_t = None
    best_cost = None
    for t in sorted(events):
        t = min(max(t, t_lo), t_hi)
        if max_duration is not None and a.eval(t) - t > max_duration + 1e-9:
            continue
        c = total_cost(a, model, t)
        if best_cost is None or c < best_cost - 1e-12:
            best_cost = c
            best_t = t
    if best_t is None:
        return None
    arrival = a.eval(best_t)
    return ScheduleResult(
        t0=best_t,
        total_cost=best_cost,
        cost_departure=a.cost.eval(best_t),
        cost_overtime=model.c_ot.eval(max(arrival - best_t, 0.0)),
        cost_worktime=_wt_integral(model.c_wt, best_t, arrival),
        duration=arrival - best_t,
        events_scanned=len(events),
    )


def bits(*xs):
    """The IEEE bytes of floats (None and ints allowed), for bitwise
    comparison: -0.0 and 0.0 differ here, unlike under ==."""
    out = []
    for x in xs:
        out.append(b"N" if x is None else struct.pack("<d", float(x)))
    return b"".join(out)


def cost_bits(c):
    return bits(c.init, *c.ts) + b"|" + bits(*c.cs)


def mutant(fn, old, new):
    """fn recompiled from its source with one expression replaced, in its
    own module's namespace: a deliberately broken copy for checking that
    a test notices the break."""
    src = textwrap.dedent(inspect.getsource(fn))
    assert src.count(old) == 1, f"{old!r} is not in {fn.__name__} exactly once"
    namespace = dict(fn.__globals__)
    exec(compile(src.replace(old, new), inspect.getsourcefile(fn), "exec"), namespace)
    return namespace[fn.__name__]


def pair_insertion_reference(tour, store, p, q, p_stop, d_stop):
    """Full-tour ATF with a pickup at p and its delivery at q >= p, by the
    three branches the solver used before its fold sweep, over a store
    with block levels (k = 2): q == p splices three actions, an inner q
    reads a mid-range query through ``eval_insertion``, and q == m
    splices the whole suffix."""
    inst, veh, br = tour.instance, tour.vehicle, tour.brackets
    stops = tour.stops
    m = len(stops)
    hyp = stops[:p] + [p_stop] + stops[p:q] + [d_stop] + stops[q:]
    if q == p:
        repl = [inst.action(veh, hyp, p - 1, br),
                inst.action(veh, hyp, p, br),
                inst.action(veh, hyp, p + 1, br)]
        return store.eval_splice(p + 1, p + 1, repl)
    if q <= m - 1:
        a_i = inst.action(veh, hyp, p - 1, br)
        a_p = inst.action(veh, hyp, p, br)
        a_j = inst.action(veh, hyp, q, br)
        a_d = inst.action(veh, hyp, q + 1, br)
        return store.eval_insertion(p + 1, q + 1, a_i, a_p, a_j, a_d)
    repl = [inst.action(veh, hyp, p - 1, br),
            inst.action(veh, hyp, p, br)]
    if q > p + 1:
        repl.append(store.query(p + 1, q))
    repl.append(inst.action(veh, hyp, q, br))
    repl.append(inst.action(veh, hyp, q + 1, br))
    return store.eval_splice(p + 1, store.n, repl)


def window_bounds_reference(tour):
    """The earliest service start at each stop of a tour, and the latest
    start at each stop and at the end depot, by walking its arcs: forward
    from the vehicle's availability, and back from its return deadline
    through each arc's latest departure."""
    inst, veh, stops = tour.instance, tour.vehicle, tour.stops
    m = len(stops)
    eat = []
    t = veh.avail_lo
    prev = veh.start_address
    for s in stops:
        start = max(inst.arc(prev, s.address).eval(t), s.open)
        eat.append(start)
        t = start + s.duration
        prev = s.address
    lst = [0.0] * m + [min(veh.avail_hi, FAR_FUTURE)]
    nxt = veh.end_address
    for i in range(m - 1, -1, -1):
        s = stops[i]
        dep = inst.arc(s.address, nxt).latest_departure(lst[i + 1])
        lst[i] = -math.inf if dep is None else min(s.close, dep - s.duration)
        nxt = s.address
    return eat, lst


def pair_prices_reference(tour, item):
    """{(p, q): cost delta} over every feasible pickup-delivery position
    pair that survives the solver's capacity and window screens, each
    priced by ``pair_insertion_reference`` over a fresh k = 2 store of the
    tour's actions.  The screens never discard a feasible pair."""
    inst, veh = tour.instance, tour.vehicle
    stops = tour.stops
    m = len(stops)
    store = SegmentStore(build_actions(inst, veh, stops, tour.brackets), k=2)
    eat, lst = window_bounds_reference(tour)
    p_stop, d_stop = item.stops()

    def lo(a, b):
        return inst.lo_travel(a, b)

    prices = {}
    for p in range(m + 1):
        if p == 0:
            prev_addr, depart_lb = veh.start_address, veh.avail_lo
        else:
            prev_addr = stops[p - 1].address
            depart_lb = eat[p - 1] + stops[p - 1].duration
        arr_p_lb = depart_lb + lo(prev_addr, p_stop.address)
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
                dep_d_lb = max(start_p_lb + p_stop.duration + lo(p_stop.address, stops[p].address),
                               eat[q - 1] + stops[q - 1].duration)
                prev_d_addr = stops[q - 1].address
            arr_d_lb = dep_d_lb + lo(prev_d_addr, d_stop.address)
            if arr_d_lb > d_stop.close + 1e-9:
                break
            nxt_addr, latest_next = ((veh.end_address, lst[m]) if q == m
                                     else (stops[q].address, lst[q]))
            if (max(arr_d_lb, d_stop.open) + d_stop.duration
                    + lo(d_stop.address, nxt_addr)) > latest_next + 1e-9:
                continue
            try:
                atf = pair_insertion_reference(tour, store, p, q, p_stop, d_stop)
            except EmptyDomain:
                continue
            sched = schedule_tour(veh, atf)
            if sched is not None:
                prices[p, q] = sched.total_cost - tour.schedule.total_cost
    return prices


def brute_insertion(inst, tour, item):
    """The least cost delta of inserting the item into the tour, or None
    when it fits nowhere: every position, or every (pickup, delivery)
    position pair, priced by a fresh ``Tour`` over the new stop list,
    with EmptyDomain or a load past capacity meaning infeasible."""
    veh, stops = tour.vehicle, tour.stops
    m = len(stops)
    if item.depot_pickup:
        lists = [stops[:p] + item.stops() + stops[p:] for p in range(m + 1)]
    else:
        p_stop, d_stop = item.stops()
        lists = [stops[:p] + [p_stop] + stops[p:q] + [d_stop] + stops[q:]
                 for p in range(m + 1) for q in range(p, m + 1)]
    best = None
    for new in lists:
        try:
            fresh = Tour(inst, veh, new, tour.brackets)
        except EmptyDomain:
            continue
        if max(fresh.loads) > veh.capacity + 1e-9:
            continue
        delta = fresh.schedule.total_cost - tour.schedule.total_cost
        if best is None or delta < best:
            best = delta
    return best


def set_stops_reference(tour, stops):
    """``Tour.set_stops`` from scratch: every action built afresh, a new
    ``FoldStore`` over them, and the tour's derived state recomputed;
    on EmptyDomain the tour is left as it was."""
    inst, veh = tour.instance, tour.vehicle
    store = FoldStore(build_actions(inst, veh, stops, tour.brackets))
    schedule = schedule_tour(veh, store.full_atf())
    if schedule is None:
        raise EmptyDomain(f"tour of vehicle {veh.id} is infeasible")
    by_id = inst.item_by_id
    preload = sum(by_id[s.item_id].demand for s in stops
                  if s.kind == "D" and by_id[s.item_id].depot_pickup)
    loads = list(itertools.accumulate((s.demand_delta for s in stops), initial=preload))
    tour.stops, tour.store, tour.schedule = list(stops), store, schedule
    tour.loads = loads
    tour._content_id = None


def compute_friends(instance):
    """The friend graph over every item pair: two items are friends when
    the travel bound of serving both in one tour is at most
    ``FRIEND_RATIO`` of the sum of their single-item bounds."""
    friends = {it.id: set() for it in instance.items}
    if instance.vehicles:
        veh = instance.vehicles[0]
        singles = {it.id: construct._single_item_lb(instance, veh, it)
                   for it in instance.items}
        items = instance.items
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                a, b = items[i], items[j]
                denom = singles[a.id] + singles[b.id]
                if denom <= 1e-9:
                    continue
                if construct._pair_lb(instance, veh, a, b) / denom <= construct.FRIEND_RATIO:
                    friends[a.id].add(b.id)
                    friends[b.id].add(a.id)
    return friends


def select_seeds_reference(instance):
    """The seed greedy over ``compute_friends``'s graph: items by falling
    importance (penalty plus single-item bound), each taken unless a
    friend was taken before, at most one per vehicle."""
    friends = compute_friends(instance)
    veh = instance.vehicles[0] if instance.vehicles else None

    def importance(item):
        return item.penalty + (construct._single_item_lb(instance, veh, item) if veh else 0.0)

    ranked = sorted(instance.items, key=lambda it: (-importance(it), it.id))
    seeds, chosen = [], set()
    for it in ranked:
        if len(seeds) >= len(instance.vehicles):
            break
        if friends[it.id] & chosen:
            continue
        seeds.append(it)
        chosen.add(it.id)
    return seeds


def relocate_pass_reference(instance, solution, max_sweeps=None, deadline=None):
    """``relocate_pass`` without its screens: every served item's removal
    is priced, and so is its insertion into every other tour."""
    any_gain = False
    sweeps = 0
    improved = True
    while improved:
        improved = False
        sweeps += 1
        for tour in list(solution.tours):
            if not tour.stops:
                continue
            for item_id in list(tour.item_ids):
                if deadline is not None and time.monotonic() >= deadline:
                    solution.drop_empty_tours()
                    return any_gain
                if not any(s.item_id == item_id for s in tour.stops):
                    continue
                item = instance.item_by_id[item_id]
                gain = localsearch._removal_gain(instance, tour, item)
                if gain is None:
                    continue
                removal_delta, new_stops = gain
                best = None
                for other in solution.tours:
                    if other is tour or not other.stops:
                        continue
                    plan = best_insertion(instance, other, item)
                    if plan is None:
                        continue
                    if best is None or plan.delta_cost < best[1].delta_cost - 1e-12:
                        best = (other, plan)
                if best is None:
                    continue
                other, plan = best
                if plan.delta_cost + removal_delta < -localsearch._IMPROVE_EPS:
                    tour.set_stops(new_stops)
                    apply_insertion(other, item, plan)
                    improved = True
                    any_gain = True
            solution.drop_empty_tours()
        if max_sweeps is not None and sweeps >= max_sweeps:
            break
    return any_gain
