"""Local search: segment swaps, relocations, ruin-and-recreate walks."""

from __future__ import annotations

import time

from ..plf import EmptyDomain
from .construct import _InsertionCache, compute_friends, regret_construct
from .insertion import apply_insertion
from .model import Tour, schedule_tour

L_MAX = 3
_IMPROVE_EPS = 1e-9


def _item_runs(tour, max_len=L_MAX, include_empty=False):
    """Contiguous stop runs closed under items (both stops of every touched
    item inside), as (first_stop, last_stop, item_ids)."""
    stops = tour.stops
    m = len(stops)
    runs = []
    if include_empty:
        for i in range(m + 1):
            runs.append((i, i - 1, ()))
    for i in range(m):
        items = set()
        for j in range(i, min(m, i + 2 * max_len)):
            items.add(stops[j].item_id)
            if len(items) > max_len:
                break
            closed = all(
                sum(1 for s in stops[i:j + 1] if s.item_id == it)
                == sum(1 for s in stops if s.item_id == it)
                for it in items)
            if closed:
                runs.append((i, j, tuple(sorted(items))))
    return runs


def _tour_cost_of_stops(instance, vehicle, stops, brackets):
    if not stops:
        return 0.0, None
    tour = Tour(instance, vehicle, stops, brackets)
    return tour.cost, tour


def _reversed_run(stops):
    """Reversed stop order, or None if it would put a delivery first."""
    rev = list(reversed(stops))
    for it in {s.item_id for s in rev}:
        kinds = [s.kind for s in rev if s.item_id == it]
        if "P" in kinds and "D" in kinds and kinds.index("D") < kinds.index("P"):
            return None
    return rev


def segment_swap(instance, tour_a, tour_b, friends=None, max_len=L_MAX):
    """Best strictly-improving exchange of item-closed runs between two
    tours (either side may be empty, which makes this a relocation).

    Returns (delta, stops_a, stops_b) or None.  Tours are not modified.
    """
    if tour_a is tour_b:
        return None
    runs_a = _item_runs(tour_a, max_len, include_empty=True)
    runs_b = _item_runs(tour_b, max_len, include_empty=True)
    items_a = set(tour_a.item_ids)
    items_b = set(tour_b.item_ids)
    base = tour_a.cost + tour_b.cost
    best = None
    for fa, la, ids_a in runs_a:
        seg_a = tour_a.stops[fa:la + 1]
        for fb, lb, ids_b in runs_b:
            if not ids_a and not ids_b:
                continue
            seg_b = tour_b.stops[fb:lb + 1]
            if friends is not None:
                # moved items should fit with something staying behind
                stay_a = items_a - set(ids_a)
                stay_b = items_b - set(ids_b)
                ok_b_into_a = (not ids_b) or (not stay_a) or any(
                    friends[i] & stay_a for i in ids_b)
                ok_a_into_b = (not ids_a) or (not stay_b) or any(
                    friends[i] & stay_b for i in ids_a)
                if not (ok_b_into_a and ok_a_into_b):
                    continue
            for seg_b_used in ([seg_b, _reversed_run(seg_b)] if len(seg_b) > 1 else [seg_b]):
                if seg_b_used is None:
                    continue
                for seg_a_used in ([seg_a, _reversed_run(seg_a)] if len(seg_a) > 1 else [seg_a]):
                    if seg_a_used is None:
                        continue
                    new_a = tour_a.stops[:fa] + list(seg_b_used) + tour_a.stops[la + 1:]
                    new_b = tour_b.stops[:fb] + list(seg_a_used) + tour_b.stops[lb + 1:]
                    try:
                        cost_a, _ = _tour_cost_of_stops(instance, tour_a.vehicle, new_a, tour_a.brackets)
                        cost_b, _ = _tour_cost_of_stops(instance, tour_b.vehicle, new_b, tour_b.brackets)
                    except EmptyDomain:
                        continue
                    delta = cost_a + cost_b - base
                    if delta < -_IMPROVE_EPS and (best is None or delta < best[0] - 1e-12):
                        best = (delta, new_a, new_b)
    return best


def apply_swap(solution, tour_a, tour_b, new_a, new_b):
    tour_a.set_stops(new_a)
    tour_b.set_stops(new_b)
    solution.drop_empty_tours()


def relocate_pass(instance, solution, cache=None, friends=None, max_sweeps=None):
    """Move single items to their cheapest other tour while it helps."""
    cache = cache or _InsertionCache(instance)
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
                if not any(s.item_id == item_id for s in tour.stops):
                    continue
                item = instance.item_by_id[item_id]
                gain = _removal_gain(instance, tour, item)
                if gain is None:
                    continue
                removal_delta, new_stops = gain
                best = None
                for other in solution.tours:
                    if other is tour or not other.stops:
                        continue
                    plan = cache.best(other, item)
                    if plan is None:
                        continue
                    if best is None or plan.delta_cost < best[1].delta_cost - 1e-12:
                        best = (other, plan)
                if best is None:
                    continue
                other, plan = best
                if plan.delta_cost + removal_delta < -_IMPROVE_EPS:
                    tour.set_stops(new_stops)
                    apply_insertion(other, item, plan)
                    improved = True
                    any_gain = True
            solution.drop_empty_tours()
        if max_sweeps is not None and sweeps >= max_sweeps:
            break
    return any_gain


def _removal_gain(instance, tour, item):
    """Cost delta and the stop list after dropping one item, priced through
    the tour's store without building a new tour."""
    idxs = [i for i, s in enumerate(tour.stops) if s.item_id == item.id]
    if not idxs:
        return None
    new_stops = [s for s in tour.stops if s.item_id != item.id]
    if not new_stops:
        return -tour.cost, new_stops
    try:
        atf = eval_without_positions(tour, idxs)
        sched = schedule_tour(tour.vehicle, atf)
    except EmptyDomain:
        return None
    if sched is None:
        return None
    return sched.total_cost - tour.schedule.total_cost, new_stops


def eval_without_positions(tour, idxs):
    """Tour ATF with the stops at the given positions removed (store splice)."""
    inst, veh = tour.instance, tour.vehicle
    stops = tour.stops
    removed = set(idxs)
    new_stops = [s for i, s in enumerate(stops) if i not in removed]
    e1, e2 = min(idxs), max(idxs)
    repl = [inst.action(veh, new_stops, e1 - 1, tour.brackets)]
    if e2 > e1:
        # unchanged run between the two removals, then a retargeted tail
        if e2 > e1 + 2:
            repl.append(tour.store.query(e1 + 2, e2))
        if e2 > e1 + 1:
            repl.append(inst.action(veh, new_stops, e2 - 2, tour.brackets))
    return tour.store.eval_splice(e1 + 1, e2 + 2, repl)


def random_walk(instance, solution, rng, budget, brackets=(), time_limit=None,
                on_accept=None):
    """Ruin-and-recreate: alternately tear out a random run or dissolve a
    whole tour, reinsert by regret, keep the result iff it is not worse."""
    deadline = time.monotonic() + time_limit if time_limit is not None else None
    incumbent = solution.clone_state()
    incumbent_cost = solution.total_cost
    cache = _InsertionCache(instance)
    friends = compute_friends(instance)
    for it in range(budget):
        if deadline is not None and time.monotonic() >= deadline:
            break
        tours = [t for t in solution.tours if t.stops]
        if not tours:
            break
        if it % 2 == 0 or len(tours) < 2:
            # sequence ruin
            tour = tours[rng.randrange(len(tours))]
            runs = _item_runs(tour, L_MAX)
            if not runs:
                continue
            _, _, ids = runs[rng.randrange(len(runs))]
        else:
            # dissolve an entire tour, preferring one of the thinnest
            # (spreading few items is the likeliest way to drop a vehicle)
            by_size = sorted(tours, key=lambda t: (len(t.item_ids), t.uid))
            pick = min(rng.randrange(len(tours)), rng.randrange(len(tours)))
            tour = by_size[min(pick, len(by_size) - 1)]
            ids = tuple(tour.item_ids)
        removed = [instance.item_by_id[i] for i in ids]
        try:
            # removal can be infeasible when the matrix violates the
            # triangle inequality (the direct arc may be slower)
            for t in solution.tours:
                if any(s.item_id in ids for s in t.stops):
                    t.set_stops([s for s in t.stops if s.item_id not in ids])
            solution.drop_empty_tours()
            regret_construct(instance, rng, brackets=brackets, cache=cache,
                             solution=solution, items=removed)
            relocate_pass(instance, solution, cache=cache, friends=friends,
                          max_sweeps=1)
            cost = solution.total_cost
        except EmptyDomain:
            cost = None
        if cost is not None and cost <= incumbent_cost + _IMPROVE_EPS:
            incumbent = solution.clone_state()
            incumbent_cost = min(cost, incumbent_cost)
            if on_accept is not None:
                on_accept(solution)
        else:
            solution.restore_state(incumbent, brackets)
    solution.restore_state(incumbent, brackets)
    solution.drop_empty_tours()
    return solution
