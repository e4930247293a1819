"""Local search: relocations and ruin-and-recreate walks."""

from __future__ import annotations

import time

from ..plf import EmptyDomain
from .construct import regret_construct
from .insertion import apply_insertion, best_insertion, insertion_floors, removal_bound
from .model import schedule_tour

L_MAX = 3
_IMPROVE_EPS = 1e-9


def _item_runs(tour, max_len=L_MAX):
    """Contiguous stop runs closed under items (both stops of every touched
    item inside), as (first_stop, last_stop, item_ids)."""
    stops = tour.stops
    m = len(stops)
    runs = []
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


def relocate_pass(instance, solution, max_sweeps=None, deadline=None):
    """Move single items to their cheapest other tour while it helps, or
    until ``time.monotonic()`` reaches the deadline, checked between items.

    A move is taken when its insertion delta plus its removal delta is
    below -_IMPROVE_EPS, and only moves that can pass that test are
    priced.  Each other tour's ``insertion_floors`` bound the item's
    insertion delta there from below, and ``removal_bound`` bounds what
    removing it saves from above.  An item is skipped, its removal
    unpriced, when no floor is below that saving by more than
    _IMPROVE_EPS; otherwise a target is skipped when its floor is not
    below the priced saving by that much.  Each test has a margin
    (``_cannot_pay``) above the rounding of the floors and the deltas, so
    a skipped move's delta sum is at least -_IMPROVE_EPS and the full
    scan would not take it either.  If the best of the targets priced is
    taken, each skipped delta is above it by more than the margin, so by
    the drop lemma of ``cheapest_by_floor`` the sequential pick over
    every target is that same one; if it is not taken, neither is any
    target the full scan might pick instead.  So the pass makes the same
    moves as pricing every item into every tour, bit for bit.

    Insertion and removal prices go through the instance's price memo,
    which lasts the whole solve: a sweep re-prices only the tours that
    changed since the last one, and a tour rebuilt with stops priced
    before (a rejected walk move restores them) hits the memo too.  Keys
    name the tour's content (see ``Tour.price_key``), and a price reads
    nothing but that content, so a hit is bit for bit the price of the
    live tour.  The floors are memoised per content alike.
    """
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
                slot = instance.item_slot[item_id]
                targets = [(other, insertion_floors(other)[slot])
                           for other in solution.tours if other is not tour and other.stops]
                saving = removal_bound(tour, item)
                if all(_cannot_pay(floor, saving, other) for other, floor in targets):
                    continue
                gain = _removal_gain(instance, tour, item)
                if gain is None:
                    continue
                removal_delta, new_stops = gain
                best = None
                for other, floor in targets:
                    if _cannot_pay(floor, -removal_delta, other):
                        continue
                    plan = best_insertion(instance, other, item)
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


def _cannot_pay(floor, saving, target):
    """Whether inserting into target, at a delta of at least floor, plus a
    removal that saves at most saving stays at or above -_IMPROVE_EPS.

    The margin, 1e-9 of one plus the saving and the target's cost, lies
    far above the rounding in the floor, the priced deltas and their sum,
    and above the drop lemma's (n + 1) * 1e-12 for any number of tours a
    solve holds."""
    return floor >= saving - _IMPROVE_EPS + 1e-9 * (
        1.0 + abs(saving) + abs(target.schedule.total_cost))


def _removal_gain(instance, tour, item):
    """Cost delta and the stop list after dropping one item, priced through
    the tour's store without building a new tour, and memoised on the
    instance under ``Tour.price_key``."""
    new_stops = [s for s in tour.stops if s.item_id != item.id]
    if len(new_stops) == len(tour.stops):
        return None
    delta = instance.price(tour.price_key(item), lambda: _removal_delta(tour, item))
    if delta is None:
        return None
    return delta, new_stops


def _removal_delta(tour, item):
    idxs = [i for i, s in enumerate(tour.stops) if s.item_id == item.id]
    if len(idxs) == len(tour.stops):
        return -tour.cost
    try:
        atf = eval_without_positions(tour, idxs)
        sched = schedule_tour(tour.vehicle, atf)
    except EmptyDomain:
        return None
    if sched is None:
        return None
    return sched.total_cost - tour.schedule.total_cost


def eval_without_positions(tour, idxs):
    """Tour ATF with the stops at the given positions removed: the store's
    folds around the new stop list's actions from the one retargeted at
    the first gap to the one retargeted at the last."""
    inst, veh = tour.instance, tour.vehicle
    removed = set(idxs)
    new_stops = [s for i, s in enumerate(tour.stops) if i not in removed]
    e1, e2 = min(idxs), max(idxs)
    repl = [inst.action(veh, new_stops, i, tour.brackets)
            for i in range(e1 - 1, e2 - len(idxs) + 1)]
    return tour.store.eval_splice(e1 + 1, e2 + 2, repl)


def random_walk(instance, solution, rng, budget, deadline=None):
    """Ruin-and-recreate: alternately tear out a random run or dissolve a
    whole tour, reinsert by regret, keep the result iff it is not worse.
    Stops early once ``time.monotonic()`` reaches the deadline, checked
    between moves.  Reinserted and restored tours are the solution's own
    (``Solution.new_tour``), so they keep its brackets."""
    incumbent = solution.clone_state()
    incumbent_cost = solution.total_cost
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
            regret_construct(instance, solution, items=removed)
            relocate_pass(instance, solution, max_sweeps=1, deadline=deadline)
            cost = solution.total_cost
        except EmptyDomain:
            cost = None
        if cost is not None and cost <= incumbent_cost + _IMPROVE_EPS:
            incumbent = solution.clone_state()
            incumbent_cost = min(cost, incumbent_cost)
        else:
            solution.restore_state(incumbent)
    solution.restore_state(incumbent)
    solution.drop_empty_tours()
    return solution
