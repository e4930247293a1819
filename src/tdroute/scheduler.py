"""Optimal tour start times under piecewise cost models.

The total cost of starting a tour at t0 is

    c_a(t0) + c_ot(a(t0) - t0) + integral of c_wt over [t0, a(t0)]

where a is the tour's ATF, c_a its attached step cost, c_ot a continuous
non-decreasing piecewise-linear overtime/duration cost, and c_wt a
piecewise-constant work-time rate.  Between the event points listed below
the total is affine, so scanning events and taking one-sided values at
jumps yields the exact least minimizer in linear time.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .plf import EPS_T, OutOfDomain, StepCost, ZERO_COST


class PLCost:
    """Continuous, non-decreasing piecewise-linear cost of a duration.

    Defined on [0, inf); extends past the last breakpoint with final_slope.
    """

    __slots__ = ("xs", "ys", "final_slope")

    def __init__(self, points=((0.0, 0.0),), final_slope=0.0):
        pts = [(float(x), float(y)) for x, y in points]
        if not pts or pts[0][0] != 0.0:
            raise ValueError("c_ot must start at duration 0")
        for i in range(1, len(pts)):
            if pts[i][0] <= pts[i - 1][0]:
                raise ValueError("breakpoints must increase")
            if pts[i][1] < pts[i - 1][1] - 1e-12:
                raise ValueError("c_ot must be non-decreasing")
        if final_slope < 0:
            raise ValueError("c_ot must be non-decreasing")
        self.xs = tuple(p[0] for p in pts)
        self.ys = tuple(p[1] for p in pts)
        self.final_slope = float(final_slope)

    @staticmethod
    def linear(rate_per_hour):
        """Cost proportional to the duration (rate in dollars per hour)."""
        return PLCost(((0.0, 0.0),), final_slope=rate_per_hour / 3600.0)

    @property
    def b(self):
        return len(self.xs)

    def eval(self, d):
        xs, ys = self.xs, self.ys
        if d <= xs[0]:
            return ys[0]
        if d >= xs[-1]:
            return ys[-1] + self.final_slope * (d - xs[-1])
        i = bisect_right(xs, d) - 1
        if xs[i] == d:
            return ys[i]
        return ys[i] + (ys[i + 1] - ys[i]) * (d - xs[i]) / (xs[i + 1] - xs[i])


ZERO_OVERTIME = PLCost()


@dataclass(frozen=True)
class CostModel:
    """Duration cost plus a time-of-day work-time rate."""

    c_ot: PLCost = ZERO_OVERTIME
    c_wt: StepCost = ZERO_COST

    @staticmethod
    def hourly(rate_per_hour):
        return CostModel(c_ot=PLCost.linear(rate_per_hour))


ZERO_MODEL = CostModel()


@dataclass(frozen=True)
class ScheduleResult:
    t0: float
    total_cost: float
    cost_departure: float    # c_a(t0)
    cost_overtime: float     # c_ot(duration)
    cost_worktime: float     # integral of c_wt
    duration: float
    events_scanned: int = 0

    @property
    def components(self):
        return (self.cost_departure, self.cost_overtime, self.cost_worktime)


def _wt_integral(c_wt, lo, hi):
    """Exact integral of the piecewise-constant rate over [lo, hi]."""
    if hi <= lo or (not c_wt.ts and c_wt.init == 0.0):
        return c_wt.init * (hi - lo) if hi > lo else 0.0
    total = 0.0
    prev_t = lo
    prev_c = c_wt.init
    for t, c in zip(c_wt.ts, c_wt.cs):
        if t >= hi:
            break
        if t > prev_t:
            total += prev_c * (min(t, hi) - prev_t)
            prev_t = min(t, hi)
        prev_c = c
    total += prev_c * (hi - prev_t)
    return total


def total_cost(a, model, t0):
    """Exact total cost of starting at t0; OutOfDomain past t_max."""
    if t0 > a.t_max + EPS_T:
        raise OutOfDomain(f"start {t0} beyond {a.t_max}")
    arrival = a.eval(t0)
    dep = a.cost.eval(t0)
    ot = model.c_ot.eval(max(arrival - t0, 0.0))
    wt = _wt_integral(model.c_wt, t0, arrival)
    return dep + ot + wt


def optimal_start(a, model=ZERO_MODEL, max_duration=None):
    """Least t0 in [t_min, t_max] minimizing the total cost.

    Scans the event points where the total can kink or jump: breakpoints of
    a, discontinuities of c_a, points where the duration a(t)-t crosses a
    c_ot breakpoint, and discontinuities of c_wt hit by either t0 or the
    arrival a(t0).  Between events the total is affine and lower
    semi-continuity makes point evaluations sufficient.

    With max_duration set, starts whose duration exceeds it are excluded
    (crossings of the duration with the cap become extra events); returns
    None when no start is feasible.
    """
    t_lo, t_hi = a.t_min, a.t_max
    events = {t_lo, t_hi}
    for t in a.ts:
        if t_lo <= t <= t_hi:
            events.add(t)
    for t in a.cost.ts:
        if t_lo <= t <= t_hi:
            events.add(t)
    # c_ot breakpoints (and the duration cap): solve a(t) - t = d per segment
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
    # c_wt discontinuities, directly and through the arrival time
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


def soft_window_penalty(window_end, brackets):
    """Step penalty for starting service close to a window's deadline.

    brackets are (minutes_before_deadline, dollars) pairs with strictly
    decreasing offsets and non-decreasing penalties; e.g. ((15, 1), (10, 2),
    (5, 4)) charges $1 from 15 minutes out, $2 from 10, $4 in the last 5.
    The result is added onto an action's attached cost.
    """
    brackets = [(float(m), float(c)) for m, c in brackets]
    if not brackets:
        return ZERO_COST
    for i in range(1, len(brackets)):
        if brackets[i][0] >= brackets[i - 1][0]:
            raise ValueError("offsets must strictly decrease toward the deadline")
        if brackets[i][1] < brackets[i - 1][1]:
            raise ValueError("penalties must not decrease toward the deadline")
    if any(m < 0 for m, _ in brackets):
        raise ValueError("offsets are minutes before the deadline, >= 0")
    pieces = [(window_end - m * 60.0, c) for m, c in brackets]
    return StepCost(0.0, pieces)
