"""Time-dependent instance generation and flattening.

Arcs get piecewise-constant speed profiles (hourly multipliers of the
free-flow speed); integrating the speed exactly turns a constant free-flow
duration into a piecewise-linear FIFO arrival time function.  Flattening
replaces each arc by a constant: its worst-case travel time over the
planning horizon, the time-average, or the mean of the two.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..plf import Atf, StepCost, polish, simplify
from ..solver import Instance, Item, Vehicle

HOUR = 3600.0


@dataclass(frozen=True)
class SpeedProfile:
    """Hourly multipliers of the free-flow speed, starting at start_hour."""

    name: str
    start_hour: int
    multipliers: tuple

    def __post_init__(self):
        if any(m <= 0 for m in self.multipliers):
            raise ValueError("speed multipliers must be positive")

    def slope_at(self, t):
        h = int(math.floor(t / HOUR)) - self.start_hour
        if 0 <= h < len(self.multipliers):
            return self.multipliers[h]
        return 1.0


# An evening-delivery profile bank: free flow, two rush shapes, one early
# slowdown.  Multipliers scale speed, so 0.5 doubles the travel time.
DEFAULT_PROFILES = (
    SpeedProfile("flat", 15, (1.0,)),
    SpeedProfile("mild_rush", 15, (0.9, 0.75, 0.65, 0.7, 0.85, 0.95, 1.0)),
    SpeedProfile("heavy_rush", 15, (0.7, 0.5, 0.45, 0.5, 0.65, 0.85, 1.0)),
    SpeedProfile("early_jam", 15, (0.55, 0.6, 0.75, 0.9, 1.0, 1.0, 1.0)),
)


def td_arc(free_flow, profile, horizon, cost=None, eps=0.0):
    """Exact TD arrival function for an arc with the given free-flow time.

    Distance is measured in free-flow seconds; the cumulative covered
    distance Z(t) integrates the speed multiplier, and departures arrive at
    Zinv(Z(t) + free_flow).  FIFO holds because Z strictly increases.

    The arc is exact unless eps > 0.  Then it is simplified (monotone
    Imai-Iri plus polish) to a function within [f, f + eps], which is
    returned only when it has fewer breakpoints than the exact f.
    """
    lo = horizon[0] - 2 * HOUR
    hi = horizon[1] + 12 * HOUR
    if free_flow <= 1e-12:
        return Atf.constant_travel(0.0, lo, hi, cost=cost)
    knots, zs, slopes = _clock(profile, lo, hi)
    last = len(knots) - 2

    def t_of(z):
        i = max(0, min(bisect_right(zs, z) - 1, last))
        return knots[i] + (z - zs[i]) / slopes[i]

    cands = set(knots)
    for zk in zs:
        t = t_of(zk - free_flow)
        if lo < t < hi:
            cands.add(t)
    ts = sorted(cands)
    vs = []
    for t in ts:
        i = max(0, min(bisect_right(knots, t) - 1, last))
        vs.append(t_of(zs[i] + slopes[i] * (t - knots[i]) + free_flow))
    atf = Atf(zip(ts, vs), cost=cost)
    if eps <= 0:
        return atf
    g = polish(simplify(atf, eps), atf, eps)
    # approximation only pays when it actually sheds breakpoints
    return g.with_cost(atf.cost) if g.b < atf.b else atf


@lru_cache(maxsize=64)
def _clock(profile, lo, hi):
    """The profile's clock over [lo, hi], shared by all its arcs: the knots
    (lo, every hour boundary strictly inside, hi), the covered distance
    Z at each knot, and the speed multiplier of each segment between
    knots."""
    knots = [lo]
    h0 = profile.start_hour * HOUR
    for i in range(len(profile.multipliers) + 1):
        t = h0 + i * HOUR
        if lo < t < hi:
            knots.append(t)
    knots.append(hi)
    slopes = [profile.slope_at(0.5 * (knots[i] + knots[i + 1]))
              for i in range(len(knots) - 1)]
    zs = [0.0]
    for i, s in enumerate(slopes):
        zs.append(zs[-1] + s * (knots[i + 1] - knots[i]))
    return tuple(knots), tuple(zs), tuple(slopes)


def generate_td(base, profiles=DEFAULT_PROFILES, rng=None,
                regenerate_windows=False):
    """Replace a constant-ATF instance's arcs by time-dependent ones.

    Every arc draws one profile (seeded rng keeps this reproducible) and
    is built exactly by ``td_arc``, with no simplification; arc costs carry
    over unchanged.  With regenerate_windows, delivery windows
    are redrawn: with probability one half a one-hour window starting at a
    full or half hour, otherwise the wide default window.
    """
    rng = rng or np.random.default_rng(0)
    profiles = list(profiles)
    n = base.n_addresses
    matrix = []
    for p in range(n):
        row = []
        for q in range(n):
            arc = base.matrix[p][q]
            free = arc.travel_bounds().lo
            prof = profiles[int(rng.integers(0, len(profiles)))]
            row.append(td_arc(free, prof, base.horizon, cost=arc.cost))
        matrix.append(row)
    items = base.items
    if regenerate_windows:
        scheme = default_window_scheme(base.horizon)
        items = [scheme(it, rng) for it in items]
    return Instance(base.name + "_td", matrix, items, base.vehicles,
                    horizon=base.horizon, depot=base.depot)


def default_window_scheme(horizon):
    """The half-hour-grid window scheme: 50% one-hour windows."""
    lo, hi = horizon
    first = lo + 0.5 * HOUR
    starts = []
    s = first
    while s + HOUR <= hi - 0.5 * HOUR:
        starts.append(s)
        s += 0.5 * HOUR

    def scheme(item, rng):
        if rng.random() < 0.5 and starts:
            w0 = float(starts[int(rng.integers(0, len(starts)))])
            return _with_window(item, w0, w0 + HOUR)
        return _with_window(item, first, hi)

    return scheme


def _with_window(item, open_, close):
    from dataclasses import replace
    return replace(item, delivery_open=open_, delivery_close=close)


def flatten(instance, mode):
    """Constant-travel-time version of a TD instance.

    worst = maximum travel time over the horizon, average = time-average
    over the horizon, mixed = arithmetic mean of the two.
    """
    if mode not in ("worst", "average", "mixed"):
        raise ValueError(f"unknown flatten mode {mode!r}")
    lo_h, hi_h = instance.horizon
    n = instance.n_addresses
    matrix = []
    for p in range(n):
        row = []
        for q in range(n):
            arc = instance.matrix[p][q]
            worst, avg = _horizon_stats(arc, lo_h, hi_h)
            dur = {"worst": worst, "average": avg, "mixed": 0.5 * (worst + avg)}[mode]
            row.append(Atf.constant_travel(dur, arc.t_min, arc.t_max, cost=arc.cost))
        matrix.append(row)
    return Instance(instance.name + "_" + mode, matrix, instance.items,
                    instance.vehicles, horizon=instance.horizon, depot=instance.depot)


def _horizon_stats(arc, lo, hi):
    """Max and time-average of the travel time a(t) - t over [lo, hi]."""
    ts = [lo] + [t for t in arc.ts if lo < t < hi] + [hi]
    durs = [arc.eval(min(t, arc.t_max)) - t for t in ts]
    worst = max(durs)
    area = 0.0
    for i in range(len(ts) - 1):
        area += 0.5 * (durs[i] + durs[i + 1]) * (ts[i + 1] - ts[i])
    avg = area / (hi - lo) if hi > lo else durs[0]
    return worst, avg


# -- synthetic benchmark instances -----------------------------------------


def make_benchmark_instance(n_customers, seed, fixed_cost=200.0,
                            hourly_cost=20.0, side=1500.0):
    """Single-depot evening-delivery instance on a synthetic city square.

    Coordinates live in free-flow travel seconds; deliveries take three
    minutes and must start within their window; half the windows are one
    hour long, the rest span the whole afternoon.  Tours may start at the
    depot from 15:00 and end at any time.
    """
    rng = np.random.default_rng(seed)
    h_lo, h_hi = 15 * HOUR, 21 * HOUR
    xy = rng.uniform(0.0, side, size=(n_customers + 1, 2))
    xy[0] = (side / 2, side / 2)
    n = n_customers + 1
    matrix = []
    for p in range(n):
        row = []
        for q in range(n):
            d = float(np.hypot(*(xy[p] - xy[q])))
            row.append(Atf.constant_travel(d, h_lo - 3 * HOUR, h_hi + 24 * HOUR))
        matrix.append(row)
    starts = [h_lo + 0.5 * HOUR + 0.5 * HOUR * k for k in range(10)]  # 15:30..20:00
    items = []
    for i in range(1, n):
        if rng.random() < 0.5:
            w0 = float(starts[int(rng.integers(0, len(starts)))])
            open_, close = w0, w0 + HOUR
        else:
            open_, close = h_lo + 0.5 * HOUR, h_hi
        items.append(Item(
            id=i, pickup_address=0, pickup_open=h_lo, pickup_close=h_hi + 24 * HOUR,
            pickup_duration=0.0, delivery_address=i, delivery_open=open_,
            delivery_close=close, delivery_duration=180.0, demand=1.0,
            penalty=2000.0, depot_pickup=True))
    n_veh = max(4, n_customers // 6)
    vehicles = [Vehicle(id=v, start_address=0, end_address=0, avail_lo=h_lo,
                        avail_hi=h_hi + 24 * HOUR, fixed_cost=fixed_cost,
                        time_cost_per_hour=hourly_cost, capacity=math.inf)
                for v in range(n_veh)]
    return Instance(f"city{n_customers}_s{seed}", matrix, items, vehicles,
                    horizon=(h_lo, h_hi), depot=0)


def make_planted_instance(n_customers=100, seed=0, n_routes=10,
                          fixed_cost=10000.0):
    """Clustered-route instance with a known feasible reference solution.

    Customers are split into angular sectors, one reference route per
    sector; windows are drawn around the reference arrival times, so the
    reference routes stay feasible.  Returns (instance, reference_vehicles,
    reference_distance).
    """
    rng = np.random.default_rng(seed)
    depot = np.array([50.0, 50.0])
    pts = rng.uniform(0.0, 100.0, size=(n_customers, 2))
    ang = np.arctan2(pts[:, 1] - depot[1], pts[:, 0] - depot[0])
    order = np.argsort(ang, kind="stable")
    routes = np.array_split(order, n_routes)
    coords = [tuple(depot)] + [tuple(p) for p in pts]
    service = 10.0

    def dist(a, b):
        return float(np.hypot(coords[a][0] - coords[b][0], coords[a][1] - coords[b][1]))

    ref_dist = 0.0
    windows = {}
    demands = {}
    route_loads = []
    for route in routes:
        seq = []
        remaining = [int(c) + 1 for c in route]
        cur = 0
        while remaining:
            nxt = min(remaining, key=lambda c: (dist(cur, c), c))
            remaining.remove(nxt)
            seq.append(nxt)
            cur = nxt
        t = 0.0
        prev = 0
        load = 0.0
        for c in seq:
            t += dist(prev, c)
            slack_lo = float(rng.uniform(10, 80))
            slack_hi = float(rng.uniform(20, 120))
            windows[c] = (max(0.0, t - slack_lo), t + slack_hi)
            demands[c] = float(rng.integers(1, 20))
            load += demands[c]
            ref_dist += dist(prev, c)
            t += service
            prev = c
        ref_dist += dist(prev, 0)
        route_loads.append(load)
    horizon_hi = max(w[1] for w in windows.values()) + 200.0
    capacity = math.ceil(max(route_loads)) + 1
    n = n_customers + 1
    matrix = [[Atf.constant_travel(dist(p, q), -1.0, horizon_hi + 4 * 86400.0,
                                   cost=StepCost(dist(p, q)))
               for q in range(n)] for p in range(n)]
    items = []
    for c in range(1, n):
        o, cl = windows[c]
        items.append(Item(
            id=c, pickup_address=0, pickup_open=0.0, pickup_close=horizon_hi,
            pickup_duration=0.0, delivery_address=c, delivery_open=o,
            delivery_close=cl, delivery_duration=service, demand=demands[c],
            penalty=1e6, depot_pickup=True))
    vehicles = [Vehicle(id=v, start_address=0, end_address=0, avail_lo=0.0,
                        avail_hi=horizon_hi, fixed_cost=fixed_cost,
                        capacity=capacity) for v in range(n_routes + 4)]
    inst = Instance(f"planted{n_customers}_s{seed}", matrix, items, vehicles,
                    horizon=(0.0, horizon_hi), depot=0)
    return inst, n_routes, ref_dist
