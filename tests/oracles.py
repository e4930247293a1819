"""Shared random generators and independent oracles for the test suite.

Oracles deliberately avoid the code paths they check: pointwise oracles
use only eval/np.interp, the corridor oracle enumerates grid polylines,
and the scheduling oracle brute-forces a dense grid.
"""

from bisect import bisect_right

import numpy as np

from tdroute.plf import Atf, StepCost, compose
from tdroute.plf.envelope import PiecewiseLinear


def rand_atf(rng, b_max=8, t0=0.0, span=10.0, flat_prob=0.3, dur_max=3.0):
    """Random valid ATF: monotone, FIFO, non-redundant."""
    b = int(rng.integers(1, b_max + 1))
    ts = np.unique(np.round(np.sort(rng.uniform(t0, t0 + span, size=b)), 6))
    vs = [float(ts[0] + rng.uniform(0.05, dur_max))]
    for i in range(1, len(ts)):
        step = 0.0 if rng.random() < flat_prob else float(rng.uniform(0, 1.8))
        vs.append(max(vs[-1] + step * (ts[i] - ts[i - 1]), float(ts[i])))
    return Atf(list(zip(ts, vs)))


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
