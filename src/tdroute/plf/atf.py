"""Arrival time functions and their step-cost companions.

An arrival time function (ATF) maps a departure time t to the arrival time
a(t) at the far end of an arc, a path, or a whole tour.  It is piecewise
linear, continuous, non-decreasing (first-in-first-out), satisfies
a(t) >= t, is constant for t <= t_min, and is undefined past t_max.

Every ATF carries a piecewise-constant, lower semi-continuous cost of
departing at time t (path cost, tolls, soft-window penalties).  Composition
propagates these costs exactly.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

EPS_T = 1e-9      # abscissae closer than this are treated as coincident
EPS_SLOPE = 1e-9  # slope changes smaller than this mark a redundant breakpoint
EPS_V = 1e-9      # value comparisons (ties in minima)


class OutOfDomain(ValueError):
    """Evaluation past the right end of a function's domain."""


class EmptyDomain(ValueError):
    """A composition or restriction produced an empty domain."""


class MismatchedDomain(ValueError):
    """An n-way minimum was requested over functions with different domains."""


class InvalidEpsilon(ValueError):
    """Simplification tolerance must be positive."""


class StepCost:
    """Piecewise constant, lower semi-continuous departure-time cost.

    ``init`` is the value on (-inf, ts[0]); ``cs[i]`` is the value on the
    open interval (ts[i], ts[i+1]); the last piece extends to +inf.  At a
    jump point the function takes the smaller one-sided limit, which is
    what keeps it lower semi-continuous.
    """

    __slots__ = ("init", "ts", "cs")

    def __init__(self, init=0.0, pieces=()):
        init = float(init)
        ts: list[float] = []
        cs: list[float] = []
        prev_c = init
        for t, c in pieces:
            t = float(t)
            c = float(c)
            if ts and t < ts[-1] - EPS_T:
                raise ValueError("step cost pieces must be sorted by time")
            if ts and t - ts[-1] <= EPS_T:
                # coincident boundaries: the later piece wins
                cs[-1] = c
                prev_before = cs[-2] if len(cs) >= 2 else init
                if abs(c - prev_before) <= 1e-12:
                    ts.pop()
                    cs.pop()
                prev_c = cs[-1] if cs else init
                continue
            if abs(c - prev_c) <= 1e-12:
                continue
            ts.append(t)
            cs.append(c)
            prev_c = c
        self.init = init
        self.ts = tuple(ts)
        self.cs = tuple(cs)

    @property
    def discontinuities(self):
        return len(self.ts)

    def is_zero(self):
        return self.init == 0.0 and not self.ts

    def eval(self, t):
        """Value at t; at a jump, the smaller one-sided limit."""
        ts = self.ts
        if not ts:
            return self.init
        i = bisect_right(ts, t) - 1
        if i < 0:
            return self.init
        right = self.cs[i]
        if ts[i] == t:
            left = self.cs[i - 1] if i > 0 else self.init
            return min(left, right)
        return right

    def eval_many(self, arr):
        arr = np.asarray(arr, dtype=float)
        if not self.ts:
            return np.full(arr.shape, self.init)
        ts = np.asarray(self.ts)
        cs = np.asarray((self.init,) + self.cs)
        idx = np.searchsorted(ts, arr, side="right")
        out = cs[idx]
        # lower semi-continuity at the jump points themselves
        at_jump = idx > 0
        if np.any(at_jump):
            j = np.where(at_jump & (ts[np.maximum(idx - 1, 0)] == arr))[0]
            if j.size:
                out[j] = np.minimum(out[j], cs[idx[j] - 1])
        return out

    def shift_value(self, delta):
        """Add a constant to the cost everywhere."""
        if delta == 0.0:
            return self
        return StepCost(self.init + delta, [(t, c + delta) for t, c in zip(self.ts, self.cs)])

    def add(self, other):
        """Exact pointwise sum of two step costs."""
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if not other.ts:
            return self.shift_value(other.init)
        if not self.ts:
            return other.shift_value(self.init)
        bounds = _merge_sorted(self.ts, other.ts)
        init = self.init + other.init
        pieces = []
        for i, b in enumerate(bounds):
            right = bounds[i + 1] if i + 1 < len(bounds) else b + 1.0
            mid = 0.5 * (b + right)
            pieces.append((b, self.eval(mid) + other.eval(mid)))
        return StepCost(init, pieces)

    def __repr__(self):
        return f"StepCost(init={self.init!r}, pieces={list(zip(self.ts, self.cs))!r})"


ZERO_COST = StepCost()


def _merge_sorted(a, b):
    """Merge two sorted float tuples, dropping near-duplicates."""
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la or j < lb:
        if j >= lb or (i < la and a[i] <= b[j]):
            x = a[i]
            i += 1
        else:
            x = b[j]
            j += 1
        if out and x - out[-1] <= EPS_T:
            continue
        out.append(x)
    return out


class Atf:
    """Piecewise-linear FIFO arrival time function with attached step cost.

    Breakpoints are (t, v) pairs with strictly increasing t and
    non-decreasing v; the function is v[0] for t <= ts[0], interpolates
    linearly in between, and is undefined for t > ts[-1].
    """

    __slots__ = ("ts", "vs", "cost")

    def __init__(self, points=(), cost=None, *, ts=None, vs=None):
        """Breakpoints come as (t, v) pairs, or as parallel lists of floats
        ts and vs."""
        if ts is None:
            ts = []
            vs = []
            for t, v in points:
                ts.append(float(t))
                vs.append(float(v))
        if not ts:
            raise ValueError("an ATF needs at least one breakpoint")
        ts, vs = _normalize_points(ts, vs)
        _validate(ts, vs)
        self.ts = tuple(ts)
        self.vs = tuple(vs)
        self.cost = cost if cost is not None else ZERO_COST

    # -- constructors ---------------------------------------------------

    @staticmethod
    def identity(t_max, t_lo=None, cost=None):
        """a(t) = t on (-inf, t_max]."""
        if t_lo is None:
            t_lo = t_max - max(1.0, abs(t_max))
        if t_lo >= t_max:
            t_lo = t_max - 1.0
        return Atf(((t_lo, t_lo), (t_max, t_max)), cost=cost)

    @staticmethod
    def constant_travel(duration, t_lo, t_max, cost=None):
        """a(t) = t + duration on (-inf, t_max]."""
        if duration < 0:
            raise ValueError("travel time must be non-negative")
        if t_lo >= t_max:
            t_lo = t_max - 1.0
        return Atf(((t_lo, t_lo + duration), (t_max, t_max + duration)), cost=cost)

    # -- basic queries ---------------------------------------------------

    @property
    def b(self):
        return len(self.ts)

    @property
    def t_min(self):
        return self.ts[0]

    @property
    def t_max(self):
        return self.ts[-1]

    def with_cost(self, cost):
        a = Atf.__new__(Atf)
        a.ts = self.ts
        a.vs = self.vs
        a.cost = cost
        return a

    def eval(self, t):
        ts = self.ts
        if t > ts[-1]:
            if t > ts[-1] + EPS_T:
                raise OutOfDomain(f"t={t} beyond domain end {ts[-1]}")
            t = ts[-1]
        if t <= ts[0]:
            return self.vs[0]
        i = bisect_right(ts, t) - 1
        if ts[i] == t:
            return self.vs[i]
        if i == len(ts) - 1:
            return self.vs[-1]
        t0, t1 = ts[i], ts[i + 1]
        v0, v1 = self.vs[i], self.vs[i + 1]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    def eval_many(self, arr, strict=True):
        arr = np.asarray(arr, dtype=float)
        if strict and np.any(arr > self.ts[-1] + EPS_T):
            raise OutOfDomain("sample beyond domain end")
        clipped = np.minimum(arr, self.ts[-1])
        return np.interp(clipped, self.ts, self.vs)

    def latest_departure(self, v_target):
        """Largest t in the domain with a(t) <= v_target, or None."""
        vs = self.vs
        if vs[0] > v_target + EPS_T:
            return None
        if vs[-1] <= v_target:
            return self.ts[-1]
        # rightmost index with vs[j] <= v_target
        j = bisect_right(vs, v_target) - 1
        if j < 0:
            # vs[0] within EPS_T above target
            return self.ts[0]
        while j + 1 < len(vs) and vs[j + 1] <= v_target:
            j += 1
        t0, t1 = self.ts[j], self.ts[j + 1]
        v0, v1 = vs[j], vs[j + 1]
        if v1 <= v0:
            return t1
        return t0 + (v_target - v0) * (t1 - t0) / (v1 - v0)

    def earliest_reach(self, v_target):
        """Smallest t with a(t) >= v_target, or None if a never reaches it.

        Returns -inf when even the initial constant value reaches the target.
        """
        vs = self.vs
        if vs[0] >= v_target:
            return float("-inf")
        if vs[-1] < v_target:
            return None
        j = 0
        while vs[j + 1] < v_target:
            j += 1
        t0, t1 = self.ts[j], self.ts[j + 1]
        v0, v1 = vs[j], vs[j + 1]
        if v1 <= v0:
            return t1
        return t0 + (v_target - v0) * (t1 - t0) / (v1 - v0)

    def travel_bounds(self):
        durs = [v - t for t, v in zip(self.ts, self.vs)]
        return TravelBounds(max(0.0, min(durs)), max(durs))

    def check_invariants(self):
        """Re-check every defining invariant; raises AssertionError on failure."""
        ts, vs = self.ts, self.vs
        assert len(ts) >= 1
        for i in range(len(ts) - 1):
            assert ts[i + 1] > ts[i], "abscissae must strictly increase"
            assert vs[i + 1] >= vs[i] - 1e-6, "values must be non-decreasing"
        for t, v in zip(ts, vs):
            assert v >= t - 1e-6, "travel time must be non-negative"
        for i in range(1, len(ts) - 1):
            s0 = (vs[i] - vs[i - 1]) / (ts[i] - ts[i - 1])
            s1 = (vs[i + 1] - vs[i]) / (ts[i + 1] - ts[i])
            assert abs(s1 - s0) > EPS_SLOPE / 2, "redundant inner breakpoint"
        return True

    def __repr__(self):
        pts = list(zip(self.ts, self.vs))
        if len(pts) > 6:
            return f"Atf(b={self.b}, [{pts[0]}, ..., {pts[-1]}])"
        return f"Atf({pts})"


class TravelBounds:
    """Lower and upper bound on the travel time a(t) - t over the domain."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        if not (0.0 <= lo <= hi):
            raise ValueError("need 0 <= lo <= hi")
        self.lo = lo
        self.hi = hi

    def __repr__(self):
        return f"TravelBounds({self.lo}, {self.hi})"


def _normalize_points(ts, vs):
    """Sort-check, merge coincident abscissae, drop redundant breakpoints.

    Takes parallel lists of floats and returns new parallel lists.
    """
    for i in range(1, len(ts)):
        if ts[i] - ts[i - 1] <= EPS_T:
            ts, vs = _merge_coincident(ts, vs)
            break
    # one pass: clamp sub-epsilon FIFO violations introduced by float
    # arithmetic, then keep point i-1 unless it is collinear with its
    # neighbours (the last kept point and the clamped point i)
    t0, v0 = ts[0], vs[0]
    out_t = [t0]
    out_v = [v0]
    if len(ts) == 1:
        return out_t, out_v
    t1, v1 = ts[1], vs[1]
    if v1 < v0:
        if v1 < v0 - 1e-6:
            raise ValueError(f"non-monotone values at t={t1}: {v1} < {v0}")
        v1 = v0
    for i in range(2, len(ts)):
        t2, v2 = ts[i], vs[i]
        if v2 < v1:
            if v2 < v1 - 1e-6:
                raise ValueError(f"non-monotone values at t={t2}: {v2} < {v1}")
            v2 = v1
        if abs((v2 - v1) / (t2 - t1) - (v1 - v0) / (t1 - t0)) > EPS_SLOPE:
            out_t.append(t1)
            out_v.append(v1)
            t0, v0 = t1, v1
        t1, v1 = t2, v2
    out_t.append(t1)
    out_v.append(v1)
    return out_t, out_v


def _merge_coincident(ts, vs):
    mt = [ts[0]]
    mv = [vs[0]]
    for i in range(1, len(ts)):
        t = ts[i]
        if t < ts[i - 1] - EPS_T:
            raise ValueError("breakpoints must be sorted by t")
        if t - ts[i - 1] <= EPS_T:
            # keep the later point so t_max survives intact
            mt[-1] = t
            mv[-1] = vs[i]
        else:
            mt.append(t)
            mv.append(vs[i])
    return mt, mv


def _validate(ts, vs):
    for t, v in zip(ts, vs):
        if v < t - 1e-6:
            raise ValueError(f"a({t}) = {v} violates a(t) >= t")


# -- composition ---------------------------------------------------------


def compose(a1, a2):
    """The ATF of doing a1 first and a2 second: t -> a2(a1(t)).

    Restricted to departures whose a1-arrival still lies in a2's domain.
    The attached cost of the result is cost(a2) o a1 + cost(a1).
    """
    t2max = a2.ts[-1]
    if a1.vs[0] > t2max + EPS_T:
        raise EmptyDomain("a1 arrives after a2's domain even at its earliest")
    if a1.vs[-1] <= t2max:
        T = a1.ts[-1]
    else:
        T = a1.latest_departure(t2max)

    ts1, vs1 = a1.ts, a1.vs
    ts2, vs2 = a2.ts, a2.vs
    n2 = len(ts2)

    out_t = []
    out_v = []
    hint = 0
    jj = 0  # pointer to the next a2 breakpoint not yet swept past
    for i in range(len(ts1)):
        t = ts1[i]
        if t >= T:
            break
        v, hint = _a2_value(ts2, vs2, vs1[i], hint)
        out_t.append(t)
        out_v.append(v)
        # preimages of a2 breakpoints inside this a1 segment
        if i + 1 < len(ts1):
            va, vb = vs1[i], vs1[i + 1]
            if vb > va:
                while jj < n2 and ts2[jj] <= va:
                    jj += 1
                while jj < n2 and ts2[jj] < vb:
                    u = ts2[jj]
                    th = ts1[i] + (u - va) * (ts1[i + 1] - ts1[i]) / (vb - va)
                    if th < T:
                        out_t.append(th)
                        out_v.append(vs2[jj])
                    jj += 1
    out_t.append(T)
    out_v.append(_a2_value(ts2, vs2, a1.eval(T))[0])

    cost = _compose_cost(a1, a2, T)
    return Atf(cost=cost, ts=out_t, vs=out_v)


def _a2_value(ts2, vs2, u, j=0):
    """a2(u) and its segment index, for a2 given by its breakpoints.

    Searches forward from segment j (a hint that callers with rising u
    pass back in); exact at a2's breakpoints; holds the last value past
    the domain end instead of raising.
    """
    if u <= ts2[0]:
        return vs2[0], 0
    n2 = len(ts2)
    while j + 1 < n2 and ts2[j + 1] <= u:
        j += 1
    if ts2[j] == u or j == n2 - 1:
        return vs2[j], j
    t0, t1 = ts2[j], ts2[j + 1]
    return vs2[j] + (vs2[j + 1] - vs2[j]) * (u - t0) / (t1 - t0), j


def _compose_cost(a1, a2, T):
    c1, c2 = a1.cost, a2.cost
    if c2.is_zero():
        if c1.is_zero():
            return ZERO_COST
        return _clip_cost(c1, T)
    bounds = [d for d in c1.ts if d <= T + EPS_T]
    for u in c2.ts:
        if u <= a1.vs[0]:
            continue  # the whole domain already maps past this jump
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


def _clip_cost(c, T):
    pieces = [(t, v) for t, v in zip(c.ts, c.cs) if t <= T + EPS_T]
    return StepCost(c.init, pieces)


def compose_chain(atfs):
    """Balanced composition a_k o ... o a_1 of a non-empty sequence."""
    atfs = list(atfs)
    if not atfs:
        raise ValueError("compose_chain needs at least one ATF")
    return _chain(atfs, 0, len(atfs))


def _chain(atfs, lo, hi):
    if hi - lo == 1:
        return atfs[lo]
    mid = lo + (hi - lo + 1) // 2
    left = _chain(atfs, lo, mid)
    right = _chain(atfs, mid, hi)
    return compose(left, right)


# -- pairwise minimum ----------------------------------------------------


def min2(a1, a2):
    """Pointwise minimum on the common domain, keeping the cheaper cost at ties."""
    T = min(a1.ts[-1], a2.ts[-1])
    xs = _merge_sorted([t for t in a1.ts if t < T], [t for t in a2.ts if t < T])
    if not xs or T - xs[-1] > EPS_T:
        xs.append(T)
    y1 = [a1.eval(x) for x in xs]
    y2 = [a2.eval(x) for x in xs]
    pts = []
    for i, x in enumerate(xs):
        pts.append((x, min(y1[i], y2[i])))
        if i + 1 < len(xs):
            d0 = y1[i] - y2[i]
            d1 = y1[i + 1] - y2[i + 1]
            if (d0 > EPS_V and d1 < -EPS_V) or (d0 < -EPS_V and d1 > EPS_V):
                lam = d0 / (d0 - d1)
                xc = xs[i] + lam * (xs[i + 1] - xs[i])
                if xs[i] + EPS_T < xc < xs[i + 1] - EPS_T:
                    yc = y1[i] + lam * (y1[i + 1] - y1[i])
                    pts.append((xc, yc))
    cost = _min2_cost(a1, a2, [p[0] for p in pts], T)
    return Atf(pts, cost=cost)


def _min2_cost(a1, a2, xs, T):
    if a1.cost.is_zero() and a2.cost.is_zero():
        return ZERO_COST
    bounds = sorted(set(
        list(xs)
        + [t for t in a1.cost.ts if t <= T + EPS_T]
        + [t for t in a2.cost.ts if t <= T + EPS_T]
    ))
    merged = []
    for x in bounds:
        if merged and x - merged[-1] <= EPS_T:
            continue
        merged.append(x)

    def winner_cost(t):
        v1, v2 = a1.eval(t), a2.eval(t)
        if v1 < v2 - EPS_V:
            return a1.cost.eval(t)
        if v2 < v1 - EPS_V:
            return a2.cost.eval(t)
        return min(a1.cost.eval(t), a2.cost.eval(t))

    rep = (merged[0] if merged else T) - 1.0
    init = winner_cost(min(rep, a1.ts[0], a2.ts[0]))
    pieces = []
    for i, bnd in enumerate(merged):
        right = merged[i + 1] if i + 1 < len(merged) else max(T, bnd + 1.0)
        mid = min(0.5 * (bnd + right), T)
        pieces.append((bnd, winner_cost(mid)))
    return StepCost(init, pieces)
