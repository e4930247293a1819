"""Lower envelopes and the fast n-way pointwise minimum.

The n-way minimum works on arbitrary piecewise-linear functions over a
shared compact interval.  Functions are distributed over a balanced
interval tree so that each one is affine on the node it lands on; each
node keeps the concave lower envelope of its lines, and every leaf cell
merges the O(log n) envelopes that cover it.  Total work is O(m log n)
for m input breakpoints.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from .atf import EPS_SLOPE, EPS_T, Atf, MismatchedDomain


class PiecewiseLinear:
    """Continuous piecewise-linear function on a compact interval.

    Unlike an ATF it need not be monotone and has no attached cost.
    """

    __slots__ = ("xs", "ys")

    def __init__(self, points):
        pts = [(float(x), float(y)) for x, y in points]
        if len(pts) < 1:
            raise ValueError("need at least one point")
        merged = [pts[0]]
        for x, y in pts[1:]:
            if x < merged[-1][0] - EPS_T:
                raise ValueError("points must be sorted by x")
            if x - merged[-1][0] <= EPS_T:
                merged[-1] = (merged[-1][0], min(merged[-1][1], y))
            else:
                merged.append((x, y))
        out = [merged[0]]
        for i in range(1, len(merged) - 1):
            x0, y0 = out[-1]
            x1, y1 = merged[i]
            x2, y2 = merged[i + 1]
            s0 = (y1 - y0) / (x1 - x0)
            s1 = (y2 - y1) / (x2 - x1)
            if abs(s1 - s0) > EPS_SLOPE:
                out.append(merged[i])
        if len(merged) > 1:
            out.append(merged[-1])
        self.xs = tuple(p[0] for p in out)
        self.ys = tuple(p[1] for p in out)

    @property
    def b(self):
        return len(self.xs)

    @property
    def x_lo(self):
        return self.xs[0]

    @property
    def x_hi(self):
        return self.xs[-1]

    def eval(self, x):
        xs = self.xs
        if x <= xs[0]:
            return self.ys[0]
        if x >= xs[-1]:
            return self.ys[-1]
        i = bisect_right(xs, x) - 1
        if xs[i] == x:
            return self.ys[i]
        x0, x1 = xs[i], xs[i + 1]
        y0, y1 = self.ys[i], self.ys[i + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def eval_many(self, arr):
        return np.interp(np.asarray(arr, dtype=float), self.xs, self.ys)

    def __repr__(self):
        return f"PiecewiseLinear({list(zip(self.xs, self.ys))!r})"


class AffineEnvelope:
    """Concave lower envelope of a set of lines.

    ``lines[i]`` is minimal on (xs[i-1], xs[i]); crossing abscissae xs are
    strictly increasing and the slopes strictly decreasing.
    """

    __slots__ = ("lines", "xs")

    def __init__(self, lines, xs):
        self.lines = tuple(lines)
        self.xs = tuple(xs)

    @property
    def n_breakpoints(self):
        return len(self.xs)

    def eval(self, x):
        i = bisect_right(self.xs, x)
        s, c = self.lines[i]
        return s * x + c

    def pieces_on(self, x_lo, x_hi):
        """The (slope, intercept) lines active somewhere on (x_lo, x_hi)."""
        lo = bisect_right(self.xs, x_lo)
        hi = bisect_left(self.xs, x_hi) + 1
        return self.lines[lo:hi]


def envelope_affine(lines):
    """Lower envelope of lines given sorted by non-decreasing slope.

    Linear time; at most n-1 breakpoints; output slopes strictly decrease.
    """
    lines = [(float(s), float(c)) for s, c in lines]
    for i in range(1, len(lines)):
        if lines[i][0] < lines[i - 1][0] - EPS_SLOPE:
            raise ValueError("lines must be sorted by slope")
    if not lines:
        raise ValueError("need at least one line")
    # per slope keep only the smallest intercept
    uniq = []
    for s, c in lines:
        if uniq and abs(s - uniq[-1][0]) <= EPS_SLOPE:
            if c < uniq[-1][1]:
                uniq[-1] = (uniq[-1][0], c)
        else:
            uniq.append((s, c))
    stack = []
    xs = []
    for s, c in reversed(uniq):  # decreasing slope = left-to-right on the envelope
        while stack:
            s0, c0 = stack[-1]
            x_new = (c - c0) / (s0 - s)
            if xs and x_new <= xs[-1] + EPS_T:
                stack.pop()
                xs.pop()
                continue
            xs.append(x_new)
            break
        stack.append((s, c))
    return AffineEnvelope(stack, xs)


def multi_sort(values, index_sets):
    """Sort many index sets by their values with one global sort.

    Returns, per set, its indices ordered by non-decreasing value.  After a
    single global sort the per-set orders fall out of one pass over the
    inverted membership lists.
    """
    m = len(values)
    inverted = [[] for _ in range(m)]
    for si, members in enumerate(index_sets):
        if not members:
            raise ValueError("index sets must be non-empty")
        for x in members:
            if not 0 <= x < m:
                raise IndexError(f"index {x} out of range")
            inverted[x].append(si)
    order = sorted(range(m), key=values.__getitem__)
    out = [[] for _ in index_sets]
    for x in order:
        for si in inverted[x]:
            out[si].append(x)
    return out


# -- the O(m log n) n-way minimum -----------------------------------------


def min_n(fs, debug=False):
    """Exact pointwise minimum of piecewise-linear functions on a shared domain.

    Accepts PiecewiseLinear values (all with the same [x_lo, x_hi]); raises
    MismatchedDomain otherwise.  With debug=True also returns the per-chunk
    assignment structure (used to verify the partition properties).
    """
    fs = list(fs)
    if not fs:
        raise ValueError("need at least one function")
    x0 = fs[0].xs[0]
    xm = fs[0].xs[-1]
    for f in fs:
        if abs(f.xs[0] - x0) > EPS_T or abs(f.xs[-1] - xm) > EPS_T:
            raise MismatchedDomain("all functions must share the same compact domain")
    n = len(fs)
    if n == 1:
        return (fs[0], []) if debug else fs[0]

    # one slot per interior breakpoint; duplicates get their own zero-width cell
    slots = sorted(
        (x, fi) for fi, f in enumerate(fs) for x in f.xs[1:-1] if x0 < x < xm
    )
    cell_x = [x0] + [s[0] for s in slots] + [xm]
    n_cells = len(cell_x) - 1
    k = n.bit_length()  # smallest k with 2^k - 1 >= n
    chunk = 1 << k

    # per function, the sorted global slot indices it owns
    func_slots = [[] for _ in range(n)]
    for slot_idx, (_, fi) in enumerate(slots):
        func_slots[fi].append(slot_idx)

    # cached affine pieces: (slope, intercept) of f on the segment right of x
    def line_of(fi, x_left, x_right):
        f = fs[fi]
        mid = 0.5 * (x_left + x_right)
        i = bisect_right(f.xs, mid) - 1
        i = max(0, min(i, len(f.xs) - 2))
        xs, ys = f.xs, f.ys
        s = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
        return (s, ys[i] - s * xs[i])

    points = []  # assembled output vertices
    debug_chunks = []

    n_pad = (1 << k) - 1 - n
    for c0 in range(0, n_cells, chunk):
        c1 = min(c0 + chunk, n_cells)
        local_cells = c1 - c0

        def node_xrange(lo, hi):
            # local padded cell range [lo, hi) -> global x extent
            glo = c0 + lo
            ghi = min(c0 + hi, c1)
            if glo >= c1:
                return (cell_x[c1], cell_x[c1])
            return (cell_x[glo], cell_x[ghi])

        def has_slot_inside(fi, lo, hi):
            # interior slot indices of local cells [lo, hi): globals c0+lo .. c0+hi-2
            a = c0 + lo
            b = min(c0 + hi - 1, c1 - 1)
            if b <= a:
                return False
            sl = func_slots[fi]
            pos = bisect_left(sl, a)
            return pos < len(sl) and sl[pos] < b

        # Step 1: distribute functions over the tree.  Pads (index >= n) are
        # affine everywhere and absorb the slack in the counting argument.
        node_assign = {}  # (level, j) -> list of function indices (incl. pads)

        def distribute(level, j, lo, hi, funcs):
            if hi - lo == 1:
                assert not funcs
                return
            half = (hi - lo) // 2
            for side in (0, 1):
                clo = lo + side * half
                chi = clo + half
                child = (level + 1, 2 * j + side)
                affine = [fi for fi in funcs if fi >= n or not has_slot_inside(fi, clo, chi)]
                quota = half  # |A| = 2^(k-level-1) = number of child cells
                assert len(affine) >= quota, "counting argument violated"
                chosen = affine[:quota]
                node_assign[child] = chosen
                chosen_set = set(chosen)
                rest = [fi for fi in funcs if fi not in chosen_set]
                distribute(level + 1, 2 * j + side, clo, chi, rest)

        all_funcs = list(range(n)) + [n + i for i in range(n_pad)]
        distribute(0, 0, 0, chunk, all_funcs)

        # Step 2: slope-sorted concave envelope per node (multi_sort gives the
        # per-node slope orders from one global sort)
        node_ids = []
        node_lines = []
        node_bases = []
        flat_slopes = []
        flat_sets = []
        for (level, j), funcs in sorted(node_assign.items()):
            lo = j * (chunk >> level)
            hi = lo + (chunk >> level)
            xl, xr = node_xrange(lo, hi)
            if xr - xl <= EPS_T:
                continue
            lines = [line_of(fi, xl, xr) for fi in funcs if fi < n]
            if not lines:
                continue
            base = len(flat_slopes)
            flat_slopes.extend(s for s, _ in lines)
            flat_sets.append(list(range(base, base + len(lines))))
            node_ids.append((level, j))
            node_lines.append(lines)
            node_bases.append(base)
        orders = multi_sort(flat_slopes, flat_sets) if flat_sets else []
        node_env = {}
        for nid, lines, base, order in zip(node_ids, node_lines, node_bases, orders):
            node_env[nid] = envelope_affine([lines[idx - base] for idx in order])

        # Step 3: per positive-width cell, merge the envelopes on its path.
        # The candidate segments of all cells are slope-sorted together.
        cell_ranges = []
        cell_cands = []
        flat_slopes = []
        flat_sets = []
        for lc in range(local_cells):
            g = c0 + lc
            xl, xr = cell_x[g], cell_x[g + 1]
            if xr - xl <= EPS_T:
                continue
            cand = []
            for level in range(1, k + 1):
                nid = (level, lc >> (k - level))
                env = node_env.get(nid)
                if env is not None:
                    cand.extend(env.pieces_on(xl, xr))
            if not cand:
                continue
            base = len(flat_slopes)
            flat_slopes.extend(s for s, _ in cand)
            flat_sets.append(list(range(base, base + len(cand))))
            cell_ranges.append((xl, xr, base))
            cell_cands.append(cand)
        orders = multi_sort(flat_slopes, flat_sets) if flat_sets else []
        for (xl, xr, base), cand, order in zip(cell_ranges, cell_cands, orders):
            env = envelope_affine([cand[idx - base] for idx in order])
            pts = [(xl, env.eval(xl))]
            for x in env.xs:
                if xl + EPS_T < x < xr - EPS_T:
                    pts.append((x, env.eval(x)))
            pts.append((xr, env.eval(xr)))
            points.extend(pts)

        if debug:
            debug_chunks.append({
                "cells": (c0, c1),
                "k": k,
                "assign": dict(node_assign),
                "n_real": n,
                "n_pad": n_pad,
            })

    result = PiecewiseLinear(points)
    return (result, debug_chunks) if debug else result


def atf_min_n(atfs):
    """n-way pointwise minimum of ATFs, restricted to the common domain.

    Returns a valid Atf (zero attached cost); pairwise min2 keeps costs.
    """
    atfs = list(atfs)
    if not atfs:
        raise ValueError("need at least one ATF")
    if len(atfs) == 1:
        return atfs[0]
    T = min(a.ts[-1] for a in atfs)
    x0 = min(a.ts[0] for a in atfs)
    if x0 >= T:
        x0 = T - 1.0
    pls = []
    for a in atfs:
        pts = [(x0, a.eval(x0))]
        pts += [(t, v) for t, v in zip(a.ts, a.vs) if x0 < t < T]
        pts.append((T, a.eval(T)))
        pls.append(PiecewiseLinear(pts))
    m = min_n(pls)
    return Atf(list(zip(m.xs, m.ys)))
