"""Per-tour segment-composition store.

Keeps the arrival time functions of a tour's actions in a multi-level
structure of balanced search trees so that the composed ATF of any
contiguous action range a_{i,j} comes out of at most 2k-1 compose
operations (k-1 when the range touches either tour end), and hypothetical
insertions and splices can be priced without mutating anything.

A store with k = 0 keeps only the folds: the prefixes a_{0,j} and the
suffixes a_{i,n}.  It answers ranges that touch a tour end, which is all
that splices at one position read, and raises ``MidRangeQuery`` for any
other range.  Every solver tour keeps such a store, since its prices
read folds only.  A tour's edit is ``refolded``: a new store that shares
the prefixes before the first action that changed and the suffixes
after the last one, and recomputes only the folds between; n + 3
composes for a one-stop insertion into n actions.  The levels (k >= 1)
and ``eval_insertion`` remain the paper's data structure for mid-range
queries, held to its compose budgets by the tests and exercised by the
benchmark's kernels.

Action boundaries run 0..n; a_{i,j} composes actions i+1..j.  Every
compose performed on behalf of the store goes through one instrumented
counter, which the budget tests read.

Mutations are all or nothing: new compositions are computed into fresh
containers and swapped in only once every one has succeeded, so an
``EmptyDomain`` leaves the store reading exactly as before the edit.
"""

from __future__ import annotations

import copy
import math

from .plf import EmptyDomain, compose


class _Counter:
    __slots__ = ("n",)

    def __init__(self):
        self.n = 0


class _Level:
    """One level of a store.  Its composes are counted on self.counter,
    which every level of the store shares; None stands for an empty
    range."""

    def _c(self, x, y):
        if x is None:
            return y
        if y is None:
            return x
        self.counter.n += 1
        return compose(x, y)


def _refresh_ends(c, atfs, pre, suf, lo, hi):
    """Recompute pre[j] = a_{0,j} for j >= lo and suf[i] = a_{i,L} for
    i < hi in place, where L = len(atfs); lo = 1, hi = L rebuilds both."""
    for j in range(lo, len(atfs) + 1):
        pre[j] = c(pre[j - 1], atfs[j - 1])
    for i in range(hi - 1, -1, -1):
        suf[i] = c(atfs[i], suf[i + 1])


def _same_run(xs, ys):
    """How many leading items of xs and ys are the same objects."""
    run = 0
    for x, y in zip(xs, ys):
        if x is not y:
            break
        run += 1
    return run


class _Bst(_Level):
    """Single-level balanced search tree over one block of actions.

    Stores a_{i,h}/a_{h,j} for every ancestor-descendant pair plus the
    block's own prefix and suffix arrays, so any in-block range needs at
    most one compose.
    """

    def __init__(self, atfs, counter):
        self.counter = counter
        self.atfs = list(atfs)
        self._build()

    def _build(self):
        L = len(self.atfs)
        self.L = L
        self.left = {}   # h -> {i: a_{i,h}} for i < h
        self.right = {}  # h -> {j: a_{h,j}} for j > h
        self._build_node(0, L)
        self.pre = [None] * (L + 1)   # pre[j] = a_{0,j}
        self.suf = [None] * (L + 1)   # suf[i] = a_{i,L}
        _refresh_ends(self._c, self.atfs, self.pre, self.suf, 1, L)

    def _build_node(self, lo, hi):
        if lo > hi:
            return
        h = (lo + hi) // 2
        lchain = {}
        cur = None
        for i in range(h - 1, lo - 1, -1):
            cur = self._c(self.atfs[i], cur)
            lchain[i] = cur
        rchain = {}
        cur = None
        for j in range(h + 1, hi + 1):
            cur = self._c(cur, self.atfs[j - 1])
            rchain[j] = cur
        self.left[h] = lchain
        self.right[h] = rchain
        if lo < h:
            self._build_node(lo, h - 1)
        if h < hi:
            self._build_node(h + 1, hi)

    def full(self):
        return self.pre[self.L]

    def query(self, i, j):
        """a_{i,j} within the block, 0 <= i < j <= L; at most one compose."""
        if i == 0:
            return self.pre[j]
        if j == self.L:
            return self.suf[i]
        lo, hi = 0, self.L
        while True:
            h = (lo + hi) // 2
            if j < h:
                hi = h - 1
            elif i > h:
                lo = h + 1
            else:
                break  # i <= h <= j: lowest common ancestor
        if i == h:
            return self.right[h][j]
        if j == h:
            return self.left[h][i]
        return self._c(self.left[h][i], self.right[h][j])

    def updated(self, pairs):
        """A copy with several actions replaced, in which exactly the
        stored compositions whose range covers a replaced position are
        recomputed; self is left as it was, and the copy shares its
        untouched chains.

        All replacements land before any chain is rebuilt, so stored
        compositions never mix old and new ATFs (a transient mix can be
        spuriously infeasible).
        """
        new = copy.copy(self)
        new.atfs = list(self.atfs)
        for pos, atf in pairs:
            new.atfs[pos - 1] = atf
        new.left, new.right = dict(self.left), dict(self.right)
        new.pre, new.suf = list(self.pre), list(self.suf)
        positions = sorted({pos for pos, _ in pairs})
        # left chains recompute downward from bases at larger indices, so
        # refresh the rightmost changed position first; right chains dually
        for pos in reversed(positions):
            new._refresh_left(pos)
        for pos in positions:
            new._refresh_right(pos)
        _refresh_ends(new._c, new.atfs, new.pre, new.suf,
                      positions[0], positions[-1])
        return new

    # The two refreshes copy each chain they touch before writing to it, as
    # the chains may be shared with the store this one was copied from.

    def _refresh_left(self, pos):
        lo, hi = 0, self.L
        while lo <= hi:
            h = (lo + hi) // 2
            if pos <= h:
                # pairs (i, h) with i < pos cover action pos
                lchain = self.left[h] = dict(self.left[h])
                for i in range(pos - 1, lo - 1, -1):
                    base = lchain[i + 1] if i + 1 < h else None
                    lchain[i] = self._c(self.atfs[i], base)
                if pos == h:
                    return
                hi = h - 1
            else:
                lo = h + 1

    def _refresh_right(self, pos):
        lo, hi = 0, self.L
        while lo <= hi:
            h = (lo + hi) // 2
            if pos > h:
                # pairs (h, j) with j >= pos cover action pos
                rchain = self.right[h] = dict(self.right[h])
                for j in range(max(pos, h + 1), hi + 1):
                    base = rchain[j - 1] if j - 1 > h else None
                    rchain[j] = self._c(base, self.atfs[j - 1])
                lo = h + 1
            else:
                if pos == h:
                    return
                hi = h - 1


class IndexOutOfRange(IndexError):
    pass


class MidRangeQuery(LookupError):
    """A range touching neither tour end, asked of a k = 0 store."""


class SegmentStore(_Level):
    """Multi-level composition store over a tour's action ATFs; k = 0
    keeps the prefix and suffix folds only."""

    def __init__(self, actions, k=2, _counter=None):
        self.counter = _counter if _counter is not None else _Counter()
        self.k = max(0, int(k))
        self._actions = list(actions)
        if not self._actions:
            raise ValueError("a store needs at least one action")
        self._struct_ops = 0
        self._pending = {}  # action index -> its action before the first pending update
        self._build()

    # -- construction -----------------------------------------------------

    @property
    def n(self):
        return len(self._actions)

    @property
    def compose_count(self):
        return self.counter.n

    def _build(self):
        self._set_layout(self._layout(self._actions))

    def _layout(self, actions):
        """A fresh (single, blocks, top, pre, suf) over the actions,
        assigned to nothing."""
        n = len(actions)
        if self.k and (self.k == 1 or n <= 3):
            single = _Bst(actions, self.counter)
            return single, None, None, single.pre, single.suf
        blocks = top = None
        if self.k:
            p = max(2, math.ceil(n ** (1.0 / self.k)))
            blocks = [[s, _Bst(actions[s:s + p], self.counter)] for s in range(0, n, p)]
            top = SegmentStore([b.full() for _, b in blocks], k=self.k - 1,
                               _counter=self.counter)
        pre = [None] * (n + 1)
        suf = [None] * (n + 1)
        _refresh_ends(self._c, actions, pre, suf, 1, n)
        return None, blocks, top, pre, suf

    def _set_layout(self, layout):
        self._single, self._blocks, self._top, self._pre, self._suf = layout
        self._pending.clear()

    def flush(self):
        """Apply pending lazy updates now.  If a composition fails, the
        updated actions get their old ATFs back and the store reads as
        before the updates; the ``EmptyDomain`` propagates."""
        if not self._pending:
            return
        pending, self._pending = self._pending, {}
        try:
            if self._single is not None:
                single = self._single.updated(
                    [(idx, self._actions[idx - 1]) for idx in pending])
                pre, suf = single.pre, single.suf
            else:
                by_block = {}
                if self._blocks is not None:
                    for idx in pending:
                        by_block.setdefault(self._block_of(idx), []).append(idx)
                fresh = []
                for bi, idxs in sorted(by_block.items()):
                    start, bst = self._blocks[bi]
                    fresh.append((bi, bst.updated(
                        [(idx - start, self._actions[idx - 1]) for idx in idxs])))
                pre, suf = list(self._pre), list(self._suf)
                _refresh_ends(self._c, self._actions, pre, suf,
                              min(pending), max(pending))
        except EmptyDomain:
            for idx, old in pending.items():
                self._actions[idx - 1] = old
            raise
        if self._single is not None:
            self._single = single
        else:
            for bi, bst in fresh:
                self._blocks[bi][1] = bst
                self._top.update_action(bi + 1, bst.full())
        self._pre, self._suf = pre, suf

    def _block_of(self, action_idx):
        """Block index holding 1-based action action_idx."""
        lo, hi = 0, len(self._blocks) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._blocks[mid][0] < action_idx:
                lo = mid
            else:
                hi = mid - 1
        return lo

    # -- queries -----------------------------------------------------------

    def query(self, i, j):
        """The composed ATF a_{i,j} of actions i+1..j (0 <= i < j <= n)."""
        if not (0 <= i < j <= self.n):
            raise IndexOutOfRange(f"bad range ({i}, {j}) for n={self.n}")
        self.flush()
        return self._query(i, j)

    def _query(self, i, j):
        if i == 0:
            return self._pre[j]
        if j == self.n:
            return self._suf[i]
        if self.k == 0:
            raise MidRangeQuery(f"range ({i}, {j}) of a store that keeps only "
                                f"prefix and suffix folds (n={self.n})")
        if self._single is not None:
            return self._single.query(i, j)
        bi = self._block_of(i + 1)
        bj = self._block_of(j)
        si, bsti = self._blocks[bi]
        sj, bstj = self._blocks[bj]
        if bi == bj:
            return bsti.query(i - si, j - si)
        left = None
        top_lo = bi
        if i > si:
            left = bsti.suf[i - si]
            top_lo = bi + 1
        right = None
        top_hi = bj + 1
        if j < sj + bstj.L:
            right = bstj.pre[j - sj] if j > sj else None
            top_hi = bj
        mid = self._top._query_checked(top_lo, top_hi) if top_lo < top_hi else None
        return self._c(self._c(left, mid), right)

    def _query_checked(self, i, j):
        self.flush()
        return self._query(i, j)

    def full_atf(self):
        return self.query(0, self.n)

    # -- mutation ----------------------------------------------------------

    def update_action(self, idx, new):
        """Replace action idx (1-based); recomputation is deferred to the
        next flush, which undoes the update if it fails."""
        if not (1 <= idx <= self.n):
            raise IndexOutOfRange(str(idx))
        self._pending.setdefault(idx, self._actions[idx - 1])
        self._actions[idx - 1] = new

    def insert_action(self, pos, new):
        """Insert a new action so it becomes action number pos (1-based).
        Every ``ceil(log2(n + 1))`` insertions a store with levels is
        rebuilt from scratch, a k = 0 store on every insertion.  On
        ``EmptyDomain`` nothing is inserted, and pending updates stay
        applied exactly when they alone are feasible, as if ``flush`` had
        run first."""
        if not (1 <= pos <= self.n + 1):
            raise IndexOutOfRange(str(pos))
        self.flush()
        actions = self._actions[:pos - 1] + [new] + self._actions[pos - 1:]
        n = len(actions)
        if not self.k or self._struct_ops + 1 >= max(1, math.ceil(math.log2(n + 1))):
            layout = self._layout(actions)
            self._actions = actions
            self._struct_ops = 0
            self._set_layout(layout)
            return
        if self._single is not None:
            single = _Bst(actions, self.counter)
        else:
            bi = self._block_of(pos) if pos <= self.n else len(self._blocks) - 1
            start, old_bst = self._blocks[bi]
            bst = _Bst(actions[start:start + old_bst.L + 1], self.counter)
            pre = [None] * (n + 1)
            suf = [None] * (n + 1)
            _refresh_ends(self._c, actions, pre, suf, 1, n)
        self._actions = actions
        self._struct_ops += 1
        if self._single is not None:
            self._single, self._pre, self._suf = single, single.pre, single.suf
        else:
            self._blocks[bi][1] = bst
            for later in self._blocks[bi + 1:]:
                later[0] += 1
            self._top.update_action(bi + 1, bst.full())
            self._pre, self._suf = pre, suf

    def refolded(self, actions):
        """A k = 0 store over a new action list, self left as it was.

        Prefixes up to the first action that is not the same object as
        before, and suffixes after the last such action, are shared with
        self; only the folds between are composed, so the result is bit
        for bit a fresh store's.  ``EmptyDomain`` propagates."""
        if self.k:
            raise ValueError("only a k = 0 store is refolded")
        self.flush()
        old, actions = self._actions, list(actions)
        n, m = len(old), len(actions)
        lo = _same_run(old, actions)
        tail = _same_run(reversed(old), reversed(actions))
        pre = self._pre[:lo + 1] + [None] * (m - lo)
        suf = [None] * (m - tail) + self._suf[n - tail:]
        _refresh_ends(self._c, actions, pre, suf, lo + 1, m - tail)
        new = copy.copy(self)
        new._actions, new._pre, new._suf, new._pending = actions, pre, suf, {}
        return new

    # -- hypothetical evaluations -------------------------------------------

    def eval_splice(self, first, last, replacements):
        """Full-tour ATF with actions first..last replaced by the given
        chain; the store is not modified.  EmptyDomain propagates to the
        caller as infeasibility."""
        if not (1 <= first <= last <= self.n):
            raise IndexOutOfRange(f"splice ({first}, {last})")
        self.flush()
        cur = self._query(0, first - 1) if first > 1 else None
        for a in replacements:
            cur = self._c(cur, a)
        if last < self.n:
            cur = self._c(cur, self._query(last, self.n))
        if cur is None:
            raise ValueError("splice removed every action with no replacement")
        return cur

    def eval_insertion(self, i, j, a_i_mod, a_p, a_j_mod, a_d):
        """Tour ATF after inserting a pickup after action i and a delivery
        after action j (1 <= i <= j <= n-1), without mutating the store.

        a_i_mod/a_j_mod replace actions i and j (their travel now heads to
        the inserted stop); a_p and a_d are the inserted actions' ATFs.
        For j == i the pickup's ATF must already route to the delivery
        location and a_j_mod is ignored.
        """
        n = self.n
        if not (1 <= i <= j <= n - 1):
            raise IndexOutOfRange(f"insertion positions ({i}, {j}) for n={n}")
        self.flush()
        cur = self._query(0, i - 1) if i > 1 else None
        cur = self._c(cur, a_i_mod)
        cur = self._c(cur, a_p)
        if j > i:
            if j - 1 > i:
                cur = self._c(cur, self._query(i, j - 1))
            cur = self._c(cur, a_j_mod)
        cur = self._c(cur, a_d)
        cur = self._c(cur, self._query(j, n))
        return cur
