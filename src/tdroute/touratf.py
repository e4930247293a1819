"""Per-tour composition stores, one per job.

Both keep the arrival time functions of a tour's actions.

``FoldStore`` keeps the folds: the prefixes pre[j] = a_{0,j} and the
suffixes suf[i] = a_{i,n}.  A splice at one position reads one prefix and
one suffix, which is all that a solver's prices read, so every solver tour
keeps a fold store.  A tour's edit is ``refolded``: a new store that shares
the prefixes before the first action that changed and the suffixes after
the last one, and composes only the folds between; n + 3 composes for a
one-stop insertion into n actions.

``SegmentStore`` is the paper's data structure for mid-range queries: k >= 1
levels of balanced search trees, so that the composed ATF of any contiguous
action range a_{i,j} comes out of at most 2k-1 compose operations (k-1 when
the range touches either tour end), and a pickup-and-delivery insertion is
priced by ``eval_insertion`` without mutating anything.  Its ends, and each
block's ends, are a fold store.  It is held to its compose budgets by the
tests and exercised by the benchmark's kernels; no solve reaches it.

Action boundaries run 0..n; a_{i,j} composes actions i+1..j.  Every compose
performed on behalf of a store goes through one instrumented counter, which
the budget tests read.

Edits are all or nothing: new compositions are computed into fresh
containers and swapped in only once every one has succeeded, so an
``EmptyDomain`` leaves the store reading exactly as before the edit.
"""

from __future__ import annotations

import copy
import math

from .plf import compose


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


def _same_run(xs, ys):
    """How many leading items of xs and ys are the same objects."""
    run = 0
    for x, y in zip(xs, ys):
        if x is not y:
            break
        run += 1
    return run


class IndexOutOfRange(IndexError):
    pass


class FoldStore(_Level):
    """The prefix folds pre[j] = a_{0,j} and suffix folds suf[i] = a_{i,n}
    of an action list; pre[0] and suf[n] are None."""

    def __init__(self, actions, _counter=None):
        self.counter = _counter if _counter is not None else _Counter()
        self._actions = list(actions)
        n = len(self._actions)
        if not n:
            raise ValueError("a store needs at least one action")
        self.pre = [None] * (n + 1)
        self.suf = [None] * (n + 1)
        self._fold(1, n)

    def _fold(self, lo, hi):
        """Recompute pre[j] for j >= lo and suf[i] for i < hi in place;
        lo = 1, hi = n computes every fold."""
        c, atfs, pre, suf = self._c, self._actions, self.pre, self.suf
        for j in range(lo, len(atfs) + 1):
            pre[j] = c(pre[j - 1], atfs[j - 1])
        for i in range(hi - 1, -1, -1):
            suf[i] = c(atfs[i], suf[i + 1])

    @property
    def n(self):
        return len(self._actions)

    @property
    def compose_count(self):
        return self.counter.n

    def full_atf(self):
        return self.pre[-1]

    def refolded(self, actions):
        """A store over a new action list, self left as it was.

        Prefixes up to the first action that is not the same object as
        before, and suffixes after the last such action, are shared with
        self; only the folds between are composed, so the result is bit
        for bit a fresh store's.  ``EmptyDomain`` propagates."""
        old, actions = self._actions, list(actions)
        n, m = len(old), len(actions)
        lo = _same_run(old, actions)
        tail = _same_run(reversed(old), reversed(actions))
        new = copy.copy(self)
        new._actions = actions
        new.pre = self.pre[:lo + 1] + [None] * (m - lo)
        new.suf = [None] * (m - tail) + self.suf[n - tail:]
        new._fold(lo + 1, m - tail)
        return new

    def eval_splice(self, first, last, replacements):
        """Full-tour ATF with actions first..last replaced by the given
        chain; the store is not modified.  EmptyDomain propagates to the
        caller as infeasibility."""
        if not (1 <= first <= last <= self.n):
            raise IndexOutOfRange(f"splice ({first}, {last})")
        cur = self.pre[first - 1]
        for a in replacements:
            cur = self._c(cur, a)
        cur = self._c(cur, self.suf[last])
        if cur is None:
            raise ValueError("splice removed every action with no replacement")
        return cur


class _Bst(_Level):
    """Single-level balanced search tree over one block of actions.

    Stores a_{i,h}/a_{h,j} for every ancestor-descendant pair plus the
    block's fold store, so any in-block range needs at most one compose.
    """

    def __init__(self, ends):
        self.counter = ends.counter
        self.ends = ends
        self.L = ends.n
        self.left = {}   # h -> {i: a_{i,h}} for i < h
        self.right = {}  # h -> {j: a_{h,j}} for j > h
        self._build_node(ends._actions, 0, self.L)

    def _build_node(self, atfs, lo, hi):
        if lo > hi:
            return
        h = (lo + hi) // 2
        lchain = {}
        cur = None
        for i in range(h - 1, lo - 1, -1):
            cur = self._c(atfs[i], cur)
            lchain[i] = cur
        rchain = {}
        cur = None
        for j in range(h + 1, hi + 1):
            cur = self._c(cur, atfs[j - 1])
            rchain[j] = cur
        self.left[h] = lchain
        self.right[h] = rchain
        if lo < h:
            self._build_node(atfs, lo, h - 1)
        if h < hi:
            self._build_node(atfs, h + 1, hi)

    def query(self, i, j):
        """a_{i,j} within the block, 0 <= i < j <= L; at most one compose."""
        if i == 0:
            return self.ends.pre[j]
        if j == self.L:
            return self.ends.suf[i]
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


class SegmentStore(_Level):
    """Multi-level composition store over a tour's action ATFs, k >= 1."""

    def __init__(self, actions, k=2, _counter=None):
        self.k = int(k)
        if self.k < 1:
            raise ValueError(f"a store with levels needs k >= 1, not {k}; "
                             "a FoldStore keeps the folds alone")
        self.counter = _counter if _counter is not None else _Counter()
        self._struct_ops = 0
        self._set_layout(self._layout(FoldStore(actions, self.counter)))

    # -- construction -----------------------------------------------------

    @property
    def n(self):
        return self._ends.n

    @property
    def compose_count(self):
        return self.counter.n

    def _layout(self, ends):
        """A fresh (single, blocks, top, ends) over the actions of the
        given ends, assigned to nothing."""
        actions = ends._actions
        n = len(actions)
        if self.k == 1 or n <= 3:
            return _Bst(ends), None, None, ends
        p = max(2, math.ceil(n ** (1.0 / self.k)))
        blocks = [[s, _Bst(FoldStore(actions[s:s + p], self.counter))]
                  for s in range(0, n, p)]
        return None, blocks, self._top_over(blocks), ends

    def _top_over(self, blocks):
        """The level above the blocks, over their folds."""
        return SegmentStore([b.ends.full_atf() for _, b in blocks], k=self.k - 1,
                            _counter=self.counter)

    def _set_layout(self, layout):
        self._single, self._blocks, self._top, self._ends = layout

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
        return self._query(i, j)

    def _query(self, i, j):
        if i == 0:
            return self._ends.pre[j]
        if j == self.n:
            return self._ends.suf[i]
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
            left = bsti.ends.suf[i - si]
            top_lo = bi + 1
        right = None
        top_hi = bj + 1
        if j < sj + bstj.L:
            right = bstj.ends.pre[j - sj]
            top_hi = bj
        mid = self._top._query(top_lo, top_hi) if top_lo < top_hi else None
        return self._c(self._c(left, mid), right)

    def full_atf(self):
        return self._ends.full_atf()

    # -- mutation ----------------------------------------------------------

    def insert_action(self, pos, new):
        """Insert a new action so it becomes action number pos (1-based).

        The ends are refolded; the block that takes the action is rebuilt
        over its refolded ends, and the level above the blocks over their
        folds.  Every ``ceil(log2(n + 1))`` insertions the whole store is
        rebuilt instead.  On ``EmptyDomain`` nothing is inserted."""
        if not (1 <= pos <= self.n + 1):
            raise IndexOutOfRange(str(pos))
        actions = list(self._ends._actions)
        actions.insert(pos - 1, new)
        ends = self._ends.refolded(actions)
        struct_ops = self._struct_ops + 1
        if struct_ops >= max(1, math.ceil(math.log2(len(actions) + 1))):
            layout, struct_ops = self._layout(ends), 0
        elif self._single is not None:
            layout = _Bst(ends), None, None, ends
        else:
            bi = self._block_of(pos) if pos <= self.n else len(self._blocks) - 1
            blocks = [[s + (b > bi), bst] for b, (s, bst) in enumerate(self._blocks)]
            start, bst = blocks[bi]
            blocks[bi][1] = _Bst(bst.ends.refolded(actions[start:start + bst.L + 1]))
            layout = None, blocks, self._top_over(blocks), ends
        self._struct_ops = struct_ops
        self._set_layout(layout)

    # -- hypothetical evaluations -------------------------------------------

    def eval_splice(self, first, last, replacements):
        """``FoldStore.eval_splice`` over the store's ends."""
        return self._ends.eval_splice(first, last, replacements)

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
        cur = self._c(self._ends.pre[i - 1], a_i_mod)
        cur = self._c(cur, a_p)
        if j > i:
            if j - 1 > i:
                cur = self._c(cur, self._query(i, j - 1))
            cur = self._c(cur, a_j_mod)
        cur = self._c(cur, a_d)
        return self._c(cur, self._ends.suf[j])
