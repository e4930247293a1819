"""FoldStore and SegmentStore: folds, queries and insertions, compose
budgets, evaluations."""

import copy

import numpy as np
import pytest

from tdroute.plf import Atf, EmptyDomain
from tdroute.plf import compose
from tdroute.touratf import FoldStore, IndexOutOfRange, SegmentStore
from oracles import (bits, cost_bits, fold_compose, rand_chain, rand_chain_action,
                     same_function)

RNG = np.random.default_rng(1312)

# The stores' compose total over the fixed sequence of
# test_seeded_mixed_edits_keep_ends_left_folds; a prefix/suffix rebuild that
# composes more than it must changes this number.
MIXED_EDITS_COMPOSES = 34568


def _atf_bits(a):
    return bits(*a.ts) + b"|" + bits(*a.vs) + b"|" + cost_bits(a.cost)


def _folds(acts):
    """Bits of every prefix a_{0,j} as a left fold and every suffix a_{i,n}
    with i > 0 as a right fold: the folds a fresh store of any k keeps
    (a_{0,n} is the last prefix)."""
    pre, cur = [], None
    for a in acts:
        cur = a if cur is None else compose(cur, a)
        pre.append(_atf_bits(cur))
    suf, cur = [], None
    for a in reversed(acts):
        cur = a if cur is None else compose(a, cur)
        suf.append(_atf_bits(cur))
    return pre, suf[::-1][1:]


def _store_folds(st):
    """Bits of a store's prefixes a_{0,j} and suffixes a_{i,n} with i > 0,
    in the order of ``_folds``."""
    n = st.n
    if isinstance(st, FoldStore):
        pre, suf = st.pre[1:], st.suf[1:n]
    else:
        pre = [st.query(0, j) for j in range(1, n + 1)]
        suf = [st.query(i, n) for i in range(1, n)]
    return [_atf_bits(a) for a in pre], [_atf_bits(a) for a in suf]


def _splice_matches_fold(st, first, last, repl, spliced):
    """Asserts that st's splice is infeasible exactly when the fold of the
    spliced chain is, and equals that fold otherwise; True if feasible."""
    try:
        got = st.eval_splice(first, last, repl)
    except EmptyDomain:
        got = None
    try:
        want = fold_compose(spliced)
    except EmptyDomain:
        want = None
    assert (got is None) == (want is None)
    if got is not None:
        assert same_function(got, want)
    return got is not None


def _feasible(atfs):
    try:
        fold_compose(atfs)
        return True
    except EmptyDomain:
        return False


class TestQuery:
    def test_single_action(self):
        a = rand_chain(RNG, 1)[0]
        st = SegmentStore([a], k=2)
        c0 = st.compose_count
        assert same_function(st.query(0, 1), a)
        assert st.compose_count == c0

    def test_adjacent_pair_verbatim(self):
        acts = rand_chain(RNG, 8)
        st = SegmentStore(acts, k=2)
        for i in range(8):
            assert same_function(st.query(i, i + 1), acts[i])

    def test_identity_actions_give_identity(self):
        acts = [Atf.identity(1e9, t_lo=-1e9) for _ in range(7)]
        st = SegmentStore(acts, k=1)
        full = st.query(0, 7)
        for t in (0.0, 100.0, 5e5):
            assert full.eval(t) == pytest.approx(t)

    def test_bad_range(self):
        st = SegmentStore(rand_chain(RNG, 4), k=2)
        with pytest.raises(IndexOutOfRange):
            st.query(2, 2)
        with pytest.raises(IndexOutOfRange):
            st.query(0, 5)

    def test_random_queries_match_fold_within_budget(self):
        for n in (2, 5, 7, 16, 33):
            for k in (1, 2, 3):
                acts = rand_chain(RNG, n)
                st = SegmentStore(acts, k=k)
                for _ in range(25):
                    i = int(RNG.integers(0, n))
                    j = int(RNG.integers(i + 1, n + 1))
                    before = st.compose_count
                    got = st.query(i, j)
                    used = st.compose_count - before
                    budget = (k - 1) if (i == 0 or j == n) else (2 * k - 1)
                    assert used <= budget
                    assert same_function(got, fold_compose(acts[i:j]))


class TestUpdates:
    def test_insert_at_end(self):
        acts = rand_chain(RNG, 6)
        st = SegmentStore(acts, k=2)
        extra = rand_chain_action(RNG, frac=1.0)
        st.insert_action(7, extra)
        assert same_function(st.query(0, 7), fold_compose(acts + [extra]), tol=1e-6)

    def test_random_structural_sequences_match_rebuild(self):
        """Random feasible insertions at k = 1..3, then random ranges
        compared with a store built afresh over the same actions."""
        for k in (1, 2, 3):
            for _ in range(4):
                cur = rand_chain(RNG, int(RNG.integers(4, 30)))
                st = SegmentStore(cur, k=k)
                for _ in range(25):
                    pos = int(RNG.integers(1, len(cur) + 2))
                    na = rand_chain_action(RNG, frac=pos / (len(cur) + 1))
                    cand = cur[:pos - 1] + [na] + cur[pos - 1:]
                    if _feasible(cand):
                        cur = cand
                        st.insert_action(pos, na)
                fresh = SegmentStore(cur, k=k)
                for _ in range(10):
                    i = int(RNG.integers(0, len(cur)))
                    j = int(RNG.integers(i + 1, len(cur) + 1))
                    assert same_function(st.query(i, j), fresh.query(i, j), tol=1e-6)

    def test_seeded_mixed_edits_keep_ends_left_folds(self):
        """Every prefix a_{0,j} and suffix a_{i,n} equals a left fold after
        seeded insertions and queries at k = 1..3, and the stores make
        exactly MIXED_EDITS_COMPOSES composes in all."""
        rng = np.random.default_rng(4242)
        total = 0
        for k in (1, 2, 3):
            for _ in range(4):
                cur = rand_chain(rng, int(rng.integers(4, 30)))
                st = SegmentStore(cur, k=k)
                for _ in range(60):
                    n = len(cur)
                    if rng.random() < 0.6:
                        pos = int(rng.integers(1, n + 2))
                        na = rand_chain_action(rng, frac=pos / (n + 1))
                        cand = cur[:pos - 1] + [na] + cur[pos - 1:]
                        if _feasible(cand):
                            cur = cand
                            st.insert_action(pos, na)
                    else:
                        cut = int(rng.integers(1, n))
                        i, j = (0, cut) if rng.random() < 0.5 else (cut, n)
                        assert same_function(st.query(i, j), fold_compose(cur[i:j]),
                                             tol=1e-6)
                n = len(cur)
                for j in range(1, n + 1):
                    assert same_function(st.query(0, j), fold_compose(cur[:j]), tol=1e-6)
                for i in range(n):
                    assert same_function(st.query(i, n), fold_compose(cur[i:]), tol=1e-6)
                total += st.compose_count
        assert total == MIXED_EDITS_COMPOSES

    def test_failed_edits_leave_the_committed_store(self):
        """Seeded infeasible insertions at k = 1..3 raise EmptyDomain; after
        each, every range reads as a fresh store over the actions committed
        so far."""
        rng = np.random.default_rng(2718)
        failures = 0
        for k in (1, 2, 3):
            for _ in range(3):
                cur = rand_chain(rng, int(rng.integers(4, 20)))
                st = SegmentStore(cur, k=k)
                for _ in range(30):
                    n = len(cur)
                    pos = int(rng.integers(1, n + 2))
                    na = rand_chain_action(rng, frac=float(rng.random()))
                    cand = cur[:pos - 1] + [na] + cur[pos - 1:]
                    if _feasible(cand):
                        st.insert_action(pos, na)
                        cur = cand
                        continue
                    with pytest.raises(EmptyDomain):
                        st.insert_action(pos, na)
                    failures += 1
                    assert st.n == n
                    fresh = SegmentStore(cur, k=k)
                    for i in range(n):
                        for j in range(i + 1, n + 1):
                            assert same_function(st.query(i, j), fresh.query(i, j),
                                                 tol=1e-6), (k, i, j)
        assert failures >= 30


class TestEvaluations:
    def test_insertion_identity_actions_no_change(self):
        acts = rand_chain(RNG, 8)
        st = SegmentStore(acts, k=2)
        full = st.query(0, 8)
        ident = Atf.identity(1e9, t_lo=-1e9)
        got = st.eval_insertion(3, 5, acts[2], ident, acts[4], ident)
        assert same_function(got, full, tol=1e-6)

    def test_insertion_matches_fold_and_budget(self):
        for _ in range(80):
            n = int(RNG.integers(3, 25))
            k = int(RNG.integers(1, 4))
            acts = rand_chain(RNG, n)
            st = SegmentStore(acts, k=k)
            i = int(RNG.integers(1, n))
            j = int(RNG.integers(i, n))
            aim, ap, ajm, ad = (rand_chain_action(RNG, frac=i / n) for _ in range(4))
            before = st.compose_count
            try:
                got = st.eval_insertion(i, j, aim, ap, ajm, ad)
            except EmptyDomain:
                got = None
            assert st.compose_count - before <= 4 * k + 3
            spliced = (acts[:i - 1] + [aim, ap]
                       + (acts[i:j - 1] + [ajm] if j > i else []) + [ad] + acts[j:])
            try:
                want = fold_compose(spliced)
            except EmptyDomain:
                want = None
            assert (got is None) == (want is None)
            if got is not None:
                assert same_function(got, want)
                # store unchanged by the hypothetical evaluation
                assert same_function(st.query(0, n), fold_compose(acts))

    def test_removal_matches_fold(self):
        for _ in range(50):
            n = int(RNG.integers(4, 20))
            acts = rand_chain(RNG, n)
            st = SegmentStore(acts, k=2)
            f = int(RNG.integers(1, n))
            l = int(RNG.integers(f, n))
            bridge = rand_chain_action(RNG, frac=f / n)
            try:
                got = st.eval_splice(f, l, [bridge])
            except EmptyDomain:
                got = None
            try:
                want = fold_compose(acts[:f - 1] + [bridge] + acts[l:])
            except EmptyDomain:
                want = None
            assert (got is None) == (want is None)
            if got is not None:
                assert same_function(got, want)

    def test_removal_replaced_by_same_action_is_identity(self):
        acts = rand_chain(RNG, 6)
        st = SegmentStore(acts, k=2)
        got = st.eval_splice(3, 3, [acts[2]])  # action 3 replaced by itself
        assert same_function(got, fold_compose(acts), tol=1e-6)

    def test_swap_symmetric_tours_unchanged(self):
        acts = rand_chain(RNG, 8)
        st_a = SegmentStore(acts, k=2)
        st_b = SegmentStore(list(acts), k=2)
        seg = (3, 4)
        piece = [acts[2], acts[3]]
        atf_a = st_a.eval_splice(*seg, piece)
        atf_b = st_b.eval_splice(*seg, piece)
        assert same_function(atf_a, fold_compose(acts))
        assert same_function(atf_b, fold_compose(acts))

    def test_swap_matches_fold(self):
        """Exchanging actions 4..5 of one random tour with 6..7 of another:
        each splice is infeasible exactly when its fold is, and equals the
        fold otherwise."""
        feasible = 0
        for _ in range(30):
            a_acts = rand_chain(RNG, 10)
            b_acts = rand_chain(RNG, 10)
            st_a = SegmentStore(a_acts, k=2)
            st_b = SegmentStore(b_acts, k=2)
            repl_a = [b_acts[5], b_acts[6]]
            repl_b = [a_acts[3], a_acts[4]]
            feasible += _splice_matches_fold(st_a, 4, 5, repl_a,
                                             a_acts[:3] + repl_a + a_acts[5:])
            feasible += _splice_matches_fold(st_b, 6, 7, repl_b,
                                             b_acts[:5] + repl_b + b_acts[7:])
        assert feasible >= 10


class TestBuildBudget:
    def test_build_compose_count_scales_like_n_log_n(self):
        import math
        ratios = []
        for n in (16, 64, 256):
            acts = rand_chain(RNG, n, b_max=2)
            st = SegmentStore(acts, k=2)
            ratios.append(st.compose_count / (n * math.log2(n)))
        assert max(ratios) <= 3.0


class TestFoldOnly:
    """A FoldStore keeps the prefix and suffix folds only."""

    def test_seeded_edits_keep_folds_bit_equal_to_fresh_ones(self):
        """Seeded insertions and queries: every prefix and suffix is bit
        for bit the fresh fold, in a FoldStore refolded over each new
        action list as in a k = 2 store driven through the same
        insertions."""
        rng = np.random.default_rng(5151)
        for _ in range(8):
            cur = rand_chain(rng, int(rng.integers(1, 25)))
            refolding, leveled = FoldStore(cur), SegmentStore(cur, k=2)
            for _ in range(40):
                n = len(cur)
                pos = int(rng.integers(1, n + 2))
                na = rand_chain_action(rng, frac=pos / (n + 1))
                cand = cur[:pos - 1] + [na] + cur[pos - 1:]
                if not _feasible(cand):
                    continue
                leveled.insert_action(pos, na)
                refolding = refolding.refolded(cand)
                cur = cand
                if rng.random() < 0.3:
                    assert _store_folds(refolding) == _folds(cur)
            assert _store_folds(refolding) == _folds(cur) == _store_folds(leveled)

    def test_insert_composes_pinned(self):
        """Refolding over a one-stop insertion (the action before it
        replaced, a new one after it, as Tour.insert_single does) composes
        prefixes from the replaced action onward and suffixes below the
        new one: n + 3 composes for n actions, one fewer at either tour
        end, whose fold starts from nothing."""
        for n in (1, 2, 5, 17):
            for p in range(n):
                acts = rand_chain(RNG, n)
                st = FoldStore(acts)
                assert st.compose_count == 2 * (n - 1)
                while True:
                    na = rand_chain_action(RNG, frac=(p + 1) / n)
                    if _feasible(acts[:p + 1] + [na] + acts[p + 1:]):
                        break
                new = acts[:p] + [copy.copy(acts[p]), na] + acts[p + 1:]
                before = st.compose_count
                refolded = st.refolded(new)
                want = n + 3 - (p == 0) - (p == n - 1)
                assert refolded.compose_count - before == want, (n, p)
                assert _store_folds(refolded) == _folds(new)
                assert st.n == n

    def test_remove_composes_pinned(self):
        """Refolding over a one-stop removal (the action before it
        replaced, its own action dropped) composes prefixes from the
        replaced action onward and suffixes up to it: n composes for n
        actions, one fewer at either tour end."""
        for n in (2, 3, 6, 17):
            for e in range(n - 1):
                acts = rand_chain(RNG, n)
                while True:
                    mod = rand_chain_action(RNG, frac=(e + 1) / n)
                    new = acts[:e] + [mod] + acts[e + 2:]
                    if _feasible(new):
                        break
                st = FoldStore(acts)
                before = st.compose_count
                refolded = st.refolded(new)
                want = n - (e == 0) - (e == n - 2)
                assert refolded.compose_count - before == want, (n, e)
                assert _store_folds(refolded) == _folds(new)

    def test_levels_need_k_and_fold_store_reads_fresh_folds(self):
        """A store with levels needs k >= 1; the folds alone are a
        FoldStore, whose prefixes and suffixes are bit for bit the fresh
        folds and whose splices equal the fold of the spliced chain."""
        acts = rand_chain(RNG, 6)
        with pytest.raises(ValueError):
            SegmentStore(acts, k=0)
        st = FoldStore(acts)
        assert st.pre[0] is None and st.suf[6] is None
        assert _store_folds(st) == _folds(acts)
        assert _atf_bits(st.full_atf()) == _folds(acts)[0][-1]
        assert same_function(st.eval_splice(3, 3, [acts[2]]), fold_compose(acts))
        assert same_function(st.eval_splice(2, 5, acts[1:5]), fold_compose(acts))
        assert same_function(st.eval_splice(1, 6, acts), fold_compose(acts))
        with pytest.raises(IndexOutOfRange):
            st.eval_splice(4, 7, [acts[3]])
