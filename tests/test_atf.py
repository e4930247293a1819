"""Core ATF algebra: eval, compose, compose_chain, min2, step costs."""

import numpy as np
import pytest

from tdroute.plf import (Atf, EmptyDomain, OutOfDomain, StepCost, compose,
                         compose_chain, min2)
from tdroute.plf.atf import _normalize_points
from oracles import (fold_compose, normalize_points_reference, rand_atf,
                     rand_stepcost, same_function)

RNG = np.random.default_rng(20240601)


class TestEval:
    def test_window_atf_before_opening(self):
        a = Atf(((4, 4.1), (5, 5.1)))
        assert a.eval(3) == pytest.approx(4.1)

    def test_identity_midpoint(self):
        assert Atf(((0, 0), (10, 10))).eval(5) == 5.0

    def test_interpolation(self):
        assert Atf(((0, 1), (2, 2))).eval(1) == pytest.approx(1.5)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            Atf(((0, 1), (2, 2))).eval(2.5)

    def test_invariant_rejection(self):
        with pytest.raises(ValueError):
            Atf(((0.0, 5.0), (10.0, 4.0)))  # decreasing value
        with pytest.raises(ValueError):
            Atf(((10.0, 2.0),))  # travel time negative


class TestCompose:
    def test_identity_left(self):
        a2 = Atf(((2, 2.5), (4, 4.5)))
        c = compose(Atf.identity(10.0, t_lo=0.0), a2)
        assert c.t_max == pytest.approx(4.0)  # domain cut where a1(t) > 4
        assert same_function(c, a2, samples=500)

    def test_constant_costs_add(self):
        a1 = Atf(((0, 1), (2, 3)), cost=StepCost(2.0))
        a2 = Atf(((2, 2.5), (4, 4.5)), cost=StepCost(3.0))
        c = compose(a1, a2)
        assert c.cost.eval(0.5) == pytest.approx(5.0)

    def test_empty_domain(self):
        late = Atf(((100.0, 200.0), (150.0, 250.0)))
        early = Atf(((0.0, 1.0), (5.0, 6.0)))
        with pytest.raises(EmptyDomain):
            compose(late, early)

    def test_random_pointwise_and_bound(self):
        for _ in range(400):
            a1 = rand_atf(RNG)
            a2 = rand_atf(RNG, t0=float(RNG.uniform(-2, 8)))
            try:
                c = compose(a1, a2)
            except EmptyDomain:
                assert a1.vs[0] > a2.t_max
                continue
            assert c.b <= a1.b + a2.b - 1
            c.check_invariants()
            xs = np.linspace(a1.t_min - 1, c.t_max, 300)
            want = a2.eval_many(a1.eval_many(xs), strict=False)
            assert np.max(np.abs(c.eval_many(xs) - want)) < 1e-9

    def test_cost_propagation(self):
        for _ in range(200):
            a1 = rand_atf(RNG, b_max=5)
            a1 = a1.with_cost(rand_stepcost(RNG, a1.t_min, a1.t_max))
            a2 = rand_atf(RNG, b_max=5)
            a2 = a2.with_cost(rand_stepcost(RNG, a2.t_min, a2.t_max))
            try:
                c = compose(a1, a2)
            except EmptyDomain:
                continue
            # discontinuity budget
            assert c.cost.discontinuities <= (a1.cost.discontinuities
                                              + a2.cost.discontinuities)
            # pointwise: c_g(f(t)) + c_f(t) away from the jumps
            xs = np.linspace(a1.t_min - 1, c.t_max, 97)
            jumps = np.array(c.cost.ts) if c.cost.ts else np.array([])
            for t in xs:
                if jumps.size and np.min(np.abs(jumps - t)) < 1e-6:
                    continue
                want = a2.cost.eval(a1.eval(t)) + a1.cost.eval(t)
                assert c.cost.eval(t) == pytest.approx(want, abs=1e-9)


class TestComposeChain:
    def test_identity_chain(self):
        ident = Atf(((0, 0), (10, 10)))
        c = compose_chain([ident] * 4)
        assert same_function(c, ident)

    def test_singleton(self):
        a = rand_atf(RNG)
        assert compose_chain([a]) is a

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compose_chain([])

    def test_equals_fold(self):
        for _ in range(250):
            k = int(RNG.integers(2, 7))
            atfs = [rand_atf(RNG, b_max=5, span=30.0) for _ in range(k)]
            try:
                bal = compose_chain(atfs)
            except EmptyDomain:
                with pytest.raises(EmptyDomain):
                    fold_compose(atfs)
                continue
            fold = fold_compose(atfs)
            assert bal.b <= 1 + sum(a.b - 1 for a in atfs)
            assert same_function(bal, fold, samples=300)


class TestMin2:
    def test_idempotent(self):
        a = rand_atf(RNG)
        assert same_function(min2(a, a), a)

    def test_single_crossing(self):
        a1 = Atf(((0, 2), (2, 2)))
        a2 = Atf(((0, 0.5), (2, 2.5)))
        m = min2(a1, a2)
        assert any(abs(t - 1.5) < 1e-9 and abs(v - 2.0) < 1e-9
                   for t, v in zip(m.ts, m.vs))

    def test_random_pointwise_bound_commutative(self):
        for _ in range(400):
            a1, a2 = rand_atf(RNG), rand_atf(RNG)
            m = min2(a1, a2)
            assert m.b <= 2 * (a1.b + a2.b) - 3 or m.b <= 2
            m.check_invariants()
            xs = np.linspace(min(a1.t_min, a2.t_min) - 1, m.t_max, 300)
            want = np.minimum(a1.eval_many(xs, strict=False),
                              a2.eval_many(xs, strict=False))
            assert np.max(np.abs(m.eval_many(xs) - want)) < 1e-9
            assert same_function(m, min2(a2, a1))

    def test_tie_takes_cheaper_cost(self):
        a1 = Atf(((0, 5), (10, 15)), cost=StepCost(4.0))
        a2 = Atf(((0, 5), (10, 15)), cost=StepCost(1.0))
        m = min2(a1, a2)
        assert m.cost.eval(3.0) == pytest.approx(1.0)


class TestStepCost:
    def test_lsc_at_jumps(self):
        c = StepCost(0.0, ((5.0, 2.0), (8.0, 1.0)))
        assert c.eval(4.9) == 0.0
        assert c.eval(5.0) == 0.0   # min of one-sided limits at an up-jump
        assert c.eval(6.0) == 2.0
        assert c.eval(8.0) == 1.0   # down-jump takes the lower right value
        assert c.eval(9.0) == 1.0

    def test_add_exact(self):
        for _ in range(100):
            c1 = rand_stepcost(RNG, 0, 10)
            c2 = rand_stepcost(RNG, 0, 10)
            s = c1.add(c2)
            for t in RNG.uniform(-1, 11, size=37):
                jumps = list(c1.ts) + list(c2.ts)
                if jumps and min(abs(t - j) for j in jumps) < 1e-6:
                    continue
                assert s.eval(t) == pytest.approx(c1.eval(t) + c2.eval(t), abs=1e-12)


def _adversarial_points(rng):
    """Point lists mixing coincident abscissae, FIFO dips below and above
    the 1e-6 clamp, collinear runs, single points and unsorted input."""
    n = int(rng.integers(1, 14))
    t = float(rng.uniform(-50.0, 50.0))
    v = t + float(rng.uniform(0.0, 20.0))
    slope = float(rng.choice([0.0, 0.5, 1.0, 1.7]))
    pts = [(t, v)]
    for _ in range(n - 1):
        dt = float(rng.choice([0.0, 3e-10, 1e-9, 5e-9, -4e-10, -0.5,
                               rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0)]))
        kind = int(rng.integers(0, 8))
        if kind == 0:
            dv = -float(rng.uniform(0.0, 9e-7))         # clamped dip
        elif kind == 1:
            dv = -float(rng.uniform(2e-6, 1.0))         # rejected dip
        elif kind == 2:
            slope = float(rng.uniform(0.0, 2.0))        # start a new run
            dv = slope * dt
        else:
            dv = slope * dt                             # collinear run
        t += dt
        v += dv
        pts.append((t, v))
    return pts


def _outcome(fn):
    try:
        return "ok", fn()
    except ValueError as exc:
        return "error", str(exc)


class TestNormalizePoints:
    """The list-based normaliser against the tuple-based reference."""

    def check(self, pts):
        want = _outcome(lambda: normalize_points_reference(pts))
        got = _outcome(lambda: _normalize_points([t for t, _ in pts],
                                                 [v for _, v in pts]))
        if want[0] == "ok":
            assert got[0] == "ok"
            out_t, out_v = got[1]
            assert out_t == [t for t, _ in want[1]]
            assert out_v == [v for _, v in want[1]]
        else:
            assert got == want

    def test_seeded_adversarial_lists(self):
        rng = np.random.default_rng(7)
        outcomes = set()
        for _ in range(3000):
            pts = _adversarial_points(rng)
            self.check(pts)
            outcomes.add(_outcome(lambda: normalize_points_reference(pts))[0])
        assert outcomes == {"ok", "error"}

    def test_seeded_random_atfs(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            a = rand_atf(rng, b_max=12)
            self.check(list(zip(a.ts, a.vs)))
            b = rand_atf(rng, b_max=12)
            c = compose(a, b) if a.vs[0] <= b.t_max else a
            self.check(list(zip(c.ts, c.vs)))

    @pytest.mark.parametrize("pts", [
        [(1.0, 2.0)],
        [(1.0, 2.0), (1.0, 3.0)],                          # coincident
        [(1.0, 2.0), (1.0 + 5e-10, 3.0), (4.0, 6.0)],      # within EPS_T
        [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0)],  # collinear run
        [(0.0, 1.0), (1.0, 2.0), (2.0, 2.0 - 5e-7)],       # dip below 1e-6
        [(0.0, 1.0), (1.0, 2.0), (2.0, 2.0 - 2e-6)],       # dip above 1e-6
        [(0.0, 1.0), (2.0, 3.0), (1.0, 4.0)],              # unsorted
        [(0.0, 1.0), (2.0, 3.0), (2.0 - 5e-10, 4.0)],      # backwards within EPS_T
        [(0.0, 1.0), (1e-9, 2.0), (3.0, 4.0)],             # gap exactly EPS_T
        [(0.0, 1.0), (-1.5e-9, 2.0)],                      # backwards past EPS_T
        [(0.0, 0.0), (1.0, 0.0), (2.0, 1e-9)],             # slope change exactly EPS_SLOPE
        [(0.0, 1.0), (1.0, 2.0), (2.0, 2.0 - 1e-6)],       # dip exactly 1e-6
    ])
    def test_edge_cases(self, pts):
        self.check(pts)

    def test_constructor_paths_agree(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            pts = [(t, max(v, t)) for t, v in _adversarial_points(rng)]
            from_pairs = _outcome(lambda: Atf(pts))
            from_lists = _outcome(lambda: Atf(ts=[t for t, _ in pts],
                                              vs=[v for _, v in pts]))
            assert from_pairs[0] == from_lists[0]
            if from_pairs[0] == "ok":
                assert from_pairs[1].ts == from_lists[1].ts
                assert from_pairs[1].vs == from_lists[1].vs
                from_lists[1].check_invariants()
            else:
                assert from_pairs[1] == from_lists[1]
