"""Optimal starting times against a brute-force oracle."""

import numpy as np
import pytest

from tdroute import scheduler
from tdroute.plf import Atf, StepCost
from tdroute.scheduler import (CostModel, PLCost, optimal_start,
                               soft_window_penalty, total_cost)
from oracles import (bits, mutant, optimal_start_reference, rand_atf,
                     rand_costed_atf, rand_stepcost)

RNG = np.random.default_rng(99)


def rand_model(rng):
    nb = int(rng.integers(0, 4))
    xs = np.unique(np.concatenate([[0.0], np.sort(rng.uniform(1, 60, nb))]))
    ys = np.cumsum(np.concatenate([[rng.uniform(0, 5)], rng.uniform(0, 3, len(xs) - 1)]))
    cot = PLCost(list(zip(xs, ys)), final_slope=float(rng.uniform(0, 2)))
    nw = int(rng.integers(0, 4))
    pieces = sorted((float(rng.uniform(0, 140)), float(rng.uniform(0, 1.0)))
                    for _ in range(nw))
    return CostModel(c_ot=cot, c_wt=StepCost(float(rng.uniform(0, 0.5)), pieces))


class TestTotalCost:
    def test_all_zero_model(self):
        a = rand_atf(RNG)
        assert total_cost(a, CostModel(), a.t_min) == 0.0

    def test_paper_window_duration(self):
        a = Atf(((4, 4.1), (5, 5.1)))
        model = CostModel(c_ot=PLCost(((0.0, 0.0),), final_slope=1.0))
        assert total_cost(a, model, 4.0) == pytest.approx(0.1)

    def test_rate_times_duration(self):
        a = Atf(((0.0, 7200.0), (10.0, 7210.0)))
        model = CostModel(c_wt=StepCost(20.0 / 3600.0))
        assert total_cost(a, model, 0.0) == pytest.approx(40.0)


class TestOptimalStart:
    def test_paper_window(self):
        a = Atf(((4, 4.1), (5, 5.1)))
        model = CostModel(c_ot=PLCost(((0.0, 0.0),), final_slope=1.0))
        r = optimal_start(a, model)
        assert r.t0 == 4.0 and r.total_cost == pytest.approx(0.1)

    def test_constant_total_returns_least(self):
        ident = Atf(((0, 0), (10, 10)))
        model = CostModel(c_ot=PLCost(((0.0, 0.0),), final_slope=1.0))
        assert optimal_start(ident, model).t0 == 0.0

    def test_collapsed_domain(self):
        a = Atf(((5.0, 7.0),))
        r = optimal_start(a, CostModel.hourly(20.0))
        assert r.t0 == 5.0 and r.duration == pytest.approx(2.0)

    def test_max_duration_filter(self):
        # waiting before the window makes early starts long
        a = Atf(((100.0, 150.0), (200.0, 250.0)))
        r = optimal_start(a, CostModel(), max_duration=60.0)
        assert r is not None and r.duration <= 60.0 + 1e-9
        assert optimal_start(a, CostModel(), max_duration=10.0) is None

    def test_random_vs_grid_bruteforce(self):
        for _ in range(300):
            a = rand_atf(RNG, b_max=8, span=100.0, dur_max=20.0)
            a = a.with_cost(rand_stepcost(RNG, a.t_min, a.t_max))
            model = rand_model(RNG)
            r = optimal_start(a, model)
            grid = np.linspace(a.t_min, a.t_max, 1500)
            costs = np.array([total_cost(a, model, float(t)) for t in grid])
            assert r.total_cost <= costs.min() + 1e-7
            assert total_cost(a, model, r.t0) == pytest.approx(r.total_cost, abs=1e-9)
            assert sum(r.components) == pytest.approx(r.total_cost, abs=1e-9)
            before = grid[grid < r.t0 - 1e-9]
            if before.size:
                cb = np.array([total_cost(a, model, float(t)) for t in before])
                assert np.all(cb > r.total_cost - 1e-9)

    def test_event_count_bound(self):
        for _ in range(100):
            a = rand_atf(RNG, b_max=10, span=100.0)
            a = a.with_cost(rand_stepcost(RNG, a.t_min, a.t_max))
            model = rand_model(RNG)
            r = optimal_start(a, model)
            b_a, b_ca = a.b, a.cost.discontinuities
            b_ot, b_wt = model.c_ot.b, model.c_wt.discontinuities
            assert r.events_scanned <= b_ot * b_a + b_ca + 2 * b_wt + b_a + 2


class TestSoftWindowPenalty:
    def test_paper_brackets(self):
        end = 18 * 3600.0
        sc = soft_window_penalty(end, ((15, 1.0), (10, 2.0), (5, 4.0)))
        assert sc.eval(end - 20 * 60) == 0.0
        assert sc.eval(end - 13 * 60) == 1.0
        assert sc.eval(end - 8 * 60) == 2.0
        assert sc.eval(end - 2 * 60) == 4.0
        # lower semi-continuity at the bracket edges: the cheaper side wins,
        # matching "at least 10 minutes before" = $1 exactly at the edge
        assert sc.eval(end - 15 * 60) == 0.0
        assert sc.eval(end - 10 * 60) == 1.0
        assert sc.eval(end - 5 * 60) == 2.0

    def test_empty_brackets(self):
        assert soft_window_penalty(100.0, ()).is_zero()

    def test_doubled_penalties(self):
        end = 1000.0
        sc = soft_window_penalty(end, ((15, 2.0), (10, 4.0), (5, 8.0)))
        assert sc.eval(end - 60.0) == 8.0

    def test_malformed(self):
        with pytest.raises(ValueError):
            soft_window_penalty(0.0, ((10, 1.0), (15, 2.0)))
        with pytest.raises(ValueError):
            soft_window_penalty(0.0, ((15, 3.0), (10, 1.0)))


def _schedule_bits(r):
    if r is None:
        return b"None"
    return bits(r.t0, r.total_cost, r.cost_departure, r.cost_overtime,
                r.cost_worktime, r.duration, r.events_scanned)


def _scan_cases():
    """(a, model, max_duration) triples: seeded random step-cost ATFs under
    random duration costs, work-time rates and caps, some snapped onto the
    ATF's own durations and times, then hand-made edge cases."""
    rng = np.random.default_rng(8080)
    cases = []
    for _ in range(3000):
        a = rand_costed_atf(rng)
        durs = [v - t for t, v in zip(a.ts, a.vs)]
        xs = np.unique(np.concatenate([[0.0], np.round(rng.uniform(0, 3, int(rng.integers(0, 3))), 2)]))
        if rng.random() < 0.3 and len(durs) > 1:
            xs = np.unique(np.concatenate([xs, [float(rng.choice(durs))]]))
        ys = np.cumsum(np.concatenate([[0.0], rng.uniform(0, 2, len(xs) - 1)]))
        c_ot = PLCost(list(zip(xs, ys)), final_slope=float(rng.uniform(0, 2)))
        c_wt = StepCost()
        if rng.random() < 0.3:
            grid = list(a.ts) + list(a.vs)
            c_wt = StepCost(float(rng.uniform(0, 0.5)),
                            sorted((float(rng.choice(grid)) if rng.random() < 0.5
                                    else float(rng.uniform(-5, 15)), float(rng.uniform(0, 1)))
                                   for _ in range(int(rng.integers(1, 4)))))
        md = None
        r = rng.random()
        if r < 0.2:
            md = float(rng.choice(durs))
        elif r < 0.4:
            md = float(rng.uniform(0, 3))
        cases.append((a, CostModel(c_ot=c_ot, c_wt=c_wt), md))

    # cost jumps before t_lo, at t_lo, inside, at t_hi; each cheaper on the
    # left, so a start exactly on a jump pays the left value
    a = Atf(((0.0, 2.0), (4.0, 6.0), (8.0, 12.0)),
            cost=StepCost(1.0, [(-1.0, 0.5), (0.0, 3.0), (4.0, 5.0), (8.0, 9.0)]))
    cases += [(a, CostModel(), None), (a, CostModel.hourly(3600.0), None),
              (a, CostModel.hourly(3600.0), 3.0), (a, CostModel.hourly(3600.0), 1.0)]
    # a cost dearer on the right only after t_hi: not an event
    cases.append((a.with_cost(StepCost(1.0, [(8.5, 0.0)])), CostModel(), None))
    # a duration-cap crossing that rounds one ulp past t_hi
    capped = Atf(((0.1066306096972589, 2.8093320849491272),
                  (37.92676514964766, 38.26638304360709)))
    cases.append((capped, CostModel(), 0.33961789395943504))
    # a work-time rate changing at breakpoint values and times
    c_wt = StepCost(0.25, [(2.0, 1.0), (4.0, 0.5), (6.0, 2.0)])
    cases.append((a, CostModel(c_ot=PLCost(((0.0, 0.0), (3.0, 1.0)), 0.5), c_wt=c_wt), 4.0))
    return cases


def _scan_mismatches(impl):
    return [case for case in _scan_cases()
            if _schedule_bits(impl(*case)) != _schedule_bits(optimal_start_reference(*case))]


class TestMergeScan:
    """The merge-scan optimal_start equals the event-set reference bit for
    bit, events_scanned included."""

    def test_bitwise_equal_to_reference(self):
        assert _scan_mismatches(optimal_start) == []

    @pytest.mark.parametrize("old, new", [
        ("dep = min(jvals[m - 1], dep)", "dep = dep"),  # right-hand value at a jump
        ("if k < ne and extra[k] == t:", "if False:"),  # duplicates scanned twice
        ("if cap is not None and arrival - t > cap:", "if False:"),  # cap ignored
    ])
    def test_cases_catch_a_mutant(self, old, new):
        assert _scan_mismatches(mutant(scheduler.optimal_start, old, new))
