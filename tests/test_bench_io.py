"""Formats, parsers, TD generation, flattening, evaluation, and the CLI."""

import contextlib
import io
import re

import numpy as np
import pytest

from tdroute.bench_io import (DEFAULT_PROFILES, ParseError, evaluate_under,
                              flatten, generate_td, make_benchmark_instance,
                              parse_instance_text, parse_lilim, parse_solomon,
                              read_instance, read_solution, serialize_instance,
                              serialize_solution, td_arc,
                              write_instance, write_solution)
from tdroute.bench_io import cli
from tdroute.bench_io.cli import main as cli_main
from tdroute.bench_io.tdgen import SpeedProfile
from tdroute.plf import StepCost, default_epsilon
from tdroute.solver import SolverConfig, solve, validate
from oracles import td_arc_reference

RNG = np.random.default_rng(7)

# A miniature file in the exact Solomon layout (synthetic data; capacity 200
# as in the classic 100-customer series).
SOLOMON_MINI = """\
MINI5

VEHICLE
NUMBER     CAPACITY
   3          200

CUSTOMER
CUST NO.  XCOORD.   YCOORD.    DEMAND   READY TIME  DUE DATE   SERVICE TIME

    0      40         50          0          0       1236          0
    1      45         68         10        912        967         90
    2      45         70         30        825        870         90
    3      42         66         10         65        146         90
    4      42         68         10        727        782         90
    5      42         65         10         15         67         90
"""

LILIM_MINI = """\
3 200 1
0 40 50 0 0 1236 0 0 0
1 20 40 15 50 500 10 0 4
2 60 60 8 100 600 10 0 3
3 55 65 -8 200 700 10 2 0
4 25 35 -15 300 800 10 1 0
"""


@pytest.fixture()
def mini_solomon(tmp_path):
    p = tmp_path / "mini5.txt"
    p.write_text(SOLOMON_MINI)
    return str(p)


@pytest.fixture()
def mini_lilim(tmp_path):
    p = tmp_path / "lilim_mini.txt"
    p.write_text(LILIM_MINI)
    return str(p)


class TestSolomonParser:
    def test_mini_fields(self, mini_solomon):
        inst = parse_solomon(mini_solomon)
        assert inst.n_addresses == 6
        assert len(inst.items) == 5
        assert inst.vehicles[0].capacity == 200.0
        assert all(it.depot_pickup for it in inst.items)
        it = inst.items[0]
        assert (it.delivery_open, it.delivery_close, it.delivery_duration) == (912.0, 967.0, 90.0)
        d = inst.arc(0, 1).travel_bounds().lo
        assert d == pytest.approx(np.hypot(45 - 40, 68 - 50))
        assert inst.arc_dist_cost(0, 1) == pytest.approx(d)

    def test_empty_customer_list_rejected(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("EMPTY\n\nVEHICLE\nNUMBER CAPACITY\n 5 100\n\nCUSTOMER\n"
                     "CUST NO. XCOORD. YCOORD. DEMAND READY DUE SERVICE\n"
                     "0 40 50 0 0 100 0\n")
        with pytest.raises(ParseError):
            parse_solomon(str(p))

    def test_round_trip_through_native(self, mini_solomon):
        inst = parse_solomon(mini_solomon)
        text = serialize_instance(inst)
        again = parse_instance_text(text)
        assert serialize_instance(again) == text
        assert len(again.items) == len(inst.items)
        assert again.vehicles[0].capacity == inst.vehicles[0].capacity

    def test_solvable(self, mini_solomon):
        inst = parse_solomon(mini_solomon)
        sol = solve(inst, SolverConfig(seed=0, iterations=5))
        rep = validate(sol, inst)
        assert rep.feasible and not sol.unserved


class TestLiLimParser:
    def test_pairs(self, mini_lilim):
        inst = parse_lilim(mini_lilim)
        assert len(inst.items) == 2
        by_id = {it.id: it for it in inst.items}
        assert by_id[1].delivery_address == 4
        assert by_id[2].delivery_address == 3
        assert not by_id[1].depot_pickup
        assert by_id[1].demand == 15.0

    def test_solvable(self, mini_lilim):
        inst = parse_lilim(mini_lilim)
        sol = solve(inst, SolverConfig(seed=0, iterations=5))
        assert validate(sol, inst).feasible


class TestTdArc:
    def test_all_ones_profile_identity(self):
        prof = SpeedProfile("ones", 15, (1.0, 1.0))
        a = td_arc(240.0, prof, (15 * 3600.0, 21 * 3600.0))
        xs = np.linspace(a.t_min, a.t_max, 300)
        assert np.max(np.abs(a.eval_many(xs) - (xs + 240.0))) < 1e-6

    def test_matches_numeric_integration(self):
        prof = DEFAULT_PROFILES[2]
        a = td_arc(600.0, prof, (15 * 3600.0, 21 * 3600.0), eps=0)
        for dep in np.linspace(14 * 3600.0, 21.5 * 3600.0, 25):
            t, rem = dep, 600.0
            while rem > 1e-9:
                adv = min(1.0, rem / prof.slope_at(t + 1e-9))
                rem -= prof.slope_at(t + 1e-9) * adv
                t += adv
            assert abs(a.eval(dep) - t) < 2.5

    def test_rejects_bad_profile(self):
        with pytest.raises(ValueError):
            SpeedProfile("bad", 15, (1.0, 0.0))

    def test_exact_arcs_equal_reference_bit_for_bit(self):
        """The shared per-profile clock changes no float: every profile,
        two horizons taken in turn, free-flow times at and below 1e-12 and
        ones longer than the whole knot span."""
        rng = np.random.default_rng(909)
        horizons = ((15 * 3600.0, 21 * 3600.0), (0.0, 492.0))
        frees = [0.0, 1e-12, 5e-13, 1e5, 4e5]
        frees += [float(x) for x in rng.uniform(1e-9, 30.0, 20)]
        frees += [float(x) for x in rng.uniform(30.0, 4000.0, 40)]
        for free in frees:
            for horizon in horizons:
                for prof in DEFAULT_PROFILES:
                    cost = StepCost(round(free / 60.0, 3)) if rng.random() < 0.5 else None
                    got = td_arc(free, prof, horizon, cost=cost, eps=0)
                    want = td_arc_reference(free, prof, horizon, cost=cost)
                    assert (got.ts, got.vs) == (want.ts, want.vs), (free, horizon, prof.name)
                    assert got.cost is want.cost

    def test_generate_td_builds_exact_arcs(self):
        base = make_benchmark_instance(12, seed=3)
        td = generate_td(base, rng=np.random.default_rng(3))
        draws = np.random.default_rng(3)
        for p in range(base.n_addresses):
            for q in range(base.n_addresses):
                arc = base.matrix[p][q]
                prof = DEFAULT_PROFILES[int(draws.integers(0, len(DEFAULT_PROFILES)))]
                want = td_arc(arc.travel_bounds().lo, prof, base.horizon,
                              cost=arc.cost, eps=0)
                got = td.matrix[p][q]
                assert (got.ts, got.vs, got.cost) == (want.ts, want.vs, want.cost)

    def test_positive_eps_stays_within_band(self):
        rng = np.random.default_rng(31)
        horizon = (15 * 3600.0, 21 * 3600.0)
        shed = 0
        for free in rng.uniform(60.0, 3000.0, 12):
            prof = DEFAULT_PROFILES[int(rng.integers(1, len(DEFAULT_PROFILES)))]
            f = td_arc(float(free), prof, horizon, eps=0)
            for eps in (default_epsilon(f), 20.0):
                g = td_arc(float(free), prof, horizon, eps=eps)
                assert g.b <= f.b
                assert g.t_max == f.t_max
                xs = np.linspace(f.t_min - 1.0, f.t_max, 2000)
                gv, fv = g.eval_many(xs), f.eval_many(xs)
                assert np.all(gv >= fv - 1e-8)
                assert np.all(gv <= fv + eps + 1e-8)
                shed += g.b < f.b
        assert shed > 0


class TestGenerateFlatten:
    def test_generated_atfs_are_valid(self):
        base = make_benchmark_instance(12, seed=3)
        td = generate_td(base, rng=np.random.default_rng(3))
        for p in range(td.n_addresses):
            for q in range(td.n_addresses):
                td.matrix[p][q].check_invariants()

    def test_flatten_modes_and_dominance(self):
        base = make_benchmark_instance(10, seed=4)
        td = generate_td(base, rng=np.random.default_rng(4))
        worst = flatten(td, "worst")
        avg = flatten(td, "average")
        mixed = flatten(td, "mixed")
        xs = np.linspace(td.horizon[0], td.horizon[1], 40)
        for p in range(td.n_addresses):
            for q in range(td.n_addresses):
                if p == q:
                    continue
                w = worst.matrix[p][q].travel_bounds().lo
                m = mixed.matrix[p][q].travel_bounds().lo
                a = avg.matrix[p][q].travel_bounds().lo
                assert w + 1e-9 >= m >= a - 1e-9
                assert np.all(xs + w >= td.matrix[p][q].eval_many(xs) - 1e-6)

    def test_flatten_constant_instance_unchanged(self):
        base = make_benchmark_instance(6, seed=5)
        for mode in ("worst", "average", "mixed"):
            flat = flatten(base, mode)
            for p in range(base.n_addresses):
                for q in range(base.n_addresses):
                    want = base.matrix[p][q].travel_bounds().lo
                    got = flat.matrix[p][q].travel_bounds().lo
                    assert got == pytest.approx(want, abs=1e-6)

    def test_worst_plan_never_late_under_td(self):
        base = make_benchmark_instance(25, seed=6)
        td = generate_td(base, rng=np.random.default_rng(6))
        sol_w = solve(flatten(td, "worst"), SolverConfig(seed=1, iterations=3))
        ev = evaluate_under(td, sol_w)
        assert ev.n_late == 0

    def test_td_plan_cost_reproduced(self):
        base = make_benchmark_instance(20, seed=7)
        td = generate_td(base, rng=np.random.default_rng(7))
        sol = solve(td, SolverConfig(seed=1, iterations=3))
        assert validate(sol, td).feasible
        ev = evaluate_under(td, sol)
        assert ev.n_late == 0
        assert ev.cost == pytest.approx(sol.total_cost, abs=1e-6)


class TestSolutionFiles:
    def test_solution_round_trip(self, tmp_path):
        base = make_benchmark_instance(10, seed=8)
        sol = solve(base, SolverConfig(seed=2, iterations=2))
        path = tmp_path / "sol.txt"
        write_solution(sol, str(path))
        again = read_solution(str(path), base)
        assert again.total_cost == pytest.approx(sol.total_cost, abs=1e-9)
        assert validate(again, base).feasible
        assert again.brackets == () and "brackets" not in path.read_text()

    def test_error_names_the_line_counting_blank_lines(self, tmp_path):
        base = make_benchmark_instance(4, seed=1)
        lines = serialize_solution(solve(base, SolverConfig(seed=1, iterations=0))).splitlines()
        t_line = next(i for i, ln in enumerate(lines) if ln.startswith("t "))
        lines[t_line] = "t 99 " + lines[t_line].split(" ", 2)[2]
        lines[t_line:t_line] = ["", "   "]  # the tour line moves down by two
        path = tmp_path / "blank.sol"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="unknown vehicle 99") as err:
            read_solution(str(path), base)
        assert err.value.line_no == t_line + 3


@pytest.fixture(scope="module")
def late_plan(tmp_path_factory):
    """A plan made under average travel times that runs late under the TD
    instance: (TD instance path, solution path, in-memory evaluation)."""
    td = generate_td(make_benchmark_instance(30, seed=3), rng=np.random.default_rng(3))
    sol = solve(flatten(td, "average"), SolverConfig(seed=1, iterations=3))
    d = tmp_path_factory.mktemp("late")
    write_instance(td, str(d / "td.txt"))
    write_solution(sol, str(d / "avg.sol"))
    return str(d / "td.txt"), str(d / "avg.sol"), evaluate_under(td, sol)


def _malform(text, prefix, edit):
    """text with edit applied to the first line that starts with prefix."""
    lines = text.splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
    lines[i] = edit(lines[i])
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def soft_plan(tmp_path_factory):
    """city8 seed 1 after ``generate-td --seed 1``, solved by the CLI at
    seed 1 with 3 walk moves under brackets 15:1,10:2,5:4: (instance
    path, plan path, the cost the solve printed)."""
    d = tmp_path_factory.mktemp("soft")
    td = generate_td(make_benchmark_instance(8, seed=1), rng=np.random.default_rng(1))
    write_instance(td, str(d / "td.txt"))
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert cli_main(["solve", str(d / "td.txt"), "--seed", "1", "--iterations", "3",
                         "--soft-windows", "15:1,10:2,5:4", "-o", str(d / "soft.sol")]) == 0
    solved = re.search(r"cost (\S+),", printed.getvalue()).group(1)
    return str(d / "td.txt"), str(d / "soft.sol"), solved


class TestBracketedPlanFiles:
    """A plan file names its solve's brackets, and reading it rebuilds the
    tours under them."""

    def test_plan_survives_a_write_and_a_read(self, soft_plan, capsys):
        td_path, sol_path, solved = soft_plan
        capsys.readouterr()
        text = open(sol_path).read()
        assert "\nbrackets 3 15.0 1.0 10.0 2.0 5.0 4.0\n" in text
        again = read_solution(sol_path, read_instance(td_path))
        assert again.brackets == ((15.0, 1.0), (10.0, 2.0), (5.0, 4.0))
        assert serialize_solution(again) == text
        # the penalties the plan pays are part of the validated cost
        assert solved == "279.85"
        assert cli_main(["validate", td_path, sol_path]) == 0
        assert capsys.readouterr().out == f"feasible, cost {solved}\n"

    def test_validate_rejects_an_edited_cost_line(self, soft_plan, tmp_path, capsys):
        td_path, sol_path, solved = soft_plan
        path = tmp_path / "edited.sol"
        path.write_text(_malform(open(sol_path).read(), "cost ", lambda _: "cost 270.0"))
        capsys.readouterr()
        assert cli_main(["validate", td_path, str(path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("infeasible:")
        assert f"reported cost 270.000000 != recomputed {solved}" in out

    @pytest.mark.parametrize("line", ["brackets 2 15.0 1.0 10.0", "brackets 1 15.0 x",
                                      "brackets 2 10.0 1.0 15.0 2.0"],
                             ids=["short", "not-a-number", "increasing"])
    def test_malformed_brackets_line_exit_2(self, soft_plan, tmp_path, capsys, line):
        td_path, sol_path, _ = soft_plan
        path = tmp_path / "bad.sol"
        path.write_text(_malform(open(sol_path).read(), "brackets ", lambda _: line))
        with pytest.raises(ParseError) as err:
            read_solution(str(path), read_instance(td_path))
        assert err.value.line_no == 3
        assert cli_main(["validate", td_path, str(path)]) == 2
        assert "Traceback" not in capsys.readouterr().err


class TestMalformedInstance:
    CASES = {
        "truncated item line": ("i ", lambda ln: ln.rsplit(" ", 1)[0]),
        "truncated arc line": ("a ", lambda ln: " ".join(ln.split()[:7])),
        "non-numeric arc token": ("a ", lambda ln: ln.replace(ln.split()[4], "4320x", 1)),
        "non-integer vehicle id": ("v ", lambda ln: "v zero " + ln.split(" ", 2)[2]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_parse_error_and_exit_2(self, tmp_path, case):
        prefix, edit = self.CASES[case]
        text = _malform(serialize_instance(make_benchmark_instance(3, seed=1)),
                        prefix, edit)
        with pytest.raises(ParseError):
            parse_instance_text(text)
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert cli_main(["solve", str(path), "-o", str(tmp_path / "x.sol")]) == 2


class TestCli:
    def test_solve_validate_roundtrip(self, tmp_path, mini_solomon):
        out = tmp_path / "mini.sol"
        rc = cli_main(["solve", mini_solomon, "--seed", "3", "--iterations", "4",
                       "-o", str(out)])
        assert rc == 0
        assert cli_main(["validate", mini_solomon, str(out)]) == 0

    def test_solve_deterministic_bytes(self, tmp_path, mini_solomon):
        a = tmp_path / "a.sol"
        b = tmp_path / "b.sol"
        for out in (a, b):
            rc = cli_main(["solve", mini_solomon, "--seed", "7",
                           "--iterations", "4", "-o", str(out)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_generate_flatten_evaluate_pipeline(self, tmp_path):
        base = make_benchmark_instance(8, seed=9)
        base_path = tmp_path / "base.txt"
        write_instance(base, str(base_path))
        td_path = tmp_path / "td.txt"
        assert cli_main(["generate-td", str(base_path), "--seed", "1",
                         "-o", str(td_path)]) == 0
        flat_path = tmp_path / "avg.txt"
        assert cli_main(["flatten", str(td_path), "--mode", "average",
                         "-o", str(flat_path)]) == 0
        sol_path = tmp_path / "td.sol"
        assert cli_main(["solve", str(td_path), "--iterations", "2",
                         "-o", str(sol_path)]) == 0
        rc = cli_main(["evaluate", str(td_path), str(sol_path),
                       "--histogram-csv", str(tmp_path / "hist.csv")])
        assert rc == 0
        assert (tmp_path / "hist.csv").read_text().startswith("bucket,count")

    def test_bench_emits_csv(self, tmp_path):
        bdir = tmp_path / "instances"
        bdir.mkdir()
        for seed in (1, 2):
            write_instance(make_benchmark_instance(6, seed=seed),
                           str(bdir / f"i{seed}.txt"))
        report = tmp_path / "report.csv"
        rc = cli_main(["bench", str(bdir), "--iterations", "1",
                       "--report", str(report)])
        assert rc == 0
        lines = report.read_text().strip().splitlines()
        assert lines[0] == "instance,tours,cost,time_s"
        assert len(lines) == 3

    def test_bench_exits_1_on_an_infeasible_plan(self, tmp_path, monkeypatch, capsys):
        """A plan that validate() rejects is reported INFEASIBLE and the run
        exits 1, after the other instances are solved and the report is
        written."""
        bdir = tmp_path / "instances"
        bdir.mkdir()
        for seed in (1, 2):
            write_instance(make_benchmark_instance(6, seed=seed),
                           str(bdir / f"i{seed}.txt"))
        real = cli.validate
        seen = []

        def rejecting_first(sol, inst):
            rep = real(sol, inst)
            seen.append(inst.name)
            if len(seen) == 1:
                rep.add("stop 1 served late")
            return rep

        monkeypatch.setattr(cli, "validate", rejecting_first)
        report = tmp_path / "report.csv"
        rc = cli_main(["bench", str(bdir), "--iterations", "1",
                       "--report", str(report)])
        assert rc == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0].endswith("INFEASIBLE") and out[1].endswith(" ok")
        assert len(report.read_text().strip().splitlines()) == 3

    @pytest.mark.parametrize("flag", [["--workers", "1"], ["-W", "1"],
                                      ["--mode", "default"]],
                             ids=["workers", "W", "mode"])
    def test_removed_solver_flags_exit_2(self, tmp_path, mini_solomon, flag):
        assert cli_main(["solve", mini_solomon, *flag,
                         "-o", str(tmp_path / "x.sol")]) == 2

    def test_validate_reports_unschedulable_plan(self, late_plan, capsys):
        td_path, sol_path, _ = late_plan
        assert cli_main(["validate", td_path, sol_path]) == 1
        out = capsys.readouterr().out
        assert out.startswith("infeasible:")
        assert "has an empty feasible window" in out

    def test_evaluate_reports_late_plan(self, late_plan, capsys):
        td_path, sol_path, report = late_plan
        assert report.n_late >= 1
        assert cli_main(["evaluate", td_path, sol_path]) == 1
        assert capsys.readouterr().out == f"{report}\n"

    def test_usage_error_exit_2(self, tmp_path):
        assert cli_main(["solve", str(tmp_path / "missing.txt"),
                         "-o", str(tmp_path / "x.sol")]) == 2

    @pytest.mark.parametrize("spec", ["15", "x:1", "5:1,10:2"],
                             ids=["no-colon", "not-a-number", "increasing"])
    def test_malformed_soft_windows_exit_2(self, tmp_path, capsys, spec):
        """A malformed bracket spec is a usage error, reported in one line
        before anything is read or solved."""
        base_path = tmp_path / "b.txt"
        write_instance(make_benchmark_instance(4, seed=10), str(base_path))
        out = tmp_path / "soft.sol"
        assert cli_main(["solve", str(base_path), "--soft-windows", spec,
                         "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: argument --soft-windows" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_soft_windows_flag(self, tmp_path):
        base = make_benchmark_instance(8, seed=10)
        base_path = tmp_path / "b.txt"
        write_instance(base, str(base_path))
        out = tmp_path / "soft.sol"
        rc = cli_main(["solve", str(base_path), "--iterations", "1",
                       "--soft-windows", "15:1,10:2,5:4", "-o", str(out)])
        assert rc == 0
