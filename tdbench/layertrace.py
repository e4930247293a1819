"""Span tracing of tdroute's layers from outside the package.

The tracer wraps public functions and methods of each layer by rebinding
the name in every ``tdroute`` module that holds it (and on the class for
methods), so calls made through ``from .x import f`` bindings are seen
too.  Spans (name, start, end, parent, phase) are appended to compact
in-memory arrays; nothing is written until the run ends.  A span's self
time is its duration minus the durations of its direct children.

Counts are recorded at the same boundaries: result breakpoints, empty
compositions, composes per calling module, priced insertions and the
priced evaluations that ended in a feasible schedule.

Timed (untraced) runs never import this module.
"""

from __future__ import annotations

import functools
import sys
from array import array
from importlib import import_module
from collections import defaultdict
from time import perf_counter

import numpy as np

PHASES = ("setup", "run", "check")


class Tracer:
    def __init__(self):
        self.names = []            # span id -> name
        self._ids = {}
        self.name_of = array("i")  # per span
        self.parent = array("i")
        self.phase_of = array("b")
        self.t_start = array("d")
        self.t_end = array("d")
        self.stack = []
        self.phase = 0
        self.on = False
        self.counts = [defaultdict(float) for _ in PHASES]
        self._undo = []

    # -- recording ---------------------------------------------------------

    def span_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def set_phase(self, name):
        self.phase = PHASES.index(name)

    def count(self, key, amount=1.0):
        self.counts[self.phase][key] += amount

    def wrap(self, fn, name, on_result=None, on_error=None):
        """A wrapper recording one span per call of fn."""
        nid = self.span_id(name)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            stack = tr.stack
            idx = len(tr.t_start)
            tr.name_of.append(nid)
            tr.parent.append(stack[-1] if stack else -1)
            tr.phase_of.append(tr.phase)
            tr.t_end.append(0.0)
            stack.append(idx)
            tr.t_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                tr.t_end[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def counting(self, fn, key):
        """A wrapper that only counts calls of fn (no span)."""
        tr = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tr.on:
                tr.counts[tr.phase][key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation --------------------------------------------------------

    def patch_function(self, fn, make_wrapper):
        """Rebind fn in every loaded tdroute module; make_wrapper(module
        name) gives the wrapper to bind there."""
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tdroute" or mod_name.startswith("tdroute.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, make_wrapper(mod_name))
                    hits += 1
        if hits == 0:
            raise RuntimeError(f"{fn.__qualname__} is bound in no tdroute module")

    def trace_function(self, fn, name, on_result=None):
        """One span per call of fn, through whichever module it is called."""
        wrapped = self.wrap(fn, name, on_result)
        self.patch_function(fn, lambda _mod_name: wrapped)

    def patch_method(self, cls, attr, wrapper):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name_of, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.phase_of, dtype=np.int8),
                np.frombuffer(self.t_start, dtype=np.float64),
                np.frombuffer(self.t_end, dtype=np.float64))

    def summary(self, divisors):
        """Per-span-name totals, each phase divided by its divisor.

        Returns {name: {"calls", "total_s", "self_s"}} and the merged
        counters.  "calls" counts spans not directly nested in a span of
        the same name (a multi-level store builds its upper levels through
        the same constructor).
        """
        names, parent, phase, t0, t1 = self.arrays()
        dur = t1 - t0
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        outer = np.ones(len(dur), dtype=bool)
        outer[has_parent] = names[parent[has_parent]] != names[has_parent]
        scale = np.array([1.0 / divisors[p] if divisors[p] else 0.0 for p in PHASES])[phase]
        out = {}
        for nid, name in enumerate(self.names):
            sel = names == nid
            out[name] = {
                "calls": float(np.sum(scale[sel & outer])),
                "total_s": float(np.sum((dur * scale)[sel & outer])),
                "self_s": float(np.sum((self_time * scale)[sel])),
            }
        counts = defaultdict(float)
        for p, table in zip(PHASES, self.counts):
            if not divisors[p]:
                continue
            for key, value in table.items():
                counts[key] += value / divisors[p]
        return out, counts

    def dump(self, path):
        names, parent, phase, t0, t1 = self.arrays()
        np.savez(path, span_names=np.array(self.names), name=names, parent=parent,
                 phase=phase, start=t0, end=t1, phase_names=np.array(PHASES))


def install(tracer):
    """Wrap every traced boundary of the five layers."""
    # import_module, not "import a.b as c": tdroute.plf.simplify is also
    # the name of a function re-exported by tdroute.plf
    atf_mod = import_module("tdroute.plf.atf")
    envelope = import_module("tdroute.plf.envelope")
    simplify_mod = import_module("tdroute.plf.simplify")
    scheduler = import_module("tdroute.scheduler")
    construct = import_module("tdroute.solver.construct")
    engine = import_module("tdroute.solver.engine")
    insertion = import_module("tdroute.solver.insertion")
    localsearch = import_module("tdroute.solver.localsearch")
    model = import_module("tdroute.solver.model")
    touratf = import_module("tdroute.touratf")
    tdgen = import_module("tdroute.bench_io.tdgen")
    from tdroute.plf import EmptyDomain

    tr = tracer

    # plf -------------------------------------------------------------------
    def compose_wrapper(mod_name):
        if mod_name.startswith("tdroute.solver"):
            tag = "compose.by.solver"
        elif mod_name == "tdroute.touratf":
            tag = "compose.by.touratf"
        else:
            tag = "compose.by.other"

        def on_result(args, result):
            counts = tr.counts[tr.phase]
            counts[tag] += 1
            counts["compose.bp_out"] += len(result.ts)

        def on_error(exc):
            if isinstance(exc, EmptyDomain):
                tr.count("compose.empty")
                tr.count(tag)

        return tr.wrap(atf_mod.compose, "plf.compose", on_result, on_error)

    tr.patch_function(atf_mod.compose, compose_wrapper)
    tr.patch_method(atf_mod.Atf, "__init__",
                    tr.wrap(atf_mod.Atf.__init__, "plf.atf_new"))
    tr.trace_function(atf_mod.min2, "plf.min2")

    def min_n_result(args, result):
        tr.count("min_n.bp_out", result.b)

    tr.trace_function(envelope.min_n, "plf.min_n", min_n_result)
    tr.trace_function(envelope.atf_min_n, "plf.atf_min_n")

    def simplify_result(args, result):
        tr.count("simplify.bp_in", args[0].b)
        tr.count("simplify.bp_out", result.b)

    tr.trace_function(simplify_mod.simplify, "plf.simplify", simplify_result)
    tr.trace_function(simplify_mod.polish, "plf.polish")

    # touratf ---------------------------------------------------------------
    store = touratf.SegmentStore
    tr.patch_method(store, "__init__", tr.wrap(store.__init__, "touratf.build"))
    tr.patch_method(store, "query", tr.wrap(store.query, "touratf.query"))
    tr.patch_method(store, "insert_action", tr.wrap(store.insert_action, "touratf.insert"))
    for attr in ("eval_splice", "eval_insertion"):
        tr.patch_method(store, attr, _eval_wrapper(tr, getattr(store, attr)))

    # scheduler -------------------------------------------------------------
    insertion_span = tr.span_id("solver.insertion")

    def schedule_result(args, result):
        counts = tr.counts[tr.phase]
        if result is None:
            counts["schedule.infeasible"] += 1
            return
        counts["schedule.events"] += result.events_scanned
        counts["schedule.feasible"] += 1
        if tr.stack and tr.name_of[tr.stack[-1]] == insertion_span:
            counts["insertion.useful"] += 1

    tr.trace_function(scheduler.optimal_start, "scheduler.optimal_start", schedule_result)

    # solver ----------------------------------------------------------------
    tr.trace_function(insertion.cheapest_insertion, "solver.insertion")
    for fn in (insertion.eval_single_insertion, insertion.eval_pair_insertion):
        counted = tr.counting(fn, "insertion.priced")
        tr.patch_function(fn, lambda _m, c=counted: c)
    tour = model.Tour
    for attr in ("__init__", "set_stops"):
        counted = tr.counting(tour.__dict__[attr], "tour.builds")
        tr.patch_method(tour, attr, tr.wrap(counted, "solver.tour"))
    tr.patch_method(tour, "insert_single", tr.wrap(tour.insert_single, "solver.tour"))
    tr.trace_function(construct.regret_construct, "solver.construct")
    tr.trace_function(localsearch.relocate_pass, "solver.relocate")
    tr.trace_function(localsearch.random_walk, "solver.walk")
    tr.trace_function(engine.solve, "solver.solve")

    # bench_io --------------------------------------------------------------
    tr.trace_function(tdgen.generate_td, "bench_io.generate_td")
    tr.trace_function(tdgen.td_arc, "bench_io.td_arc")


def _eval_wrapper(tr, fn):
    """Span for a store's hypothetical evaluation, plus the composes the
    store made inside it."""
    traced = tr.wrap(fn, "touratf.eval")

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        if not tr.on:
            return fn(*args, **kwargs)
        counts = tr.counts[tr.phase]
        before = counts["compose.by.touratf"]
        try:
            return traced(*args, **kwargs)
        finally:
            tr.counts[tr.phase]["touratf.eval.composes"] += (
                tr.counts[tr.phase]["compose.by.touratf"] - before)

    return counted


def layer_metrics(tracer, divisors, overhead_s):
    """The per-layer metrics, per one set-up plus one measured round."""
    spans, c = tracer.summary(divisors)

    def s(name, key):
        return spans.get(name, {}).get(key, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    compose_calls = s("plf.compose", "calls")
    eval_calls = s("touratf.eval", "calls")
    sched_calls = s("scheduler.optimal_start", "calls")
    m = {
        "plf.compose.calls": (compose_calls, "count"),
        "plf.compose.self_s": (s("plf.compose", "self_s"), "s"),
        "plf.compose.bp_out": (ratio(c["compose.bp_out"], compose_calls - c["compose.empty"]), "count"),
        "plf.compose.empty": (c["compose.empty"], "count"),
        "plf.atf_new.calls": (s("plf.atf_new", "calls"), "count"),
        "plf.atf_new.self_s": (s("plf.atf_new", "self_s"), "s"),
        "plf.min2.self_s": (s("plf.min2", "self_s"), "s"),
        "plf.min_n.self_s": (s("plf.min_n", "self_s") + s("plf.atf_min_n", "self_s"), "s"),
        "plf.min_n.bp_out": (ratio(c["min_n.bp_out"], s("plf.min_n", "calls")), "count"),
        "plf.simplify.calls": (s("plf.simplify", "calls"), "count"),
        "plf.simplify.self_s": (s("plf.simplify", "self_s"), "s"),
        "plf.simplify.bp_ratio": (ratio(c["simplify.bp_out"], c["simplify.bp_in"]), "ratio"),
        "plf.polish.self_s": (s("plf.polish", "self_s"), "s"),
        "touratf.build.calls": (s("touratf.build", "calls"), "count"),
        "touratf.build.self_s": (s("touratf.build", "self_s"), "s"),
        "touratf.eval.calls": (eval_calls, "count"),
        "touratf.eval.self_s": (s("touratf.eval", "self_s"), "s"),
        "touratf.eval.composes_per_call": (ratio(c["touratf.eval.composes"], eval_calls), "count"),
        "touratf.query.self_s": (s("touratf.query", "self_s"), "s"),
        "touratf.insert.calls": (s("touratf.insert", "calls"), "count"),
        "touratf.insert.self_s": (s("touratf.insert", "self_s"), "s"),
        "touratf.composes": (c["compose.by.touratf"], "count"),
        "scheduler.optimal_start.calls": (sched_calls, "count"),
        "scheduler.optimal_start.self_s": (s("scheduler.optimal_start", "self_s"), "s"),
        "scheduler.events_per_call": (ratio(c["schedule.events"], c["schedule.feasible"]), "count"),
        "scheduler.infeasible_ratio": (ratio(c["schedule.infeasible"], sched_calls), "ratio"),
        "solver.insertion.calls": (s("solver.insertion", "calls"), "count"),
        "solver.insertion.self_s": (s("solver.insertion", "self_s"), "s"),
        "solver.insertion.priced": (c["insertion.priced"], "count"),
        "solver.insertion.useful_ratio": (ratio(c["insertion.useful"], c["insertion.priced"]), "ratio"),
        "solver.composes": (c["compose.by.solver"], "count"),
        "solver.tour.builds": (c["tour.builds"], "count"),
        "solver.tour.self_s": (s("solver.tour", "self_s"), "s"),
        "solver.construct.self_s": (s("solver.construct", "self_s"), "s"),
        "solver.relocate.self_s": (s("solver.relocate", "self_s"), "s"),
        "solver.walk.self_s": (s("solver.walk", "self_s"), "s"),
        "solver.validate.s": (c["validate.s"], "s"),
        "bench_io.generate_td.s": (s("bench_io.generate_td", "total_s"), "s"),
        "bench_io.td_arc.calls": (s("bench_io.td_arc", "calls"), "count"),
        "bench_io.td_arc.self_s": (s("bench_io.td_arc", "self_s"), "s"),
        "bench_io.evaluate.s": (c["evaluate.s"], "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return m
