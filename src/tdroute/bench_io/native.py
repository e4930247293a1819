"""Line-oriented native instance and solution formats.

Floats are written with repr() so parse(serialize(x)) reproduces x bit for
bit.  The arc matrix is stored as explicit breakpoint lists with attached
cost pieces, which keeps files human-diffable and language-agnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..plf import Atf, EmptyDomain, StepCost
from ..solver import Instance, Item, Solution, Tour, Vehicle


class ParseError(ValueError):
    def __init__(self, msg, line_no=None):
        where = f" (line {line_no})" if line_no is not None else ""
        super().__init__(f"{msg}{where}")
        self.line_no = line_no


def _fmt(x):
    if math.isinf(x):
        return "inf"
    return repr(float(x))


def serialize_instance(inst):
    out = ["TDROUTE-INSTANCE 1"]
    out.append(f"name {inst.name.replace(' ', '_')}")
    out.append(f"addresses {inst.n_addresses}")
    out.append(f"depot {inst.depot}")
    out.append(f"horizon {_fmt(inst.horizon[0])} {_fmt(inst.horizon[1])}")
    out.append(f"vehicles {len(inst.vehicles)}")
    for v in inst.vehicles:
        out.append("v {} {} {} {} {} {} {} {} {}".format(
            v.id, v.start_address, v.end_address, _fmt(v.avail_lo), _fmt(v.avail_hi),
            _fmt(v.fixed_cost), _fmt(v.time_cost_per_hour), _fmt(v.max_duration),
            _fmt(v.capacity)))
    out.append(f"items {len(inst.items)}")
    for it in inst.items:
        out.append("i {} {} {} {} {} {} {} {} {} {} {} {}".format(
            it.id, 1 if it.depot_pickup else 0,
            it.pickup_address, _fmt(it.pickup_open), _fmt(it.pickup_close),
            _fmt(it.pickup_duration),
            it.delivery_address, _fmt(it.delivery_open), _fmt(it.delivery_close),
            _fmt(it.delivery_duration), _fmt(it.demand), _fmt(it.penalty)))
    n = inst.n_addresses
    out.append(f"arcs {n * n}")
    for p in range(n):
        for q in range(n):
            a = inst.matrix[p][q]
            parts = [f"a {p} {q} {a.b}"]
            for t, v in zip(a.ts, a.vs):
                parts.append(f"{_fmt(t)} {_fmt(v)}")
            c = a.cost
            parts.append(f"c {_fmt(c.init)} {len(c.ts)}")
            for t, cv in zip(c.ts, c.cs):
                parts.append(f"{_fmt(t)} {_fmt(cv)}")
            out.append(" ".join(parts))
    out.append("end")
    return "\n".join(out) + "\n"


def write_instance(inst, path):
    with open(path, "w") as f:
        f.write(serialize_instance(inst))


def _floats(tokens, line_no):
    try:
        return [float(t) for t in tokens]
    except ValueError as e:
        raise ParseError(str(e), line_no)


def _ints(tokens, line_no):
    try:
        return [int(t) for t in tokens]
    except ValueError as e:
        raise ParseError(str(e), line_no)


def _parse_arc(tok, n, line_no):
    """(p, q, Atf) from the tokens of one arc line:
    a p q b t1 v1 .. tb vb c init k t1 c1 .. tk ck."""
    if len(tok) < 4:
        raise ParseError("truncated arc line", line_no)
    p, q, b = _ints(tok[1:4], line_no)
    if not (0 <= p < n and 0 <= q < n):
        raise ParseError(f"arc {p}->{q} outside the {n} addresses", line_no)
    c = 4 + 2 * max(b, 0)  # the cost marker
    if len(tok) < c + 3:
        raise ParseError("truncated arc line", line_no)
    if tok[c] != "c":
        raise ParseError("expected cost marker", line_no)
    [init] = _floats(tok[c + 1:c + 2], line_no)
    [k] = _ints(tok[c + 2:c + 3], line_no)
    if len(tok) != c + 3 + 2 * max(k, 0):
        raise ParseError(f"arc line has {len(tok)} tokens for {b} breakpoints "
                         f"and {k} cost pieces", line_no)
    vals = _floats(tok[4:c], line_no)
    cvals = _floats(tok[c + 3:], line_no)
    try:
        atf = Atf(zip(vals[0::2], vals[1::2]),
                  cost=StepCost(init, list(zip(cvals[0::2], cvals[1::2]))))
    except ValueError as e:
        raise ParseError(f"arc {p}->{q}: {e}", line_no)
    atf.check_invariants()
    return p, q, atf


def parse_instance_text(text):
    lines = text.splitlines()
    idx = 0

    def next_line():
        nonlocal idx
        while idx < len(lines):
            ln = lines[idx].strip()
            idx += 1
            if ln:
                return ln, idx
        raise ParseError("unexpected end of file", idx)

    def record(key, n_values):
        """The values of the next line, which must be key and n_values more."""
        ln, ln_no = next_line()
        tok = ln.split()
        if tok[0] != key:
            raise ParseError(f"expected '{key}', got '{tok[0]}'", ln_no)
        if len(tok) != n_values + 1:
            raise ParseError(f"'{key}' line has {len(tok) - 1} values, "
                             f"expected {n_values}", ln_no)
        return tok[1:], ln_no

    header, ln_no = next_line()
    if not header.startswith("TDROUTE-INSTANCE"):
        raise ParseError("not a tdroute instance file", ln_no)
    (name,), _ = record("name", 1)
    [n] = _ints(*record("addresses", 1))
    [depot] = _ints(*record("depot", 1))
    horizon = tuple(_floats(*record("horizon", 2)))

    [n_veh] = _ints(*record("vehicles", 1))
    vehicles = []
    for _ in range(n_veh):
        tok, ln_no = record("v", 9)
        vid, start, end = _ints(tok[:3], ln_no)
        lo, hi, fixed, rate, max_dur, cap = _floats(tok[3:], ln_no)
        vehicles.append(Vehicle(
            id=vid, start_address=start, end_address=end, avail_lo=lo,
            avail_hi=hi, fixed_cost=fixed, time_cost_per_hour=rate,
            max_duration=max_dur, capacity=cap))

    [n_items] = _ints(*record("items", 1))
    items = []
    for _ in range(n_items):
        tok, ln_no = record("i", 12)
        iid, p_addr, d_addr = _ints(tok[0:1] + tok[2:3] + tok[6:7], ln_no)
        p_open, p_close, p_dur = _floats(tok[3:6], ln_no)
        d_open, d_close, d_dur, demand, penalty = _floats(tok[7:], ln_no)
        items.append(Item(
            id=iid, depot_pickup=tok[1] == "1",
            pickup_address=p_addr, pickup_open=p_open,
            pickup_close=p_close, pickup_duration=p_dur,
            delivery_address=d_addr, delivery_open=d_open,
            delivery_close=d_close, delivery_duration=d_dur,
            demand=demand, penalty=penalty))

    [n_arcs] = _ints(*record("arcs", 1))
    matrix = [[None] * n for _ in range(n)]
    for _ in range(n_arcs):
        ln, ln_no = next_line()
        tok = ln.split()
        if tok[0] != "a":
            raise ParseError("expected arc line", ln_no)
        p, q, atf = _parse_arc(tok, n, ln_no)
        matrix[p][q] = atf
    ln, ln_no = next_line()
    if ln != "end":
        raise ParseError("expected end marker", ln_no)
    for p in range(n):
        for q in range(n):
            if matrix[p][q] is None:
                raise ParseError(f"missing arc {p}->{q}")
    return Instance(name, matrix, items, vehicles, horizon=horizon, depot=depot)


def read_instance(path):
    with open(path) as f:
        return parse_instance_text(f.read())


# -- solutions -------------------------------------------------------------


def serialize_solution(sol):
    out = ["TDROUTE-SOLUTION 1"]
    out.append(f"instance {sol.instance.name.replace(' ', '_')}")
    out.append(f"cost {_fmt(sol.total_cost)}")
    unserved = sorted(sol.unserved)
    out.append("unserved {} {}".format(len(unserved), " ".join(map(str, unserved))).rstrip())
    tours = [t for t in sol.tours if t.stops]
    out.append(f"tours {len(tours)}")
    for t in tours:
        stops = " ".join(f"{s.kind}{s.item_id}" for s in t.stops)
        out.append(f"t {t.vehicle.id} {_fmt(t.schedule.t0)} {len(t.stops)} {stops}")
    out.append("end")
    return "\n".join(out) + "\n"


def write_solution(sol, path):
    with open(path, "w") as f:
        f.write(serialize_solution(sol))


@dataclass
class UnscheduledTour:
    """A tour read from a solution file that has no feasible schedule under
    the instance it was read against.  validate() reports it and
    evaluate_under reschedules it with relaxed windows; its cost is
    unknown, hence infinite."""

    vehicle: Vehicle
    stops: list
    brackets: tuple = ()
    cost: float = math.inf


def read_solution(path, instance):
    """Rebuild a Solution against its instance.  Tours that cannot be
    scheduled under it come back as UnscheduledTour."""
    with open(path) as f:
        # number the lines before dropping blank ones, so errors name the
        # line as an editor shows it
        lines = [(no, ln.strip()) for no, ln in enumerate(f, start=1) if ln.strip()]
    if not lines or not lines[0][1].startswith("TDROUTE-SOLUTION"):
        raise ParseError("not a tdroute solution file", lines[0][0] if lines else 1)
    unserved = set()
    tours = []
    veh_by_id = {v.id: v for v in instance.vehicles}
    for ln_no, ln in lines[1:]:
        tok = ln.split()
        if tok[0] == "unserved":
            unserved = set(_ints(tok[2:], ln_no))
        elif tok[0] == "t":
            [vid] = _ints(tok[1:2], ln_no)
            if vid not in veh_by_id:
                raise ParseError(f"unknown vehicle {vid}", ln_no)
            stops = []
            for st in tok[4:]:
                kind = st[0]
                [item_id] = _ints([st[1:]], ln_no)
                item = instance.item_by_id.get(item_id)
                if item is None:
                    raise ParseError(f"unknown item {item_id}", ln_no)
                for s in item.stops():
                    if s.kind == kind:
                        stops.append(s)
                        break
                else:
                    raise ParseError(f"item {item_id} has no {kind} stop", ln_no)
            try:
                tours.append(Tour(instance, veh_by_id[vid], stops))
            except EmptyDomain:
                tours.append(UnscheduledTour(veh_by_id[vid], stops))
    return Solution(instance, tours, unserved)
