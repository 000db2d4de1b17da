"""Offline feasibility oracle, minimum uniform capacity, and schedule checking.

Feasibility is decided on the interval network for preemptive scheduling
with release times and deadlines (Horn 1974; Federgruen & Groenevelt 1986).
The instance's event points (0, every arrival and departure, every change of
a stepwise power) cut [0, horizon) into `Instance.busy_spans`, whose slots
share their active sessions and power, so a span of length l is one interval
node.  source -> session arcs carry the energy demands, session -> interval
arcs the peak rate times l up to the demand, interval -> sink arcs the power
times l: at most 2n + 1 interval nodes plus the power changes, whatever the
horizon, for the max-flow value of the network with one node per slot.  The
instance is offline feasible exactly when the maximum flow ships every unit
of demand; Newton steps on its minimum cut give the exact minimum power,
and a cut whose capacity falls short of the demand proves infeasibility
without a max-flow (`cut_capacity`).
"""
from __future__ import annotations

import bisect
import math
from typing import Optional

from .dynamics import DEMAND_TOL, RATE_TOL, RunVerdict, Schedule
from .model import ContractError, Instance, Violation
from .netflow import ARC_TOL, FlowGraph

SOURCE, SINK = 0, 1


def _network(instance: Instance):
    """The instance's interval network with every sink arc at capacity 0:
    (graph, session arcs, sink arcs).  It is built once per instance and
    kept in the instance's `__dict__`, as `functools.cached_property` keeps
    a value, so the checks of one instance share its nodes and arcs.

    `session_arcs[k]` lists session k's (start, end, arc) per interval of its
    window and `sink_arcs` every interval node's (start, end, arc), each in
    time order.  Session k's node is 2 + k, its source arc 2k; its arcs are
    capped at its energy, so their tolerance is at the demand's scale.
    """
    built = instance.__dict__.get("_interval_network")
    if built is not None:
        return built
    spans = list(instance.busy_spans())
    sessions = instance.sessions
    g = FlowGraph(2 + len(sessions) + len(spans))
    for k, s in enumerate(sessions):
        g.add_edge(SOURCE, 2 + k, s.energy)
    session_arcs = [[] for _ in sessions]
    sink_arcs = []
    for node, (a, b, members) in enumerate(spans, 2 + len(sessions)):
        length = b - a
        for k in members:
            cap, e = sessions[k].max_rate * length, sessions[k].energy
            session_arcs[k].append((a, b, g.add_edge(2 + k, node, cap if cap < e else e)))
        sink_arcs.append((a, b, g.add_edge(node, SINK, 0.0)))
    built = instance.__dict__["_interval_network"] = g, session_arcs, sink_arcs
    return built


def _build_network(instance: Instance, power_override: float | None = None):
    """A fresh copy of the interval network (`_network`), with no flow and
    each interval's sink arc at its power times its length; returns (graph,
    session arcs, sink arcs).  An override power keeps the profile's change
    points as cuts, which keep the max-flow value."""
    template, session_arcs, sink_arcs = _network(instance)
    g, power = template.copy(), instance.power
    for a, b, idx in sink_arcs:
        g.reset_arc(idx, (power.at(a) if power_override is None else power_override) * (b - a))
    return g, session_arcs, sink_arcs


def ships_demand(residuals, demands) -> bool:
    """Whether each source arc's residual, what its session has not shipped,
    is at most DEMAND_TOL of its demand: the rule a run is judged by."""
    for r, d in zip(residuals, demands):
        if not r <= DEMAND_TOL * d:  # NaN fails too
            return False
    return True


def _solve(instance: Instance, power_override: float | None, demands=None):
    """Max flow on the interval network; returns (ships `demands`, by default
    the energies, graph, session arcs)."""
    g, session_arcs, _ = _build_network(instance, power_override)
    g.max_flow(SOURCE, SINK)
    demands = demands or [s.energy for s in instance.sessions]
    return ships_demand(g.cap[0:2 * len(demands):2], demands), g, session_arcs


def is_offline_feasible(instance: Instance, power_override: float | None = None,
                        demands=None) -> bool:
    """The flag of `offline_feasible`, without the witness's rows; OLP judges a
    residual by the `demands` its sessions arrived with, as their run is."""
    return _solve(instance, power_override, demands)[0]


def failed_cut(instance: Instance, demands=None) -> list[bool] | None:
    """None when `is_offline_feasible(instance, demands=demands)`, and
    otherwise, per session, whether its node lies on the source side of the
    max-flow's last level search: a minimum cut."""
    ships, g, _ = _solve(instance, None, demands)
    if ships:
        return None
    level = g.source_levels
    return [level[node] >= 0 for node in range(2, 2 + len(instance.sessions))]


def cut_capacity(instance: Instance, sourced) -> float:
    """The capacity of the least cut of the interval network whose source
    side holds, of the session nodes, those that `sourced` flags: each other
    session's source arc, and per interval the lesser of its sink arc and
    the flagged sessions' arcs into it.  An arc a max-flow cannot use, whose
    capacity is not above 0 (NaN included), counts 0.  Every cut's capacity
    is at least the max-flow value (Ford & Fulkerson 1956), so one below the
    demand proves the instance infeasible."""
    sessions = instance.sessions
    return _cut_capacity([s.energy for s in sessions], [s.max_rate for s in sessions], sourced,
                         instance.busy_spans(), instance.power)


def residual_cut_capacity(power, t: int, stops, energies, rates, sourced) -> float:
    """`cut_capacity` of the instance whose session k arrives at slot t and
    departs at `stops[k]`, at most its horizon, with energy `energies[k]`
    and peak rate `rates[k]`, under `power`, without building it: its busy
    spans are cut by t (or 0, if later), the later stops and the power's
    changes between them, and session k is active on those before
    `stops[k]`, in session order."""
    lo = max(t, 0)
    points = sorted({lo, *[stop for stop in stops if stop > lo],
                     *power.changes(lo, max(stops, default=lo))})
    spans, members = [], range(len(stops))
    for a, b in zip(points, points[1:]):
        members = [k for k in members if stops[k] > a]
        spans.append((a, b, members))
    return _cut_capacity(energies, rates, sourced, spans, power)


def _cut_capacity(energies, rates, sourced, spans, power) -> float:
    """`cut_capacity` of sessions with these energies and peak rates over
    the busy `spans`, each (start, end, positions of its members)."""
    total = 0.0
    for e, on in zip(energies, sourced):
        if not on and e > 0.0:
            total += e
    for a, b, members in spans:
        length, into = b - a, 0.0
        for k in members:
            if sourced[k]:
                cap, e = rates[k] * length, energies[k]
                cap = cap if cap < e else e  # `_network`'s arc
                if cap > 0.0:
                    into += cap
        p = power.at(a) * length
        if p > 0.0:
            total += p if p < into else into
    return total


def offline_feasible(
    instance: Instance, power_override: float | None = None
) -> tuple[bool, Optional[Schedule]]:
    """Max-flow feasibility test; returns a witness schedule when feasible.

    The witness spreads each interval's flow evenly over its slots, at f / l
    per slot: at most the peak rate, and a slot total of at most the power.
    Each row is a window over its session's sojourn clipped to the horizon.
    """
    feasible, g, session_arcs = _solve(instance, power_override)
    if not feasible:
        return False, None
    rates, starts = {}, {}
    for s, arcs in zip(instance.sessions, session_arcs):
        row = []
        for a, b, idx in arcs:
            row += [g.flow_on(idx) / (b - a)] * (b - a)
        rates[s.id], starts[s.id] = tuple(row), arcs[0][0] if arcs else 0
    return True, Schedule(instance.horizon, rates, starts)


def min_power_capacity(instance: Instance) -> float:
    """Smallest constant station power P* making the instance offline feasible.

    The max-flow value is the minimum over cuts of a + k*P, k the total length
    of the intervals on the cut's source side (Gallo, Grigoriadis & Tarjan
    1989).  Newton steps from P = 0 move P to the root of the current min
    cut's line, and by at least 2 * ARC_TOL * P, the least a sink arc's
    tolerance sees, until `ships_demand`.  P only rises, so each step raises
    the sink arcs to P*l and the next max-flow augments the flow already sent.
    Each step's cut is the last level search of the max-flow before it.
    """
    for s in instance.sessions:
        if not (math.isfinite(s.energy) and math.isfinite(s.max_rate)):
            raise ContractError(f"session {s.id} has non-finite energy or max rate")
        if s.energy > s.max_rate * s.sojourn:
            raise ContractError(f"session {s.id} individually unsatisfiable")
    energies = [s.energy for s in instance.sessions]
    n, demand, p = len(energies), sum(energies), 0.0
    g, _, sink_arcs = _build_network(instance, p)
    short = demand - g.max_flow(SOURCE, SINK)
    while not ships_demand(g.cap[0:2 * n:2], energies):
        level = g.source_levels
        # the paired arc leads back to the interval node
        k = sum(b - a for a, b, idx in sink_arcs if level[g.to[idx ^ 1]] >= 0)
        if k == 0:
            raise ContractError("no constant power ships the demand inside the horizon")
        p += max(short / k, 2 * ARC_TOL * p)
        for a, b, idx in sink_arcs:
            g.raise_capacity(idx, p * (b - a))
        short -= g.max_flow(SOURCE, SINK)
    return p


def validate_schedule(instance: Instance, schedule: Schedule) -> RunVerdict:
    """Check the box/window, per-slot power, and demand-equality constraints.

    Each row is walked over its window and its session's clipped sojourn:
    the rate bound inside the sojourn, zero outside it.  Slot totals, summed
    window by window in row order, meet the power at every slot, and each
    delivered energy its demand.  A window must lie inside [0, horizon).
    The power is checked slot by slot only where a window lies; each other
    slot's total is the same zero and the power is the same at every slot of
    a stretch of `Instance.spans`, so each run of such slots in a stretch is
    checked once and, over the bound, is one violation naming its slots:
    neither the time nor the verdict grows with the horizon.
    """
    horizon = instance.horizon
    if (schedule.horizon != horizon or set(schedule.rates) != {s.id for s in instance.sessions}
            or any(not 0 <= schedule.starts.get(sid, 0) <= horizon - len(row)
                   for sid, row in schedule.rates.items())):
        raise ContractError("schedule dimensions do not match the instance")
    violations: list[Violation] = []
    for s in instance.sessions:
        row, start = schedule.rates[s.id], schedule.starts.get(s.id, 0)
        arrival, departure = (min(max(x, 0), horizon) for x in (s.arrival, s.departure))
        lo, tol = min(start, arrival), RATE_TOL * max(1.0, s.max_rate)
        for t, r in zip(range(lo, max(start + len(row), departure)),
                        schedule._rates_from(s.id, lo)):
            if arrival <= t < departure:
                if r < -tol or r > s.max_rate + tol:
                    violations.append(Violation(
                        "rate-bound", s.id, f"r({t}) = {r} outside [0, {s.max_rate}]"))
            elif abs(r) > tol:
                violations.append(Violation(
                    "rate-outside-window", s.id, f"r({t}) = {r} outside sojourn"))
    totals: dict[int, float] = {}
    for sid, row in schedule.rates.items():
        for t, r in enumerate(row, schedule.starts.get(sid, 0)):
            totals[t] = totals.get(t, 0) + r
    windowed = sorted(totals)
    idle = 0.0 if schedule.rates else 0  # the total of a slot outside every window
    for a, b, _ in instance.spans():
        p = instance.power.at(a)  # the power of every slot of the stretch
        bound, lo = p + RATE_TOL * max(1.0, p), a
        inside = windowed[bisect.bisect_left(windowed, a):bisect.bisect_left(windowed, b)]
        for t in inside + [b]:
            if lo < t and idle > bound:  # the slots lo..t-1 lie outside every window
                violations.append(Violation(
                    "power-bound", f"slots {lo}-{t - 1}",
                    f"total {idle} exceeds P = {instance.power.at(lo)} at each slot"))
            if t < b and totals[t] > bound:
                violations.append(Violation(
                    "power-bound", f"slot {t}",
                    f"total {totals[t]} exceeds P({t}) = {instance.power.at(t)}"))
            lo = t + 1
    unmet = {}
    for s in instance.sessions:
        short = s.energy - schedule.delivered(s.id)
        unmet[s.id] = max(short, 0.0)
        if short > DEMAND_TOL * s.energy:
            violations.append(Violation(
                "demand-unmet", s.id, f"delivered misses demand by {short}"))
        elif short < -DEMAND_TOL * s.energy:
            violations.append(Violation(
                "demand-exceeded", s.id, f"delivered exceeds demand by {-short}"))
    return RunVerdict(not violations, unmet, tuple(violations))
