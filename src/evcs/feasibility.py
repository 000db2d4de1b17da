"""Offline feasibility oracle, minimum uniform capacity, and schedule checking.

Feasibility is decided on the interval network for preemptive scheduling
with release times and deadlines (Horn 1974; Federgruen & Groenevelt 1986).
The instance's event points (0, every arrival and departure, every change of
a stepwise power) cut [0, horizon) into `Instance.busy_spans`, whose slots
share their active sessions and power, so a span of length l is one interval
node.  source -> session arcs carry the energy demands, session -> interval
arcs the peak rate times l, interval -> sink arcs the power times l.  That
is at most 2n + 1 interval nodes plus the power changes, whatever the
horizon, for the max-flow value of the network with one node per slot.  The
instance is offline feasible exactly when the maximum flow ships every unit
of demand; Newton steps on its minimum cut give the exact minimum power.
"""
from __future__ import annotations

import bisect
import math
from typing import Optional

from .dynamics import RATE_TOL, RunVerdict, Schedule
from .model import ContractError, Instance, Violation
from .netflow import FlowGraph

#: relative tolerance on the energy-demand equality
DEMAND_TOL = 1e-6

SOURCE, SINK = 0, 1


def _build_network(instance: Instance, power_override: float | None = None):
    """Interval network; returns (graph, session arcs, sink arcs).

    `session_arcs[k]` lists session k's (start, end, arc) per interval of its
    window and `sink_arcs` every interval node's (start, end, arc), each in
    time order.  Session k's node is 2 + k.  An override power keeps the
    profile's change points as cuts, which leave the max-flow value as it is.
    """
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
            session_arcs[k].append((a, b, g.add_edge(2 + k, node, sessions[k].max_rate * length)))
        p = instance.power.at(a) if power_override is None else power_override
        sink_arcs.append((a, b, g.add_edge(node, SINK, p * length)))
    return g, session_arcs, sink_arcs


def _solve(instance: Instance, power_override: float | None):
    """Max flow on the interval network; returns (ships the demand, graph, session arcs)."""
    demand = sum(s.energy for s in instance.sessions)
    g, session_arcs, _ = _build_network(instance, power_override)
    value = g.max_flow(SOURCE, SINK)
    return not value < demand - DEMAND_TOL * max(1.0, demand), g, session_arcs


def is_offline_feasible(instance: Instance, power_override: float | None = None) -> bool:
    """The flag of `offline_feasible`, without building the witness's rows."""
    return _solve(instance, power_override)[0]


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
    cut's line until the flow ships the demand; each raises P by at least
    DEMAND_TOL * max(1, D) / k.  P only rises, so each step raises the sink
    arcs to P*l and the next max-flow augments the flow already sent.
    """
    for s in instance.sessions:
        if not (math.isfinite(s.energy) and math.isfinite(s.max_rate)):
            raise ContractError(f"session {s.id} has non-finite energy or max rate")
        if s.energy > s.max_rate * s.sojourn:
            raise ContractError(f"session {s.id} individually unsatisfiable")
    demand = sum(s.energy for s in instance.sessions)
    p = 0.0
    g, _, sink_arcs = _build_network(instance, p)
    short = demand - g.max_flow(SOURCE, SINK)
    while short > DEMAND_TOL * max(1.0, demand):
        reach = g.source_side(SOURCE)
        # the paired arc leads back to the interval node
        k = sum(b - a for a, b, idx in sink_arcs if reach[g.to[idx ^ 1]])
        if k == 0:
            raise ContractError("no constant power ships the demand inside the horizon")
        p += short / k
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
    slot's total is the same zero, so it is checked once per stretch of
    `Instance.spans`, whose power is the same at every slot, and the time
    does not grow with the horizon.
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
    idle = 0.0 if schedule.rates else 0  # a slot outside every window
    for a, b, _ in instance.spans():
        p = instance.power.at(a)  # the power of every slot of the stretch
        if idle > p + RATE_TOL * max(1.0, p):
            slots = range(a, b)  # each slot outside the windows breaks it too
        else:
            slots = windowed[bisect.bisect_left(windowed, a):bisect.bisect_left(windowed, b)]
        for t in slots:
            p = instance.power.at(t)
            total = totals.get(t, idle)
            if total > p + RATE_TOL * max(1.0, p):
                violations.append(Violation(
                    "power-bound", f"slot {t}", f"total {total} exceeds P({t}) = {p}"))
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
